"""Dense exact linear algebra over a prime field.

Matrices are plain 2-D numpy arrays of residues in [0, q), and every call
takes the modulus q: an array does not carry its field. Solving and rank use
plain Gaussian elimination with leftmost-nonzero pivoting (exact arithmetic
needs no pivot scaling) and return int64 arrays.

Every matrix product runs on one kernel, `matmul_mod`: it multiplies arrays
of reduced residues on BLAS in float32, summing the inner side in spans short
enough that every partial sum is an exact float32 integer, and returns uint16
residues. Word-sized products, and q > 4096 (too large for even one exact
product), run in int64. Vandermonde matrices, and the inverses of square
ones, are built once per (field, points, width) and returned read-only.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import InconsistentSystemError, ParameterError, SingularMatrixError
from .field import Fq


# output entries per kernel step, whatever the operand length: the float32
# product and its reduction temporary are 4 MB each (int64: one, 8 MB)
_CHUNK = 1 << 20
# below this many multiply-adds the BLAS call and the float reduction cost
# more than an int64 product (the per-block codec's word-sized products)
_SMALL = 1 << 14


def _compute_dtype(rows: int, inner: int, cols: int, q: int):
    """int64 for word-sized products and for q > 4096, where one product of
    residues plus a carry below q can pass 2**24; float32 otherwise."""
    if rows * inner * cols >= _SMALL and (q - 1) ** 2 + q <= 2**24:
        return np.float32
    return np.int64


def _reduce(p: np.ndarray, q: int) -> np.ndarray:
    """p mod q for nonnegative exact integers p. In float, p - floor(p/q)q
    with a rounded 1/q is off by at most one q either way, fixed up after."""
    if p.dtype == np.int64:
        return np.remainder(p, q, out=p)
    f = p * (1 / q)
    np.floor(f, out=f)
    f *= q
    p -= f
    np.add(p, q, out=p, where=p < 0)
    np.subtract(p, q, out=p, where=p >= q)
    return p


def matmul_mod(a, b, q: int) -> np.ndarray:
    """Exact (a @ b) % q as uint16, for 2-D arrays of residues in [0, q) of
    any integer or float dtype. The product runs in `_compute_dtype`, as the
    transpose of b^t @ a^t when that has fewer output columns, in steps of
    at most `_CHUNK` output entries along the rows. In float32 each step sums
    the inner side in spans whose sum plus a reduced carry stays below 2**24,
    so exact, and reduces after each."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ParameterError(f"shape mismatch for product: {a.shape} @ {b.shape}")
    flip = a.shape[0] < b.shape[1]
    if flip:
        a, b = b.T, a.T
    (rows, inner), cols = a.shape, b.shape[1]
    kind = _compute_dtype(rows, inner, cols, q)
    span = (2**24 - q) // (q - 1) ** 2 if kind is np.float32 else inner or 1
    step = max(_CHUNK // (cols or 1), 1)
    bk = b.astype(kind, copy=False)
    out = np.empty((rows, cols), dtype=np.uint16)
    for i in range(0, rows, step):
        part = a[i : i + step].astype(kind, copy=False)
        acc = _reduce(part @ bk if span >= inner else part[:, :span] @ bk[:span], q)
        for j in range(span, inner, span):
            p = part[:, j : j + span] @ bk[j : j + span]
            p += acc
            acc = _reduce(p, q)
        out[i : i + step] = acc
    return out.T if flip else out


def vandermonde(field: Fq, points: Sequence[int], width: int) -> np.ndarray:
    """Rows [1, x, x^2, ..., x^(width-1)] for each evaluation point x, as a
    read-only int64 array built once per (field, points, width) and shared."""
    return _vandermonde(field, tuple(points), width)


@functools.lru_cache(maxsize=1024)
def _vandermonde(field: Fq, points: tuple[int, ...], width: int) -> np.ndarray:
    pts = [field.check(x) for x in points]
    if len(set(pts)) != len(pts):
        raise ParameterError("Vandermonde points must be pairwise distinct")
    if width < 0:
        raise ParameterError("width must be nonnegative")
    a = np.empty((len(pts), width), dtype=np.int64)
    if width:
        col = np.ones(len(pts), dtype=np.int64)
        xs = np.asarray(pts, dtype=np.int64)
        for j in range(width):
            a[:, j] = col
            col = col * xs % field.q
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=1024)
def vandermonde_inverse(field: Fq, points: tuple[int, ...]) -> np.ndarray:
    """The inverse of the square Vandermonde matrix at ``points``, as a
    read-only int64 array built once per (field, points) by one elimination
    of len(points) rows, and shared."""
    v = _vandermonde(field, points, len(points))
    inv = _solve_common(v, np.eye(len(points), dtype=np.int64), field.q, True)
    inv.setflags(write=False)
    return inv


def inv_mod(a, q: int) -> np.ndarray:
    """Elementwise a^(q-2) mod q, the inverse of each nonzero residue (0 for
    0), by whole-array squarings."""
    a = np.remainder(a, q, dtype=np.int64)
    out = np.ones_like(a)
    for bit in bin(q - 2)[2:]:
        out = out * out % q
        if bit == "1":
            out = out * a % q
    return out


def _rref(arr: np.ndarray, q: int, stop_col: int) -> list[int]:
    """In-place reduced row echelon form mod q; pivots searched in columns
    [0, stop_col). Returns the pivot column list."""
    rows = arr.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(stop_col):
        if r == rows:
            break
        pivot = int(arr[r, c])
        if not pivot:
            nz = arr[r:, c].nonzero()[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            arr[[r, p]] = arr[[p, r]]
            pivot = int(arr[r, c])
        # row stays below q**2 and the products below q**3 < 2**63 (q < 2**16),
        # so one reduction per pivot suffices
        row = arr[r] * pow(pivot, q - 2, q)
        arr -= arr[:, c : c + 1] * row
        arr[r] = row
        arr %= q
        pivots.append(c)
        r += 1
    return pivots


def _solve_common(a, y, q: int, require_unique: bool) -> np.ndarray:
    if a.shape[0] != y.shape[0]:
        raise ParameterError(f"rhs has {y.shape[0]} rows, matrix has {a.shape[0]}")
    cols = a.shape[1]
    aug = np.concatenate([a, y], axis=1, dtype=np.int64)
    pivots = _rref(aug, q, cols)
    rank_a = len(pivots)
    # rows below rank_a are zero in the A block; any nonzero rhs there means
    # the system has no solution.
    if aug[rank_a:, cols:].any():
        raise InconsistentSystemError("linear system has no solution")
    if require_unique and rank_a < cols:
        raise SingularMatrixError(
            f"matrix has column rank {rank_a} < {cols}; solution not unique"
        )
    x = np.zeros((cols, y.shape[1]), dtype=np.int64)
    x[pivots] = aug[:rank_a, cols:]
    return x


def solve(a, y, q: int) -> np.ndarray:
    """Unique x with a @ x = y mod q; a must have full column rank."""
    return _solve_common(a, y, q, require_unique=True)


def solve_any(a, y, q: int) -> np.ndarray:
    """Some x with a @ x = y mod q (free variables set to zero)."""
    return _solve_common(a, y, q, require_unique=False)


def rank(a, q: int) -> int:
    a = np.array(a, dtype=np.int64)
    return len(_rref(a, q, a.shape[1]))


def inverse(a, q: int) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ParameterError("only square matrices have inverses")
    return solve(a, np.eye(a.shape[0], dtype=np.int64), q)


def left_inverse(a, q: int) -> np.ndarray:
    """L with L @ a = I mod q; a must have full column rank."""
    try:
        x = solve_any(a.T, np.eye(a.shape[1], dtype=np.int64), q)
    except InconsistentSystemError:
        raise SingularMatrixError("matrix has no left inverse (column rank deficient)")
    return x.T
