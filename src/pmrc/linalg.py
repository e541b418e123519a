"""Dense exact linear algebra over a prime field.

Matrices are plain 2-D numpy arrays of residues in [0, q), and every call
takes the modulus q: an array does not carry its field. Solving uses plain
Gaussian elimination with leftmost-nonzero pivoting (exact arithmetic
needs no pivot scaling) and returns int64 arrays.

The codec's bulk products run on one kernel, `matmul_mod`, which returns
uint16 residues. It makes each product whole on BLAS, in float32 when the
whole inner sum of reduced residues stays below 2**22 and in float64 (any
q < 2**16) otherwise, and reduces it once, exactly, with no fix-up pass.
Word-sized products run in int64. The product-matrix reconstruction's
per-word solves bypass it: `shards._mbr_fill` multiplies int64 arrays with
`@` and `shards._msr_operands` with `np.einsum`, neither on BLAS.
Vandermonde matrices, and the inverses of square ones, are built once per
(field, points, width) and returned read-only.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import InconsistentSystemError, ParameterError, SingularMatrixError
from .field import Fq


# output entries per kernel step, whatever the operand length: the product
# and its reduction temporary stay in cache (256 KB each in float32)
_STEP = 1 << 16
# rows per step at least, so that a wide b is not streamed again every step
_STEP_ROWS = 256
# below this many multiply-adds the BLAS call and the float reduction cost
# more than an int64 product (the per-block codec's word-sized products)
_SMALL = 1 << 14


def _compute_dtype(rows: int, inner: int, cols: int, q: int):
    """int64 for word-sized products; otherwise float32 when the whole inner
    sum, at most inner * (q-1)**2, stays below 2**22, float64 when it stays
    below 2**51 (any inner < 2**19 at q < 2**16): the bounds under which
    `_reduce` is exact. int64 past both."""
    top = inner * (q - 1) ** 2
    if rows * inner * cols < _SMALL or top >= 2**51:
        return np.int64
    return np.float32 if top < 2**22 else np.float64


def _reduce(p: np.ndarray, q: int) -> np.ndarray:
    """p mod q for nonnegative exact integers p, in place. In float it is
    p - q * floor((p + 1/2) * fl(1/q)), exact with no fix-up: (p + 1/2)/q
    lies at least 1/(2q) from every integer, and while p < 2**22 (float32)
    or p < 2**51 (float64) the two roundings move it by less."""
    if p.dtype == np.int64:
        return np.remainder(p, q, out=p)
    f = p + 0.5
    f *= 1 / q
    np.floor(f, out=f)
    f *= q
    p -= f
    return p


def matmul_mod(a, b, q: int) -> np.ndarray:
    """Exact (a @ b) % q as uint16, for 2-D arrays of residues in [0, q) of
    any integer or float dtype. The product runs in `_compute_dtype`, whole
    inner side at once, as the transpose of b^t @ a^t when that has fewer
    output columns, in steps of about `_STEP` output entries (`_STEP_ROWS`
    rows at least) along the rows, each reduced as it is made."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ParameterError(f"shape mismatch for product: {a.shape} @ {b.shape}")
    flip = a.shape[0] < b.shape[1]
    if flip:
        a, b = b.T, a.T
    (rows, inner), cols = a.shape, b.shape[1]
    kind = _compute_dtype(rows, inner, cols, q)
    step = max(_STEP // (cols or 1), _STEP_ROWS)
    bk = b.astype(kind, copy=False)
    out = np.empty((rows, cols), dtype=np.uint16)
    for i in range(0, rows, step):
        out[i : i + step] = _reduce(a[i : i + step].astype(kind, copy=False) @ bk, q)
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
