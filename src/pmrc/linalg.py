"""Dense exact linear algebra over a prime field.

Matrices are immutable values backed by int64 numpy arrays; every operation
reduces mod q. Solving and rank use plain Gaussian elimination with
leftmost-nonzero pivoting (exact arithmetic needs no pivot scaling).

Every matrix product, `MatrixFq @` included, runs on one kernel, `matmul_mod`:
it multiplies arrays of reduced residues on BLAS in float32, summing the inner
side in spans short enough that every partial sum is an exact float32
integer, and returns uint16 residues. Word-sized products, and q > 4096 (too
large for even one exact product), run in int64. Vandermonde matrices are
built once per (field, points, width).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    FieldMismatchError,
    InconsistentSystemError,
    ParameterError,
    SingularMatrixError,
)
from .field import Fq


class MatrixFq:
    """Immutable dense matrix over F_q."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Fq, data, _trusted: bool = False):
        a = np.array(data, dtype=np.int64, copy=True)
        if a.ndim != 2:
            raise ParameterError(f"matrix data must be 2-D, got ndim={a.ndim}")
        if not _trusted and a.size:
            if int(a.min()) < 0 or int(a.max()) >= field.q:
                raise ParameterError("matrix entries must be reduced mod q")
        a.setflags(write=False)
        self.field = field
        self._a = a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @classmethod
    def identity(cls, field: Fq, n: int) -> "MatrixFq":
        return cls(field, np.eye(n, dtype=np.int64), _trusted=True)

    @classmethod
    def column(cls, field: Fq, values: Sequence[int]) -> "MatrixFq":
        return cls(field, np.asarray(values, dtype=np.int64).reshape(-1, 1))

    def array(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._a

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self._a[i])

    def take_rows(self, idx: Iterable[int]) -> "MatrixFq":
        return MatrixFq(self.field, self._a[list(idx), :], _trusted=True)

    def slice_cols(self, j0: int, j1: int) -> "MatrixFq":
        return MatrixFq(self.field, self._a[:, j0:j1], _trusted=True)

    @property
    def T(self) -> "MatrixFq":
        return MatrixFq(self.field, self._a.T, _trusted=True)

    def _same_field(self, other: "MatrixFq"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"fields differ: F_{self.field.q} vs F_{other.field.q}"
            )

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        self._same_field(other)
        prod = matmul_mod(self._a, other._a, self.field.q)
        return MatrixFq(self.field, prod, _trusted=True)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFq)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.field, self.shape, self._a.tobytes()))

    def __repr__(self):
        return f"MatrixFq(q={self.field.q}, {self.rows}x{self.cols})"


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


def vandermonde(field: Fq, points: Sequence[int], width: int) -> MatrixFq:
    """Rows [1, x, x^2, ..., x^(width-1)] for each evaluation point x, built
    once per (field, points, width) and shared: a MatrixFq is immutable."""
    return _vandermonde(field, tuple(points), width)


@functools.lru_cache(maxsize=1024)
def _vandermonde(field: Fq, points: tuple[int, ...], width: int) -> MatrixFq:
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
    return MatrixFq(field, a, _trusted=True)


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


def _solve_common(a: MatrixFq, y: MatrixFq, require_unique: bool) -> MatrixFq:
    a._same_field(y)
    if a.rows != y.rows:
        raise ParameterError(f"rhs has {y.rows} rows, matrix has {a.rows}")
    q = a.field.q
    aug = np.concatenate([a.array(), y.array()], axis=1)
    pivots = _rref(aug, q, a.cols)
    rank_a = len(pivots)
    # rows below rank_a are zero in the A block; any nonzero rhs there means
    # the system has no solution.
    if aug[rank_a:, a.cols:].any():
        raise InconsistentSystemError("linear system has no solution")
    if require_unique and rank_a < a.cols:
        raise SingularMatrixError(
            f"matrix has column rank {rank_a} < {a.cols}; solution not unique"
        )
    x = np.zeros((a.cols, y.cols), dtype=np.int64)
    x[pivots] = aug[:rank_a, a.cols :]
    return MatrixFq(a.field, x, _trusted=True)


def solve(a: MatrixFq, y: MatrixFq) -> MatrixFq:
    """Unique x with a @ x = y; a must have full column rank."""
    return _solve_common(a, y, require_unique=True)


def solve_any(a: MatrixFq, y: MatrixFq) -> MatrixFq:
    """Some x with a @ x = y (free variables set to zero)."""
    return _solve_common(a, y, require_unique=False)


def rank(a: MatrixFq) -> int:
    arr = a.array().copy()
    return len(_rref(arr, a.field.q, a.cols))


def inverse(a: MatrixFq) -> MatrixFq:
    if a.rows != a.cols:
        raise ParameterError("only square matrices have inverses")
    return solve(a, MatrixFq.identity(a.field, a.rows))


def left_inverse(a: MatrixFq) -> MatrixFq:
    """L with L @ a = I; a must have full column rank."""
    try:
        x = solve_any(a.T, MatrixFq.identity(a.field, a.cols))
    except InconsistentSystemError:
        raise SingularMatrixError("matrix has no left inverse (column rank deficient)")
    return x.T


def vstack(mats: Sequence[MatrixFq]) -> MatrixFq:
    first = mats[0]
    for m in mats[1:]:
        first._same_field(m)
    return MatrixFq(
        first.field, np.concatenate([m.array() for m in mats], axis=0), _trusted=True
    )
