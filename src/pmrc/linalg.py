"""Dense exact linear algebra over a prime field.

Matrices are immutable values backed by int64 numpy arrays; every operation
reduces mod q. Solving and rank use plain Gaussian elimination with
leftmost-nonzero pivoting (exact arithmetic needs no pivot scaling).

Every matrix product, `MatrixFq @` included, runs on one kernel, `matmul_mod`:
it multiplies arrays of reduced residues on BLAS in float32 whenever every
dot product is an exactly representable float32 integer (int64 otherwise),
reduces the result mod q, and returns uint16 residues. Vandermonde matrices
are built once per (field, points, width).
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


# rows (or columns) of the long side per kernel step; bounds the float
# temporaries to a few MB whatever the operand length
_CHUNK = 1 << 16
# below this many multiply-adds the BLAS call and the float reduction cost
# more than an int64 product (the per-block codec's word-sized products)
_SMALL = 1 << 14


def _compute_dtype(rows: int, inner: int, cols: int, q: int):
    """float32 when its sums of ``inner`` products of residues mod q stay
    below 2**24, so exact, and the product is not word-sized; else int64."""
    if rows * inner * cols >= _SMALL and inner * (q - 1) ** 2 < 2**24:
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
    any integer or float dtype. The product runs in `_compute_dtype`, in
    chunks along the longer outer side."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ParameterError(f"shape mismatch for product: {a.shape} @ {b.shape}")
    kind = _compute_dtype(a.shape[0], a.shape[1], b.shape[1], q)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.uint16)
    if a.shape[0] >= b.shape[1]:
        bk = b.astype(kind, copy=False)
        for i in range(0, a.shape[0], _CHUNK):
            chunk = a[i : i + _CHUNK].astype(kind, copy=False)
            out[i : i + _CHUNK] = _reduce(chunk @ bk, q)
    else:
        ak = a.astype(kind, copy=False)
        for j in range(0, b.shape[1], _CHUNK):
            chunk = b[:, j : j + _CHUNK].astype(kind, copy=False)
            out[:, j : j + _CHUNK] = _reduce(ak @ chunk, q)
    return out


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
