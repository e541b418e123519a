"""Code parameter algebra, resilience feasibility, and encoding matrices.

A code is stated by its inputs: the mode, [n, k, d] and beta, which is what
a shard header stores; the per-slice sizes alpha' and B' follow from the
mode, and alpha = alpha'*beta, B = B'*beta. The two supported code families
sit at the extreme points of the storage/repair-bandwidth tradeoff:

* MSR (minimum storage): B = k*alpha and d*beta = alpha + (k-1)*beta. Only
  the base degree d = 2k-2 is constructed here, where alpha' = k-1 and
  B' = k(k-1).
* MBR (minimum bandwidth): alpha' = d and B' = kd - k(k-1)/2, for every
  k <= d <= n-1.

Resilience is a decode-time rule, stated once in `connectivity`: under s
erasures and t corruptions, repair contacts Delta = d+s+2t <= n-1 helpers and
reconstruction kappa = k+s+2t <= n providers, so the decode steps in
`pmrc.shards` see R >= d+2t (k+2t) responses, which makes the answer unique.

Encoding matrices are Vandermonde at n evaluation points: row i is
[1, x_i, ..., x_i^(d-1)], which makes any d rows independent and any
prefix-width submatrix MDS. Psi, Phi, Sigma and Lambda are derived from the
points; Psi is the read-only int64 array `linalg.vandermonde` returns, and
Phi and Sigma are column views of it. For MSR it splits as
[phi | Lambda*phi] with lambda_i = x_i^(k-1); `build_encoding` picks the
points by a greedy scan so that all lambda_i are distinct, which a field of
size q >= 4n always permits.

A code also names its message basis. Node i stores psi_i M, where M is the
product-matrix operand of the message; in the systematic basis, which
`build_encoding` always picks, the message is first mapped so that nodes
1..k store the payload symbols themselves (`pmrc.shards.share_map`). Both
bases give the same node shares for some message, so repair and the
locating steps of a decode do not depend on it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import ConstructionError, InfeasibleError, ParameterError
from .field import Fq, default_modulus


class CodeMode(str, enum.Enum):
    MSR = "msr"
    MBR = "mbr"


@dataclass(frozen=True)
class SystemParams:
    """The [n, k, d] code with beta slices per block; alpha and B follow."""

    mode: CodeMode
    n: int
    k: int
    d: int
    beta: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "mode", CodeMode(self.mode))
        except ValueError:
            raise ParameterError(f"unknown mode {self.mode!r}") from None
        if self.mode is CodeMode.MSR:
            if self.d != 2 * self.k - 2:
                raise ParameterError("MSR repair degree is fixed at d = 2k-2")
            if self.k < 2:
                raise ParameterError("MSR needs k >= 2")
            if self.n < self.d + 1:
                raise ParameterError(
                    f"MSR with k={self.k} needs n >= {self.d + 1}, got {self.n}"
                )
        if not 1 <= self.k <= self.d <= self.n - 1:
            raise ParameterError(
                f"need k <= d <= n-1, got k={self.k}, d={self.d}, n={self.n}"
            )
        if self.beta < 1:
            raise ParameterError("beta must be >= 1")

    @property
    def alpha_prime(self) -> int:
        """Per-slice symbols stored by a node (alpha with beta = 1)."""
        return self.k - 1 if self.mode is CodeMode.MSR else self.d

    @property
    def slice_symbols(self) -> int:
        """Per-slice message size (B with beta = 1)."""
        if self.mode is CodeMode.MSR:
            return self.k * (self.k - 1)
        return self.k * self.d - self.k * (self.k - 1) // 2

    @property
    def alpha(self) -> int:
        """Per-block symbols stored by a node."""
        return self.alpha_prime * self.beta

    @property
    def message_symbols(self) -> int:
        """B, the payload symbols per block."""
        return self.slice_symbols * self.beta


def msr_params(k: int, n: int, beta: int = 1) -> SystemParams:
    """MSR parameters at the base repair degree d = 2k-2."""
    return code_params(CodeMode.MSR, k, n, beta=beta)


def mbr_params(k: int, d: int, n: int, beta: int = 1) -> SystemParams:
    """MBR parameters for any k <= d <= n-1."""
    return SystemParams(CodeMode.MBR, n, k, d, beta)


def code_params(
    mode: CodeMode | str, k: int, n: int, d: int | None = None, beta: int = 1
) -> SystemParams:
    """Parameters of either mode; a ``d`` of None means MSR's 2k-2."""
    if d is None:
        if mode == CodeMode.MBR:
            raise ParameterError("MBR needs d")
        d = 2 * k - 2
    return SystemParams(mode, n, k, d, beta)


def capacity_bound(k: int, d: int, alpha: int, beta: int) -> int:
    """Cut-set upper bound on per-block message size:
    sum_{i=0}^{k-1} min(alpha, (d-i)*beta)."""
    if k > d or alpha < 0 or beta < 1:
        raise ParameterError("bound needs k <= d, alpha >= 0 and beta >= 1")
    return sum(min(alpha, (d - i) * beta) for i in range(k))


def budget_extra(s: int, t: int) -> int:
    """The s + 2t nodes a decode under budget (s, t) contacts beyond d (k);
    ParameterError if s or t < 0."""
    if s < 0 or t < 0:
        raise ParameterError("s and t must be nonnegative")
    return s + 2 * t


def connectivity(params: SystemParams, s: int, t: int, repair: bool) -> int:
    """Nodes a decode under budget (s, t) contacts: Delta = d+s+2t helpers
    for repair (InfeasibleError past n-1), kappa = k+s+2t providers for
    reconstruction (InfeasibleError past n). ParameterError if s or t < 0."""
    need, limit = (params.d, params.n - 1) if repair else (params.k, params.n)
    count = need + budget_extra(s, t)
    if count > limit:
        raise InfeasibleError(f"(s={s}, t={t}) needs {count} nodes, at most {limit} fit")
    return count


def feasible_pairs(params: SystemParams) -> list[tuple[int, int]]:
    """All (s, t) budgets the node count supports, in (s+2t, s) order."""
    pairs = []
    max_extra = min(params.n - 1 - params.d, params.n - params.k)
    for extra in range(max_extra + 1):
        for t in range(extra // 2 + 1):
            s = extra - 2 * t
            pairs.append((s, t))
    return sorted(pairs, key=lambda st: (st[0] + 2 * st[1], st[0]))


@dataclass(frozen=True)
class EncodingMatrix:
    """The n x d encoding matrix at the given points and its per-mode split,
    each part derived once (psi a read-only int64 array, phi and sigma column
    views of it); the other mode's part is None. ``systematic`` is the
    message basis: nodes 1..k store the payload symbols, or (False) the
    payload is the product-matrix operand itself.

    MSR: psi = [phi | diag(lam) @ phi], phi the first (k-1) Vandermonde
    columns, lam_i = x_i^(k-1) all distinct.
    MBR: psi = [phi | sigma], phi the first k columns.
    """

    params: SystemParams
    field: Fq
    points: tuple[int, ...]
    systematic: bool

    @functools.cached_property
    def psi(self) -> np.ndarray:
        return linalg.vandermonde(self.field, self.points, self.params.d)

    @functools.cached_property
    def phi(self) -> np.ndarray:
        msr = self.params.mode is CodeMode.MSR
        return self.psi[:, : self.params.k - 1 if msr else self.params.k]

    @functools.cached_property
    def sigma(self) -> np.ndarray | None:
        if self.params.mode is CodeMode.MSR:
            return None
        return self.psi[:, self.params.k :]

    @functools.cached_property
    def lam(self) -> tuple[int, ...] | None:
        if self.params.mode is CodeMode.MBR:
            return None
        return tuple(pow(x, self.params.k - 1, self.field.q) for x in self.points)

    def check_node(self, node_id: int) -> int:
        if not 1 <= node_id <= self.params.n:
            raise ParameterError(f"node id {node_id} outside 1..{self.params.n}")
        return node_id

    def psi_row(self, node_id: int) -> np.ndarray:
        return self.psi[self.check_node(node_id) - 1]

    def phi_row(self, node_id: int) -> np.ndarray:
        return self.phi[self.check_node(node_id) - 1]

    def lam_of(self, node_id: int) -> int:
        if self.lam is None:
            raise ParameterError("an MBR code has no lambda")
        return self.lam[self.check_node(node_id) - 1]

    def point_of(self, node_id: int) -> int:
        return self.points[self.check_node(node_id) - 1]


def _msr_points(n: int, width: int, field: Fq) -> list[int]:
    """Greedy scan x = 1, 2, ... keeping points whose width-th powers are all
    distinct (those powers become the diagonal of Lambda)."""
    points: list[int] = []
    seen_lams: set[int] = set()
    for x in range(1, field.q):
        lam = pow(x, width, field.q)
        if lam in seen_lams:
            continue
        points.append(x)
        seen_lams.add(lam)
        if len(points) == n:
            return points
    raise ConstructionError(
        f"cannot pick {n} points with distinct x^{width} over F_{field.q}; "
        f"a modulus q >= 4n always suffices"
    )


def build_encoding(params: SystemParams, field: Fq | None = None) -> EncodingMatrix:
    """The systematic Vandermonde encoding of either mode, over the default
    modulus when no field is given. MSR takes the scanned points with
    distinct lambda values; MBR takes the points 1..n. Any alpha' rows of phi and any d rows
    of psi are independent because both are Vandermonde at distinct points."""
    if field is None:
        field = Fq(default_modulus(params.n))
    if params.mode is CodeMode.MSR:
        return encoding_from_points(params, field, _msr_points(params.n, params.k - 1, field))
    if field.q - 1 < params.n:
        raise ConstructionError(
            f"F_{field.q} has only {field.q - 1} nonzero points, need {params.n}"
        )
    return encoding_from_points(params, field, range(1, params.n + 1))


def encoding_from_points(
    params: SystemParams, field: Fq, points: Sequence[int], systematic: bool = True
) -> EncodingMatrix:
    """The encoding matrix at explicitly given evaluation points and basis
    (shard headers store them, making shard sets self-describing): each
    point must be in the field, there must be n of them, all distinct, and
    for MSR their lambda values must be distinct too. These checks cost
    O(n); the n x d psi is built on first use, so checking a shard header
    builds none."""
    pts = tuple(field.check(x) for x in points)
    if len(pts) != params.n:
        raise ParameterError(f"need {params.n} points, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise ParameterError("evaluation points must be pairwise distinct")
    enc = EncodingMatrix(params, field, pts, systematic)
    if enc.lam is not None and len(set(enc.lam)) != params.n:
        raise ConstructionError("points yield repeated Lambda entries")
    return enc
