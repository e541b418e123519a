"""Code parameter algebra, resilience feasibility, and encoding matrices.

The two supported code families sit at the extreme points of the
storage/repair-bandwidth tradeoff:

* MSR (minimum storage): B = k*alpha and d*beta = alpha + (k-1)*beta. Only
  the base degree d = 2k-2 is constructed here, where alpha = (k-1)*beta and
  B = k(k-1)*beta.
* MBR (minimum bandwidth): alpha = d*beta and B = (kd - k(k-1)/2)*beta, for
  every k <= d <= n-1.

Resilience is a decode-time rule, stated once in `connectivity`: under s
erasures and t corruptions, repair contacts Delta = d+s+2t <= n-1 helpers and
reconstruction kappa = k+s+2t <= n providers, so the decode steps in
`pmrc.shards` see R >= d+2t (k+2t) responses, which makes the answer unique.

Encoding matrices are Vandermonde: row i is [1, x_i, ..., x_i^(d-1)], which
makes any d rows independent and any prefix-width submatrix MDS. For MSR the
matrix splits as [phi | Lambda*phi] with lambda_i = x_i^(k-1); the evaluation
points are chosen by a greedy scan so that all lambda_i are distinct, which a
field of size q >= 4n always permits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .errors import ConstructionError, InfeasibleError, ParameterError
from .field import Fq
from .linalg import MatrixFq


class CodeMode(str, enum.Enum):
    MSR = "msr"
    MBR = "mbr"


@dataclass(frozen=True)
class SystemParams:
    """The [n, k, d] code with per-block (B, alpha, beta)."""

    mode: CodeMode
    n: int
    k: int
    d: int
    alpha: int
    beta: int
    message_symbols: int  # B

    def __post_init__(self):
        if self.beta < 1:
            raise ParameterError("beta must be >= 1")
        if not 1 <= self.k <= self.d <= self.n - 1:
            raise ParameterError(
                f"need k <= d <= n-1, got k={self.k}, d={self.d}, n={self.n}"
            )
        if self.mode is CodeMode.MSR:
            ok = (
                self.k >= 2
                and self.d == 2 * self.k - 2
                and self.alpha == (self.k - 1) * self.beta
                and self.message_symbols == self.k * self.alpha
            )
        else:
            ok = (
                self.alpha == self.d * self.beta
                and self.message_symbols
                == (self.k * self.d - self.k * (self.k - 1) // 2) * self.beta
            )
        if not ok:
            raise ParameterError(f"inconsistent {self.mode.value} parameters: {self}")

    @property
    def alpha_prime(self) -> int:
        """Per-slice symbols stored by a node (alpha with beta = 1)."""
        return self.alpha // self.beta

    @property
    def slice_symbols(self) -> int:
        """Per-slice message size (B with beta = 1)."""
        return self.message_symbols // self.beta


def msr_params(k: int, n: int, beta: int = 1) -> SystemParams:
    """MSR parameters at the base repair degree d = 2k-2."""
    if k < 2:
        raise ParameterError("MSR needs k >= 2")
    d = 2 * k - 2
    if n < d + 1:
        raise ParameterError(f"MSR with k={k} needs n >= {d + 1}, got {n}")
    return SystemParams(
        mode=CodeMode.MSR,
        n=n,
        k=k,
        d=d,
        alpha=(k - 1) * beta,
        beta=beta,
        message_symbols=k * (k - 1) * beta,
    )


def mbr_params(k: int, d: int, n: int, beta: int = 1) -> SystemParams:
    """MBR parameters for any k <= d <= n-1."""
    if not 1 <= k <= d <= n - 1:
        raise ParameterError(f"need k <= d <= n-1, got k={k}, d={d}, n={n}")
    return SystemParams(
        mode=CodeMode.MBR,
        n=n,
        k=k,
        d=d,
        alpha=d * beta,
        beta=beta,
        message_symbols=(k * d - k * (k - 1) // 2) * beta,
    )


def code_params(
    mode: CodeMode | str, k: int, n: int, d: int | None = None, beta: int = 1
) -> SystemParams:
    """Parameters of either mode; MSR fixes d = 2k-2 and ignores ``d``."""
    if CodeMode(mode) is CodeMode.MSR:
        return msr_params(k=k, n=n, beta=beta)
    if d is None:
        raise ParameterError("MBR needs d")
    return mbr_params(k=k, d=d, n=n, beta=beta)


def capacity_bound(k: int, d: int, alpha: int, beta: int) -> int:
    """Cut-set upper bound on per-block message size:
    sum_{i=0}^{k-1} min(alpha, (d-i)*beta)."""
    if k > d:
        raise ParameterError("bound needs k <= d")
    return sum(min(alpha, (d - i) * beta) for i in range(k))


def budget_extra(s: int, t: int) -> int:
    """The s + 2t nodes a decode under budget (s, t) contacts beyond d (k);
    ParameterError if s or t < 0."""
    if s < 0 or t < 0:
        raise ParameterError("s and t must be nonnegative")
    return s + 2 * t


def resilience_feasible(params: SystemParams, s: int, t: int) -> bool:
    """Whether budget (s, t) fits: repair needs d+s+2t <= n-1 helpers and
    reconstruction k+s+2t <= n providers."""
    extra = budget_extra(s, t)
    return params.d + extra <= params.n - 1 and params.k + extra <= params.n


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
    """The n x d encoding matrix and its per-mode split.

    MSR: psi = [phi | diag(lam) @ phi], phi the first (k-1) Vandermonde
    columns, lam_i = x_i^(k-1) all distinct.
    MBR: psi = [phi | sigma], phi the first k columns.
    """

    params: SystemParams
    field: Fq
    points: tuple[int, ...]
    psi: MatrixFq
    phi: MatrixFq
    lam: tuple[int, ...] | None = None
    sigma: MatrixFq | None = None

    def check_node(self, node_id: int) -> int:
        if not 1 <= node_id <= self.params.n:
            raise ParameterError(f"node id {node_id} outside 1..{self.params.n}")
        return node_id

    def psi_row(self, node_id: int) -> tuple[int, ...]:
        return self.psi.row(self.check_node(node_id) - 1)

    def phi_row(self, node_id: int) -> tuple[int, ...]:
        return self.phi.row(self.check_node(node_id) - 1)

    def lam_of(self, node_id: int) -> int:
        assert self.lam is not None
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


def build_psi_msr(params: SystemParams, field: Fq) -> EncodingMatrix:
    """Vandermonde MSR encoding matrix with distinct Lambda diagonal.

    Any alpha' rows of phi and any d rows of psi are independent because both
    are Vandermonde at distinct points; distinctness of the lambda values is
    what the point scan enforces explicitly.
    """
    if params.mode is not CodeMode.MSR:
        raise ParameterError("params are not MSR")
    return encoding_from_points(params, field, _msr_points(params.n, params.k - 1, field))


def build_psi_mbr(params: SystemParams, field: Fq) -> EncodingMatrix:
    """Vandermonde MBR encoding matrix at the points 1..n; phi is the
    k-column prefix."""
    if params.mode is not CodeMode.MBR:
        raise ParameterError("params are not MBR")
    if field.q - 1 < params.n:
        raise ConstructionError(
            f"F_{field.q} has only {field.q - 1} nonzero points, need {params.n}"
        )
    return encoding_from_points(params, field, range(1, params.n + 1))


def build_encoding(params: SystemParams, field: Fq | None = None) -> EncodingMatrix:
    """Mode-dispatched construction with the default modulus when none given."""
    from .field import default_modulus

    if field is None:
        field = Fq(default_modulus(params.n))
    if params.mode is CodeMode.MSR:
        return build_psi_msr(params, field)
    return build_psi_mbr(params, field)


def encoding_from_points(
    params: SystemParams, field: Fq, points: Sequence[int]
) -> EncodingMatrix:
    """Rebuild an encoding matrix from explicitly given evaluation points
    (shard headers store them, making shard sets self-describing)."""
    pts = [field.check(x) for x in points]
    if len(pts) != params.n:
        raise ParameterError(f"need {params.n} points, got {len(pts)}")
    psi = linalg.vandermonde(field, pts, params.d)
    if params.mode is CodeMode.MSR:
        ap = params.k - 1
        lam = tuple(pow(x, ap, field.q) for x in pts)
        if len(set(lam)) != params.n:
            raise ConstructionError("points yield repeated Lambda entries")
        return EncodingMatrix(
            params=params,
            field=field,
            points=tuple(pts),
            psi=psi,
            phi=psi.slice_cols(0, ap),
            lam=lam,
        )
    return EncodingMatrix(
        params=params,
        field=field,
        points=tuple(pts),
        psi=psi,
        phi=psi.slice_cols(0, params.k),
        sigma=psi.slice_cols(params.k, params.d),
    )
