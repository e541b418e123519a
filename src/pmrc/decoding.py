"""Errors-and-erasures decoding and the response type of `pmrc.perblock`.

The shipping codec is the batched one in `pmrc.shards`. It calls
``rs_decode_ee`` to locate the wrong responses of a block that fails its
clean path.

``rs_decode_ee`` is a polynomial-time decoder. Erasures are fixed by
dropping their positions; the error locator is found algebraically from the
Berlekamp-Welch key equation N(x_i) = v_i * E(x_i), solved as a linear
system with E monic of degree tau = min(t_max, (R - msg_len) // 2), where R
is the received count. Any solution yields the message as N / E when at most
tau entries are wrong. Its final acceptance check is the paper's rule:
agreement with >= R - t_max received entries, which within budget (at most
t_max wrong entries and R >= msg_len + 2t) only the true message meets.

``consistency_reconstruct`` lifts the same accept rule to vector symbols:
candidates come from an error-free k-subset solver and are kept when their
re-encoding matches at least R - t_max received shares. Two survivors would
agree on >= R - 2*t_max >= k shares and hence be equal, so first-in-canonical-
order acceptance is deterministic and safe within budget.

Beyond-budget inputs never crash either decoder: they end in a correct
answer, a ``DecodeFailure``, or an arbitrary candidate the caller must treat
as untrusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DecodeFailure,
    InconsistentSystemError,
    ParameterError,
    SingularMatrixError,
)
from .field import Fq


@dataclass(frozen=True)
class Response:
    """One node's contribution to a decode: beta repair symbols or an
    alpha-symbol share; ``symbols is None`` marks a (block) erasure."""

    node_id: int
    symbols: tuple[int, ...] | None = None

    @property
    def erased(self) -> bool:
        return self.symbols is None


def _poly_divmod(num: Sequence[int], den: Sequence[int], field: Fq):
    """Quotient and remainder of polynomial division (coefficients low-first)."""
    num = list(num)
    dn = len(den) - 1
    while dn >= 0 and den[dn] == 0:
        dn -= 1
    if dn < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = field.inv(den[dn])
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] * inv_lead % field.q
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % field.q
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def rs_decode_ee(
    values: Sequence[int | None],
    points: Sequence[int],
    msg_len: int,
    t_max: int,
    field: Fq,
) -> tuple[int, ...]:
    """Errors-and-erasures decoding of polynomial evaluations.

    values[i] is p(points[i]) possibly corrupted, or None if erased; deg p <
    msg_len. Recovers p's coefficient vector for up to t_max wrong entries.
    """
    if len(values) != len(points):
        raise ParameterError("one value per evaluation point required")
    if len(set(points)) != len(points):
        raise ParameterError("evaluation points must be distinct")
    if t_max < 0:
        raise ParameterError("t_max must be nonnegative")
    received = [(i, v) for i, v in enumerate(values) if v is not None]
    r_count = len(received)
    if r_count < msg_len + t_max:
        raise ParameterError(
            f"{r_count} received symbols cannot tolerate {t_max} errors "
            f"on a length-{msg_len} message"
        )
    q = field.q
    vs = [field.check(v) for _, v in received]
    tau = min(t_max, (r_count - msg_len) // 2)
    n_terms = msg_len + tau
    powers = linalg.vandermonde(field, [points[i] for i, _ in received], n_terms + 1)
    vals = np.asarray(vs, dtype=np.int64)[:, None]

    if tau == 0:
        sol = linalg.solve(powers[:msg_len, :msg_len], vals[:msg_len], q)
        coeffs = sol[:, 0].tolist()
    else:
        # Key equation: N(x) - v*E(x) = v*x^tau with E = z^tau + sum e_j z^j,
        # deg N < msg_len + tau. Unknowns: msg_len + 2*tau.
        system = np.concatenate(
            [powers[:, :n_terms], -vals * powers[:, :tau] % q], axis=1
        )
        rhs = vals * powers[:, tau : tau + 1] % q
        try:
            sol = linalg.solve_any(system, rhs, q)
        except InconsistentSystemError:
            raise DecodeFailure("key equation unsolvable: budget exceeded")
        flat = sol[:, 0].tolist()
        n_poly = flat[:n_terms]
        e_poly = flat[n_terms:] + [1]
        quot, rem = _poly_divmod(n_poly, e_poly, field)
        if rem:
            raise DecodeFailure("error locator does not divide the numerator")
        coeffs = quot

    preds = linalg.matmul_mod(powers[:, :msg_len], np.asarray(coeffs)[:, None], q)
    agree = int((preds[:, 0] == vs).sum())
    if agree < r_count - t_max:
        raise DecodeFailure(
            f"candidate agrees with {agree}/{r_count} symbols, "
            f"needs {r_count - t_max}"
        )
    return tuple(coeffs)


# Not called in src/: a test reference, bound here so the benchmark tracer
# (perfbench/tracer.py) resolves it, until ROADMAP item 1 retargets the tracer.
def consistency_reconstruct(
    word: Sequence[Response],
    k: int,
    t_max: int,
    solve_k: Callable[[tuple[int, ...], tuple[tuple[int, ...], ...]], tuple[int, ...]],
    reencode: Callable[[tuple[int, ...], int], tuple[int, ...]],
) -> tuple[int, ...]:
    """Reconstruction from vector shares with up to t_max corrupted shares.

    solve_k(node_ids, shares) is the error-free k-subset solver; reencode
    (candidate, node_id) predicts that node's share. Candidates are tested in
    canonical subset order and the first one whose re-encoding matches at
    least R - t_max received shares wins.
    """
    if t_max < 0:
        raise ParameterError("t_max must be nonnegative")
    ids = [r.node_id for r in word]
    if len(set(ids)) != len(ids):
        raise ParameterError("duplicate node ids in reconstruction word")
    received = [r for r in word if not r.erased]
    r_count = len(received)
    if r_count < k + 2 * t_max:
        raise ParameterError(
            f"{r_count} received shares cannot tolerate {t_max} corrupt shares "
            f"(need {k + 2 * t_max})"
        )
    for subset in combinations(range(r_count), k):
        sub_ids = tuple(received[j].node_id for j in subset)
        sub_shares = tuple(received[j].symbols for j in subset)
        try:
            cand = solve_k(sub_ids, sub_shares)
        except (SingularMatrixError, InconsistentSystemError):
            # a corrupt share inside the subset can make the stacked system
            # unsolvable; that subset simply offers no candidate
            continue
        agree = sum(
            reencode(cand, r.node_id) == r.symbols for r in received
        )
        if agree >= r_count - t_max:
            return cand
    raise DecodeFailure("no reconstruction candidate met the agreement threshold")
