"""Reed-Solomon error location, the reference decoders tests compare it
against, and the response type of `pmrc.perblock`.

``locate`` is the codec's one locating primitive. Its words are evaluations
of polynomials of degree < msg_len at R distinct points, one word per row,
and it maps them to the positions where each word is wrong. Every word of a
batch goes through the same few array steps:

- syndromes, by one `linalg.matmul_mod` with 2t rows of the generalized
  Reed-Solomon parity check, H[j, i] = v_i x_i^j with column multipliers
  v_i = 1/prod_{l != i}(x_i - x_l), built once per point set;
- Berlekamp's key equation, solved by Massey's shift-register synthesis
  ("Shift-register synthesis and BCH decoding", IEEE Trans. IT 1969) with
  the word axis vectorised, which gives the shortest connection polynomial
  C of length L;
- a root search by one product: the reversed locator z^L C(1/z) evaluated
  at every point. An error at point 0 shows there as a zero constant term,
  where it shortens deg C below L.

A word with at most t wrong positions, R >= msg_len + 2t, gets exactly its
wrong positions. Any other word gets some set of at most t positions, or
none when the roots do not account for L; a mask is therefore only a
suggestion, and the codec (`pmrc.shards`) accepts a message only when it
agrees with at least R - t positions.

A word may also miss one point x_e, its erased position. Its syndromes at
the other R - 1 points come from 2t + 1 rows S of the same R-point check
as T_j = S_{j+1} - x_e S_j, since v_l (x_l - x_e) are the column
multipliers without x_e, and x_e is left out of the root search (Forney's
erasure syndromes, "On decoding BCH codes", IEEE Trans. IT 1965). The
product-matrix MSR reduction's rows of Q are located so, each with the
row's own point erased; the MBR reduction's rows of Phi S Phi^t have no
entry to erase.

``rs_decode_ee`` is the Berlekamp-Welch errors-and-erasures decoder,
solving N(x_i) = y_i E(x_i) as a linear system per word. No codec path
calls it: it is a test reference, and stays defined here (as do
``linalg.inverse``, ``left_inverse``, ``solve``, ``solve_any`` and the
``msr_*``/``mbr_*`` names in `pmrc.simulator`) because the benchmark tracer
(perfbench/tracer.py) binds it. Its final acceptance check is the paper's
rule: agreement with >= R - t_max received entries, which within budget (at
most t_max wrong entries and R >= msg_len + 2t) only the true message meets.

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

import functools
import math
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


@functools.lru_cache(maxsize=256)
def parity_check(field: Fq, points: tuple[int, ...], rows: int) -> np.ndarray:
    """The first ``rows`` rows of the parity check of polynomial evaluations
    at ``points``, H[j, i] = v_i x_i^j with v_i = 1/prod_{l != i}(x_i - x_l):
    H @ c = 0 for the evaluations c of any polynomial of degree < R - rows.
    A read-only int64 array, built once per (field, points, rows)."""
    q = field.q
    mult = [pow(math.prod(x - y for y in points if y != x) % q, q - 2, q) for x in points]
    h = linalg.vandermonde(field, points, rows).T * np.asarray(mult, dtype=np.int64) % q
    h.setflags(write=False)
    return h


def _massey(syn: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp-Massey over the first axis of (N, 2t) syndromes, without
    inversions: each row's shortest linear feedback shift register, its
    connection polynomial C (N, 2t + 1) low-first, up to a nonzero factor,
    and its length L (N,). Within budget C(z) is a multiple of the product
    over the errors of (1 - x_i z)."""
    n_words, n_syn = syn.shape
    # the word axis innermost: numpy's steps along a short innermost axis
    # cost several times more
    syn = syn.T.astype(np.int64)
    conn = np.zeros((n_syn + 1, n_words), dtype=np.int64)
    conn[0] = 1
    # z^m times the register before the last length change: in step n its
    # coefficient i sits at row n_syn - n - 1 + i, so multiplying it by z
    # starts its window one row earlier, on a row still zero
    shifted = np.zeros((n_syn + 1, n_words), dtype=np.int64)
    shifted[n_syn] = 1
    length = np.zeros(n_words, dtype=np.int64)
    last = np.ones(n_words, dtype=np.int64)  # the discrepancy at that change
    for n in range(n_syn):
        disc = (conn[: n + 1] * syn[n::-1]).sum(axis=0) % q
        top = n + 2  # conn and z * prev have degree at most n + 1
        prev, cur = shifted[n_syn - n - 1 :], conn[:top]  # top rows each
        grow = (disc != 0) & (length <= n // 2)  # 2L <= n
        new = (last * cur - disc * prev) % q
        np.copyto(prev, cur, where=grow)
        cur[...] = new
        np.copyto(last, disc, where=grow)
        np.copyto(length, n + 1 - length, where=grow)
    return conn.T, length


def _error_positions(
    syn: np.ndarray, points: Sequence[int], t: int, field: Fq, skip: np.ndarray | None = None
) -> np.ndarray:
    """(N, R) masks of the positions whose errors explain (N, 2t) syndromes:
    the roots at ``points`` of each reversed locator z^L C(1/z), kept only
    when L <= t and the roots outside ``skip`` (an (N, R) mask of points not
    in the row's word) number exactly L; else the row's mask is empty."""
    conn, length = _massey(syn, field.q)
    # coefficient j of z^L C(1/z) is C_{L-j}; a row with L > t fails below
    at = length[:, None] - np.arange(t + 1)
    rev = np.where(at >= 0, np.take_along_axis(conn, np.maximum(at, 0), axis=1), 0)
    values = linalg.matmul_mod(rev, linalg.vandermonde(field, points, t + 1).T, field.q)
    roots = values == 0
    if skip is not None:
        roots &= ~skip
    roots &= ((length <= t) & (roots.sum(axis=1) == length))[:, None]
    return roots


def locate(
    values: np.ndarray, points: Sequence[int], msg_len: int, t: int, field: Fq,
    erased: np.ndarray | None = None,
) -> np.ndarray:
    """(N, R) masks of the wrong entries of N words of evaluations (N, R) at
    ``points`` of polynomials of degree < msg_len: exactly the wrong entries
    of a word with at most t of them, at most t entries for any other word.
    ``erased`` (N,) names one position per word that is not part of it: its
    entry is ignored and never flagged, and the word is located at the other
    R - 1 points (Forney's erasure syndromes). Needs R >= msg_len + 2t, one
    more point with ``erased``."""
    points = tuple(int(x) for x in points)
    n_points = len(points) - (erased is not None)
    if t < 0 or n_points < msg_len + 2 * t:
        raise ParameterError(
            f"{n_points} points cannot locate {t} errors on a length-{msg_len} "
            f"message; need t >= 0 and at least msg_len + 2t"
        )
    values = np.asarray(values)
    if not t:
        return np.zeros(values.shape, dtype=bool)
    if erased is None:
        syn = linalg.matmul_mod(values, parity_check(field, points, 2 * t).T, field.q)
        return _error_positions(syn, points, t, field)
    # S_{j+1} - x_e S_j, the syndromes at the other points (module docstring)
    syn = linalg.matmul_mod(values, parity_check(field, points, 2 * t + 1).T, field.q)
    x_e = np.asarray(points, dtype=np.int64)[erased][:, None]
    syn = (syn[:, 1:] - x_e * syn[:, :-1]) % field.q
    skip = np.arange(len(points)) == erased[:, None]
    return _error_positions(syn, points, t, field, skip)


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
# (perfbench/tracer.py) resolves it, until ROADMAP item 2 retargets the tracer.
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
