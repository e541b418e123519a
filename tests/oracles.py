"""Brute-force reference decoders that tests compare the codec against.

``subset_decode_oracle`` states the paper's accept rule directly: it solves
every msg_len-subset of the received entries and accepts a candidate that
agrees with at least R - t_max received entries (R = received count). Within
budget (at most t_max wrong entries and R >= msg_len + 2t) the accepted
candidate is unique; finding two distinct ones means the caller exceeded the
budget, reported as ``AmbiguityError``.

``locate_then_erase_full`` is `pmrc.shards._locate_then_erase` with every
position re-encoded on every pass, agreement counted on all of them and the
result always gathered into a fresh array: the reference for the shortcuts
the codec takes on the clean pass.
"""

from itertools import combinations
from typing import Sequence

import numpy as np

from pmrc import DecodeFailure, MatrixFq, ParameterError, PmrcError, SingularMatrixError
from pmrc.linalg import matmul_mod, solve


class AmbiguityError(PmrcError):
    """Multiple candidates met the acceptance threshold (beyond-budget input)."""


def subset_decode_oracle(
    values: Sequence[int | None], rows: MatrixFq, t_max: int
) -> tuple[int, ...]:
    """Exhaustive reference decoder against arbitrary MDS rows.

    values[i] is the symbol observed for rows.row(i), or None if erased.
    """
    msg_len = rows.cols
    if len(values) != rows.rows:
        raise ParameterError("one value per encoding row required")
    if t_max < 0:
        raise ParameterError("t_max must be nonnegative")
    received = [(i, v) for i, v in enumerate(values) if v is not None]
    r_count = len(received)
    if r_count < msg_len + t_max:
        raise ParameterError(
            f"{r_count} received symbols cannot tolerate {t_max} errors "
            f"on a length-{msg_len} message"
        )
    field = rows.field
    candidates: set[tuple[int, ...]] = set()
    seen: set[tuple[int, ...]] = set()
    for subset in combinations(range(r_count), msg_len):
        idx = [received[j][0] for j in subset]
        rhs = MatrixFq.column(field, [received[j][1] for j in subset])
        try:
            x = solve(rows.take_rows(idx), rhs)
        except SingularMatrixError:
            continue
        cand = tuple(int(v) for v in x.array()[:, 0])
        if cand in seen:
            continue
        seen.add(cand)
        preds = (rows @ x).array()[:, 0]
        agree = sum(int(preds[i]) == v for i, v in received)
        if agree >= r_count - t_max:
            candidates.add(cand)
    if not candidates:
        raise DecodeFailure("no candidate met the agreement threshold")
    if len(candidates) > 1:
        raise AmbiguityError(
            f"{len(candidates)} candidates met the threshold; budget exceeded"
        )
    return candidates.pop()


def locate_then_erase_full(ys, gen, need, t, field, invert, locate, per_block):
    """`pmrc.shards._locate_then_erase` (same arguments, results and
    DecodeFailure text) without its shortcuts."""
    n_pos = len(ys)
    if t < 0 or n_pos < need + 2 * t:
        raise ParameterError(
            f"{n_pos} responses cannot correct {t} errors; "
            f"need t >= 0 and at least {need} + 2t"
        )
    q = field.q
    word = np.stack(ys, axis=1)  # (nwords, R, w)
    code_maps = gen.reshape(-1, gen.shape[2])  # (R * w, L)
    out = np.empty((word.shape[0], gen.shape[2]), dtype=np.uint16)
    undecided = np.arange(out.shape[0])
    erased = np.zeros(n_pos, dtype=bool)
    located = False
    while undecided.size:
        rows = np.flatnonzero(~erased)[:need]
        inv = invert(MatrixFq(field, np.concatenate(gen[rows]), _trusted=True)).array()
        cand = matmul_mod(word[:, rows].reshape(word.shape[0], -1), inv.T, q)
        again = matmul_mod(cand, code_maps.T, q).reshape(word.shape)
        ok = (again == word).all(axis=2).sum(axis=1) >= n_pos - t
        if located and not ok[0]:
            break
        out[undecided[ok]] = cand[ok]
        undecided = undecided[~ok]
        word = word[~ok]
        if undecided.size:
            try:
                erased = locate(word[0])
            except DecodeFailure:
                break
            located = True
            if erased.sum() > t:
                break
    else:
        return out
    raise DecodeFailure(
        f"block {undecided[0] // per_block} exceeded the (t={t}) corruption budget"
    )
