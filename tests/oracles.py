"""Brute-force reference decoders that tests compare the codec against.

``subset_decode_oracle`` states the paper's accept rule directly: it solves
every msg_len-subset of the received entries and accepts a candidate that
agrees with at least R - t_max received entries (R = received count). Within
budget (at most t_max wrong entries and R >= msg_len + 2t) the accepted
candidate is unique; finding two distinct ones means the caller exceeded the
budget, reported as ``AmbiguityError``.

``locate_then_erase_full`` is `pmrc.shards._locate_then_erase` with every
pass's left inverse found by elimination (`linalg.left_inverse`), every
position re-encoded on every pass, agreement counted on all of them and the
result always gathered into a fresh array: the reference for the
product-matrix inverses the codec builds and for the shortcuts it takes on
the clean pass.

The message-matrix view of the code is the Psi . M reference that the
codec's `share_map` is checked against. ``MsrMessageMatrix`` and
``MbrMessageMatrix`` hold one slice's product-matrix operand;
``*_fill_message`` and ``*_read_message`` lay one block's payload out as
those operands and back, and ``message_matrices`` and
``payload_of_matrices`` do the same for a batch of blocks. All of them read
the layout from `pmrc.shards._slice_matrix_index`, the one statement of it
in the library. ``share_map_einsum`` is `share_map` built as the product of
psi with a one-hot operand, the reference for the codec's scatter, and
``share_map_by_elimination`` builds the systematic map and layout by one
B'-sized elimination, the reference for the product-matrix build.
``msr_systematic_remap`` solves for the message under which k chosen nodes
store the payload verbatim. ``rank`` is a matrix's rank mod q, by the
library's elimination. ``massey_loop`` is `pmrc.decoding._massey` as first
written, which rebuilds its arrays on every step: the reference for the
in-place one.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from pmrc import (
    CodeMode, DecodeFailure, EncodingMatrix, Fq, ParameterError, PmrcError, SystemParams,
)
from pmrc.errors import SingularMatrixError
from pmrc.linalg import _rref, left_inverse, matmul_mod, solve
from pmrc.perblock import _check_mode
from pmrc.shards import _slice_matrix_index, share_map


def rank(a, q: int) -> int:
    a = np.array(a, dtype=np.int64)
    return len(_rref(a, q, a.shape[1]))


class AmbiguityError(PmrcError):
    """Multiple candidates met the acceptance threshold (beyond-budget input)."""


def subset_decode_oracle(
    values: Sequence[int | None], rows: np.ndarray, t_max: int, field: Fq
) -> tuple[int, ...]:
    """Exhaustive reference decoder against arbitrary MDS rows over field.

    values[i] is the symbol observed for rows[i], or None if erased.
    """
    msg_len = rows.shape[1]
    if len(values) != rows.shape[0]:
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
    q = field.q
    candidates: set[tuple[int, ...]] = set()
    seen: set[tuple[int, ...]] = set()
    for subset in combinations(range(r_count), msg_len):
        idx = [received[j][0] for j in subset]
        rhs = np.array([[received[j][1]] for j in subset], dtype=np.int64)
        try:
            x = solve(rows[idx], rhs, q)
        except SingularMatrixError:
            continue
        cand = tuple(x[:, 0].tolist())
        if cand in seen:
            continue
        seen.add(cand)
        preds = matmul_mod(rows, x, q)[:, 0]
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


def locate_then_erase_full(ys, gen, need, t, field, solve, locate, per_block, counts=None):
    """`pmrc.shards._locate_then_erase` (same arguments, results and
    DecodeFailure text) without its shortcuts: one pass over every word
    left, then one word located at a time, and every pass eliminates the
    stacked code map of the positions it inverts, so ``solve`` is not read
    and ``counts`` is left as it is."""
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
        inv = left_inverse(np.concatenate(gen[rows]), q)
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
                erased = locate(word[:1])[0]
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


def massey_loop(syn: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Inversion-free Berlekamp-Massey over the first axis of (N, 2t)
    syndromes: (N, 2t + 1) connection polynomials C, low-first, and their
    lengths L (N,), as `pmrc.decoding._massey` returns them. The register
    before the last length change is kept times z^m, shifted by a copy on
    every step, and every update is an ``np.where`` rebuild."""
    n_words, n_syn = syn.shape
    syn = syn.T.astype(np.int64)
    conn = np.zeros((n_syn + 1, n_words), dtype=np.int64)
    conn[0] = 1
    prev = conn.copy()
    length = np.zeros(n_words, dtype=np.int64)
    last = np.ones(n_words, dtype=np.int64)
    for n in range(n_syn):
        disc = (conn[: n + 1] * syn[n::-1]).sum(axis=0) % q
        top = n + 2
        prev[1:top] = prev[: top - 1].copy()
        prev[0] = 0
        grow = (disc != 0) & (2 * length <= n)
        new = (last * conn[:top] - disc * prev[:top]) % q
        prev[:top] = np.where(grow, conn[:top], prev[:top])
        conn[:top] = new
        last = np.where(grow, disc, last)
        length = np.where(grow, n + 1 - length, length)
    return conn.T, length


# --- the message-matrix view of the code --------------------------------------


def message_matrices(blocks: np.ndarray, params: SystemParams) -> np.ndarray:
    """The (nblocks, beta, d, alpha') product-matrix operands of (nblocks, B)
    payload symbols: slice j of a block is its j-th run of B' symbols, laid
    out by `_slice_matrix_index`."""
    if blocks.shape[1] != params.message_symbols:
        raise ParameterError("payload block width must be B")
    idx = _slice_matrix_index(params)
    runs = blocks.reshape(blocks.shape[0], params.beta, params.slice_symbols)
    mats = runs[:, :, np.maximum(idx, 0)]
    mats[:, :, idx < 0] = 0
    return mats


def payload_of_matrices(mats: np.ndarray, params: SystemParams) -> np.ndarray:
    """Inverse of `message_matrices`: each payload symbol is read from the
    first cell that holds it."""
    values, cells = np.unique(_slice_matrix_index(params), return_index=True)
    flat = mats.reshape(mats.shape[0], params.beta, -1)
    return flat[:, :, cells[values >= 0]].reshape(mats.shape[0], params.message_symbols)


def share_map_einsum(enc: EncodingMatrix) -> np.ndarray:
    """`pmrc.shards.share_map` as psi times a (d, alpha', B') one-hot operand
    whose cell (r, w, j) is 1 where the slice operand holds payload symbol j."""
    params = enc.params
    idx = _slice_matrix_index(params)
    onehot = (idx[:, :, None] == np.arange(params.slice_symbols)).astype(np.int64)
    return np.einsum("nd,dwu->nwu", enc.psi, onehot) % enc.field.q


def share_map_by_elimination(enc: EncodingMatrix) -> tuple[np.ndarray, np.ndarray | None]:
    """`pmrc.shards._share_map_layout` by elimination: the product-matrix
    map times the inverse of the rows of nodes 1..k's stacked map that
    `linalg.left_inverse` reads, those rows being the layout (None in the
    product-matrix basis)."""
    params = enc.params
    amap = share_map_einsum(enc)
    if not enc.systematic:
        return amap, None
    flat = amap.reshape(-1, params.slice_symbols)
    inv = left_inverse(flat[: params.k * params.alpha_prime], enc.field.q)
    layout = np.flatnonzero(inv.any(axis=0))
    mapped = matmul_mod(flat, inv[:, layout], enc.field.q).astype(np.int64)
    return mapped.reshape(amap.shape), layout


def _symmetric(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and np.array_equal(m, m.T)


@dataclass(frozen=True, eq=False)
class MsrMessageMatrix:
    """One slice of the message: two symmetric (k-1)x(k-1) halves."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        if not (_symmetric(self.s1) and _symmetric(self.s2)):
            raise ParameterError("message halves must be square and symmetric")
        if self.s1.shape != self.s2.shape:
            raise ParameterError("message halves must match in shape")

    @property
    def alpha_prime(self) -> int:
        return self.s1.shape[0]

    def stacked(self) -> np.ndarray:
        """The (d x alpha') product-matrix operand [S1; S2]."""
        return np.concatenate([self.s1, self.s2])


@dataclass(frozen=True, eq=False)
class MbrMessageMatrix:
    """One slice: symmetric k x k block S plus the (d-k) x k block T."""

    s: np.ndarray
    t_blk: np.ndarray

    def __post_init__(self):
        if not _symmetric(self.s):
            raise ParameterError("S block must be square and symmetric")
        if self.t_blk.shape[1] != self.s.shape[0]:
            raise ParameterError("T block must have k columns")

    @property
    def k(self) -> int:
        return self.s.shape[0]

    @property
    def d(self) -> int:
        return self.s.shape[0] + self.t_blk.shape[0]

    def assembled(self) -> np.ndarray:
        """The full symmetric d x d message matrix with zero lower-right
        (d-k) x (d-k) corner."""
        k, d = self.k, self.d
        a = np.zeros((d, d), dtype=np.int64)
        a[:k, :k] = self.s
        a[k:, :k] = self.t_blk
        a[:k, k:] = self.t_blk.T
        return a


def _slice_matrices(
    payload: Sequence[int], params: SystemParams, field: Fq
) -> np.ndarray:
    """The (beta, d, alpha') operands of one block's B payload symbols, each
    an element of field."""
    if len(payload) != params.message_symbols:
        raise ParameterError(
            f"payload must have {params.message_symbols} symbols, got {len(payload)}"
        )
    for v in payload:
        field.check(v)
    return message_matrices(np.asarray([payload], dtype=np.int64), params)[0]


def _slice_payload(mats: Sequence[np.ndarray], params: SystemParams) -> tuple[int, ...]:
    """Inverse of _slice_matrices on the slices' (d, alpha') operands."""
    if len(mats) != params.beta:
        raise ParameterError(f"expected {params.beta} slices, got {len(mats)}")
    return tuple(payload_of_matrices(np.stack(mats)[None], params)[0].tolist())


def msr_fill_message(
    payload: Sequence[int], params: SystemParams, field: Fq
) -> list[MsrMessageMatrix]:
    """Pack B payload symbols into beta slices: per slice, the first
    triangle fills S1 and the second fills S2."""
    _check_mode(params, CodeMode.MSR)
    ap = params.k - 1
    return [
        MsrMessageMatrix(s1=m[:ap], s2=m[ap:])
        for m in _slice_matrices(payload, params, field)
    ]


def msr_read_message(
    slices: Sequence[MsrMessageMatrix], params: SystemParams
) -> tuple[int, ...]:
    """Inverse of msr_fill_message."""
    _check_mode(params, CodeMode.MSR)
    return _slice_payload([sl.stacked() for sl in slices], params)


def mbr_fill_message(
    payload: Sequence[int], params: SystemParams, field: Fq
) -> list[MbrMessageMatrix]:
    """Per slice, the first k(k+1)/2 symbols fill S's upper triangle and the
    remaining k(d-k) fill T row-major."""
    _check_mode(params, CodeMode.MBR)
    k = params.k
    return [
        MbrMessageMatrix(s=m[:k, :k], t_blk=m[k:, :k])
        for m in _slice_matrices(payload, params, field)
    ]


def mbr_read_message(
    slices: Sequence[MbrMessageMatrix], params: SystemParams
) -> tuple[int, ...]:
    """Inverse of mbr_fill_message."""
    _check_mode(params, CodeMode.MBR)
    return _slice_payload([sl.assembled() for sl in slices], params)


def msr_systematic_remap(
    payload: Sequence[int], enc: EncodingMatrix, sys_nodes: Sequence[int]
) -> list[MsrMessageMatrix]:
    """Message matrices under which node sys_nodes[r] stores
    payload[r*alpha : (r+1)*alpha] verbatim.

    Inverts the linear map message -> (designated k shares), which the
    reconstruction property makes invertible."""
    params = enc.params
    _check_mode(params, CodeMode.MSR)
    if len(set(sys_nodes)) != params.k:
        raise ParameterError(f"need {params.k} distinct systematic nodes")
    for i in sys_nodes:
        enc.check_node(i)
    if len(payload) != params.message_symbols:
        raise ParameterError(
            f"payload must have {params.message_symbols} symbols, got {len(payload)}"
        )
    field = enc.field
    amap = share_map(enc)
    a_sys = np.concatenate([amap[i - 1] for i in sys_nodes], axis=0)
    # column j of the target stacks each designated node's slice-j segment of
    # its alpha-symbol run; one solve gives every slice's B' symbols
    runs = np.asarray(payload, dtype=np.int64).reshape(params.k, params.beta, -1)
    target = runs.transpose(0, 2, 1).reshape(-1, params.beta)
    u = solve(a_sys, target, field.q)
    return msr_fill_message(u.T.ravel().tolist(), params, field)
