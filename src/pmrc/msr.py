"""Minimum-storage (MSR) codes at d = 2k-2: message layout and per-block calls.

Per beta-slice the message lives in two symmetric (k-1)x(k-1) matrices S1, S2
stacked into M = [S1; S2]; node i stores the row psi_i^t M. A helper h sends
the single symbol (h's stored row) . phi_f for the failed node f, so the
replacement sees evaluations of the degree-<d polynomial with coefficients
m_f = M phi_f. The failed share is then rebuilt as phi_f^t S1 + lambda_f
phi_f^t S2 using the symmetry of S1 and S2. Slices are independent; a block's
share is the concatenation of its slice shares.

The codec is the batched one in `pmrc.shards`, which also holds the message
layout: msr_fill_message and msr_read_message build and read the message
matrices through `shards.message_matrices` and `shards.payload_of_matrices`.
msr_encode, msr_helper_symbol, msr_repair and msr_reconstruct check their
per-block arguments and run the codec on a batch of one block. The adapters
behind them, shared with `pmrc.mbr`, live here; a repair or reconstruction
word holds exactly `params.connectivity` responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, shards
from .decoding import Response
from .errors import FieldMismatchError, ParameterError
from .field import Fq
from .linalg import MatrixFq
from .params import CodeMode, EncodingMatrix, SystemParams, connectivity


@dataclass(frozen=True)
class NodeShare:
    """The alpha symbols a node stores for one block (slice-major order)."""

    node_id: int
    symbols: tuple[int, ...]


@dataclass(frozen=True)
class MsrMessageMatrix:
    """One slice of the message: two symmetric (k-1)x(k-1) halves."""

    s1: MatrixFq
    s2: MatrixFq

    def __post_init__(self):
        for m in (self.s1, self.s2):
            if m.rows != m.cols or m != m.T:
                raise ParameterError("message halves must be square and symmetric")
        if self.s1.shape != self.s2.shape or self.s1.field != self.s2.field:
            raise ParameterError("message halves must match in shape and field")

    @property
    def alpha_prime(self) -> int:
        return self.s1.rows

    def stacked(self) -> MatrixFq:
        """The (d x alpha') product-matrix operand [S1; S2]."""
        return linalg.vstack([self.s1, self.s2])


def _check_mode(params: SystemParams, mode: CodeMode):
    if params.mode is not mode:
        name = mode.value.upper()
        raise ParameterError(f"{name} operation on non-{name} parameters")


def _ints(row) -> tuple[int, ...]:
    return tuple(int(v) for v in row)


def _slice_matrices(payload: Sequence[int], params: SystemParams) -> np.ndarray:
    """The (beta, d, alpha') operands of one block's B payload symbols."""
    if len(payload) != params.message_symbols:
        raise ParameterError(
            f"payload must have {params.message_symbols} symbols, got {len(payload)}"
        )
    return shards.message_matrices(np.asarray([payload], dtype=np.int64), params)[0]


def _slice_payload(mats: Sequence[MatrixFq], params: SystemParams) -> tuple[int, ...]:
    """Inverse of _slice_matrices on the slices' (d, alpha') operands."""
    if len(mats) != params.beta:
        raise ParameterError(f"expected {params.beta} slices, got {len(mats)}")
    stacked = np.stack([m.array() for m in mats])[None]
    return _ints(shards.payload_of_matrices(stacked, params)[0])


def msr_fill_message(
    payload: Sequence[int], params: SystemParams, field: Fq
) -> list[MsrMessageMatrix]:
    """Pack B payload symbols into beta slices: per slice, the first
    triangle fills S1 and the second fills S2."""
    _check_mode(params, CodeMode.MSR)
    ap = params.k - 1
    return [
        MsrMessageMatrix(s1=MatrixFq(field, m[:ap]), s2=MatrixFq(field, m[ap:]))
        for m in _slice_matrices(payload, params)
    ]


def msr_read_message(
    slices: Sequence[MsrMessageMatrix], params: SystemParams
) -> tuple[int, ...]:
    """Inverse of msr_fill_message."""
    _check_mode(params, CodeMode.MSR)
    return _slice_payload([sl.stacked() for sl in slices], params)


def _encode_one(payload: Sequence[int], field: Fq, enc: EncodingMatrix) -> list[NodeShare]:
    if field != enc.field:
        raise FieldMismatchError(f"fields differ: F_{field.q} vs F_{enc.field.q}")
    bodies = shards.encode_blocks(np.asarray([payload], dtype=np.int64), enc)
    return [NodeShare(i, _ints(body[0])) for i, body in bodies.items()]


def msr_encode(
    slices: Sequence[MsrMessageMatrix], enc: EncodingMatrix
) -> list[NodeShare]:
    """Code matrix psi @ M per slice; node i's share concatenates row i of
    every slice."""
    params = enc.params
    if any(sl.alpha_prime != params.k - 1 for sl in slices):
        raise ParameterError("slice size does not match parameters")
    return _encode_one(msr_read_message(slices, params), slices[0].s1.field, enc)


def _helper_one(
    helper_share: NodeShare, failed_id: int, enc: EncodingMatrix
) -> tuple[int, ...]:
    enc.check_node(failed_id)
    enc.check_node(helper_share.node_id)
    if failed_id == helper_share.node_id:
        raise ParameterError("a node cannot help repair itself")
    if len(helper_share.symbols) != enc.params.alpha:
        raise ParameterError("helper share has wrong length")
    share = np.asarray([helper_share.symbols], dtype=np.int64)
    return _ints(shards.helper_symbols(share, failed_id, enc)[0])


def msr_helper_symbol(
    helper_share: NodeShare, failed_id: int, enc: EncodingMatrix
) -> tuple[int, ...]:
    """The beta repair symbols helper h sends for failed node f: per slice the
    inner product of h's stored row with phi_f. Depends only on h's own share
    and f, never on which other helpers take part."""
    _check_mode(enc.params, CodeMode.MSR)
    return _helper_one(helper_share, failed_id, enc)


def _received(
    responses: Sequence[Response], enc: EncodingMatrix, s: int, t: int,
    failed_id: int | None = None,
) -> dict[int, np.ndarray]:
    """node_id -> one-block batch of the responses that arrived, from a word
    of exactly `connectivity` responses (repair when ``failed_id`` is given)
    by distinct valid nodes other than the failed one, each arrived response
    carrying beta (repair) or alpha field elements. The decode step rejects
    more than s erased responses: it needs R >= d+2t (k+2t)."""
    params = enc.params
    repair = failed_id is not None
    count = connectivity(params, s, t, repair)
    if len(responses) != count:
        raise ParameterError(f"need exactly {count} responses, got {len(responses)}")
    ids = [r.node_id for r in responses]
    if len(set(ids)) != len(ids):
        raise ParameterError("duplicate node ids")
    width = params.beta if repair else params.alpha
    received = {}
    for r in responses:
        if enc.check_node(r.node_id) == failed_id:
            raise ParameterError("failed node cannot be its own helper")
        if r.erased:
            continue
        if len(r.symbols) != width:
            raise ParameterError(f"responses must carry {width} symbols")
        for v in r.symbols:
            enc.field.check(v)
        received[r.node_id] = np.asarray([r.symbols], dtype=np.int64)
    return received


def _repair_one(
    responses: Sequence[Response], failed_id: int, enc: EncodingMatrix, s: int, t: int
) -> NodeShare:
    enc.check_node(failed_id)
    received = _received(responses, enc, s, t, failed_id)
    share = shards.decode_repair(received, failed_id, enc, t)
    return NodeShare(node_id=failed_id, symbols=_ints(share[0]))


def msr_repair(
    responses: Sequence[Response],
    failed_id: int,
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> NodeShare:
    """Exact repair of the failed node's share from d+s+2t helper responses
    with at most s erased and at most t silently corrupted."""
    _check_mode(enc.params, CodeMode.MSR)
    return _repair_one(responses, failed_id, enc, s, t)


def _reconstruct_one(
    responses: Sequence[Response], enc: EncodingMatrix, s: int, t: int
) -> tuple[int, ...]:
    received = _received(responses, enc, s, t)
    return _ints(shards.decode_reconstruct(received, enc, t)[0])


def msr_reconstruct(
    responses: Sequence[Response],
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> tuple[int, ...]:
    """All B message symbols from k+s+2t share responses with at most s
    erased and at most t corrupted."""
    _check_mode(enc.params, CodeMode.MSR)
    return _reconstruct_one(responses, enc, s, t)


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
    amap = shards.share_map(enc)
    a_sys = MatrixFq(
        field, np.concatenate([amap[i - 1] for i in sys_nodes], axis=0), _trusted=True
    )
    # column j of the target stacks each designated node's slice-j segment of
    # its alpha-symbol run; one solve gives every slice's B' symbols
    runs = np.asarray(payload, dtype=np.int64).reshape(params.k, params.beta, -1)
    target = MatrixFq(field, runs.transpose(0, 2, 1).reshape(-1, params.beta))
    u = linalg.solve(a_sys, target)
    return msr_fill_message(u.array().T.ravel().tolist(), params, field)
