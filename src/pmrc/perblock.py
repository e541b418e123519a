"""The tests' per-block harness: the batched codec of `pmrc.shards` on a
batch of one block, taking and returning `decoding.Response` records. It is
not public API, and stays in `src/` only because the benchmark tracer
(perfbench/tracer.py) binds its calls through `pmrc.simulator`. Each call
checks the code's mode and its arguments, then runs one codec step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import shards
from .decoding import Response
from .errors import ParameterError
from .params import CodeMode, EncodingMatrix, SystemParams, connectivity


def _check_mode(params: SystemParams, mode: CodeMode):
    if params.mode is not mode:
        name = mode.value.upper()
        raise ParameterError(f"{name} operation on non-{name} parameters")


def _encode_one(payload: Sequence[int], enc: EncodingMatrix) -> list[Response]:
    width, q = enc.params.message_symbols, enc.field.q
    block = np.asarray(payload, dtype=np.int64)
    if block.shape != (width,) or ((block < 0) | (block >= q)).any():
        raise ParameterError(f"payload must be {width} elements of F_{q}")
    bodies = shards.encode_blocks(block[None], enc)
    return [Response(i, tuple(body[0].tolist())) for i, body in bodies.items()]


def _helper_one(
    helper_share: Response, failed_id: int, enc: EncodingMatrix
) -> tuple[int, ...]:
    enc.check_node(failed_id)
    enc.check_node(helper_share.node_id)
    if failed_id == helper_share.node_id:
        raise ParameterError("a node cannot help repair itself")
    if len(helper_share.symbols or ()) != enc.params.alpha:
        raise ParameterError("helper share has wrong length")
    share = np.asarray([helper_share.symbols], dtype=np.int64)
    return tuple(shards.helper_symbols(share, failed_id, enc)[0].tolist())


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
) -> Response:
    enc.check_node(failed_id)
    received = _received(responses, enc, s, t, failed_id)
    share = shards.decode_repair(received, failed_id, enc, t)
    return Response(failed_id, tuple(share[0].tolist()))


def _reconstruct_one(
    responses: Sequence[Response], enc: EncodingMatrix, s: int, t: int
) -> tuple[int, ...]:
    received = _received(responses, enc, s, t)
    return tuple(shards.decode_reconstruct(received, enc, t)[0].tolist())


def msr_encode(payload: Sequence[int], enc: EncodingMatrix) -> list[Response]:
    """Every node's share of one block's B payload symbols: per slice, its
    psi row times the message matrix [S1; S2]."""
    _check_mode(enc.params, CodeMode.MSR)
    return _encode_one(payload, enc)


def mbr_encode(payload: Sequence[int], enc: EncodingMatrix) -> list[Response]:
    """Every node's share of one block's B payload symbols: per slice, its
    psi row times the symmetric message matrix [[S, T^t], [T, 0]]."""
    _check_mode(enc.params, CodeMode.MBR)
    return _encode_one(payload, enc)


def msr_helper_symbol(
    helper_share: Response, failed_id: int, enc: EncodingMatrix
) -> tuple[int, ...]:
    """The beta repair symbols helper h sends for failed node f: per slice the
    inner product of h's stored row with phi_f. Depends only on h's own share
    and f, never on which other helpers take part."""
    _check_mode(enc.params, CodeMode.MSR)
    return _helper_one(helper_share, failed_id, enc)


def mbr_helper_symbol(
    helper_share: Response, failed_id: int, enc: EncodingMatrix
) -> tuple[int, ...]:
    """Per slice, the helper's stored d-row dotted with psi_f; a function of
    the helper's own share and the failed id only."""
    _check_mode(enc.params, CodeMode.MBR)
    return _helper_one(helper_share, failed_id, enc)


def msr_repair(
    responses: Sequence[Response], failed_id: int, enc: EncodingMatrix,
    s: int = 0, t: int = 0,
) -> Response:
    """Exact repair of the failed node's share from d+s+2t helper responses
    with at most s erased and at most t silently corrupted."""
    _check_mode(enc.params, CodeMode.MSR)
    return _repair_one(responses, failed_id, enc, s, t)


def mbr_repair(
    responses: Sequence[Response], failed_id: int, enc: EncodingMatrix,
    s: int = 0, t: int = 0,
) -> Response:
    """Exact repair from d+s+2t responses; the decoded m_f = M psi_f is the
    lost share itself because M is symmetric."""
    _check_mode(enc.params, CodeMode.MBR)
    return _repair_one(responses, failed_id, enc, s, t)


def msr_reconstruct(
    responses: Sequence[Response], enc: EncodingMatrix, s: int = 0, t: int = 0
) -> tuple[int, ...]:
    """All B message symbols from k+s+2t share responses with at most s
    erased and at most t corrupted."""
    _check_mode(enc.params, CodeMode.MSR)
    return _reconstruct_one(responses, enc, s, t)


def mbr_reconstruct(
    responses: Sequence[Response], enc: EncodingMatrix, s: int = 0, t: int = 0
) -> tuple[int, ...]:
    """All B message symbols from k+s+2t responses; at most s erased, at most
    t corrupted."""
    _check_mode(enc.params, CodeMode.MBR)
    return _reconstruct_one(responses, enc, s, t)
