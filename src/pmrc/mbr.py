"""Minimum-bandwidth (MBR) codes for any [n,k,d]: message layout and per-block calls.

Per slice the message is the symmetric d x d matrix

    M = [ S    T^t ]
        [ T    0   ]

with S the k x k symmetric block and T the (d-k) x k block. Node i stores
psi_i^t M; a helper sends its stored row dotted with psi_f, the evaluations of
m_f = M psi_f, and symmetry of M makes the decoded m_f^t exactly the lost
share. A replacement node downloads exactly what it stores (alpha = d*beta)
when s = t = 0.

The codec is the batched one in `pmrc.shards`, which also holds the message
layout that mbr_fill_message and mbr_read_message use. mbr_encode,
mbr_helper_symbol, mbr_repair and mbr_reconstruct check their per-block
arguments and run the codec on a batch of one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decoding import Response
from .errors import ParameterError
from .field import Fq
from .linalg import MatrixFq
from .msr import (
    NodeShare,
    _check_mode,
    _encode_one,
    _helper_one,
    _reconstruct_one,
    _repair_one,
    _slice_matrices,
    _slice_payload,
)
from .params import CodeMode, EncodingMatrix, SystemParams


@dataclass(frozen=True)
class MbrMessageMatrix:
    """One slice: symmetric k x k block S plus the (d-k) x k block T."""

    s: MatrixFq
    t_blk: MatrixFq

    def __post_init__(self):
        if self.s.rows != self.s.cols or self.s != self.s.T:
            raise ParameterError("S block must be square and symmetric")
        if self.t_blk.cols != self.s.rows:
            raise ParameterError("T block must have k columns")
        if self.t_blk.field != self.s.field:
            raise ParameterError("blocks must share a field")

    @property
    def k(self) -> int:
        return self.s.rows

    @property
    def d(self) -> int:
        return self.s.rows + self.t_blk.rows

    def assembled(self) -> MatrixFq:
        """The full symmetric d x d message matrix with zero lower-right
        (d-k) x (d-k) corner."""
        k, d = self.k, self.d
        a = np.zeros((d, d), dtype=np.int64)
        a[:k, :k] = self.s.array()
        a[k:, :k] = self.t_blk.array()
        a[:k, k:] = self.t_blk.array().T
        return MatrixFq(self.s.field, a, _trusted=True)


def mbr_fill_message(
    payload: Sequence[int], params: SystemParams, field: Fq
) -> list[MbrMessageMatrix]:
    """Per slice, the first k(k+1)/2 symbols fill S's upper triangle and the
    remaining k(d-k) fill T row-major."""
    _check_mode(params, CodeMode.MBR)
    k = params.k
    return [
        MbrMessageMatrix(s=MatrixFq(field, m[:k, :k]), t_blk=MatrixFq(field, m[k:, :k]))
        for m in _slice_matrices(payload, params)
    ]


def mbr_read_message(
    slices: Sequence[MbrMessageMatrix], params: SystemParams
) -> tuple[int, ...]:
    """Inverse of mbr_fill_message."""
    _check_mode(params, CodeMode.MBR)
    return _slice_payload([sl.assembled() for sl in slices], params)


def mbr_encode(
    slices: Sequence[MbrMessageMatrix], enc: EncodingMatrix
) -> list[NodeShare]:
    """Code matrix psi @ M per slice; node i's share concatenates row i of
    every slice."""
    params = enc.params
    if any(sl.k != params.k or sl.d != params.d for sl in slices):
        raise ParameterError("slice shape does not match parameters")
    return _encode_one(mbr_read_message(slices, params), slices[0].s.field, enc)


def mbr_helper_symbol(
    helper_share: NodeShare, failed_id: int, enc: EncodingMatrix
) -> tuple[int, ...]:
    """Per slice, the helper's stored d-row dotted with psi_f; a function of
    the helper's own share and the failed id only."""
    _check_mode(enc.params, CodeMode.MBR)
    return _helper_one(helper_share, failed_id, enc)


def mbr_repair(
    responses: Sequence[Response],
    failed_id: int,
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> NodeShare:
    """Exact repair from d+s+2t responses; the decoded m_f = M psi_f is the
    lost share itself because M is symmetric."""
    _check_mode(enc.params, CodeMode.MBR)
    return _repair_one(responses, failed_id, enc, s, t)


def mbr_reconstruct(
    responses: Sequence[Response],
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> tuple[int, ...]:
    """All B message symbols from k+s+2t responses; at most s erased, at most
    t corrupted."""
    _check_mode(enc.params, CodeMode.MBR)
    return _reconstruct_one(responses, enc, s, t)
