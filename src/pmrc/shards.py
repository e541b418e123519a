"""Shard files and the file-level codec.

A shard holds one node's symbols for every block of a file. The header is
self-describing (mode, [n,k,d], beta, q, evaluation points, block count, true
byte length), so reconstruction needs nothing beyond the shard files; the
(s, t) budget is a decode-time choice and is never stored.

Layout (little-endian):

    magic       4s   b"PMRC"
    version     u16  1
    mode        u8   0 = MSR, 1 = MBR
    flags       u8   reserved, 0
    n,k,d,beta  u16 each
    q           u32
    node_id     u16
    reserved    u16
    block_count u64
    data_len    u64  original byte length before padding
    points      n x u32
    body        block_count * alpha  u16 symbols

File payloads pack one byte per symbol (q >= 257 keeps every byte value a
field element) and are zero-padded to a whole number of B-symbol blocks.

This module is the package's one codec. Blocks are independent, so every
step works on all blocks at once with numpy: `encode_blocks`, the helper step
`helper_symbols`, and the two decode steps `decode_repair` and
`decode_reconstruct`, which take only the responses that arrived (erased ones
dropped) plus the corruption budget t. Each decode tries candidate clean
subsets in canonical order and accepts a block's candidate once it agrees
with at least R - t of the R responses. The file-level calls
(`repair_blocks`, `reconstruct_blocks`), the simulator and the per-block
`msr_*`/`mbr_*` calls (batches of one block) all run these steps; the
reference decoders in `decoding` are kept for tests to compare against.
"""

from __future__ import annotations

import os
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DecodeFailure, InfeasibleError, ParameterError
from .field import Fq
from .linalg import MatrixFq
from .params import (
    CodeMode,
    EncodingMatrix,
    SystemParams,
    encoding_from_points,
    mbr_params,
    msr_params,
)

MAGIC = b"PMRC"
VERSION = 1
_HEAD = struct.Struct("<4sHBBHHHHIHHQQ")
_MODE_CODE = {CodeMode.MSR: 0, CodeMode.MBR: 1}
_MODE_FROM = {0: CodeMode.MSR, 1: CodeMode.MBR}


@dataclass(frozen=True)
class ShardHeader:
    mode: CodeMode
    n: int
    k: int
    d: int
    beta: int
    q: int
    node_id: int
    block_count: int
    data_len: int
    points: tuple[int, ...]

    def params(self) -> SystemParams:
        if self.mode is CodeMode.MSR:
            return msr_params(k=self.k, n=self.n, beta=self.beta)
        return mbr_params(k=self.k, d=self.d, n=self.n, beta=self.beta)

    def encoding(self) -> EncodingMatrix:
        return encoding_from_points(self.params(), Fq(self.q), self.points)

    def set_key(self) -> tuple:
        """Every header field but node_id: equal for shards of one set."""
        return (
            self.mode, self.n, self.k, self.d, self.beta, self.q,
            self.block_count, self.data_len, self.points,
        )

    def same_shard_set(self, other: "ShardHeader") -> bool:
        return self.set_key() == other.set_key()

    def pack(self) -> bytes:
        head = _HEAD.pack(
            MAGIC,
            VERSION,
            _MODE_CODE[self.mode],
            0,
            self.n,
            self.k,
            self.d,
            self.beta,
            self.q,
            self.node_id,
            0,
            self.block_count,
            self.data_len,
        )
        return head + struct.pack(f"<{self.n}I", *self.points)

    @classmethod
    def unpack(cls, fp) -> "ShardHeader":
        raw = fp.read(_HEAD.size)
        if len(raw) != _HEAD.size:
            raise ParameterError("truncated shard header")
        magic, version, mode_c, _flags, n, k, d, beta, q, node_id, _r, bc, dl = (
            _HEAD.unpack(raw)
        )
        if magic != MAGIC:
            raise ParameterError("not a shard file (bad magic)")
        if version != VERSION:
            raise ParameterError(f"unsupported shard version {version}")
        if mode_c not in _MODE_FROM:
            raise ParameterError(f"unknown mode code {mode_c}")
        if q > 0xFFFF:
            raise ParameterError("shard symbols are 16-bit; q must be < 65536")
        praw = fp.read(4 * n)
        if len(praw) != 4 * n:
            raise ParameterError("truncated point table")
        points = struct.unpack(f"<{n}I", praw)
        return cls(
            mode=_MODE_FROM[mode_c],
            n=n,
            k=k,
            d=d,
            beta=beta,
            q=q,
            node_id=node_id,
            block_count=bc,
            data_len=dl,
            points=points,
        )


def shard_filename(node_id: int) -> str:
    return f"node{node_id:04d}.shard"


def write_shard(path, header: ShardHeader, body: np.ndarray) -> None:
    params = header.params()
    if body.shape != (header.block_count, params.alpha):
        raise ParameterError(
            f"body shape {body.shape} != (blocks={header.block_count}, "
            f"alpha={params.alpha})"
        )
    with open(path, "wb") as fp:
        fp.write(header.pack())
        fp.write(body.astype("<u2").tobytes())


def read_shard(path) -> tuple[ShardHeader, np.ndarray]:
    with open(path, "rb") as fp:
        header = ShardHeader.unpack(fp)
        params = header.params()
        want = header.block_count * params.alpha
        raw = fp.read(2 * want)
    if len(raw) != 2 * want:
        raise ParameterError(f"shard body truncated: {path}")
    body = np.frombuffer(raw, dtype="<u2").astype(np.int64)
    body = body.reshape(header.block_count, params.alpha)
    if body.size and int(body.max()) >= header.q:
        raise ParameterError(f"shard symbols exceed the field modulus: {path}")
    return header, body


def load_shard_set(directory) -> tuple[ShardHeader, dict[int, np.ndarray]]:
    """All readable shards of the majority shard set in a directory.

    The reference header is the one shared by the most readable files (ties
    go to the set holding the lowest node id). Unreadable files, files of
    another set and repeated node ids are skipped: a deleted or garbled shard
    is an erasure, not a fatal error. Returns the reference header and
    node_id -> body."""
    names = sorted(
        f for f in os.listdir(directory)
        if f.startswith("node") and f.endswith(".shard")
    )
    if not names:
        raise InfeasibleError(f"no shard files in {directory}")
    readable: list[tuple[str, ShardHeader, np.ndarray]] = []
    skipped: list[str] = []
    for name in names:
        try:
            header, body = read_shard(os.path.join(directory, name))
        except (ParameterError, OSError):
            skipped.append(name)
            continue
        readable.append((name, header, body))
    if not readable:
        raise InfeasibleError(f"no readable shards in {directory}")
    keys = [header.set_key() for _, header, _ in readable]
    support = Counter(keys)
    ref = min(
        range(len(readable)),
        key=lambda i: (-support[keys[i]], readable[i][1].node_id),
    )
    bodies: dict[int, np.ndarray] = {}
    for (name, header, body), key in zip(readable, keys):
        if key != keys[ref] or header.node_id in bodies:
            skipped.append(name)
            continue
        bodies[header.node_id] = body
    if skipped:
        print(
            f"warning: skipped inconsistent shard files: {', '.join(skipped)}",
            file=sys.stderr,
        )
    return readable[ref][1], bodies


# --- file payload packing -------------------------------------------------


def bytes_to_blocks(data: bytes, message_symbols: int) -> np.ndarray:
    """One byte per symbol, zero-padded to whole blocks; shape (blocks, B)."""
    nblocks = -(-len(data) // message_symbols) if data else 0
    arr = np.zeros(nblocks * message_symbols, dtype=np.int64)
    arr[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return arr.reshape(nblocks, message_symbols)


def blocks_to_bytes(blocks: np.ndarray, data_len: int) -> bytes:
    flat = blocks.reshape(-1)
    if data_len > flat.size:
        raise ParameterError("data_len exceeds decoded payload")
    if flat.size and int(flat[:data_len].max(initial=0)) > 0xFF:
        raise DecodeFailure("decoded symbols are not bytes; wrong shards?")
    return flat[:data_len].astype(np.uint8).tobytes()


# --- block-layout index maps ----------------------------------------------


def _tri_index(i: int, j: int, m: int) -> int:
    """Position of upper-triangle entry (i <= j) in row-major order."""
    return i * m - i * (i - 1) // 2 + (j - i)


def _slice_matrix_index(params: SystemParams) -> np.ndarray:
    """Index map from one slice of payload symbols to the product-matrix
    operand; -1 marks structurally-zero cells (MBR lower-right corner)."""
    if params.mode is CodeMode.MSR:
        ap = params.k - 1
        tri = ap * (ap + 1) // 2
        idx = np.empty((params.d, ap), dtype=np.int64)
        for half in range(2):
            for r in range(ap):
                for c in range(ap):
                    i, j = min(r, c), max(r, c)
                    idx[half * ap + r, c] = half * tri + _tri_index(i, j, ap)
        return idx
    k, d = params.k, params.d
    tri = k * (k + 1) // 2
    idx = np.full((d, d), -1, dtype=np.int64)
    for r in range(k):
        for c in range(k):
            i, j = min(r, c), max(r, c)
            idx[r, c] = _tri_index(i, j, k)
    for r in range(d - k):
        for c in range(k):
            u = tri + r * k + c
            idx[k + r, c] = u
            idx[c, k + r] = u
    return idx


def share_map(enc: EncodingMatrix) -> np.ndarray:
    """Coefficient tensor A with shape (n, alpha', B') mapping one slice of
    payload symbols u to every node's stored slice: share_i = A[i] @ u."""
    params = enc.params
    idx = _slice_matrix_index(params)
    onehot = (idx[:, :, None] == np.arange(params.slice_symbols)).astype(np.int64)
    return np.einsum("nd,dwu->nwu", enc.psi.array(), onehot) % enc.field.q


# --- the batched codec ------------------------------------------------------


def encode_blocks(blocks: np.ndarray, enc: EncodingMatrix) -> dict[int, np.ndarray]:
    """Encode (nblocks, B) payload symbols; returns node_id -> (nblocks, alpha)."""
    params = enc.params
    q = enc.field.q
    nb = blocks.shape[0]
    if blocks.shape[1] != params.message_symbols:
        raise ParameterError("payload block width must be B")
    idx = _slice_matrix_index(params)
    width = idx.shape[1]  # alpha'
    psi = enc.psi.array()
    bprime = params.slice_symbols
    out = {i: np.empty((nb, params.alpha), dtype=np.int64) for i in range(1, params.n + 1)}
    zero_mask = idx < 0
    safe_idx = np.where(zero_mask, 0, idx)
    for j in range(params.beta):
        u = blocks[:, j * bprime : (j + 1) * bprime]
        m = u[:, safe_idx]
        if zero_mask.any():
            m = np.where(zero_mask[None, :, :], 0, m)
        code = np.einsum("nd,bdw->bnw", psi, m) % q
        for i in range(1, params.n + 1):
            out[i][:, j * width : (j + 1) * width] = code[:, i - 1, :]
    return out


def helper_symbols(
    share: np.ndarray, failed_id: int, enc: EncodingMatrix
) -> np.ndarray:
    """The (nblocks, beta) repair symbols a helper holding the (nblocks, alpha)
    ``share`` sends for ``failed_id``: per slice, its stored row dotted with
    phi_f (MSR) or psi_f (MBR). They depend on the helper's own share and the
    failed id only, never on which other helpers take part."""
    params = enc.params
    if params.mode is CodeMode.MSR:
        target = enc.phi_row(failed_id)
    else:
        target = enc.psi_row(failed_id)
    slices = share.reshape(share.shape[0], params.beta, params.alpha_prime)
    return slices @ np.asarray(target, dtype=np.int64) % enc.field.q


def poly_decode(
    y: np.ndarray, points: Sequence[int], msg_len: int, t: int, field: Fq
) -> np.ndarray:
    """Decode (R, nblocks) polynomial evaluations to (msg_len, nblocks)
    coefficients, tolerating up to t wrong rows per block. Candidate clean
    subsets are tried in canonical order; a block accepts the first candidate
    agreeing with at least R - t of its symbols."""
    n_rows = y.shape[0]
    q = field.q
    vdm = linalg.vandermonde(field, points, msg_len).array()
    out = np.zeros((msg_len, y.shape[1]), dtype=np.int64)
    undecided = np.arange(y.shape[1])
    for subset in combinations(range(n_rows), msg_len):
        if not undecided.size:
            break
        sub = list(subset)
        inv = linalg.inverse(
            MatrixFq(field, vdm[sub], _trusted=True)
        ).array()
        cand = inv @ y[sub] % q
        ok = (vdm @ cand % q == y).sum(axis=0) >= n_rows - t
        if ok.any():
            out[:, undecided[ok]] = cand[:, ok]
            undecided = undecided[~ok]
            y = y[:, ~ok]
    if undecided.size:
        raise DecodeFailure(
            f"{undecided.size} blocks exceeded the (t={t}) corruption budget"
        )
    return out


def decode_repair(
    symbols: dict[int, np.ndarray], failed_id: int, enc: EncodingMatrix, t: int
) -> np.ndarray:
    """The failed node's (nblocks, alpha) share from helper_id -> (nblocks,
    beta) repair symbols of the helpers that answered, up to t of them
    corrupt; exact when at least d + 2t answered. Per slice the symbols are
    evaluations of m_f = M phi_f (MSR) or M psi_f (MBR) at the helpers'
    points."""
    params = enc.params
    q = enc.field.q
    points = [enc.point_of(h) for h in symbols]
    y = np.stack(list(symbols.values()))  # (R, nblocks, beta)
    nb, ap = y.shape[1], params.alpha_prime
    share = np.empty((nb, params.beta, ap), dtype=np.int64)
    for j in range(params.beta):
        m = poly_decode(y[:, :, j], points, params.d, t, enc.field)
        if params.mode is CodeMode.MSR:
            # phi_f^t S1 + lambda_f phi_f^t S2, by the symmetry of S1 and S2
            m = (m[:ap] + enc.lam_of(failed_id) * m[ap:]) % q
        # MBR: M is symmetric, so m_f itself is the lost slice share
        share[:, j, :] = m.T
    return share.reshape(nb, params.alpha)


def decode_reconstruct(
    shares: dict[int, np.ndarray], enc: EncodingMatrix, t: int
) -> np.ndarray:
    """The (nblocks, B) payload from node_id -> (nblocks, alpha) shares of the
    nodes that answered, up to t of them corrupt; exact when at least k + 2t
    answered. Per slice, each k-subset's candidate is its stacked share map's
    left inverse applied to its shares."""
    params = enc.params
    ids = list(shares)
    q = enc.field.q
    nb = shares[ids[0]].shape[0]
    amap = share_map(enc)
    width = params.alpha_prime
    bprime = params.slice_symbols
    out = np.empty((nb, params.message_symbols), dtype=np.int64)
    for j in range(params.beta):
        # node -> (alpha', blocks not yet decided) received slice shares
        ys = {i: shares[i][:, j * width : (j + 1) * width].T for i in ids}
        undecided = np.arange(nb)
        got = np.zeros((bprime, nb), dtype=np.int64)
        for subset in combinations(ids, params.k):
            if not undecided.size:
                break
            a_sub = MatrixFq(
                enc.field,
                np.concatenate([amap[i - 1] for i in subset], axis=0),
                _trusted=True,
            )
            lsolve = linalg.left_inverse(a_sub).array()
            cand = lsolve @ np.concatenate([ys[i] for i in subset], axis=0) % q
            agree = sum((amap[i - 1] @ cand % q == ys[i]).all(axis=0) for i in ids)
            ok = agree >= len(ids) - t
            if ok.any():
                got[:, undecided[ok]] = cand[:, ok]
                undecided = undecided[~ok]
                ys = {i: y[:, ~ok] for i, y in ys.items()}
        if undecided.size:
            raise DecodeFailure(
                f"{undecided.size} blocks exceeded the (t={t}) corruption budget"
            )
        out[:, j * bprime : (j + 1) * bprime] = got.T
    return out


def repair_blocks(
    bodies: dict[int, np.ndarray],
    failed_id: int,
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> tuple[np.ndarray, dict]:
    """Regenerate the failed node's (nblocks, alpha) body from shard bodies.

    Helpers are the lowest-id present nodes; each contributes its per-block
    repair symbols, computed exactly as a live helper would.
    """
    params = enc.params
    enc.check_node(failed_id)
    delta = params.d + s + 2 * t
    if delta > params.n - 1:
        raise InfeasibleError(f"(s={s}, t={t}) needs d+s+2t <= n-1")
    helpers = sorted(i for i in bodies if i != failed_id)
    if len(helpers) < delta:
        raise InfeasibleError(f"repair needs {delta} helper shards, found {len(helpers)}")
    helpers = helpers[:delta]
    symbols = {h: helper_symbols(bodies[h], failed_id, enc) for h in helpers}
    share = decode_repair(symbols, failed_id, enc, t)
    info = {
        "helpers": helpers,
        "connectivity": delta,
        "downloaded": delta * params.beta * share.shape[0],
    }
    return share, info


def reconstruct_blocks(
    bodies: dict[int, np.ndarray],
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> tuple[np.ndarray, dict]:
    """Recover (nblocks, B) payload symbols from kappa = k+s+2t shards."""
    params = enc.params
    kappa = params.k + s + 2 * t
    if kappa > params.n:
        raise InfeasibleError(f"(s={s}, t={t}) needs k+s+2t <= n")
    present = sorted(bodies)
    if len(present) < kappa:
        raise InfeasibleError(
            f"reconstruction needs {kappa} shards, found {len(present)}"
        )
    chosen = present[:kappa]
    out = decode_reconstruct({i: bodies[i] for i in chosen}, enc, t)
    info = {
        "providers": chosen,
        "connectivity": kappa,
        "downloaded": kappa * params.alpha * out.shape[0],
    }
    return out, info
