"""Shard files and the file-level codec.

A shard holds one node's symbols for every block of a file. The header is
self-describing (mode, basis, [n,k,d], beta, q, evaluation points, block
count, true byte length), so reconstruction needs nothing beyond the shard
files; the (s, t) budget is a decode-time choice and is never stored.

Layout (little-endian):

    magic       4s   b"PMRC"
    version     u16  1
    mode        u8   0 = MSR, 1 = MBR
    flags       u8   bit 0: systematic basis; every other bit 0
    n,k,d,beta  u16 each
    q           u32
    node_id     u16
    reserved    u16
    block_count u64  ceil(data_len / B)
    data_len    u64  original byte length before padding
    points      n x u32
    body        block_count * alpha  u16 symbols

File payloads pack one byte per symbol (q >= 257 keeps every byte value a
field element) and are zero-padded to a whole number of B-symbol blocks.

`load_shard_set` votes on headers alone (each body's length is checked with
`fstat`, its bytes are not read) and returns the agreeing shards as a lazy
`ShardBodies` mapping; a header is read into the code it states
(`ShardHeader.enc`), and one that states no valid code (a prime q, n
distinct points in the field, distinct lambda for MSR), sets an unknown
flag or a block count that does not fit its byte length is an erasure like
an unreadable one. `repair_blocks` and `reconstruct_blocks` read only the
Delta or kappa lowest-id bodies they decode, each once, through `read_shard`;
a body that fails its checks there is an erasure, and the next id is read.

The code is stated once, as `share_map`: the linear map from one slice's B'
payload symbols (laid out by `_slice_matrix_index`) to every node's alpha'
stored symbols. In a systematic code B' of nodes 1..k's stored symbols are
the payload symbols themselves; the build of the map records which, as the
code's layout (at nonzero points, every symbol of nodes 1..k for MSR and
node i's first d - i + 1 for MBR). `encode_blocks` applies the map, copying
the payload to the layout, and `decode_reconstruct` inverts it. Every inverse
of the map, the one that makes it systematic included, is built by the
product-matrix reconstruction (`_reconstruct_inverse`) from k- and
(k-1)-point Vandermonde solves, never by a B'-sized elimination. Symbols stay
uint16 (``<u2``, the on-disk body format) from `read_shard` to `write_shard`;
every bulk product is `linalg.matmul_mod`.

This module is the package's one codec. Blocks are independent, and so is
each beta-slice of a block (a copy of the beta = 1 code), so `encode_blocks`,
`helper_symbols`, `decode_repair` and `decode_reconstruct` work on all slices
of all blocks at once, one word per row. A decode takes the R >= msg_len + 2t
responses that arrived and the corruption budget t, and gives each word the
unique message agreeing with at least R - t of them (`_locate_then_erase`),
locating each word at most once and decoding it at most once: a probe of
word 0 alone, whose located wrong positions the first pass leaves out; one
pass over all words (a gather of the layout when the inverted symbols are
nodes 1..k of a systematic code; for repair, a Vandermonde inverse memoized
in `linalg.vandermonde_inverse`); then the words left over located together
by Reed-Solomon error location (`decoding.locate`, directly for repair and
through the product-matrix reduction for reconstruction), grouped by the
positions they invert, one pass per group over its own words. The
file-level calls, the simulator and `pmrc.perblock` (batches of one block)
all run them.
"""

from __future__ import annotations

import functools
import os
import struct
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import decoding, linalg
from .errors import ConstructionError, DecodeFailure, InfeasibleError, ParameterError
from .field import Fq
from .params import (
    CodeMode,
    EncodingMatrix,
    SystemParams,
    connectivity,
    encoding_from_points,
)

MAGIC = b"PMRC"
VERSION = 1
_HEAD = struct.Struct("<4sHBBHHHHIHHQQ")
_MODES = (CodeMode.MSR, CodeMode.MBR)  # indexed by the header's mode code
_SYSTEMATIC = 0x01  # the one defined flags bit


@functools.lru_cache(maxsize=64)
def _header_code(mode_c: int, n: int, k: int, d: int, beta: int, q: int,
                 points: tuple[int, ...], systematic: bool) -> EncodingMatrix:
    """The checked code a header's fields state, built once per distinct
    fields: every header of a shard set states the same code."""
    params = SystemParams(_MODES[mode_c], n, k, d, beta)
    return encoding_from_points(params, Fq(q), points, systematic)


@dataclass(frozen=True)
class ShardHeader:
    """A shard's header: the code it states, its node id, the block count
    and the original byte length."""

    enc: EncodingMatrix
    node_id: int
    block_count: int
    data_len: int

    def set_key(self) -> tuple:
        """Every header field but node_id: equal for shards of one set."""
        return (self.enc, self.block_count, self.data_len)

    def same_shard_set(self, other: "ShardHeader") -> bool:
        return self.set_key() == other.set_key()

    def pack(self) -> bytes:
        p = self.enc.params
        fields = {"n": p.n, "k": p.k, "d": p.d, "beta": p.beta, "node_id": self.node_id}
        for name, value in fields.items():
            if not 0 <= value <= 0xFFFF:
                raise ParameterError(f"{name}={value} does not fit u16")
        head = _HEAD.pack(
            MAGIC, VERSION, _MODES.index(p.mode), _SYSTEMATIC if self.enc.systematic else 0,
            p.n, p.k, p.d, p.beta,
            self.enc.field.q, self.node_id, 0, self.block_count, self.data_len,
        )
        return head + struct.pack(f"<{p.n}I", *self.enc.points)

    @classmethod
    def unpack(cls, fp) -> "ShardHeader":
        """The header at the start of ``fp``. ParameterError (or, for MSR
        points with repeated lambda, ConstructionError) when it is cut short,
        does not state a valid code, sets a flag other than the systematic
        one, or has a block count other than ceil(data_len / B)."""
        raw = fp.read(_HEAD.size)
        if len(raw) != _HEAD.size:
            raise ParameterError("truncated shard header")
        magic, version, mode_c, flags, n, k, d, beta, q, node_id, _r, bc, dl = (
            _HEAD.unpack(raw)
        )
        if magic != MAGIC:
            raise ParameterError("not a shard file (bad magic)")
        if version != VERSION:
            raise ParameterError(f"unsupported shard version {version}")
        if mode_c >= len(_MODES):
            raise ParameterError(f"unknown mode code {mode_c}")
        if flags & ~_SYSTEMATIC:
            raise ParameterError(f"unknown header flags {flags:#04x}")
        if q > 0xFFFF:
            raise ParameterError("shard symbols are 16-bit; q must be < 65536")
        praw = fp.read(4 * n)
        if len(praw) != 4 * n:
            raise ParameterError("truncated point table")
        points = struct.unpack(f"<{n}I", praw)
        enc = _header_code(mode_c, n, k, d, beta, q, points, bool(flags))
        if bc != -(-dl // enc.params.message_symbols):
            raise ParameterError(
                f"block count {bc} does not hold {dl} bytes in blocks of "
                f"{enc.params.message_symbols}"
            )
        return cls(enc, node_id, bc, dl)


def shard_filename(node_id: int) -> str:
    return f"node{node_id:04d}.shard"


def write_shard(path, header: ShardHeader, body: np.ndarray) -> None:
    params = header.enc.params
    if body.shape != (header.block_count, params.alpha):
        raise ParameterError(
            f"body shape {body.shape} != (blocks={header.block_count}, "
            f"alpha={params.alpha})"
        )
    head = header.pack()
    with open(path, "wb") as fp:
        fp.write(head)
        fp.write(np.ascontiguousarray(body, dtype="<u2"))


def _read_header(fp, path) -> ShardHeader:
    """The header of an open shard file, checked against the length of the
    body behind it (`fstat`; the body itself is not read)."""
    header = ShardHeader.unpack(fp)
    want = header.block_count * header.enc.params.alpha
    if os.fstat(fp.fileno()).st_size - fp.tell() < 2 * want:
        raise ParameterError(f"shard body truncated: {path}")
    return header


def read_shard(path) -> tuple[ShardHeader, np.ndarray]:
    """The header and the writable (block_count, alpha) ``<u2`` body."""
    with open(path, "rb") as fp:
        header = _read_header(fp, path)
        shape = (header.block_count, header.enc.params.alpha)
        body = np.fromfile(fp, dtype="<u2", count=shape[0] * shape[1]).reshape(shape)
    if body.size and int(body.max()) >= header.enc.field.q:
        raise ParameterError(f"shard symbols exceed the field modulus: {path}")
    return header, body


def _warn_skipped(names: Sequence[str]) -> None:
    print(
        f"warning: skipped inconsistent shard files: {', '.join(names)}",
        file=sys.stderr,
    )


class ShardBodies(Mapping):
    """node_id -> (block_count, alpha) body of the shards whose headers agree
    with the reference header. A body is read by `read_shard` on first use
    and kept, so each is read at most once. A body that fails read_shard's
    checks (or whose header changed since the vote) is skipped with a warning
    and its id drops out of the mapping: to the caller it is an erasure, and
    ``get`` returns None for it."""

    def __init__(self, header: ShardHeader, paths: dict[int, str]):
        self.header = header
        self._paths = dict(sorted(paths.items()))
        self._read: dict[int, np.ndarray] = {}

    def __getitem__(self, node_id: int) -> np.ndarray:
        if node_id not in self._read:
            path = self._paths[node_id]
            try:
                header, body = read_shard(path)
                if not header.same_shard_set(self.header) or header.node_id != node_id:
                    raise ParameterError(f"shard header changed: {path}")
            except (ParameterError, ConstructionError, OSError):
                del self._paths[node_id]
                _warn_skipped([os.path.basename(path)])
                raise KeyError(node_id) from None
            self._read[node_id] = body
        return self._read[node_id]

    def __contains__(self, node_id) -> bool:
        return node_id in self._paths

    def __iter__(self):
        return iter(list(self._paths))  # a copy: reading a body may drop its id

    def __len__(self) -> int:
        return len(self._paths)


def load_shard_set(directory) -> tuple[ShardHeader, ShardBodies]:
    """The majority shard set in a directory, voted on headers alone.

    Every file's header is read and its body length checked with `fstat`;
    no body is read here. The reference header is the one shared by the most
    such files (ties go to the set holding the lowest node id). Unreadable or
    truncated files, files whose header does not state a valid code (a prime
    q, n distinct points in the field, distinct lambda for MSR), files not
    named after their header's node id (so no id repeats), files whose id is
    outside 1..n and files of another set are skipped: a deleted, garbled or
    misnamed shard is an erasure, not a fatal error. Returns the reference
    header and the lazy `ShardBodies` of the rest, whose bodies are read only
    when a decode picks them."""
    names = sorted(
        f for f in os.listdir(directory)
        if f.startswith("node") and f.endswith(".shard")
    )
    if not names:
        raise InfeasibleError(f"no shard files in {directory}")
    readable: list[tuple[str, ShardHeader]] = []
    skipped: list[str] = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, "rb", buffering=0) as fp:
                header = _read_header(fp, path)
            if name != shard_filename(header.enc.check_node(header.node_id)):
                raise ParameterError(f"shard misnamed: {path}")
        except (ParameterError, ConstructionError, OSError):
            skipped.append(name)
            continue
        readable.append((path, header))
    if not readable:
        raise InfeasibleError(f"no readable shards in {directory}")
    keys = [header.set_key() for _, header in readable]
    support = Counter(keys)
    ref = min(
        range(len(readable)),
        key=lambda i: (-support[keys[i]], readable[i][1].node_id),
    )
    paths: dict[int, str] = {}
    for (path, header), key in zip(readable, keys):
        if key != keys[ref]:
            skipped.append(os.path.basename(path))
            continue
        paths[header.node_id] = path
    if skipped:
        _warn_skipped(skipped)
    return readable[ref][1], ShardBodies(readable[ref][1], paths)


# --- file payload packing -------------------------------------------------


def bytes_to_blocks(data: bytes, message_symbols: int) -> np.ndarray:
    """One byte per symbol, zero-padded to whole blocks; shape (blocks, B)."""
    nblocks = -(-len(data) // message_symbols) if data else 0
    arr = np.zeros(nblocks * message_symbols, dtype=np.uint16)
    arr[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return arr.reshape(nblocks, message_symbols)


def blocks_to_bytes(blocks: np.ndarray, data_len: int) -> bytes:
    flat = blocks.reshape(-1)
    if data_len > flat.size:
        raise ParameterError("data_len exceeds decoded payload")
    if flat.size and int(flat[:data_len].max(initial=0)) > 0xFF:
        raise DecodeFailure("decoded symbols are not bytes; wrong shards?")
    return flat[:data_len].astype(np.uint8).tobytes()


# --- the message layout ------------------------------------------------------


def _sym_index(m: int) -> np.ndarray:
    """(m, m) map of a symmetric matrix to its upper triangle listed
    row-major."""
    idx = np.empty((m, m), dtype=np.int64)
    rows, cols = np.triu_indices(m)
    idx[rows, cols] = idx[cols, rows] = np.arange(rows.size)
    return idx


def _slice_matrix_index(params: SystemParams) -> np.ndarray:
    """Index map from one slice of payload symbols to the product-matrix
    operand; -1 marks structurally-zero cells (MBR lower-right corner).

    MSR: [S1; S2], each symmetric half filled from one upper triangle.
    MBR: [[S, T^t], [T, 0]], S from its upper triangle, then T row-major."""
    if params.mode is CodeMode.MSR:
        sym = _sym_index(params.k - 1)
        return np.concatenate([sym, sym + sym.max() + 1])
    k, d = params.k, params.d
    idx = np.full((d, d), -1, dtype=np.int64)
    idx[:k, :k] = _sym_index(k)
    t_blk = k * (k + 1) // 2 + np.arange((d - k) * k).reshape(d - k, k)
    idx[k:, :k] = t_blk
    idx[:k, k:] = t_blk.T
    return idx


@functools.lru_cache(maxsize=64)
def _share_map_layout(enc: EncodingMatrix) -> tuple[np.ndarray, np.ndarray | None]:
    """`share_map` and, for a systematic code, its layout: the B' ascending
    rows P of nodes 1..k's stacked (k * alpha', B') map that hold the payload,
    stacked symbol P_j being u_j itself; None in the product-matrix basis.

    In the product-matrix basis the map is one scatter: where cell (r, w) of
    the operand holds u_j (j = idx[r, w] >= 0), column r of psi is u_j's
    coefficient in share column w. The operand's blocks are symmetric, so
    no symbol sits twice in one column and no two cells add up. A systematic
    code's map is that one times the inverse of its rows P, the staircase
    that nodes 1..k's `_reconstruct_inverse` reads, which makes row P_j the
    unit row e_j. At nonzero points P is every row of nodes 1..k for MSR, so
    node i stores u's i-th run of alpha' symbols, and node i's first
    d - i + 1 symbols for MBR. That build adds a few Vandermonde solves, one
    product and a uint16 copy of the map to the scatter's cost."""
    params = enc.params
    idx = _slice_matrix_index(params)
    r, w = np.nonzero(idx >= 0)
    amap = np.zeros((params.n, params.alpha_prime, params.slice_symbols), dtype=np.int64)
    amap[:, w, idx[r, w]] = enc.psi[:, r]
    layout = None
    if enc.systematic:
        flat = amap.reshape(-1, params.slice_symbols)
        inv = _reconstruct_inverse(enc, list(range(1, params.k + 1)), None)
        layout = np.flatnonzero(inv.any(axis=0))
        layout.setflags(write=False)
        flat[:] = linalg.matmul_mod(flat, inv[:, layout], enc.field.q)
    amap.setflags(write=False)
    return amap, layout


def share_map(enc: EncodingMatrix) -> np.ndarray:
    """Read-only int64 coefficient tensor A with shape (n, alpha', B')
    mapping one slice of payload symbols u to every node's stored slice:
    share_i = A[i] @ u. Built once per encoding (`_share_map_layout`)."""
    return _share_map_layout(enc)[0]


def _columns(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a[:, cols]: a view when cols is one ascending run, else a copy by
    `np.take`, which on a short axis is several times faster than fancy
    indexing."""
    first = int(cols[0]) if cols.size else 0
    if cols.tolist() == list(range(first, first + cols.size)):
        return a[:, first : first + cols.size]
    return np.take(a, cols, axis=1)


# --- the batched codec ------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _encode_plan(enc: EncodingMatrix) -> tuple[np.ndarray, tuple]:
    """`share_map` as `encode_blocks` applies it: the transposed rows outside
    the layout (one product's map) and, per node, the node columns it
    copies, the payload columns they copy, the node columns it computes and
    their columns of that product."""
    amap, layout = _share_map_layout(enc)
    amap = amap.reshape(-1, enc.params.slice_symbols)
    src = np.full(amap.shape[0], -1)
    if layout is not None:
        src[layout] = np.arange(layout.size)
    copy = src >= 0
    at = np.cumsum(~copy) - 1
    nodes = []
    for rows in np.arange(amap.shape[0]).reshape(enc.params.n, -1):
        mine = copy[rows]
        nodes.append((np.flatnonzero(mine), src[rows[mine]],
                      np.flatnonzero(~mine), at[rows[~mine]]))
    coded_map = amap[~copy].T
    coded_map.setflags(write=False)
    return coded_map, tuple(nodes)


def encode_blocks(blocks: np.ndarray, enc: EncodingMatrix) -> dict[int, np.ndarray]:
    """Encode (nblocks, B) payload symbols; returns node_id -> (nblocks,
    alpha) uint16. A systematic code's stored symbols at its layout (on
    nodes 1..k) are copies of the payload symbols; one product of every
    slice's B' symbols with the other rows of `share_map` gives the rest."""
    params = enc.params
    if blocks.shape[1] != params.message_symbols:
        raise ParameterError("payload block width must be B")
    coded_map, nodes = _encode_plan(enc)
    words = blocks.reshape(-1, params.slice_symbols).astype(np.uint16, copy=False)
    coded = linalg.matmul_mod(words, coded_map, enc.field.q)
    bodies = {}
    for i, (copy_at, copy_from, code_at, code_from) in enumerate(nodes, 1):
        if not code_at.size:
            body = _columns(words, copy_from)
        elif not copy_at.size:
            body = _columns(coded, code_from)
        else:
            body = np.empty((words.shape[0], params.alpha_prime), dtype=np.uint16)
            body[:, copy_at] = _columns(words, copy_from)
            body[:, code_at] = _columns(coded, code_from)
        bodies[i] = body.reshape(blocks.shape[0], params.alpha)
    return bodies


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
    slices = share.reshape(share.shape[0] * params.beta, params.alpha_prime)
    symbols = linalg.matmul_mod(slices, target[:, None], enc.field.q)
    return symbols.reshape(share.shape[0], params.beta)


def _stack(ys: list[np.ndarray]) -> np.ndarray:
    """np.stack(ys, axis=1) of R (nwords, w) arrays. When they share a dtype
    and their rows are contiguous, each row is copied as one w-symbol item,
    about twice as fast as numpy's copy of short runs."""
    dtype, w = ys[0].dtype, ys[0].shape[1]
    if any(y.dtype != dtype or y.strides[1] != dtype.itemsize for y in ys):
        return np.stack(ys, axis=1)
    item = np.dtype(f"V{w * dtype.itemsize}")
    rows = np.concatenate([y.view(item) for y in ys], axis=1)
    return rows.view(dtype).reshape(rows.shape[0], len(ys), w)


# words one batched locate takes, so that its temporaries (for MBR, a few
# (words, d, d) int64 arrays) stay bounded whatever the file size
_LOCATE_CHUNK = 2048


def _locate_then_erase(
    ys: list[np.ndarray], gen: np.ndarray, need: int, t: int, field: Fq,
    invert, decode, locate, per_block: int, layout: np.ndarray | None,
    counts: dict | None = None,
) -> np.ndarray:
    """Messages (nwords, L) of nwords independent codewords, one per row,
    from the R positions that answered: ys[r] holds position r's (nwords, w)
    symbols, gen[r] is its (w, L) code map (row j of ys[r] is gen[r] @ m_j),
    and any ``need`` positions determine a message. Up to t positions per
    word may be wrong. R >= need + 2t makes the message agreeing with at
    least R - t positions unique; it is returned for every word, or
    DecodeFailure naming the block (``per_block`` consecutive words) of the
    lowest word that has none. ``counts``, when given, receives the number
    of passes, of located words and of distinct masks (`_erase_passes`)."""
    n_pos = len(ys)
    if t < 0 or n_pos < need + 2 * t:
        raise ParameterError(
            f"{n_pos} responses cannot correct {t} errors; "
            f"need t >= 0 and at least {need} + 2t"
        )
    out, failed = _erase_passes(
        _stack(ys), gen, need, t, field, invert, decode, locate, layout, counts, True
    )
    if failed.any():
        raise DecodeFailure(
            f"block {int(np.argmax(failed)) // per_block} exceeded the (t={t}) "
            "corruption budget"
        )
    return out


def _erase_passes(
    word: np.ndarray, gen: np.ndarray, need: int, t: int, field: Fq,
    invert, decode, locate, layout: np.ndarray | None, counts: dict | None,
    stop: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """`_locate_then_erase` on the (nwords, R, w) array ``word``: the
    messages, and the mask of the words that have none (their messages read
    0). With ``stop`` it returns once the lowest such word is known.

    A pass inverts ``need`` positions, its rows, for a set of words: each
    word gets the candidate those positions determine, accepted when it
    agrees with at least R - t positions. A pass over need * w words or more
    applies the (L, need * w) left inverse ``invert(rows)`` of the rows'
    stacked code map, built once per rows, and re-encodes only the symbols
    it did not read: it reproduces the ones it read. ``layout``, when given,
    names the L stacked symbols of positions 0..need-1 whose code map rows
    are e_0..e_{L-1} (a systematic code's layout, the positions being nodes
    1..k): a pass that inverts those positions gathers them. A pass over
    fewer words takes ``decode(rows, symbols)`` of their (g, need * w)
    symbols, which need only give the message when those symbols are right,
    and re-encodes every position.

    Each word is located at most once and decoded at most once:
    - the probe: word 0 alone under the first ``need`` positions. If it is
      not accepted, ``locate`` maps its (1, R, w) symbols to the (1, R) mask
      of its wrong positions, and the first pass leaves them out. At t = 0
      nothing can be located, and there is no probe;
    - the first pass, over every word. When all are accepted, the
      candidates are returned as they are;
    - the words left over are located together, `_LOCATE_CHUNK` at a time,
      and grouped by the rows their masks leave; each group gets one pass
      over its own words.
    A mask is exact for a word that has an acceptable message, and then its
    group's pass accepts it; otherwise it is only a suggestion, and no pass
    accepts a word that has none. So a word fails when its pass rejects it,
    when its mask flags no position or more than t, or when its rows are
    the first pass's, which rejected it."""
    nwords, n_pos, w = word.shape
    q = field.q
    maps = gen.reshape(-1, gen.shape[2])  # row r * w + j: symbol j of position r
    flat = word.reshape(nwords, n_pos * w)
    setups: dict[bytes, tuple] = {}

    def setup(rows: np.ndarray, syms: np.ndarray, gather: bool) -> tuple:
        inv = None if gather else invert(rows).T
        read = layout if gather else syms[inv.any(axis=1)]
        check = np.ones(flat.shape[1], dtype=bool)
        check[read] = False  # reproduced by construction
        checked = np.flatnonzero(check)
        groups: dict[int, list[int]] = {}  # position -> its checked columns
        for c, r in enumerate((checked // w).tolist()):
            groups.setdefault(r, []).append(c)
        return inv, checked, list(groups.values()), maps[checked].T

    def attempt(rows: np.ndarray, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        syms = (rows[:, None] * w + np.arange(w)).ravel()
        gather = layout is not None and rows[-1] == need - 1
        # a few words: re-encoding every position costs less than an
        # inverse and the check of the symbols it did not read
        few = part.shape[0] < need * w
        if not few:
            key = rows.tobytes()
            if key not in setups:
                setups[key] = setup(rows, syms, gather)
            inv, checked, groups, check_map = setups[key]
        if gather:
            cand = _columns(part, layout).astype(np.uint16, copy=False)
        elif few:
            cand = decode(rows, _columns(part, syms))
        else:
            cand = linalg.matmul_mod(_columns(part, syms), inv, q)
        if few:
            again = linalg.matmul_mod(cand, maps.T, q).reshape(part.shape[0], n_pos, w)
            agree = (again == part.reshape(again.shape)).all(axis=2).sum(axis=1)
            return cand, agree >= n_pos - t
        agree = np.full(cand.shape[0], n_pos - len(groups))
        if groups:
            same = linalg.matmul_mod(cand, check_map, q) == _columns(part, checked)
            # whole-column steps over the short symbol axis: numpy's
            # reductions along a short innermost axis cost several times more
            for first, *rest in groups:
                for c in rest:
                    same[:, first] &= same[:, c]
                agree += same[:, first]
        return cand, agree >= n_pos - t

    out = np.zeros((nwords, gen.shape[2]), dtype=np.uint16)
    failed = np.zeros(nwords, dtype=bool)
    rows0 = np.arange(need)  # the first pass's rows
    passes, located, patterns = 0, 0, set()

    def done():
        if counts is not None:
            counts.update(passes=passes, located=located, patterns=len(patterns))
        return out, failed

    probed = bool(t and nwords) and not attempt(rows0, flat[:1])[1][0]
    if probed:
        mask = locate(word[:1])[0]
        located = 1
        patterns.add(mask.tobytes())
        if 0 < mask.sum() <= t:
            rows0 = np.flatnonzero(~mask)[:need]
        else:
            failed[0] = True
            if stop:
                return done()
    cand, ok = attempt(rows0, flat)
    passes = 1
    if ok.all():
        out = cand
        return done()
    out[ok] = cand[ok]
    if probed:  # word 0 had its own pass
        failed[0], ok[0] = not ok[0], True
    left = np.flatnonzero(~ok)
    if not t:
        failed[left] = True
    if not t or (stop and failed[0]):
        return done()
    for at in range(0, left.size, _LOCATE_CHUNK):
        idx = left[at : at + _LOCATE_CHUNK]
        masks = locate(word[idx])
        located += idx.size
        patterns.update(m.tobytes() for m in np.unique(masks, axis=0))
        flags = masks.sum(axis=1)
        usable = (flags > 0) & (flags <= t)
        failed[idx[~usable]] = True
        # the first need positions each usable mask leaves
        rows = np.argsort(masks[usable], axis=1, kind="stable")[:, :need]
        keys, group = np.unique(rows, axis=0, return_inverse=True)
        for g, key in enumerate(keys):
            members = idx[usable][group.ravel() == g]
            if np.array_equal(key, rows0):
                failed[members] = True
                continue
            cand, ok = attempt(key, flat[members])
            passes += 1
            out[members[ok]] = cand[ok]
            failed[members[~ok]] = True
        if stop and failed.any():
            break
    return done()


def _poly_code(field: Fq, points: tuple[int, ...], msg_len: int, t: int):
    """`_erase_passes`'s code map, invert, decode and locate for words of
    one symbol, evaluations at ``points`` of polynomials of degree <
    msg_len: the inverse of rows is the memoized Vandermonde inverse of
    their points, and a word is located by `decoding.locate`."""
    def invert(rows):
        return linalg.vandermonde_inverse(field, tuple(points[r] for r in rows))

    def decode(rows, used):
        return linalg.matmul_mod(used, invert(rows).T, field.q)

    def locate(word: np.ndarray) -> np.ndarray:
        return decoding.locate(word[:, :, 0], points, msg_len, t, field)

    return linalg.vandermonde(field, points, msg_len)[:, None, :], invert, decode, locate


def poly_decode(
    y: Sequence[np.ndarray], points: Sequence[int], msg_len: int, t: int, field: Fq,
    per_block: int = 1, counts: dict | None = None,
) -> np.ndarray:
    """Decode R rows of ncols polynomial evaluations (an (R, ncols) array or
    a list of rows) to (msg_len, ncols) coefficients, tolerating up to t
    wrong rows per column; needs R >= msg_len + 2t. Columns that are not
    clean are located together (`decoding.locate`); a failure names the
    block of ``per_block`` consecutive columns it belongs to."""
    gen, *code = _poly_code(field, tuple(int(x) for x in points), msg_len, t)
    return _locate_then_erase(
        [row[:, None] for row in y], gen, msg_len, t, field, *code, per_block, None, counts
    ).T


def decode_repair(
    symbols: dict[int, np.ndarray], failed_id: int, enc: EncodingMatrix, t: int,
    counts: dict | None = None,
) -> np.ndarray:
    """The failed node's (nblocks, alpha) share from helper_id -> (nblocks,
    beta) repair symbols of the helpers that answered, up to t of them
    corrupt; exact when at least d + 2t answered. Per slice the symbols are
    evaluations of m_f = M phi_f (MSR) or M psi_f (MBR) at the helpers'
    points, so all slices of all blocks decode as one batch of columns."""
    params = enc.params
    ap = params.alpha_prime
    m = poly_decode(
        [y.reshape(-1) for y in symbols.values()],
        [enc.point_of(h) for h in symbols], params.d, t, enc.field, params.beta, counts,
    ).T
    if params.mode is CodeMode.MSR:
        # phi_f^t S1 + lambda_f phi_f^t S2, by the symmetry of S1 and S2
        m = (m[:, :ap] + enc.lam_of(failed_id) * m[:, ap:].astype(np.int64)) % enc.field.q
        m = m.astype(np.uint16)
    # MBR: M is symmetric, so m_f itself is the lost slice share
    return m.reshape(-1, params.alpha)


def _batch_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b[i] mod q for each matrix of the (nb, c, w) stack b, as one
    `linalg.matmul_mod`; (nb, rows of a, w) uint16."""
    nb, c, w = b.shape
    out = linalg.matmul_mod(a, b.transpose(1, 0, 2).reshape(c, nb * w), q)
    return out.reshape(a.shape[0], nb, w).transpose(1, 0, 2)


def _msr_pq(y: np.ndarray, ids: list[int], enc: EncodingMatrix):
    """P and Q, (nb, R, R) each, of nb words of MSR shares y (nb, R, alpha')
    of nodes ids: with Phi their phi rows, Y Phi^t = P + Lambda Q where
    P = Phi S1 Phi^t and Q = Phi S2 Phi^t are symmetric, so each
    off-diagonal pair (i, j), (j, i) of Y Phi^t gives P_ij and Q_ij. Their
    diagonals are not decoded."""
    q, rows = enc.field.q, [i - 1 for i in ids]
    c = linalg.matmul_mod(y.reshape(-1, y.shape[2]), enc.phi[rows].T, q)
    c = c.reshape(-1, len(ids), len(ids)).astype(np.int64)  # P_ij + lam_i Q_ij
    lam = np.asarray(enc.lam, dtype=np.int64)[rows]
    q_mat = (c - c.transpose(0, 2, 1)) * linalg.inv_mod(lam[:, None] - lam, q) % q
    return (c - lam[:, None] * q_mat) % q, q_mat


def _locate_msr(y: np.ndarray, ids: list[int], enc: EncodingMatrix, t: int) -> np.ndarray:
    """(nb, R) masks of the wrong shares among nb MSR words of (R, alpha')
    shares y of nodes ids.

    Off the diagonal, row i of Q (`_msr_pq`) holds the evaluations of S2
    phi_i at the other providers' points, and a wrong share y_j = y_j' + e_j
    spoils entry j of row i unless e_j . phi_i = 0. RS location of a clean
    row therefore flags only wrong providers; a wrong provider is flagged by
    all but at most alpha' - 1 of the R - t or more clean rows, that is by
    more than t rows, and a correct one only by the t or fewer wrong rows.
    Every row of every word is located by one `decoding.locate_off_diagonal`."""
    points = [enc.point_of(i) for i in ids]
    q_mat = _msr_pq(y, ids, enc)[1]
    flagged = decoding.locate_off_diagonal(
        q_mat, points, enc.params.alpha_prime, t, enc.field
    )
    return flagged.sum(axis=1) > t


def _msr_operands(y: np.ndarray, ids: list[int], enc: EncodingMatrix) -> np.ndarray:
    """The (nb, d, alpha') operands [S1; S2] of nb words of k MSR shares y
    (Rashmi-Shah-Kumar's MSR reconstruction): off its diagonal, row i of P
    (`_msr_pq`) holds S1 phi_i at the other k - 1 providers' points, one
    (k-1)-point Vandermonde solve; rows 0..k-2 of those give S1 by one more.
    Q gives S2 the same way."""
    q, k = enc.field.q, enc.params.k
    points = [enc.point_of(i) for i in ids]
    others = np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=np.int64)
    vinv = np.stack([linalg.vandermonde_inverse(enc.field, tuple(points[j] for j in o))
                     for o in others])
    halves = []
    for m in _msr_pq(y, ids, enc):
        v = np.einsum("iab,nib->nia", vinv, m[:, np.arange(k)[:, None], others]) % q
        halves.append(np.einsum("ab,nbc->nac", vinv[-1], v[:, :-1]) % q)
    return np.concatenate(halves, axis=1)


def _mbr_operands(y: np.ndarray, ids: list[int], enc: EncodingMatrix, solve) -> np.ndarray:
    """The (nb, d, d) operands [[S, T^t], [T, 0]] of nb words of MBR shares
    y (nb, R, d) of nodes ids; ``solve`` maps (R, c) evaluations at their
    points, a polynomial of degree < k per column, to its (k, c)
    coefficients. Columns k..d-1 of y evaluate the columns of T^t; once
    Sigma T is taken off, columns 0..k-1 evaluate those of S."""
    q, k, d = enc.field.q, enc.params.k, enc.params.d
    nb, r = y.shape[:2]

    def solve_columns(ev):
        coeffs = solve(ev.transpose(1, 0, 2).reshape(r, -1))
        return coeffs.reshape(k, nb, -1).transpose(1, 0, 2)

    t_t = solve_columns(y[:, :, k:])
    sigma_t = _batch_product(enc.sigma[[i - 1 for i in ids]], t_t.transpose(0, 2, 1), q)
    m = np.zeros((nb, d, d), dtype=np.int64)
    m[:, :k, :k] = solve_columns((y[:, :, :k].astype(np.int64) - sigma_t) % q)
    m[:, :k, k:] = t_t
    m[:, k:, :k] = t_t.transpose(0, 2, 1)
    return m


def _locate_mbr(y: np.ndarray, ids: list[int], enc: EncodingMatrix, t: int) -> np.ndarray:
    """(nb, R) masks of the wrong shares among nb MBR words of (R, d) shares
    y of nodes ids: each group of columns of `_mbr_operands`, of all words
    at once, is one `_erase_passes` of polynomial evaluations, and the
    decoded M is re-encoded and compared with y. A word with a column that
    has no acceptable polynomial has no acceptable message: no mask."""
    q, k, nb = enc.field.q, enc.params.k, y.shape[0]
    gen, *code = _poly_code(enc.field, tuple(enc.point_of(i) for i in ids), k, t)
    hopeless = np.zeros(nb, dtype=bool)

    def solve(ev: np.ndarray) -> np.ndarray:
        coeffs, failed = _erase_passes(ev.T[:, :, None], gen, k, t, enc.field, *code,
                                       None, None, False)
        hopeless[failed.reshape(nb, -1).any(axis=1)] = True
        return coeffs.T

    m = _mbr_operands(y, ids, enc, solve)
    wrong = (_batch_product(enc.psi[[i - 1 for i in ids]], m, q) != y).any(axis=2)
    wrong[hopeless] = False
    return wrong


def _mbr_fill(y: np.ndarray, ids: list[int], enc: EncodingMatrix) -> np.ndarray:
    """k MBR shares y (nb, k, d) with the symbols outside their staircase
    overwritten from those in it. M is symmetric, so with f_j the polynomial
    whose coefficients are share j, f_j(x_i) = f_i(x_j) for each earlier
    share i. Share j keeps its symbols z..e-1, where z (0 or 1) of the
    earlier shares sit at point 0 and m at nonzero points, e = d - m: its
    symbol 0 is then f_i(x_j) for the share i at 0, and the rest one m-point
    Vandermonde solve. The B' kept symbols are each the first not fixed by
    those before them."""
    q, d = enc.field.q, enc.params.d
    psi = enc.psi[[i - 1 for i in ids]]
    points = [enc.point_of(i) for i in ids]
    y = y.astype(np.int64)
    for j in range(1, len(ids)):
        nz = [i for i in range(j) if points[i]]
        ev = y[:, :j] @ psi[j] % q  # ev[:, i] = f_i(x_j); int64 sums of d products
        if len(nz) < j:
            y[:, j, 0] = ev[:, points.index(0)]
        if nz:
            e = d - len(nz)  # f_j(x) = (its first e terms) + x^e h(x), deg h < m
            h = (ev[:, nz] - y[:, j, :e] @ psi[nz, :e].T) % q
            h = h * [pow(points[i], -e, q) for i in nz] % q
            vinv = linalg.vandermonde_inverse(enc.field, tuple(points[i] for i in nz))
            y[:, j, e:] = h @ vinv.T % q
    return y


def _reconstruct_apply(
    enc: EncodingMatrix, ids: list[int], layout: np.ndarray | None, y: np.ndarray
) -> np.ndarray:
    """(nb, B') uint16 messages of nb words of k shares y (nb, k, alpha') of
    providers ids, by Rashmi-Shah-Kumar's product-matrix reconstruction: a
    few k- and (k-1)-point Vandermonde solves. With ``layout`` None it gives
    the product-matrix message; with a systematic code's layout, the
    payload: the operand re-encoded on nodes 1..k, read at those rows. MBR
    reads every symbol of y: shares that hold a codeword give its message."""
    params = enc.params
    q, nb = enc.field.q, y.shape[0]
    if params.mode is CodeMode.MSR:
        ops = _msr_operands(y, ids, enc)
    else:
        vinv = linalg.vandermonde_inverse(enc.field, tuple(enc.point_of(i) for i in ids))
        ops = _mbr_operands(y, ids, enc, lambda ev: linalg.matmul_mod(vinv, ev, q))
    if layout is None:
        values, cells = np.unique(_slice_matrix_index(params), return_index=True)
        return ops.reshape(nb, -1)[:, cells[values >= 0]].astype(np.uint16)
    shares = _batch_product(enc.psi[: params.k], ops, q)
    return shares.reshape(nb, -1)[:, layout]


def _reconstruct_inverse(
    enc: EncodingMatrix, ids: list[int], layout: np.ndarray | None
) -> np.ndarray:
    """The (B', k * alpha') left inverse of providers ids' stacked share
    maps that reads the B' symbols `_mbr_fill` keeps (for MSR, all): the
    `_reconstruct_apply` of their unit vectors, for MBR filled first, and
    zero columns for the others. So it is the one left inverse that
    elimination finds."""
    params = enc.params
    k, d, width = params.k, params.d, params.k * params.alpha_prime
    kept = np.ones((k, params.alpha_prime), dtype=bool)
    if params.mode is CodeMode.MBR:
        points = [enc.point_of(i) for i in ids]
        for j in range(k):  # `_mbr_fill`: share j keeps symbols z..d-m-1
            m = sum(1 for x in points[:j] if x)
            kept[j] = (np.arange(d) >= int(m < j)) & (np.arange(d) < d - m)
    kept = np.flatnonzero(kept)
    unit = np.zeros((kept.size, width), dtype=np.int64)
    unit[np.arange(kept.size), kept] = 1
    unit = unit.reshape(kept.size, k, -1)
    if params.mode is CodeMode.MBR:
        unit = _mbr_fill(unit, ids, enc)
    inv = np.zeros((params.slice_symbols, width), dtype=np.int64)
    inv[:, kept] = _reconstruct_apply(enc, ids, layout, unit).T
    return inv


def decode_reconstruct(
    shares: dict[int, np.ndarray], enc: EncodingMatrix, t: int,
    counts: dict | None = None,
) -> np.ndarray:
    """The (nblocks, B) payload from node_id -> (nblocks, alpha) shares of the
    nodes that answered, up to t of them corrupt; exact when at least k + 2t
    answered. Every slice of every block is one word: a large pass applies
    the left inverse of its k providers' stacked share maps
    (`_reconstruct_inverse`), a small one the product-matrix reconstruction
    itself (`_reconstruct_apply`). The wrong shares of words that are not
    clean are located by the product-matrix reduction to RS location."""
    params = enc.params
    ids = list(shares)
    amap, layout = _share_map_layout(enc)
    locate_mode = _locate_msr if params.mode is CodeMode.MSR else _locate_mbr
    out = _locate_then_erase(
        [shares[i].reshape(-1, params.alpha_prime) for i in ids],
        amap[[i - 1 for i in ids]], params.k, t, enc.field,
        lambda rows: _reconstruct_inverse(enc, [ids[r] for r in rows], layout),
        lambda rows, used: _reconstruct_apply(
            enc, [ids[r] for r in rows], layout, used.reshape(used.shape[0], params.k, -1)),
        lambda word: locate_mode(word, ids, enc, t), params.beta,
        layout if ids[: params.k] == list(range(1, params.k + 1)) else None, counts,
    )
    return out.reshape(-1, params.message_symbols)


def _lowest_ids(
    bodies: Mapping[int, np.ndarray], count: int, skip: int | None = None
) -> dict[int, np.ndarray]:
    """The bodies of the ``count`` lowest-id shards at hand, ``skip`` aside.
    Bodies are fetched in id order only until ``count`` are in hand; one that
    cannot be read (`ShardBodies`) is an erasure and the next id is tried."""
    picked: dict[int, np.ndarray] = {}
    for i in sorted(bodies):
        if len(picked) == count:
            break
        body = bodies.get(i) if i != skip else None
        if body is not None:
            picked[i] = body
    if len(picked) < count:
        raise InfeasibleError(f"needs {count} shards, found {len(picked)}")
    return picked


def repair_blocks(
    bodies: Mapping[int, np.ndarray],
    failed_id: int,
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> tuple[np.ndarray, dict]:
    """Regenerate the failed node's (nblocks, alpha) body from shard bodies.

    Helpers are the Delta = d+s+2t lowest-id present nodes; each contributes
    its per-block repair symbols, computed exactly as a live helper would.
    """
    params = enc.params
    enc.check_node(failed_id)
    delta = connectivity(params, s, t, repair=True)
    helpers = _lowest_ids(bodies, delta, skip=failed_id)
    symbols = {h: helper_symbols(body, failed_id, enc) for h, body in helpers.items()}
    counts: dict = {}
    share = decode_repair(symbols, failed_id, enc, t, counts)
    info = {
        "helpers": list(helpers),
        "connectivity": delta,
        "downloaded": delta * params.beta * share.shape[0],
        **counts,
    }
    return share, info


def reconstruct_blocks(
    bodies: Mapping[int, np.ndarray],
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
) -> tuple[np.ndarray, dict]:
    """Recover (nblocks, B) payload symbols from the kappa = k+s+2t lowest-id
    shards."""
    params = enc.params
    kappa = connectivity(params, s, t, repair=False)
    chosen = _lowest_ids(bodies, kappa)
    counts: dict = {}
    out = decode_reconstruct(chosen, enc, t, counts)
    info = {
        "providers": list(chosen),
        "connectivity": kappa,
        "downloaded": kappa * params.alpha * out.shape[0],
        **counts,
    }
    return out, info
