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
Delta or kappa lowest-id bodies they decode; a body that fails its checks
there is an erasure, and the next id is read. An I/O error that says nothing
about a shard's bytes (`_IO_FAULTS`: too many open files, no memory, a
device error) is no erasure: it is raised, naming the file.

The file-level commands hold a bounded part of a file, whatever its size:
`repair_chunks` and `reconstruct_chunks` run `repair_blocks` and
`reconstruct_blocks` on one chunk of blocks at a time (`block_chunks`,
`_CHUNK_SYMBOLS` payload symbols), through `ShardBodies.chunk` views that
open each shard once and read each chunk of its body by a positioned read,
keeping none. Each chunk decodes on its own; the passes and located words a
file's chunks count are summed and their masks counted once, a DecodeFailure
names the file's block, and an inverse too large for the memo is kept for
the file. `write_rows` appends each chunk to its shard file.

The code is stated once, as `share_map`: the linear map from one slice's B'
payload symbols (laid out by `_slice_matrix_index`) to every node's alpha'
stored symbols. In a systematic code B' of nodes 1..k's stored symbols are the
payload symbols themselves; the build of the map records which, as the code's
layout (at nonzero points, every symbol of nodes 1..k for MSR and node i's
first d - i + 1 for MBR). `encode_blocks` applies the map, copying the payload
to the layout, and `decode_reconstruct` inverts it. Every inverse of the map is
the product-matrix reconstruction of the identity (`_build_inverse`), filled
by `_mbr_fill`, which alone knows the B' symbols k MBR shares keep; it depends
on the code and the providers alone, so `_reconstruct_inverse` builds each
once and keeps it, as `linalg.vandermonde_inverse` keeps its inverses.
Symbols stay uint16 (``<u2``, the on-disk body format) from `ShardBodies.rows`
to `write_rows`, and so does the map. At beta = 1 a node `encode_blocks` takes
whole from the payload or the product stays a view of it until `write_rows`
copies it; that copy and every other body assembly move one row per numpy
item (`_rows`), never a few symbols. The bulk products (encoding, the
systematic map, repair symbols and the MSR repair fold, inverses, the
located words' checks) run on `linalg.matmul_mod`, and a clean repair's one
product on `linalg.matmul_mod_filled`; the reconstruction's per-word solves
do not: `_mbr_fill` multiplies int64 arrays with `@` and `_msr_operands`
with `np.einsum`.

This module is the package's one codec. Blocks are independent, and so is
each beta-slice of a block (a copy of the beta = 1 code), so `encode_blocks`,
`helper_symbols`, `decode_repair` and `decode_reconstruct` work on all slices
of all blocks at once, one word per row. A decode takes the R >= msg_len + 2t
responses that arrived and the corruption budget t, and gives each word the
unique message agreeing with at least R - t of them (`_locate_then_erase`).
One loop locates each word at most once: the lowest undecided words (word 0
alone, then chunks) are located by Reed-Solomon error location
(`decoding.locate`: directly for repair; for reconstruction, by a vote of
the located rows of Phi S Phi^t for MBR, with its T columns, or of Q for
MSR), then the chunk's most common positions decode every undecided word,
and each other group of positions its own words. Each decode's own solve
step gives a pass its candidates: repair applies the Vandermonde inverse
memoized in `linalg.vandermonde_inverse`; reconstruction gathers the layout
when the pass reads nodes 1..k of a systematic code, reconstructs each of
fewer than k * alpha' words, and otherwise applies the product-matrix
inverse memoized in `_reconstruct_inverse`. So a later decode from the same
providers builds no inverse. A repair at t = 0 from exactly d helpers has
nothing to locate or check, and skips the loop: its one pass and the MSR
fold are one product with a memoized map (`_one_map_repair`), whose operand
`repair_blocks` fills with the helpers' repair symbols left unreduced. The
file-level calls, the simulator and `pmrc.perblock` (batches of one block)
all run them.
"""

from __future__ import annotations

import contextlib
import copy
import errno
import functools
import os
import stat
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


def shard_files(directory) -> list[str]:
    """The sorted ``node*.shard`` names in ``directory``."""
    names = os.listdir(directory)
    return sorted(f for f in names if f.startswith("node") and f.endswith(".shard"))


def written_in_place(path) -> int | None:
    """How `replacing` writes ``path`` in place, or None when it renames a new
    file over it (a regular file, or none yet): 1 or 2 when it is the file
    stdout or stderr is open on (``-o /dev/stdout >> log``), where a rename
    would drop what it held, else -1 for any other path that exists and is
    not a regular file (a pipe, a terminal, a device)."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    for fd in (1, 2):
        with contextlib.suppress(OSError):  # a closed stream
            if os.path.samestat(st, os.fstat(fd)):
                return fd
    return None if stat.S_ISREG(st.st_mode) else -1


@contextlib.contextmanager
def replacing(path, delete_first: bool = False):
    """A binary file that replaces ``path`` once the block ends cleanly: it is
    written as ``<path>.tmp`` beside it (or beside a link's target), renamed
    over it, and removed on an exception, so ``path`` is never half written.
    With ``delete_first`` the old file is deleted just before the rename,
    which then lands on a free name and costs less. No fsync: a power loss
    is not covered. A path `written_in_place` is
    written as it is, the file of stdout or stderr through a copy of that
    stream's descriptor: so a shell's ``>>`` keeps what the file held, and
    after a ``>`` the shell's next write lands after the data, not over its
    start."""
    fd = written_in_place(path)
    if fd:
        with os.fdopen(os.dup(fd), "wb") if fd > 0 else open(path, "wb") as fp:
            yield fp
        return
    path = os.path.realpath(path) if os.path.islink(path) else path
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fp:
            yield fp
        if delete_first and os.path.isfile(path):
            os.remove(path)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _rows(a: np.ndarray) -> np.ndarray:
    """The (rows, w) array ``a`` as (rows, 1) items of w symbols, one row
    each: a view when its rows are contiguous runs (a column run of a wider
    array), else of a contiguous copy (a transposed product). numpy copies
    such items a row at a time, several times faster than it copies short
    runs of symbols."""
    if a.strides[1] != a.itemsize:
        a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))


def write_shard(path, header: ShardHeader, body: np.ndarray) -> None:
    """Write the shard file ``path`` whole, through `replacing`."""
    params = header.enc.params
    if body.shape != (header.block_count, params.alpha):
        raise ParameterError(
            f"body shape {body.shape} != (blocks={header.block_count}, "
            f"alpha={params.alpha})"
        )
    head = header.pack()
    with replacing(path) as fp:
        fp.write(head)
        write_rows(fp, body)


def write_rows(fp, rows: np.ndarray) -> None:
    """Append (blocks, alpha) symbols to a shard body open as ``fp``, as
    ``<u2``, copied a row at a time (`_rows`)."""
    fp.write(np.ascontiguousarray(_rows(rows.astype("<u2", copy=False))))


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


# errno values of an open or a read that fail for the host, not for the
# shard's bytes: good shards must not be thrown away on them
_IO_FAULTS = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOMEM, errno.EIO})


def _raise_io_fault(error: Exception, path) -> None:
    """Raise ``error`` again, as an OSError naming ``path``, when it is one
    of `_IO_FAULTS`; any other error makes the shard an erasure."""
    if isinstance(error, OSError) and error.errno in _IO_FAULTS:
        raise OSError(error.errno, error.strerror, os.fspath(path)) from error


def _warn_skipped(names: Sequence[str]) -> None:
    print(
        f"warning: skipped inconsistent shard files: {', '.join(names)}",
        file=sys.stderr,
    )


class ShardBodies(Mapping):
    """node_id -> (block_count, alpha) body of the shards whose headers agree
    with the reference header, read a chunk of blocks at a time and never
    kept. `rows` opens a shard on its first use, once (its header is read
    again and must still agree), and reads the rows asked for by one
    positioned read into a fresh array, checking that every symbol is below
    q. A shard that cannot be opened, or whose rows are short or hold a
    symbol >= q, is skipped with a warning and its id drops out of the
    mapping: to the caller it is an erasure from that chunk on, and `rows`
    (like ``get``) returns None for it; one of `_IO_FAULTS` is raised.
    Indexing reads a whole body the same way. The shards opened stay open
    until `close`."""

    def __init__(self, header: ShardHeader, paths: dict[int, str]):
        self.header = header
        self._paths = dict(sorted(paths.items()))
        self._files: dict = {}  # node_id -> its open file
        self._body_at = len(header.pack())  # the same in every shard of the set
        self.blocks = (0, header.block_count)  # the blocks indexing reads

    def chunk(self, start: int, stop: int) -> "ShardBodies":
        """This mapping with indexing reading blocks start..stop: a view that
        shares its open files and the ids dropped."""
        view = copy.copy(self)
        view.blocks = (start, stop)
        return view

    def _open(self, node_id: int) -> None:
        """Open shard node_id's file, once; its header must still agree with
        the reference header."""
        path = self._paths[node_id]
        fp = self._files[node_id] = open(path, "rb", buffering=0)
        header = _read_header(fp, path)
        if not header.same_shard_set(self.header) or header.node_id != node_id:
            raise ParameterError(f"shard header changed: {path}")

    def rows(self, node_id: int, start: int, stop: int) -> np.ndarray | None:
        """Blocks start..stop of node_id's body, (stop - start, alpha) ``<u2``,
        or None when they cannot be read (the id then drops out)."""
        path = self._paths[node_id]
        alpha = self.header.enc.params.alpha
        try:
            if node_id not in self._files:
                self._open(node_id)
            body = np.empty((stop - start, alpha), dtype="<u2")
            at = self._body_at + 2 * alpha * start
            if os.preadv(self._files[node_id].fileno(), [body], at) != body.nbytes:
                raise ParameterError(f"shard body truncated: {path}")
            if body.size and int(body.max()) >= self.header.enc.field.q:
                raise ParameterError(f"shard symbols exceed the field modulus: {path}")
        except (ParameterError, ConstructionError, OSError) as e:
            _raise_io_fault(e, path)
            if node_id in self._files:
                self._files.pop(node_id).close()
            del self._paths[node_id]
            _warn_skipped([os.path.basename(path)])
            return None
        return body

    def close(self) -> None:
        for fp in self._files.values():
            fp.close()
        self._files.clear()

    def __getitem__(self, node_id: int) -> np.ndarray:
        body = self.rows(node_id, *self.blocks)
        if body is None:
            raise KeyError(node_id)
        return body

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
    misnamed shard is an erasure, not a fatal error; one of `_IO_FAULTS` is
    raised (`_raise_io_fault`). Returns the reference
    header and the lazy `ShardBodies` of the rest, whose bodies are read only
    when a decode picks them."""
    names = shard_files(directory)
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
        except (ParameterError, ConstructionError, OSError) as e:
            _raise_io_fault(e, path)
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
    code's map is that one times the inverse L of its rows P, the nonzero
    columns of nodes 1..k's `_build_inverse` in the product-matrix basis
    (the code's flags-0 twin; for MBR the symbols `_mbr_fill` keeps), which
    makes row P_j the unit row e_j. At nonzero points P is every row of
    nodes 1..k for MSR, so node i stores u's i-th run of alpha' symbols,
    and node i's first d - i + 1 symbols for MBR.
    By the scatter, column w of every node's map is psi's columns r times
    L's rows idx[r, w]: alpha' products of at most d inner terms, each the
    size of one column of the map, so the build peaks at little more than
    the map and that inverse."""
    params = enc.params
    idx = _slice_matrix_index(params)
    amap = np.zeros((params.n, params.alpha_prime, params.slice_symbols), dtype=np.uint16)
    layout = None
    if not enc.systematic:
        r, w = np.nonzero(idx >= 0)
        amap[:, w, idx[r, w]] = enc.psi[:, r]
    else:
        twin = encoding_from_points(params, enc.field, enc.points, systematic=False)
        inv = _build_inverse(twin, list(range(1, params.k + 1)))
        layout = np.flatnonzero(inv.any(axis=0))
        layout.setflags(write=False)
        inv = inv[:, layout]
        for w in range(params.alpha_prime):
            r = np.flatnonzero(idx[:, w] >= 0)
            amap[:, w] = linalg.matmul_mod(enc.psi[:, r], inv[idx[r, w]], enc.field.q)
    amap.setflags(write=False)
    return amap, layout


def share_map(enc: EncodingMatrix) -> np.ndarray:
    """Read-only uint16 coefficient tensor A with shape (n, alpha', B')
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
    the layout (one product's map) and, per node, the runs its stored
    symbols copy, each (source: 0 the payload, 1 the product; the source's
    first column; the node's first column; width)."""
    amap, layout = _share_map_layout(enc)
    amap = amap.reshape(-1, enc.params.slice_symbols)
    src = np.full(amap.shape[0], -1)
    if layout is not None:
        src[layout] = np.arange(layout.size)
    copy = src >= 0
    kind = (~copy).astype(np.int64).reshape(enc.params.n, -1)
    col = np.where(copy, src, np.cumsum(~copy) - 1).reshape(enc.params.n, -1)
    nodes = []
    for kinds, cols in zip(kind, col):
        # both sources' columns count up in stacked order: a run ends only
        # where the source changes
        start = np.flatnonzero(np.r_[True, np.diff(kinds) != 0])
        width = np.diff(np.r_[start, cols.size])
        nodes.append(tuple(zip(kinds[start].tolist(), cols[start].tolist(),
                               start.tolist(), width.tolist())))
    coded_map = amap[~copy].T
    coded_map.setflags(write=False)
    return coded_map, tuple(nodes)


def encode_blocks(blocks: np.ndarray, enc: EncodingMatrix) -> dict[int, np.ndarray]:
    """Encode (nblocks, B) payload symbols; returns node_id -> (nblocks,
    alpha) uint16. A systematic code's stored symbols at its layout (on
    nodes 1..k) are copies of the payload symbols; one product of every
    slice's B' symbols with the other rows of `share_map` gives the rest.
    At beta = 1 a node that is one run of either is a view of it; any other
    is put together a row of each run at a time (`_rows`)."""
    params = enc.params
    if blocks.shape[1] != params.message_symbols:
        raise ParameterError("payload block width must be B")
    coded_map, nodes = _encode_plan(enc)
    words = blocks.reshape(-1, params.slice_symbols).astype(np.uint16, copy=False)
    sources = (words, linalg.matmul_mod(words, coded_map, enc.field.q))
    bodies = {}
    for i, runs in enumerate(nodes, 1):
        if len(runs) == 1 and params.beta == 1:
            body = sources[runs[0][0]][:, runs[0][1] : runs[0][1] + params.alpha]
        else:
            body = np.empty((words.shape[0], params.alpha_prime), dtype=np.uint16)
            for s, at, to, w in runs:
                _rows(body[:, to : to + w])[...] = _rows(sources[s][:, at : at + w])
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
    slices = share.reshape(share.shape[0] * params.beta, params.alpha_prime)
    symbols = linalg.matmul_mod(slices, _repair_target(enc, failed_id)[:, None], enc.field.q)
    return symbols.reshape(share.shape[0], params.beta)


def _repair_target(enc: EncodingMatrix, failed_id: int) -> np.ndarray:
    """The (alpha',) vector a helper dots each stored slice with for
    ``failed_id``: phi_f (MSR) or psi_f (MBR)."""
    return enc.phi_row(failed_id) if enc.params.mode is CodeMode.MSR else enc.psi_row(failed_id)


def _stack(ys: list[np.ndarray]) -> np.ndarray:
    """np.stack(ys, axis=1) of R (nwords, w) arrays, each row copied as one
    w-symbol item (`_rows`) when w > 1; one-symbol rows (a repair's) need
    no items, and skip their per-array views."""
    if ys[0].shape[1] == 1:
        return np.concatenate(ys, axis=1)[:, :, None]
    dtype = np.result_type(*ys)
    rows = np.concatenate([_rows(y.astype(dtype, copy=False)) for y in ys], axis=1)
    return rows.view(dtype).reshape(rows.shape[0], len(ys), ys[0].shape[1])


# words one batched locate takes, so that its temporaries (for MBR, a few
# (words, k + 2t, R) arrays) stay bounded whatever the file size
_LOCATE_CHUNK = 2048
# payload symbols (bytes) the file-level commands hold per chunk of blocks, so
# that their memory is bounded whatever the file size. Measured on the
# benchmark's clean round of 2 MB files (2-vCPU VM, numpy 2.4): at 2**19 the
# round peaked 17 MB (19%) below whole-file decodes and ran no slower; at
# 2**18 its repairs ran about 8% slower, each chunk costing some 0.25 ms of
# calls (14 helper reads and products and the decode's set-up)
_CHUNK_SYMBOLS = 1 << 19


def chunk_blocks(params: SystemParams) -> int:
    """Blocks per chunk: `_CHUNK_SYMBOLS` payload symbols, and at least k *
    alpha' words, so that a reconstruct pass over a whole chunk applies an
    inverse (`decode_reconstruct`)."""
    least = -(-params.k * params.alpha_prime // params.beta)
    return max(least, _CHUNK_SYMBOLS // params.message_symbols)


def block_chunks(block_count: int, params: SystemParams) -> list[tuple[int, int]]:
    """The (start, stop) block ranges of a file's chunks; one empty range for
    an empty file."""
    per = chunk_blocks(params)
    return [(lo, min(lo + per, block_count)) for lo in range(0, max(block_count, 1), per)]


class _OverBudget(DecodeFailure):
    """The DecodeFailure that names the lowest block without a message."""

    def __init__(self, block: int, t: int):
        super().__init__(f"block {block} exceeded the (t={t}) corruption budget")
        self.block, self.t = block, t


def _locate_then_erase(
    ys: list[np.ndarray], gen: np.ndarray, need: int, t: int, field: Fq,
    solve, locate, per_block: int, counts: dict | None = None,
) -> np.ndarray:
    """Messages (nwords, L) of nwords independent codewords, one per row,
    from the R positions that answered: ys[r] holds position r's (nwords, w)
    symbols, gen[r] is its (w, L) code map (row j of ys[r] is gen[r] @ m_j),
    and any ``need`` positions determine a message. Up to t positions per
    word may be wrong. R >= need + 2t makes the message agreeing with at
    least R - t positions unique; it is returned for every word, or
    DecodeFailure naming the block (``per_block`` consecutive words) of the
    lowest word that has none. ``counts``, when given, receives the number
    of passes, of located words and of distinct masks, the first two added
    to any it holds; a ``masks`` set in it (a file's, shared by its chunks)
    collects the masks, and the last then counts all it holds.

    A pass solves ``need`` positions, its rows, for a set of words:
    ``solve(rows, symbols)`` takes the words' (g, need * w) symbols at those
    rows and gives each word the (g, L) candidate they determine, with the
    columns of ``symbols`` the candidates reproduce by construction, or None
    when it makes no such promise (it need only give the message when those
    symbols are right). A candidate is accepted when it agrees with at least
    R - t positions; every symbol it does not reproduce is re-encoded and
    compared, each position's compared symbols ANDed into its first.

    Each word is located at most once, by one loop that repeats two steps
    until no word is undecided:
    - locate: ``locate`` maps the (m, R, w) symbols of the m lowest
      undecided words (word 0 alone the first time, then `_LOCATE_CHUNK`)
      to (m, R) masks of their wrong positions, and the words are grouped
      by their rows, the first ``need`` positions their masks leave;
    - pass: the chunk's most common rows run over every undecided word,
      and each other row set over its own located words.
    A located word still undecided after its round has no message: its
    mask flags more than t positions, or its rows' pass rejected it. At
    t = 0 nothing can be located, and the one pass is the first ``need``
    positions over every word. A mask is exact for a word that has an
    acceptable message, and then its rows' pass accepts it; otherwise it is
    only a suggestion, and no pass accepts a word that has none. Only
    located words fail, and each chunk is the lowest undecided words, so the
    first round that leaves a word undecided names the lowest word without
    a message."""
    n_pos = len(ys)
    if t < 0 or n_pos < need + 2 * t:
        raise ParameterError(
            f"{n_pos} responses cannot correct {t} errors; "
            f"need t >= 0 and at least {need} + 2t"
        )
    word = _stack(ys)
    nwords, _, w = word.shape
    q = field.q
    maps = gen.reshape(-1, gen.shape[2])  # row r * w + j: symbol j of position r
    flat = word.reshape(nwords, n_pos * w)

    def attempt(rows: np.ndarray, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        syms = (rows[:, None] * w + np.arange(w)).ravel()
        cand, reproduced = solve(rows, _columns(part, syms))
        if reproduced is None:
            again = linalg.matmul_mod(cand, maps.T, q).reshape(part.shape[0], n_pos, w)
            agree = (again == part.reshape(again.shape)).all(axis=2).sum(axis=1)
            return cand, agree >= n_pos - t
        unread = np.ones(flat.shape[1], dtype=bool)
        unread[syms[reproduced]] = False
        checked = unread.nonzero()[0]
        if not checked.size:  # every position reproduced
            return cand, np.ones(cand.shape[0], dtype=bool)
        pos = checked // w
        first = np.concatenate(([True], pos[1:] != pos[:-1]))  # a position's first column
        firsts = first.nonzero()[0]
        same = linalg.matmul_mod(cand, maps[checked].T, q) == _columns(part, checked)
        # whole-column ANDs per position into its first: numpy's reductions
        # along a short innermost axis cost several times more
        for f, end in zip(firsts.tolist(), firsts[1:].tolist() + [checked.size]):
            for c in range(f + 1, end):
                same[:, f] &= same[:, c]
        # the reproduced positions agree; R - t in all needs len(firsts) - t here
        return cand, same[:, firsts].sum(axis=1) >= firsts.size - t

    out = None  # allocated once a pass leaves a word undecided
    undecided = np.ones(nwords, dtype=bool)
    left = np.arange(nwords)  # the undecided words, ascending
    passes, located = 0, 0
    patterns = counts.get("masks", set()) if counts is not None else set()

    def done(out):
        if counts is not None:
            counts.update(passes=counts.get("passes", 0) + passes,
                          located=counts.get("located", 0) + located,
                          patterns=len(patterns))
        return np.zeros((nwords, gen.shape[2]), dtype=np.uint16) if out is None else out

    size = 1 if t else nwords  # word 0 alone first; at t = 0 nothing is located
    while left.size:
        idx, size = left[:size], _LOCATE_CHUNK
        sets: dict[bytes, tuple] = {}  # rows -> (rows, indices into idx)
        if t:
            masks = locate(word[idx])
            located += idx.size
            by_mask: dict[bytes, list[int]] = {}
            for j, key in enumerate(map(bytes, np.packbits(masks, axis=1))):
                by_mask.setdefault(key, []).append(j)
            patterns.update(by_mask)
            for js in by_mask.values():
                if masks[js[0]].sum() <= t:
                    rows = np.flatnonzero(~masks[js[0]])[:need]
                    sets.setdefault(rows.tobytes(), (rows, []))[1].extend(js)
        else:  # nothing to locate: the first need positions, over every word
            sets[b""] = (np.arange(need), [])
        ranked = sorted(sets.values(), key=lambda s: -len(s[1]))
        for n_set, (rows, js) in enumerate(ranked):
            if not n_set:  # the chunk's most common rows: over every undecided word
                them = left
            else:  # ascending, as `run` needs: masks that share rows interleave
                them = np.sort(idx[js])
                them = them[undecided[them]]
                if not them.size:
                    continue
            run = them[-1] - them[0] + 1 == them.size
            cand, ok = attempt(rows, flat[them[0] : them[-1] + 1] if run else flat[them])
            passes += 1
            if them.size == nwords and ok.all():  # one pass took every word
                return done(cand)
            if out is None:
                out = np.zeros((nwords, gen.shape[2]), dtype=np.uint16)
            out[them[ok]] = cand[ok]
            undecided[them[ok]] = False
        lost = idx[undecided[idx]]  # located, and no pass accepted it
        if lost.size:
            raise _OverBudget(int(lost[0]) // per_block, t)
        left = left[undecided[left]]
    return done(out)


def poly_decode(
    y: Sequence[np.ndarray], points: Sequence[int], msg_len: int, t: int, field: Fq,
    per_block: int = 1, counts: dict | None = None,
) -> np.ndarray:
    """Decode R rows of ncols polynomial evaluations (an (R, ncols) array or
    a list of rows) to (msg_len, ncols) coefficients, tolerating up to t
    wrong rows per column; needs R >= msg_len + 2t. Columns that are not
    clean are located together (`decoding.locate`); a failure names the
    block of ``per_block`` consecutive columns it belongs to. A pass applies
    the memoized Vandermonde inverse of its rows' points, which reproduces
    every symbol it reads."""
    points = tuple(int(x) for x in points)

    def solve(rows, used):
        inv = linalg.vandermonde_inverse(field, tuple(points[r] for r in rows))
        return linalg.matmul_mod(used, inv.T, field.q), np.arange(used.shape[1])

    return _locate_then_erase(
        [row[:, None] for row in y], linalg.vandermonde(field, points, msg_len)[:, None, :],
        msg_len, t, field, solve,
        lambda word: decoding.locate(word[:, :, 0], points, msg_len, t, field),
        per_block, counts,
    ).T


def decode_repair(
    symbols: dict[int, np.ndarray], failed_id: int, enc: EncodingMatrix, t: int,
    counts: dict | None = None,
) -> np.ndarray:
    """The failed node's (nblocks, alpha) share from helper_id -> (nblocks,
    beta) repair symbols of the helpers that answered, up to t of them
    corrupt; exact when at least d + 2t answered. Per slice the symbols are
    evaluations of m_f = M phi_f (MSR) or M psi_f (MBR) at the helpers'
    points, so all slices of all blocks decode as one batch of columns; at t
    = 0 from exactly d helpers, by one product (`_one_map_repair`)."""
    params = enc.params
    ap = params.alpha_prime
    ys = [y.reshape(-1) for y in symbols.values()]
    if t == 0 and len(ys) == params.d:

        def fill(lo, part):
            for row, y in zip(part, ys):
                row[...] = y[lo : lo + row.size]

        return _one_map_repair(fill, ys[0].size, enc.field.q - 1, failed_id,
                               tuple(symbols), enc, counts)
    m = poly_decode(
        ys, [enc.point_of(h) for h in symbols], params.d, t, enc.field, params.beta, counts,
    ).T
    if params.mode is CodeMode.MSR:
        # phi_f^t S1 + lambda_f phi_f^t S2, by the symmetry of S1 and S2
        eye = np.eye(ap, dtype=np.int64)
        m = linalg.matmul_mod(m, np.concatenate([eye, enc.lam_of(failed_id) * eye]),
                              enc.field.q)
    # MBR: M is symmetric, so m_f itself is the lost slice share
    return m.reshape(-1, params.alpha)


@functools.lru_cache(maxsize=256)
def _repair_map(enc: EncodingMatrix, failed_id: int, helpers: tuple[int, ...]) -> np.ndarray:
    """The (d, alpha') map G from d helpers' repair symbols of a word to the
    failed node's slice share, read-only int64, built once per (code, failed
    id, helpers in order): the transposed inverse Vandermonde of the helpers'
    points, which gives m_f, then for MSR the fold [I; lambda_f I]."""
    params = enc.params
    g = linalg.vandermonde_inverse(enc.field, tuple(enc.point_of(h) for h in helpers)).T
    if params.mode is CodeMode.MSR:
        ap = params.alpha_prime
        g = (g[:, :ap] + enc.lam_of(failed_id) * g[:, ap:]) % enc.field.q
        g.setflags(write=False)
    return g


def _one_map_repair(fill, nwords: int, top: int, failed_id: int, helpers: tuple[int, ...],
                    enc: EncodingMatrix, counts: dict | None) -> np.ndarray:
    """The failed node's (nblocks, alpha) share from exactly d helpers at t =
    0, where nothing is located or checked: the engine's one pass
    (`poly_decode` of the d positions, then the MSR fold) as one product of
    the (nwords, d) repair symbols, which ``fill`` writes
    (`linalg.matmul_mod_filled`, entries at most ``top``), with the memoized
    `_repair_map`. ``counts`` gets the engine's: one pass when there are
    words, nothing located."""
    if counts is not None:
        counts.update(passes=counts.get("passes", 0) + int(nwords > 0),
                      located=counts.get("located", 0),
                      patterns=len(counts.get("masks", ())))
    g = _repair_map(enc, failed_id, helpers)
    share = linalg.matmul_mod_filled(fill, nwords, g, enc.field.q, top)
    return share.reshape(-1, enc.params.alpha)


def _batch_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b[i] mod q for each matrix of the (nb, c, w) stack b, as one
    `linalg.matmul_mod`; (nb, rows of a, w) uint16."""
    nb, c, w = b.shape
    out = linalg.matmul_mod(a, b.transpose(1, 0, 2).reshape(c, nb * w), q)
    return out.reshape(a.shape[0], nb, w).transpose(1, 0, 2)


@functools.lru_cache(maxsize=256)
def _lam_inverses(q: int, lam: tuple[int, ...]) -> np.ndarray:
    """1 / (lam_i - lam_j) mod q for the contacted nodes' lambdas, (R, R)
    read-only int64, 0 on the diagonal: built once per (q, lambdas), as
    `decoding.parity_check` is."""
    lam = np.asarray(lam, dtype=np.int64)
    inv = linalg.inv_mod(lam[:, None] - lam, q)
    inv.setflags(write=False)
    return inv


def _msr_cq(y: np.ndarray, ids: list[int], enc: EncodingMatrix):
    """C = Y Phi^t and Q, (nb, R, R) int64 each, of nb words of MSR shares y
    (nb, R, alpha') of nodes ids, with Phi their phi rows: C = P + Lambda Q
    where P = Phi S1 Phi^t and Q = Phi S2 Phi^t are symmetric, so each
    off-diagonal pair (i, j), (j, i) of C gives Q_ij, and P = C - Lambda Q.
    Their diagonals are not decoded."""
    q, rows = enc.field.q, [i - 1 for i in ids]
    c = linalg.matmul_mod(y.reshape(-1, y.shape[2]), enc.phi[rows].T, q)
    c = c.reshape(-1, len(ids), len(ids)).astype(np.int64)
    inv = _lam_inverses(q, tuple(enc.lam[r] for r in rows))
    return c, (c - c.transpose(0, 2, 1)) * inv % q


def _locate_msr(y: np.ndarray, ids: list[int], enc: EncodingMatrix, t: int) -> np.ndarray:
    """(nb, R) masks of the wrong shares among nb MSR words of (R, alpha')
    shares y of nodes ids.

    Off the diagonal, row i of Q (`_msr_cq`) holds the evaluations of S2
    phi_i at the other providers' points, and a wrong share y_j = y_j' + e_j
    spoils entry j of row i unless e_j . phi_i = 0. RS location of a clean
    row therefore flags only wrong providers; a wrong provider is flagged by
    all but at most alpha' - 1 of the R - t or more clean rows, that is by
    more than t rows, and a correct one only by the t or fewer wrong rows.
    Every row of every word is located by one `decoding.locate` call, as an
    R-point word with its own point erased."""
    points = [enc.point_of(i) for i in ids]
    q_mat = _msr_cq(y, ids, enc)[1]
    nb, r = q_mat.shape[:2]
    flagged = decoding.locate(q_mat.reshape(-1, r), points, enc.params.alpha_prime, t,
                              enc.field, erased=np.tile(np.arange(r), nb))
    return flagged.reshape(q_mat.shape).sum(axis=1) > t


def _msr_operands(y: np.ndarray, ids: list[int], enc: EncodingMatrix) -> np.ndarray:
    """The (nb, d, alpha') operands [S1; S2] of nb words of k MSR shares y
    (Rashmi-Shah-Kumar's MSR reconstruction): off its diagonal, row i of P
    (`_msr_cq`) holds S1 phi_i at the other k - 1 providers' points, one
    (k-1)-point Vandermonde solve; rows 0..k-2 of those give S1 by one more.
    Q gives S2 the same way."""
    q, k = enc.field.q, enc.params.k
    points = [enc.point_of(i) for i in ids]
    others = np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=np.int64)
    vinv = np.stack([linalg.vandermonde_inverse(enc.field, tuple(points[j] for j in o))
                     for o in others])
    c, q_mat = _msr_cq(y, ids, enc)
    lam = np.asarray(enc.lam, dtype=np.int64)[[i - 1 for i in ids]]
    halves = []
    for m in ((c - lam[:, None] * q_mat) % q, q_mat):
        v = np.einsum("iab,nib->nia", vinv, m[:, np.arange(k)[:, None], others]) % q
        halves.append(np.einsum("ab,nbc->nac", vinv[-1], v[:, :-1]) % q)
    return np.concatenate(halves, axis=1)


def _mbr_operands(y: np.ndarray, ids: list[int], enc: EncodingMatrix) -> np.ndarray:
    """The (nb, d, d) operands [[S, T^t], [T, 0]] of nb words of k MBR shares
    y (nb, k, d) of nodes ids. Columns k..d-1 of y evaluate the columns of
    T^t at their points, a polynomial of degree < k per column, one k-point
    Vandermonde solve; once Sigma T is taken off, columns 0..k-1 evaluate
    those of S."""
    q, k, d = enc.field.q, enc.params.k, enc.params.d
    vinv = linalg.vandermonde_inverse(enc.field, tuple(enc.point_of(i) for i in ids))
    t_t = _batch_product(vinv, y[:, :, k:], q)
    sigma_t = _batch_product(enc.sigma[[i - 1 for i in ids]], t_t.transpose(0, 2, 1), q)
    m = np.zeros((y.shape[0], d, d), dtype=np.int64)
    m[:, :k, :k] = _batch_product(vinv, (y[:, :, :k].astype(np.int64) - sigma_t) % q, q)
    m[:, :k, k:] = t_t
    m[:, k:, :k] = t_t.transpose(0, 2, 1)
    return m


def _locate_mbr(y: np.ndarray, ids: list[int], enc: EncodingMatrix, t: int) -> np.ndarray:
    """(nb, R) masks of the wrong shares among nb MBR words of (R, d) shares
    y of nodes ids.

    Columns k..d-1 of the shares evaluate the columns of T^t, polynomials of
    degree < k, and are located directly: they flag exactly the shares wrong
    there. For the rest, P_ij = y_j[:k] . phi_i - y_i[k:] . sigma_j equals
    phi_j^t S phi_i, so row i of P holds the evaluations of S phi_i at the
    providers' points. When y_i[k:] is right, a wrong share y_j = y_j' + e_j
    spoils entry j of row i exactly when e_j[:k] . phi_i != 0. At most t of
    the lowest k + 2t rows have a wrong y_i[k:]; a share wrong in its first
    k symbols is flagged by all but at most k - 1 of the k + t or more
    others, that is by more than t rows, and a share right there only by
    the t or fewer. The
    rows of every word are located by one `decoding.locate` call, the
    columns by another, and the mask is the union of the two."""
    q, k = enc.field.q, enc.params.k
    nb, r, d = y.shape
    m = k + 2 * t
    rows = [i - 1 for i in ids]
    points = [enc.point_of(i) for i in ids]
    columns = decoding.locate(y[:, :, k:].transpose(0, 2, 1).reshape(nb * (d - k), r),
                              points, k, t, enc.field)
    wrong = columns.reshape(nb, d - k, r).any(axis=1)
    # the lowest m rows of P, (nb, m, R): y_j[:k] . phi_i plus y_i[k:] . (-sigma_j)
    p = np.add(
        linalg.matmul_mod(y[:, :, :k].reshape(nb * r, k), enc.phi[rows[:m]].T, q)
        .reshape(nb, r, m).transpose(0, 2, 1),
        linalg.matmul_mod(y[:, :m, k:].reshape(nb * m, d - k), -enc.sigma[rows].T % q, q)
        .reshape(nb, m, r),
        dtype=np.int32,
    )
    p %= q
    votes = decoding.locate(p.reshape(nb * m, r), points, k, t, enc.field)
    return wrong | (votes.reshape(nb, m, r).sum(axis=1) > t)


def _mbr_fill(y: np.ndarray, ids: list[int], enc: EncodingMatrix) -> np.ndarray:
    """k MBR shares y (nb, k, d) with the symbols outside their staircase
    overwritten from those in it. M is symmetric, so with f_j the polynomial
    whose coefficients are share j, f_j(x_i) = f_i(x_j) for each earlier
    share i. Share j keeps its symbols z..e-1, where z (0 or 1) of the
    earlier shares sit at point 0 and m at nonzero points, e = d - m: its
    symbol 0 is then f_i(x_j) for the share i at 0, and the rest one m-point
    Vandermonde solve. The B' kept symbols, each the first not fixed by
    those before it, are known here alone; shares zero on them fill to 0."""
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


def _reconstruct_apply(enc: EncodingMatrix, ids: list[int], y: np.ndarray) -> np.ndarray:
    """(nb, B') uint16 messages of nb words of k shares y (nb, k, alpha') of
    providers ids, by Rashmi-Shah-Kumar's product-matrix reconstruction: a
    few k- and (k-1)-point Vandermonde solves. In the product-matrix basis
    it gives the operand's symbols; in a systematic code, the payload: the
    operand re-encoded on nodes 1..k, read at the code's layout. MBR reads
    every symbol of y: shares that hold a codeword give its message."""
    params = enc.params
    q, nb = enc.field.q, y.shape[0]
    ops = (_msr_operands if params.mode is CodeMode.MSR else _mbr_operands)(y, ids, enc)
    if not enc.systematic:
        values, cells = np.unique(_slice_matrix_index(params), return_index=True)
        return ops.reshape(nb, -1)[:, cells[values >= 0]].astype(np.uint16)
    shares = _batch_product(enc.psi[: params.k], ops, q)
    return shares.reshape(nb, -1)[:, _share_map_layout(enc)[1]]


# identity rows one `_build_inverse` step fills and applies, so that its
# temporaries are bounded by the slab, not by the square of k * alpha'
_INVERSE_SLAB = 128
# the largest inverse `_reconstruct_inverse` keeps: its 64 hold 32 MiB at
# most, whatever code a header states
_INVERSE_MEMO_BYTES = 1 << 19


def _build_inverse(enc: EncodingMatrix, ids: list[int]) -> np.ndarray:
    """The (B', k * alpha') read-only uint16 left inverse of providers ids'
    stacked share maps that reads the B' symbols `_mbr_fill` keeps (for
    MSR, all): the `_reconstruct_apply` of the identity's rows, for MBR
    filled first, `_INVERSE_SLAB` rows at a time. A row outside the kept
    symbols fills to zero, and so does its column. So it is the one left
    inverse that elimination finds."""
    params = enc.params
    width = params.k * params.alpha_prime
    inv = np.empty((params.slice_symbols, width), dtype=np.uint16)
    for at in range(0, width, _INVERSE_SLAB):
        unit = np.eye(min(_INVERSE_SLAB, width - at), width, at, dtype=np.int64)
        unit = unit.reshape(-1, params.k, params.alpha_prime)
        if params.mode is CodeMode.MBR:
            unit = _mbr_fill(unit, ids, enc)
        inv[:, at : at + unit.shape[0]] = _reconstruct_apply(enc, ids, unit).T
    inv.setflags(write=False)
    return inv


@functools.lru_cache(maxsize=64)
def _memo_inverse(enc: EncodingMatrix, ids: tuple[int, ...]) -> np.ndarray:
    return _build_inverse(enc, list(ids))


def _reconstruct_inverse(enc: EncodingMatrix, ids: list[int],
                         kept: dict | None = None) -> np.ndarray:
    """`_build_inverse`, built once per (code, ids in order) and shared: the
    inverse depends on which providers are read, never on the data. An
    inverse over `_INVERSE_MEMO_BYTES` is kept only in ``kept``, a file's
    (the last one built), and without it built every time."""
    params = enc.params
    if 2 * params.slice_symbols * params.k * params.alpha_prime <= _INVERSE_MEMO_BYTES:
        return _memo_inverse(enc, tuple(ids))
    if kept is None:
        return _build_inverse(enc, ids)
    if tuple(ids) not in kept:
        kept.clear()
        kept[tuple(ids)] = _build_inverse(enc, ids)
    return kept[tuple(ids)]


def decode_reconstruct(
    shares: dict[int, np.ndarray], enc: EncodingMatrix, t: int,
    counts: dict | None = None, kept: dict | None = None,
) -> np.ndarray:
    """The (nblocks, B) payload from node_id -> (nblocks, alpha) shares of the
    nodes that answered, up to t of them corrupt; exact when at least k + 2t
    answered. Every slice of every block is one word. A pass over nodes
    1..k of a systematic code gathers the payload at the code's layout; any
    other pass over fewer than k * alpha' words, unless its inverse is in
    ``kept``, applies the product-matrix reconstruction itself
    (`_reconstruct_apply`) and promises nothing, and a larger one the left
    inverse of its k providers' stacked share maps (`_reconstruct_inverse`,
    which keeps a large one in ``kept``, a file's), which reproduces the
    symbols it reads. The wrong shares of words that are not clean are
    located by the product-matrix reduction to RS location."""
    params = enc.params
    ids = list(shares)
    amap, layout = _share_map_layout(enc)
    first_k = list(range(1, params.k + 1))
    locate_mode = _locate_msr if params.mode is CodeMode.MSR else _locate_mbr

    def solve(rows, used):
        providers = [ids[r] for r in rows]
        if layout is not None and providers == first_k:
            return _columns(used, layout).astype(np.uint16, copy=False), layout
        if used.shape[0] < params.k * params.alpha_prime and tuple(providers) not in (
                kept or {}):
            # a few words: their own reconstruction, re-encoded at every
            # position, costs less than an inverse and its check
            y = used.reshape(used.shape[0], params.k, -1)
            return _reconstruct_apply(enc, providers, y), None
        inv = _reconstruct_inverse(enc, providers, kept)
        return linalg.matmul_mod(used, inv.T, enc.field.q), np.flatnonzero(inv.any(axis=0))

    out = _locate_then_erase(
        [shares[i].reshape(-1, params.alpha_prime) for i in ids],
        amap[[i - 1 for i in ids]], params.k, t, enc.field, solve,
        lambda word: locate_mode(word, ids, enc, t), params.beta, counts,
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


def _info(counts: dict) -> dict:
    """The decode counts an info reports: not the masks a file's chunks share."""
    return {k: v for k, v in counts.items() if k != "masks"}


def repair_blocks(
    bodies: Mapping[int, np.ndarray],
    failed_id: int,
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
    counts: dict | None = None,
) -> tuple[np.ndarray, dict]:
    """Regenerate the failed node's (nblocks, alpha) body from shard bodies.

    Helpers are the Delta = d+s+2t lowest-id present nodes; each contributes
    its per-block repair symbols, computed exactly as a live helper would. At
    s = t = 0 they are one float product per helper, left unreduced, written
    straight into the operand of `_one_map_repair`.
    ``counts`` is a file's, shared by its chunks (`repair_chunks`).
    """
    params = enc.params
    enc.check_node(failed_id)
    delta = connectivity(params, s, t, repair=True)
    helpers = _lowest_ids(bodies, delta, skip=failed_id)
    counts = {} if counts is None else counts
    if s == t == 0:
        # each helper's repair symbols by one float product, left unreduced:
        # in float32 while their whole sums stay exact there
        ap, q = params.alpha_prime, enc.field.q
        kind = np.float32 if ap * (q - 1) ** 2 < 2**24 else np.float64
        target = _repair_target(enc, failed_id).astype(kind)
        slices = [body.reshape(-1, ap) for body in helpers.values()]

        def fill(lo, part):
            for row, y in zip(part, slices):
                row[...] = y[lo : lo + row.size].astype(kind) @ target

        share = _one_map_repair(fill, slices[0].shape[0], ap * (q - 1) ** 2, failed_id,
                                tuple(helpers), enc, counts)
    else:
        symbols = {h: helper_symbols(body, failed_id, enc) for h, body in helpers.items()}
        share = decode_repair(symbols, failed_id, enc, t, counts)
    info = {
        "helpers": list(helpers),
        "connectivity": delta,
        "downloaded": delta * params.beta * share.shape[0],
        **_info(counts),
    }
    return share, info


def reconstruct_blocks(
    bodies: Mapping[int, np.ndarray],
    enc: EncodingMatrix,
    s: int = 0,
    t: int = 0,
    counts: dict | None = None,
    kept: dict | None = None,
) -> tuple[np.ndarray, dict]:
    """Recover (nblocks, B) payload symbols from the kappa = k+s+2t lowest-id
    shards. ``counts`` and ``kept`` are a file's, shared by its chunks
    (`reconstruct_chunks`)."""
    params = enc.params
    kappa = connectivity(params, s, t, repair=False)
    chosen = _lowest_ids(bodies, kappa)
    counts = {} if counts is None else counts
    out = decode_reconstruct(chosen, enc, t, counts, kept)
    info = {
        "providers": list(chosen),
        "connectivity": kappa,
        "downloaded": kappa * params.alpha * out.shape[0],
        **_info(counts),
    }
    return out, info


def _by_chunk(bodies: ShardBodies, params: SystemParams, decode):
    """``decode(chunk)`` of each chunk of blocks (`block_chunks`) of a shard
    set in turn, as a `ShardBodies.chunk` view. Each chunk decodes on its
    own, so the first that fails names the file's lowest block without a
    message."""
    for lo, hi in block_chunks(bodies.header.block_count, params):
        try:
            yield decode(bodies.chunk(lo, hi))
        except _OverBudget as failure:
            raise _OverBudget(lo + failure.block, failure.t) from None


def repair_chunks(bodies: ShardBodies, failed_id: int, enc: EncodingMatrix,
                  s: int = 0, t: int = 0):
    """`repair_blocks` of each chunk of blocks of a shard set in turn: its
    (blocks, alpha) rows of the failed node's body and its info, whose
    decode counts are the file's so far (passes and located words summed,
    masks distinct over the file)."""
    counts: dict = {"masks": set()}
    return _by_chunk(bodies, enc.params,
                     lambda chunk: repair_blocks(chunk, failed_id, enc, s, t, counts))


def reconstruct_chunks(bodies: ShardBodies, enc: EncodingMatrix, s: int = 0, t: int = 0):
    """`reconstruct_blocks` of each chunk of blocks of a shard set in turn:
    its (blocks, B) payload symbols and its info, with the file's decode
    counts so far (`repair_chunks`). An inverse too large for the memo
    (`_reconstruct_inverse`) is kept for the file, so it is built once."""
    counts: dict = {"masks": set()}
    kept: dict = {}
    return _by_chunk(bodies, enc.params,
                     lambda chunk: reconstruct_blocks(chunk, enc, s, t, counts, kept))
