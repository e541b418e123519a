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

`load_shard_set` votes on headers alone (each body's length is checked with
`fstat`, its bytes are not read) and returns the agreeing shards as a lazy
`ShardBodies` mapping; a header is read into the code it states
(`ShardHeader.enc`), and one that states no valid code (a prime q, n
distinct points in the field, distinct lambda for MSR) is an erasure like an
unreadable one. `repair_blocks` and `reconstruct_blocks` read only the
Delta or kappa lowest-id bodies they decode, each once, through `read_shard`;
a body that fails its checks there is an erasure, and the next id is read.

The code is stated once, as `share_map`: the linear map from one slice's B'
payload symbols (laid out by `_slice_matrix_index`) to every node's alpha'
stored symbols. `encode_blocks` applies it and `decode_reconstruct` inverts
it. Symbols stay uint16 (``<u2``, the on-disk body format) from `read_shard`
to `write_shard`; every bulk product is `linalg.matmul_mod`.

This module is the package's one codec. Blocks are independent, and so is
each beta-slice of a block (a copy of the beta = 1 code), so `encode_blocks`,
`helper_symbols`, `decode_repair` and `decode_reconstruct` work on all slices
of all blocks at once, one word per row. A decode takes the R >= msg_len + 2t
responses that arrived and the corruption budget t, and gives each word the
unique message agreeing with at least R - t of them (`_locate_then_erase`):
one clean-path inverse for all words; for a word left over, Reed-Solomon
errors-and-erasures location (`decoding.rs_decode_ee`, directly for repair
and through the product-matrix reduction for reconstruction), then one more
inverse without the located positions. The file-level calls, the simulator
and `pmrc.perblock` (batches of one block) all run them.
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
from .linalg import MatrixFq
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


@functools.lru_cache(maxsize=64)
def _header_code(mode_c: int, n: int, k: int, d: int, beta: int, q: int,
                 points: tuple[int, ...]) -> EncodingMatrix:
    """The checked code a header's fields state, built once per distinct
    fields: every header of a shard set states the same code."""
    params = SystemParams(_MODES[mode_c], n, k, d, beta)
    return encoding_from_points(params, Fq(q), points)


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
            MAGIC, VERSION, _MODES.index(p.mode), 0, p.n, p.k, p.d, p.beta,
            self.enc.field.q, self.node_id, 0, self.block_count, self.data_len,
        )
        return head + struct.pack(f"<{p.n}I", *self.enc.points)

    @classmethod
    def unpack(cls, fp) -> "ShardHeader":
        """The header at the start of ``fp``. ParameterError (or, for MSR
        points with repeated lambda, ConstructionError) when it is cut short
        or does not state a valid code."""
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
        if mode_c >= len(_MODES):
            raise ParameterError(f"unknown mode code {mode_c}")
        if q > 0xFFFF:
            raise ParameterError("shard symbols are 16-bit; q must be < 65536")
        praw = fp.read(4 * n)
        if len(praw) != 4 * n:
            raise ParameterError("truncated point table")
        points = struct.unpack(f"<{n}I", praw)
        return cls(_header_code(mode_c, n, k, d, beta, q, points), node_id, bc, dl)


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
def share_map(enc: EncodingMatrix) -> np.ndarray:
    """Read-only int64 coefficient tensor A with shape (n, alpha', B')
    mapping one slice of payload symbols u to every node's stored slice:
    share_i = A[i] @ u. Built once per encoding."""
    params = enc.params
    idx = _slice_matrix_index(params)
    onehot = (idx[:, :, None] == np.arange(params.slice_symbols)).astype(np.int64)
    amap = np.einsum("nd,dwu->nwu", enc.psi.array(), onehot) % enc.field.q
    amap.setflags(write=False)
    return amap


# --- the batched codec ------------------------------------------------------


def encode_blocks(blocks: np.ndarray, enc: EncodingMatrix) -> dict[int, np.ndarray]:
    """Encode (nblocks, B) payload symbols; returns node_id -> (nblocks,
    alpha) uint16. One product of every slice's B' symbols with the
    transposed `share_map` gives the (nblocks * beta, n * alpha') code array,
    whose columns (i-1) alpha' .. i alpha' - 1 are node i's slice shares."""
    params = enc.params
    if blocks.shape[1] != params.message_symbols:
        raise ParameterError("payload block width must be B")
    amap = share_map(enc).reshape(-1, params.slice_symbols)
    code = linalg.matmul_mod(
        blocks.reshape(-1, params.slice_symbols), amap.T, enc.field.q
    ).reshape(blocks.shape[0], params.beta, params.n, params.alpha_prime)
    shape = (blocks.shape[0], params.alpha)
    return {i + 1: code[:, :, i].reshape(shape) for i in range(params.n)}


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
    symbols = linalg.matmul_mod(slices, np.asarray(target)[:, None], enc.field.q)
    return symbols.reshape(share.shape[0], params.beta)


def _locate_then_erase(
    ys: list[np.ndarray], gen: np.ndarray, need: int, t: int, field: Fq,
    invert, locate, per_block: int,
) -> np.ndarray:
    """Messages (nwords, L) of nwords independent codewords, one per row,
    from the R positions that answered: ys[r] holds position r's (nwords, w)
    symbols, gen[r] is its (w, L) code map (row j of ys[r] is gen[r] @ m_j),
    and any ``need`` positions determine a message. Up to t positions per
    word may be wrong. R >= need + 2t makes the message agreeing with at
    least R - t positions unique; it is returned for every word, or
    DecodeFailure naming the block (``per_block`` consecutive words) of a
    word that has none.

    Clean pass: one ``invert`` (``linalg.inverse`` or ``left_inverse``) of
    the first ``need`` positions gives every word a candidate, accepted when
    it agrees with at least R - t positions. When the inverted positions'
    stacked code map is square, the candidate reproduces them exactly, so
    only the other positions are re-encoded and compared. When every word
    passes, the candidate array is returned as it is. While words remain,
    ``locate`` maps the first remaining word's (R, w) symbols to the mask of
    its wrong positions (exact whenever the word has an acceptable message,
    else it may raise DecodeFailure); those positions are erased, and one
    inverse of the first ``need`` other positions gives the remaining words
    new candidates, accepted by the same rule. The call fails as soon as the
    located word is not accepted.
    """
    n_pos = len(ys)
    if t < 0 or n_pos < need + 2 * t:
        raise ParameterError(
            f"{n_pos} responses cannot correct {t} errors; "
            f"need t >= 0 and at least {need} + 2t"
        )
    q = field.q
    word = np.stack(ys, axis=1)  # (nwords, R, w)
    width = gen.shape[2]
    out = np.empty((word.shape[0], width), dtype=np.uint16)
    undecided = np.arange(out.shape[0])
    erased = np.zeros(n_pos, dtype=bool)
    located = False
    while undecided.size:
        rows = np.flatnonzero(~erased)[:need]
        inv = invert(
            MatrixFq(field, np.concatenate(gen[rows]), _trusted=True)
        ).array()
        used = word if rows.size == n_pos else word[:, rows]
        cand = linalg.matmul_mod(used.reshape(used.shape[0], -1), inv.T, q)
        check = np.ones(n_pos, dtype=bool)
        if rows.size * word.shape[2] == width:
            check[rows] = False  # the inverted rows agree by construction
        n_check = int(check.sum())
        agree = np.full(cand.shape[0], n_pos - n_check)
        if n_check:
            again = linalg.matmul_mod(cand, gen[check].reshape(-1, width).T, q)
            seen = word if n_check == n_pos else word[:, check]
            same = again.reshape(seen.shape) == seen  # (nwords, checked, w)
            # whole-array steps over the short w and position axes: numpy's
            # reductions along a short innermost axis cost several times more
            for i in range(1, same.shape[2]):
                same[:, :, 0] &= same[:, :, i]
            for r in range(same.shape[1]):
                agree += same[:, r, 0]
        ok = agree >= n_pos - t
        if not located and ok.all():
            return cand
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


def _column(a: np.ndarray, coeffs: Sequence[int], q: int) -> np.ndarray:
    """a @ coeffs mod q for one decoded coefficient vector."""
    return linalg.matmul_mod(a, np.asarray(coeffs)[:, None], q)[:, 0]


def poly_decode(
    y: Sequence[np.ndarray], points: Sequence[int], msg_len: int, t: int, field: Fq,
    per_block: int = 1,
) -> np.ndarray:
    """Decode R rows of ncols polynomial evaluations (an (R, ncols) array or
    a list of rows) to (msg_len, ncols) coefficients, tolerating up to t
    wrong rows per column; needs R >=
    msg_len + 2t. A column that is not clean is located by the
    Berlekamp-Welch key equation (`decoding.rs_decode_ee`); a failure names
    the block of ``per_block`` consecutive columns it belongs to."""
    vdm = linalg.vandermonde(field, points, msg_len).array()

    def locate(word: np.ndarray) -> np.ndarray:
        coeffs = decoding.rs_decode_ee(word[:, 0].tolist(), points, msg_len, t, field)
        return _column(vdm, coeffs, field.q) != word[:, 0]

    return _locate_then_erase(
        [row[:, None] for row in y], vdm[:, None, :], msg_len, t, field,
        linalg.inverse, locate, per_block,
    ).T


def decode_repair(
    symbols: dict[int, np.ndarray], failed_id: int, enc: EncodingMatrix, t: int
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
        [enc.point_of(h) for h in symbols], params.d, t, enc.field, params.beta,
    ).T
    if params.mode is CodeMode.MSR:
        # phi_f^t S1 + lambda_f phi_f^t S2, by the symmetry of S1 and S2
        m = (m[:, :ap] + enc.lam_of(failed_id) * m[:, ap:].astype(np.int64)) % enc.field.q
        m = m.astype(np.uint16)
    # MBR: M is symmetric, so m_f itself is the lost slice share
    return m.reshape(-1, params.alpha)


def _locate_msr(y: np.ndarray, ids: list[int], enc: EncodingMatrix, t: int) -> np.ndarray:
    """Mask of the wrong shares among one MSR slice's (R, alpha') shares y
    of nodes ids.

    With Phi the providers' phi rows, Y Phi^t = P + Lambda Q where P = Phi S1
    Phi^t and Q = Phi S2 Phi^t are symmetric, so each off-diagonal pair
    (i, j), (j, i) of Y Phi^t gives Q_ij. Off the diagonal, row i of Q holds
    the evaluations of S2 phi_i at the other providers' points, and a wrong
    share y_j = y_j' + e_j spoils entry j of row i unless e_j . phi_i = 0.
    RS decoding a clean row therefore flags only wrong providers; a wrong
    provider is flagged by all but at most alpha' - 1 of the R - t or more
    clean rows, that is by more than t rows, and a correct one only by the t
    or fewer wrong rows."""
    field = enc.field
    q = field.q
    points = [enc.point_of(i) for i in ids]
    phi = enc.phi.array()[[i - 1 for i in ids]]
    lam = np.asarray([enc.lam_of(i) for i in ids], dtype=np.int64)
    c = linalg.matmul_mod(y, phi.T, q).astype(np.int64)  # c[i, j] = P_ij + lam_i Q_ij
    gap = (lam[:, None] - lam[None, :]) % q
    np.fill_diagonal(gap, 1)
    gap_inv = np.array([[pow(int(v), q - 2, q) for v in row] for row in gap])
    q_mat = (c - c.T) * gap_inv % q
    votes = np.zeros(len(ids), dtype=np.int64)
    for i, row in enumerate(q_mat.tolist()):
        row[i] = None
        try:
            coeffs = decoding.rs_decode_ee(row, points, phi.shape[1], t, field)
        except DecodeFailure:
            continue  # a wrong row; the clean rows flag it
        flagged = _column(phi, coeffs, q) != q_mat[i]
        flagged[i] = False
        votes += flagged
    return votes > t


def _locate_mbr(y: np.ndarray, ids: list[int], enc: EncodingMatrix, t: int) -> np.ndarray:
    """Mask of the wrong shares among one MBR slice's (R, d) shares y of
    nodes ids. With M = [[S, T], [T^t, 0]], columns k..d-1 of y are
    evaluations of the columns of T (degree < k); once the sigma rows times
    T are subtracted, columns 0..k-1 are evaluations of the columns of S.
    Each group of columns is one `poly_decode`; the decoded M is re-encoded
    and compared with y."""
    field = enc.field
    q = field.q
    k, d = enc.params.k, enc.params.d
    points = [enc.point_of(i) for i in ids]
    rows = [i - 1 for i in ids]
    t_blk = poly_decode(y[:, k:], points, k, t, field)
    sigma_t = linalg.matmul_mod(enc.sigma.array()[rows], t_blk.T, q)
    m = np.zeros((d, d), dtype=np.int64)
    m[:k, :k] = poly_decode((y[:, :k].astype(np.int64) - sigma_t) % q, points, k, t, field)
    m[:k, k:] = t_blk
    m[k:, :k] = t_blk.T
    return (linalg.matmul_mod(enc.psi.array()[rows], m, q) != y).any(axis=1)


def decode_reconstruct(
    shares: dict[int, np.ndarray], enc: EncodingMatrix, t: int
) -> np.ndarray:
    """The (nblocks, B) payload from node_id -> (nblocks, alpha) shares of the
    nodes that answered, up to t of them corrupt; exact when at least k + 2t
    answered. Every slice of every block is one column: a candidate is the
    left inverse of k providers' stacked share maps applied to their slice
    shares; the wrong shares of a column that is not clean are located by
    the product-matrix reduction to RS decoding."""
    params = enc.params
    ids = list(shares)
    gen = share_map(enc)[[i - 1 for i in ids]]
    locate_mode = _locate_msr if params.mode is CodeMode.MSR else _locate_mbr
    out = _locate_then_erase(
        [shares[i].reshape(-1, params.alpha_prime) for i in ids],
        gen, params.k, t, enc.field, linalg.left_inverse,
        lambda word: locate_mode(word, ids, enc, t), params.beta,
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
    share = decode_repair(symbols, failed_id, enc, t)
    info = {
        "helpers": list(helpers),
        "connectivity": delta,
        "downloaded": delta * params.beta * share.shape[0],
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
    out = decode_reconstruct(chosen, enc, t)
    info = {
        "providers": list(chosen),
        "connectivity": kappa,
        "downloaded": kappa * params.alpha * out.shape[0],
    }
    return out, info
