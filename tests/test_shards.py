import io
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrc import (
    CodeMode,
    ConstructionError,
    DecodeFailure,
    Fq,
    InfeasibleError,
    ParameterError,
    build_encoding,
    encoding_from_points,
    linalg,
    mbr_params,
    msr_params,
)
from pmrc import decoding, shards
from pmrc.decoding import Response, consistency_reconstruct
from pmrc.shards import (
    ShardHeader,
    blocks_to_bytes,
    bytes_to_blocks,
    decode_reconstruct,
    decode_repair,
    encode_blocks,
    helper_symbols,
    load_shard_set,
    poly_decode,
    read_shard,
    reconstruct_blocks,
    repair_blocks,
    shard_filename,
    share_map,
    write_shard,
)
from oracles import (
    locate_then_erase_full,
    mbr_fill_message,
    message_matrices,
    msr_fill_message,
    payload_of_matrices,
    share_map_einsum,
    subset_decode_oracle,
)
from util import make_code, psi_m_basis, random_payload


def make_header(params, enc, node_id=1, blocks=3, data_len=10):
    return ShardHeader(enc, node_id, blocks, data_len)


def test_header_round_trip():
    params = mbr_params(k=3, d=5, n=8, beta=2)
    enc = build_encoding(params)
    h = make_header(params, enc, node_id=5, blocks=6, data_len=123)  # B = 24
    back = ShardHeader.unpack(io.BytesIO(h.pack()))
    assert back == h
    assert back.enc.params == params
    assert np.array_equal(back.enc.psi, enc.psi)


def test_header_rejects_garbage():
    with pytest.raises(ParameterError):
        ShardHeader.unpack(io.BytesIO(b"nope"))
    params = msr_params(k=2, n=5)
    enc = build_encoding(params)
    raw = bytearray(make_header(params, enc).pack())
    raw[0:4] = b"XXXX"
    with pytest.raises(ParameterError):
        ShardHeader.unpack(io.BytesIO(bytes(raw)))


def test_same_shard_set_ignores_node_id():
    params = msr_params(k=2, n=5)
    enc = build_encoding(params)
    a = make_header(params, enc, node_id=1)
    b = make_header(params, enc, node_id=4)
    assert a.same_shard_set(b)
    c = make_header(params, enc, node_id=1, data_len=11)
    assert not a.same_shard_set(c)


def test_bytes_blocks_round_trip():
    data = bytes(range(256)) * 3
    blocks = bytes_to_blocks(data, 12)
    assert blocks.shape == (64, 12)
    assert blocks_to_bytes(blocks, len(data)) == data
    # padding is stripped by data_len
    blocks = bytes_to_blocks(b"abc", 12)
    assert blocks.shape == (1, 12)
    assert blocks_to_bytes(blocks, 3) == b"abc"
    assert bytes_to_blocks(b"", 12).shape == (0, 12)
    assert blocks_to_bytes(bytes_to_blocks(b"", 12), 0) == b""


def test_shard_file_round_trip(tmp_path):
    params = mbr_params(k=2, d=3, n=5)
    enc = build_encoding(params)
    body = np.arange(12, dtype=np.int64).reshape(4, 3)
    h = make_header(params, enc, node_id=2, blocks=4, data_len=20)  # B = 5
    path = tmp_path / shard_filename(2)
    write_shard(path, h, body)
    h2, body2 = read_shard(path)
    assert h2 == h
    assert (body2 == body).all()
    # body size matches blocks * alpha * 2 bytes
    assert path.stat().st_size == len(h.pack()) + 4 * params.alpha * 2


def test_write_shard_writes_the_u2_body(tmp_path):
    """write_shard writes the header and the body's ``<u2`` bytes in row
    order, whatever the body's layout: a column run of a wider array (an
    encoded node's view), a beta = 2 body, a transposed product, an int64
    body (`pmrc damage`'s) and a 0-block body."""
    rng = np.random.default_rng(9)
    wide = rng.integers(0, 257, size=(6, 11)).astype(np.uint16)
    cases = [
        (msr_params(k=4, n=10), wide[:, 4:7]),
        (mbr_params(k=3, d=5, n=8, beta=2), rng.integers(0, 257, size=(5, 10)).astype(np.uint16)),
        (msr_params(k=4, n=10), rng.integers(0, 257, size=(3, 6)).astype(np.uint16).T),
        (mbr_params(k=5, d=8, n=16), rng.integers(0, 257, size=(4, 8))),
        (msr_params(k=4, n=10), wide[:0, 4:7]),
    ]
    for params, body in cases:
        enc = build_encoding(params)
        h = ShardHeader(enc, 2, body.shape[0], body.shape[0] * params.message_symbols)
        path = tmp_path / shard_filename(2)
        write_shard(path, h, body)
        want = h.pack() + np.ascontiguousarray(body, "<u2").tobytes()
        assert path.read_bytes() == want, (params, body.dtype, body.strides)


def test_encode_blocks_matches_unit_encoder():
    """Every block's shares equal the product-matrix definition psi @ M,
    slice by slice, with M laid out by the *_fill_message layout."""
    rng = random.Random(3)
    for params, q in (
        (msr_params(k=3, n=7, beta=2), 257),
        (mbr_params(k=3, d=5, n=8), 257),
        (mbr_params(k=2, d=3, n=5, beta=3), 263),
        (mbr_params(k=12, d=30, n=40), 257),  # B' = 294: two float32 spans
    ):
        enc = psi_m_basis(build_encoding(params, Fq(q)))
        nb = 4
        blocks = np.array(
            [random_payload(rng, params, min(q, 257)) for _ in range(nb)],
            dtype=np.int64,
        ).reshape(nb, params.message_symbols)
        bodies = encode_blocks(blocks, enc)
        ap = params.alpha_prime
        for b in range(nb):
            payload = tuple(int(v) for v in blocks[b])
            if params.mode is CodeMode.MSR:
                ms = [sl.stacked() for sl in msr_fill_message(payload, params, enc.field)]
            else:
                ms = [sl.assembled() for sl in mbr_fill_message(payload, params, enc.field)]
            for j, m in enumerate(ms):
                code = linalg.matmul_mod(enc.psi, m, q)
                for i in range(1, params.n + 1):
                    assert (bodies[i][b, j * ap : (j + 1) * ap] == code[i - 1]).all()


def _triangle_walk(values, params):
    """One slice's operand filled the long way: each symmetric block from its
    upper triangle walked row-major, then (MBR) T row-major into both
    off-diagonal blocks."""
    it = iter(values)
    k, d = params.k, params.d
    if params.mode is CodeMode.MSR:
        m = np.zeros((d, k - 1), dtype=np.int64)
        squares = [(0, k - 1), (k - 1, k - 1)]
    else:
        m = np.zeros((d, d), dtype=np.int64)
        squares = [(0, k)]
    for top, size in squares:
        for i in range(size):
            for j in range(i, size):
                m[top + i, j] = m[top + j, i] = next(it)
    if params.mode is CodeMode.MBR:
        for r in range(k, d):
            for c in range(k):
                m[r, c] = m[c, r] = next(it)
    return m


def test_share_map_matches_einsum_reference():
    """The scatter gives the map psi times a one-hot operand gives, on the
    benchmark codes and on wide and degenerate MBR codes."""
    for params, q in (
        (msr_params(k=4, n=10), 257),
        (mbr_params(k=5, d=8, n=16), 257),
        (msr_params(k=8, n=20), 257),
        (msr_params(k=2, n=5, beta=2), 65521),
        (mbr_params(k=20, d=50, n=60), 257),
        (mbr_params(k=1, d=39, n=40), 65521),
    ):
        enc = psi_m_basis(build_encoding(params, Fq(q)))
        amap = share_map(enc)
        assert amap.dtype == np.uint16 and not amap.flags.writeable
        assert np.array_equal(amap, share_map_einsum(enc))


def test_share_map_memory_is_its_output():
    """A header may state a wide code: share_map of MBR [120,1,119] takes
    little more memory than the (n, alpha', B') map it returns."""
    import tracemalloc

    enc = psi_m_basis(build_encoding(mbr_params(k=1, d=119, n=120), Fq(65521)))
    enc.psi  # the code's own table, built before the measurement
    tracemalloc.start()
    try:
        amap = shards._share_map_layout.__wrapped__(enc)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * amap.nbytes, (peak, amap.nbytes)


def test_systematic_map_memory_is_a_few_maps():
    """The systematic map of MSR [100,30,58] at q = 401 inverts nodes
    1..30's (870, 870) maps: the identity is applied in slabs, so the
    build peaks below three times the (n, alpha', B') map it returns."""
    import tracemalloc

    enc = build_encoding(msr_params(k=30, n=100), Fq(401))
    enc.psi, enc.phi  # the code's own tables, built before the measurement
    tracemalloc.start()
    try:
        amap = shards._share_map_layout.__wrapped__(enc)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * amap.nbytes, (peak, amap.nbytes)


def test_message_layout_matches_triangle_walk():
    rng = np.random.default_rng(12)
    for params in (
        msr_params(k=8, n=20, beta=2),
        mbr_params(k=5, d=8, n=16, beta=3),
        mbr_params(k=3, d=3, n=5),
    ):
        blocks = rng.integers(0, 257, (3, params.message_symbols))
        mats = message_matrices(blocks, params)
        width = params.slice_symbols
        for b in range(3):
            for j in range(params.beta):
                want = _triangle_walk(blocks[b, j * width : (j + 1) * width], params)
                assert (mats[b, j] == want).all()
        assert (payload_of_matrices(mats, params) == blocks).all()


def test_repair_blocks_matches_unit_repair(tmp_path):
    rng = random.Random(5)
    params = mbr_params(k=2, d=3, n=7)
    q = 263
    enc, encode_payload, helper, repair, _ = make_code(params, q)
    nb = 5
    blocks = np.array([random_payload(rng, params, 257) for _ in range(nb)])
    bodies = encode_blocks(blocks, enc)
    truth = {i: bodies[i].copy() for i in bodies}
    # corrupt node 3 wholesale, delete node 2's shard, repair node 1 with t=1
    bodies[3] = (bodies[3] + 1) % q
    del bodies[2]
    bodies.pop(1)
    got, info = repair_blocks(bodies, 1, enc, s=0, t=1)
    assert (got == truth[1]).all()
    assert info["connectivity"] == params.d + 2
    assert info["downloaded"] == (params.d + 2) * params.beta * nb


def test_repair_blocks_infeasible():
    params = mbr_params(k=2, d=3, n=6)
    enc, encode_payload, _, _, _ = make_code(params, 263)
    blocks = np.zeros((1, params.message_symbols), dtype=np.int64)
    bodies = encode_blocks(blocks, enc)
    del bodies[1]
    del bodies[2]
    del bodies[3]
    with pytest.raises(InfeasibleError):
        repair_blocks(bodies, 1, enc, s=1, t=1)  # Delta = 6 > n-1
    with pytest.raises(InfeasibleError):
        repair_blocks(bodies, 1, enc, s=0, t=1)  # needs 5 helpers, 2 present


def test_reconstruct_blocks_matches_unit(tmp_path):
    rng = random.Random(6)
    params = msr_params(k=3, n=7)
    q = 257
    enc, encode_payload, _, _, reconstruct = make_code(params, q)
    nb = 4
    blocks = np.array([random_payload(rng, params, 257) for _ in range(nb)])
    bodies = encode_blocks(blocks, enc)
    bodies[2] = (bodies[2] + 5) % q  # whole-shard corruption
    del bodies[6]
    got, info = reconstruct_blocks(bodies, enc, s=1, t=1)
    assert (got == blocks).all()
    assert info["connectivity"] == params.k + 3
    with pytest.raises(InfeasibleError):
        reconstruct_blocks({1: bodies[1]}, enc, s=0, t=0)


def test_reconstruct_blocks_beyond_budget_fails():
    rng = random.Random(7)
    params = msr_params(k=3, n=7)
    q = 257
    enc, _, _, _, _ = make_code(params, q)
    nb = 3
    blocks = np.array([random_payload(rng, params, 257) for _ in range(nb)])
    bodies = encode_blocks(blocks, enc)
    bodies[1] = (bodies[1] + 1) % q
    bodies[2] = (bodies[2] + 2) % q
    with pytest.raises(DecodeFailure):
        reconstruct_blocks(bodies, enc, s=0, t=1)


def test_load_shard_set_skips_bad_files(tmp_path, capsys):
    params = mbr_params(k=2, d=3, n=5)
    enc = build_encoding(params)
    blocks = np.zeros((2, params.message_symbols), dtype=np.int64)
    bodies = encode_blocks(blocks, enc)
    for i, body in bodies.items():
        write_shard(
            tmp_path / shard_filename(i), make_header(params, enc, i, 2, 9), body
        )
    (tmp_path / shard_filename(3)).write_bytes(b"garbage")
    header, loaded = load_shard_set(tmp_path)
    assert sorted(loaded) == [1, 2, 4, 5]
    assert "skipped" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(InfeasibleError):
        load_shard_set(empty)
    with pytest.raises(OSError):
        load_shard_set(tmp_path / "nowhere")


def test_shard_bodies_read_lazily_and_drop_bad_bodies(tmp_path, capsys):
    """The header vote reads no body. A body is read on first use and kept;
    one with a symbol >= q, or whose header changed since the vote, drops
    out of the mapping with a warning naming its file."""
    params = mbr_params(k=2, d=3, n=5)
    enc = build_encoding(params)
    bodies = encode_blocks(np.ones((2, params.message_symbols), dtype=np.int64), enc)
    for i, body in bodies.items():
        write_shard(tmp_path / shard_filename(i), make_header(params, enc, i, 2, 9), body)
    header, loaded = load_shard_set(tmp_path)
    bad = read_shard(tmp_path / shard_filename(2))[1]
    bad[0, 0] = header.enc.field.q
    with open(tmp_path / shard_filename(2), "wb") as fp:
        fp.write(make_header(params, enc, 2, 2, 9).pack())
        fp.write(bad.astype("<u2").tobytes())
    write_shard(
        tmp_path / shard_filename(4), make_header(params, enc, 4, 2, 8), bodies[4]
    )
    assert list(loaded) == [1, 2, 3, 4, 5] and capsys.readouterr().err == ""
    assert loaded[1] is loaded[1] and (loaded[1] == bodies[1]).all()
    assert loaded.get(2) is None and loaded.get(4) is None
    err = capsys.readouterr().err
    assert shard_filename(2) in err and shard_filename(4) in err
    assert list(loaded) == [1, 3, 5] and 2 not in loaded and len(loaded) == 3


def test_reading_a_header_builds_no_table():
    """An 8,040-byte header may state MBR [2000,1,1999]. Checking its code
    costs O(n); the 2000 x 1999 psi is built only when a decode uses it, so
    a header that loses the vote never allocates it."""
    params = mbr_params(k=1, d=1999, n=2000)
    enc = encoding_from_points(params, Fq(65521), range(1, 2001))
    assert "psi" not in vars(enc)
    header = ShardHeader.unpack(io.BytesIO(ShardHeader(enc, 9, 0, 0).pack()))
    assert header.enc == enc and "psi" not in vars(header.enc)


def test_msr_header_with_repeated_lambda_is_an_erasure(tmp_path, capsys):
    """MSR [7,3,4] has lambda_i = x_i^2, and the point q - 1 has the lambda of
    the point 1. A header stating it fails the code's check with
    ConstructionError; it is skipped at the header vote, and a body whose
    header turns into it after the vote drops out of `ShardBodies`."""
    params = msr_params(k=3, n=7)
    enc = build_encoding(params)
    assert enc.points[0] == 1
    bodies = encode_blocks(np.ones((2, params.message_symbols), dtype=np.int64), enc)
    for i, body in bodies.items():
        write_shard(tmp_path / shard_filename(i), make_header(params, enc, i, 2, 9), body)
    raw = (tmp_path / shard_filename(2)).read_bytes()
    bad = raw[:44] + struct.pack("<I", enc.field.q - 1) + raw[48:]
    with pytest.raises(ConstructionError, match="repeated Lambda"):
        ShardHeader.unpack(io.BytesIO(bad))
    header, loaded = load_shard_set(tmp_path)
    assert list(loaded) == [1, 2, 3, 4, 5, 6, 7] and capsys.readouterr().err == ""
    (tmp_path / shard_filename(2)).write_bytes(bad)
    assert loaded.get(2) is None and list(loaded) == [1, 3, 4, 5, 6, 7]
    assert shard_filename(2) in capsys.readouterr().err
    header, loaded = load_shard_set(tmp_path)
    assert list(loaded) == [1, 3, 4, 5, 6, 7] and header.enc == enc
    assert shard_filename(2) in capsys.readouterr().err


# --- the decode steps against the exhaustive references --------------------

ORACLE_Q = 29
ORACLE_CODES = [
    msr_params(k=3, n=8),
    msr_params(k=3, n=8, beta=2),
    mbr_params(k=2, d=3, n=7),
    mbr_params(k=3, d=4, n=8, beta=2),
]


def _draw_code(data):
    params = data.draw(st.sampled_from(ORACLE_CODES), label="code")
    enc = build_encoding(params, Fq(ORACLE_Q))
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    nb = data.draw(st.integers(1, 3), label="blocks")
    blocks = np.array(
        [random_payload(rng, params, ORACLE_Q) for _ in range(nb)], dtype=np.int64
    ).reshape(nb, params.message_symbols)
    return params, enc, rng, blocks


def _fewest_or_more(lo, hi):
    """A response count, often the fewest the budget allows (the hardest)."""
    return st.one_of(st.just(lo), st.integers(lo, hi))


def _draw_faults(data, rng, truth, t):
    """Exactly t, t + 1 or all of the responding nodes turn bad. A bad node
    errs in the blocks a drawn mask picks (so the wrong set differs from
    block to block) with random, possibly zero, error symbols."""
    ids = list(truth)
    n_bad = data.draw(st.sampled_from([t, t + 1, len(ids)]), label="bad nodes")
    bad = data.draw(st.permutations(ids), label="order")[:n_bad]
    got = {i: truth[i].copy() for i in ids}
    for i in bad:
        nb, width = got[i].shape
        errs = data.draw(st.lists(st.booleans(), min_size=nb, max_size=nb), label="errs")
        for b in range(nb):
            if errs[b]:
                err = [rng.randrange(ORACLE_Q) for _ in range(width)]
                got[i][b] = (got[i][b] + err) % ORACLE_Q
    return got, n_bad <= t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decode_repair_matches_subset_oracle(data):
    """decode_repair equals subset_decode_oracle run per block and slice, or
    both fail; within budget both give the lost share."""
    params, enc, rng, blocks = _draw_code(data)
    bodies = encode_blocks(blocks, enc)
    n, ap = params.n, params.alpha_prime
    failed = data.draw(st.integers(1, n), label="failed")
    t = data.draw(st.integers(0, (n - 1 - params.d) // 2), label="t")
    r_count = data.draw(_fewest_or_more(params.d + 2 * t, n - 1), label="R")
    others = [i for i in range(1, n + 1) if i != failed]
    helpers = data.draw(st.permutations(others), label="helpers")[:r_count]
    truth = {h: helper_symbols(bodies[h], failed, enc) for h in helpers}
    received, in_budget = _draw_faults(data, rng, truth, t)

    rows = linalg.vandermonde(enc.field, [enc.point_of(h) for h in helpers], params.d)
    want = np.empty_like(bodies[failed])
    try:
        for b in range(len(blocks)):
            for j in range(params.beta):
                values = [int(received[h][b, j]) for h in helpers]
                m = np.array(subset_decode_oracle(values, rows, t, enc.field))
                if params.mode is CodeMode.MSR:
                    m = (m[:ap] + enc.lam_of(failed) * m[ap:]) % ORACLE_Q
                want[b, j * ap : (j + 1) * ap] = m
    except DecodeFailure:
        want = None
    try:
        got = decode_repair(received, failed, enc, t)
    except DecodeFailure:
        got = None
    if want is None:
        assert got is None
    else:
        assert got is not None and (got == want).all()
    if in_budget:
        assert (got == bodies[failed]).all()


@pytest.mark.parametrize("q", [257, 4093, 65521])
@pytest.mark.parametrize("beta", [1, 2])
def test_msr_repair_fold_matches_int64_formula(q, beta):
    """decode_repair folds each MSR word m_f = [S1; S2] phi_f into
    phi_f^t S1 + lambda_f phi_f^t S2 as one product with [I; lambda_f I]: it
    equals the int64 formula, and gives the lost share, at word counts that
    run the kernel in int64 and on BLAS (one word with the product flipped,
    and just under and over `linalg._SMALL` multiply-adds)."""
    params = msr_params(k=4, n=10, beta=beta)
    enc = build_encoding(params, Fq(q))
    ap, failed = params.alpha_prime, 3
    per_word = 2 * ap * ap  # the fold's multiply-adds per word
    counts = [1, linalg._SMALL // per_word // beta, linalg._SMALL // per_word // beta + 1]
    kinds = [linalg._compute_dtype(nb * beta, 2 * ap, ap, q) for nb in counts]
    assert kinds[1] is np.int64 and kinds[2] is not np.int64
    helpers = [i for i in range(1, params.n + 1) if i != failed][: params.d]
    rng = np.random.default_rng(q + beta)
    for nb in counts:
        bodies = encode_blocks(rng.integers(0, q, size=(nb, params.message_symbols)), enc)
        symbols = {h: helper_symbols(bodies[h], failed, enc) for h in helpers}
        m = poly_decode([y.reshape(-1) for y in symbols.values()],
                        [enc.point_of(h) for h in helpers], params.d, 0, enc.field).T
        want = (m[:, :ap] + enc.lam_of(failed) * m[:, ap:].astype(np.int64)) % q
        got = decode_repair(symbols, failed, enc, 0)
        assert got.dtype == np.uint16 and got.shape == (nb, params.alpha)
        assert np.array_equal(got, want.reshape(got.shape))
        assert np.array_equal(got, bodies[failed])


def _oracle_reconstruct(received, ids, enc, t):
    """consistency_reconstruct per block, with share_map as the code."""
    params = enc.params
    amap = share_map(enc).astype(np.int64)  # uint16 products would wrap
    ap, bp = params.alpha_prime, params.slice_symbols

    def solve_k(sub_ids, sub_shares):
        a = np.concatenate([amap[i - 1] for i in sub_ids])
        out = []
        for j in range(params.beta):
            y = [v for sh in sub_shares for v in sh[j * ap : (j + 1) * ap]]
            x = linalg.solve(a, np.array(y)[:, None], enc.field.q)
            out.extend(x[:, 0].tolist())
        return tuple(out)

    def reencode(u, node):
        return tuple(
            int(v)
            for j in range(params.beta)
            for v in amap[node - 1] @ np.array(u[j * bp : (j + 1) * bp]) % ORACLE_Q
        )

    nb = received[ids[0]].shape[0]
    return np.array([
        consistency_reconstruct(
            [Response(i, tuple(int(v) for v in received[i][b])) for i in ids],
            params.k, t, solve_k, reencode,
        )
        for b in range(nb)
    ], dtype=np.int64).reshape(nb, params.message_symbols)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decode_reconstruct_matches_consistency_oracle(data):
    """decode_reconstruct equals consistency_reconstruct run per block, or
    both fail; within budget both give the payload."""
    params, enc, rng, blocks = _draw_code(data)
    bodies = encode_blocks(blocks, enc)
    n = params.n
    t = data.draw(st.integers(0, (n - params.k) // 2), label="t")
    r_count = data.draw(_fewest_or_more(params.k + 2 * t, n), label="R")
    ids = data.draw(st.permutations(range(1, n + 1)), label="providers")[:r_count]
    received, in_budget = _draw_faults(data, rng, {i: bodies[i] for i in ids}, t)
    try:
        want = _oracle_reconstruct(received, ids, enc, t)
    except DecodeFailure:
        want = None
    try:
        got = decode_reconstruct(received, enc, t)
    except DecodeFailure:
        got = None
    if want is None:
        assert got is None
    else:
        assert got is not None and (got == want).all()
    if in_budget:
        assert (got == blocks).all()


GUARD_CODES = [
    msr_params(k=3, n=9),
    msr_params(k=3, n=9, beta=2),
    mbr_params(k=2, d=3, n=8),
    mbr_params(k=2, d=3, n=8, beta=2),
]


def _decode_outcome(decode):
    """The decoded array, or the DecodeFailure text."""
    try:
        return decode()
    except DecodeFailure as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_clean_pass_shortcuts_match_full_reencode(data):
    """decode_repair and decode_reconstruct give the same array (dtype and
    shape included) or the same DecodeFailure text as they do with
    `locate_then_erase_full`, which inverts and re-encodes every position and
    copies the result: gathering the layout when the inverted positions are
    nodes 1..k of a systematic set, skipping the symbols the left inverse
    reads, and returning the clean-pass candidate as it is, change no answer,
    in either basis. Up to t + 1 responses are replaced by random words, or
    all of them."""
    params = data.draw(st.sampled_from(GUARD_CODES), label="code")
    q = data.draw(st.sampled_from([29, 257]), label="q")
    t = data.draw(st.integers(0, 2), label="t")
    enc = build_encoding(params, Fq(q))
    if not data.draw(st.booleans(), label="systematic"):
        enc = psi_m_basis(enc)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    nb = data.draw(st.integers(1, 3), label="blocks")
    bodies = encode_blocks(rng.integers(0, q, size=(nb, params.message_symbols)), enc)
    n = params.n
    if data.draw(st.booleans(), label="repair"):
        failed = data.draw(st.integers(1, n), label="failed")
        others = [i for i in range(1, n + 1) if i != failed]
        r_count = data.draw(_fewest_or_more(params.d + 2 * t, n - 1), label="R")
        ids = data.draw(st.permutations(others), label="helpers")[:r_count]
        responses = {h: helper_symbols(bodies[h], failed, enc) for h in ids}

        def decode():
            return decode_repair(responses, failed, enc, t)
    else:
        r_count = data.draw(_fewest_or_more(params.k + 2 * t, n), label="R")
        ids = data.draw(st.permutations(range(1, n + 1)), label="providers")[:r_count]
        if data.draw(st.booleans(), label="lowest ids"):
            ids = list(range(1, r_count + 1))  # a systematic set's gather
        responses = {i: bodies[i] for i in ids}

        def decode():
            return decode_reconstruct(responses, enc, t)
    n_bad = data.draw(st.sampled_from([*range(t + 2), r_count]), label="bad")
    for i in ids[:n_bad]:
        responses[i] = rng.integers(0, q, size=responses[i].shape).astype(np.uint16)
    got = _decode_outcome(decode)
    with mock.patch.object(shards, "_locate_then_erase", locate_then_erase_full):
        want = _decode_outcome(decode)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_mbr_reconstruct_checks_every_share_at_t0():
    """MBR reconstruction from exactly k shares at t = 0 is overdetermined
    (k * d > B'), so one corrupted share must still fail: its left inverse
    does not reproduce the shares it inverted."""
    params = mbr_params(k=2, d=3, n=8)
    enc = build_encoding(params, Fq(257))
    rng = np.random.default_rng(5)
    bodies = encode_blocks(rng.integers(0, 257, size=(2, params.message_symbols)), enc)
    shares = {1: bodies[1], 2: (bodies[2] + 1) % 257}
    with pytest.raises(DecodeFailure):
        decode_reconstruct(shares, enc, 0)


def test_decode_reconstruct_fails_when_column_errors_spread():
    """MBR [7,2,3] at t = 2 from 6 providers: each column of the one block
    has two wrong entries, on different nodes, so every column decodes but
    six shares are wrong. No payload is within 2 shares, and too few
    providers are left to erase around them."""
    params = mbr_params(k=2, d=3, n=7)
    enc = build_encoding(params, Fq(ORACLE_Q))
    blocks = np.arange(params.message_symbols, dtype=np.int64)[None, :]
    bodies = encode_blocks(blocks, enc)
    word = {i: bodies[i].copy() for i in range(1, 7)}
    for col, nodes in enumerate(((3, 4), (5, 6), (1, 2))):
        for i in nodes:
            word[i][0, col] = (word[i][0, col] + 1) % ORACLE_Q
    with pytest.raises(DecodeFailure):
        _oracle_reconstruct(word, list(word), enc, 2)
    with pytest.raises(DecodeFailure):
        decode_reconstruct(word, enc, 2)


def test_decode_steps_need_unique_decoding():
    params = mbr_params(k=2, d=3, n=7)
    enc = build_encoding(params, Fq(ORACLE_Q))
    bodies = encode_blocks(np.zeros((2, params.message_symbols), dtype=np.int64), enc)
    symbols = {h: helper_symbols(bodies[h], 1, enc) for h in (2, 3, 4, 5)}
    with pytest.raises(ParameterError):
        decode_repair(symbols, 1, enc, 1)  # 4 < d + 2t = 5
    with pytest.raises(ParameterError):
        decode_repair(symbols, 1, enc, -1)
    with pytest.raises(ParameterError):
        decode_repair({}, 1, enc, 0)
    with pytest.raises(ParameterError):
        decode_reconstruct({i: bodies[i] for i in (1, 2, 3)}, enc, 1)  # 3 < k + 2t
    with pytest.raises(ParameterError):
        decode_reconstruct({}, enc, 0)


def _count_pass_inverses(monkeypatch, op):
    """Records each decode of a pass or of the probe: a reconstruct applies
    the product-matrix reconstruction once (`shards._reconstruct_apply`), to
    its words or to the unit vectors of its inverse, and a repair takes one
    Vandermonde inverse (from its cache or not)."""
    calls = []
    owner, name = (shards, "_reconstruct_apply") if op == "reconstruct" else (
        linalg, "vandermonde_inverse")
    orig = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_whole_shard_corruption_costs_two_inverses_per_slice(monkeypatch):
    """With the lowest-id shards corrupt in every block, a decode inverts the
    clean-path rows once and, after locating the bad shards, the rows around
    them once more; a subset search needed hundreds of inverses here."""
    rng = random.Random(11)
    nb = 24
    for params, op in (
        (msr_params(k=8, n=20), "reconstruct"),
        (mbr_params(k=5, d=8, n=16), "repair"),
    ):
        enc = build_encoding(params)
        q = enc.field.q
        blocks = np.array(
            [random_payload(rng, params, 257) for _ in range(nb)], dtype=np.int64
        )
        bodies = encode_blocks(blocks, enc)
        truth = bodies[params.n].copy()
        del bodies[params.n]
        for i in (1, 2):
            bodies[i] = (bodies[i] + 1 + (np.arange(bodies[i].size) % (q - 1)).reshape(
                bodies[i].shape)) % q
        calls = _count_pass_inverses(monkeypatch, op)
        if op == "reconstruct":
            got, _ = reconstruct_blocks(bodies, enc, s=0, t=2)
            assert (got == blocks).all()
        else:
            got, _ = repair_blocks(bodies, params.n, enc, s=0, t=2)
            assert (got == truth).all()
        assert 1 <= len(calls) <= 2 * params.beta, (op, len(calls))
        monkeypatch.undo()


def test_info_counts_passes_located_words_and_patterns():
    """`info` counts the erase passes, the words located and their distinct
    masks. Clean: word 0 is located alone, and the pass its empty mask
    leaves takes every word. Whole-shard damage (nodes 1 and 2 wrong in
    every block): the one pass that erases word 0's mask takes every word.
    Scattered (block b's node b + 1 wrong): word 0's mask serves block 0,
    and blocks 1..5 are located in two chunks, one pass per pattern. Block 0
    clean (nodes 1 and 2 wrong from block 1 on, over more blocks than a
    located chunk holds): one chunk is located, and the pass its mask leaves
    takes every word left."""
    params = mbr_params(k=5, d=8, n=16)
    enc = build_encoding(params)
    q = enc.field.q
    nb = 20
    blocks = np.random.default_rng(8).integers(0, 256, size=(nb, params.message_symbols))
    clean = encode_blocks(blocks, enc)

    def counts(info):
        return info["passes"], info["located"], info["patterns"]

    whole, later = dict(clean), dict(clean)
    for i in (1, 2):
        whole[i] = (clean[i] + np.random.default_rng(i).integers(1, q, clean[i].shape)) % q
        later[i] = np.concatenate([clean[i][:1], whole[i][1:]])
    scattered = {i: body.copy() for i, body in clean.items()}
    for b in range(6):
        scattered[b + 1][b, 0] = (scattered[b + 1][b, 0] + 1) % q
    with mock.patch.object(shards, "_LOCATE_CHUNK", 4):
        for bodies, want in ((clean, (1, 1, 1)), (whole, (1, 1, 1)), (scattered, (6, 6, 6)),
                             (later, (2, 5, 2))):
            got, info = reconstruct_blocks(bodies, enc, t=2)
            assert (got == blocks).all()
            assert counts(info) == want
        for bodies, want in ((clean, (1, 1, 1)), (whole, (1, 1, 1)), (later, (2, 5, 2))):
            share, info = repair_blocks(
                {i: body for i, body in bodies.items() if i != params.n}, params.n, enc, t=2
            )
            assert (share == clean[params.n]).all()
            assert counts(info) == want
        # block 0 clean: word 0 and one chunk, not every word after word 0
        assert info["located"] <= 1 + shards._LOCATE_CHUNK < nb - 1


@pytest.mark.parametrize("params", [
    msr_params(k=3, n=9, beta=2), mbr_params(k=3, d=5, n=9, beta=2),
], ids=str)
def test_failure_names_the_lowest_block_without_a_message(params):
    """Block 0 has one wrong share, decodable with its own mask; blocks 2
    and 5 have two, past t = 1, on different nodes. The decode names block
    2, as the loop that locates one word at a time does."""
    enc = build_encoding(params)
    q = enc.field.q
    nb = 7
    blocks = np.random.default_rng(4).integers(0, 256, size=(nb, params.message_symbols))
    shares = {i: body.copy() for i, body in encode_blocks(blocks, enc).items()
              if i <= params.k + 2}
    for b, nodes in ((0, (2,)), (2, (1, 3)), (5, (4, 5))):
        for i in nodes:
            shares[i][b] = (shares[i][b] + 1) % q
    want = "block 2 exceeded the (t=1) corruption budget"
    for loop in (shards._locate_then_erase, locate_then_erase_full):
        with mock.patch.object(shards, "_locate_then_erase", loop):
            with pytest.raises(DecodeFailure) as failure:
                decode_reconstruct(shares, enc, 1)
        assert str(failure.value) == want
    head = {i: share[:2] for i, share in shares.items()}
    assert (decode_reconstruct(head, enc, 1) == blocks[:2]).all()


def test_a_word_located_to_the_first_rows_fails():
    """A word that the first pass rejected and whose mask leaves that pass's
    rows has no acceptable message. With R = 5 > msg_len + 2t the locator
    reads 2t = 2 of the 3 syndromes, so two errors whose first two syndromes
    are those of one error at the last point locate there; the decode names
    the word's block, as the loop that locates one word at a time does."""
    f, points = Fq(257), [1, 2, 3, 4, 5]
    h = decoding.parity_check(f, tuple(points), 3)
    errors = np.zeros(5, dtype=np.int64)
    errors[2:4] = linalg.solve(h[:2, 2:4], h[:2, 4:], 257)[:, 0]
    assert errors[2:4].all() and (h[2] @ errors - h[2, 4]) % 257
    y = linalg.matmul_mod(linalg.vandermonde(f, points, 2), np.array([[3, 7], [5, 11]]), 257)
    y = y.astype(np.int64)
    y[:, 1] = (y[:, 1] + errors) % 257
    assert decoding.locate(y.T, points, 2, 1, f)[1].tolist() == [False] * 4 + [True]
    for loop in (shards._locate_then_erase, locate_then_erase_full):
        with mock.patch.object(shards, "_locate_then_erase", loop):
            with pytest.raises(DecodeFailure) as failure:
                poly_decode(y, points, 2, 1, f)
        assert str(failure.value) == "block 1 exceeded the (t=1) corruption budget"
