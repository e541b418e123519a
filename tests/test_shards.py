import io
import random

import numpy as np
import pytest

from pmrc import (
    CodeMode,
    DecodeFailure,
    Fq,
    InfeasibleError,
    ParameterError,
    build_encoding,
    mbr_fill_message,
    mbr_params,
    msr_fill_message,
    msr_params,
)
from pmrc.shards import (
    ShardHeader,
    blocks_to_bytes,
    bytes_to_blocks,
    encode_blocks,
    load_shard_set,
    read_shard,
    reconstruct_blocks,
    repair_blocks,
    shard_filename,
    write_shard,
)
from util import make_code, random_payload


def make_header(params, enc, node_id=1, blocks=3, data_len=10):
    return ShardHeader(
        mode=params.mode,
        n=params.n,
        k=params.k,
        d=params.d,
        beta=params.beta,
        q=enc.field.q,
        node_id=node_id,
        block_count=blocks,
        data_len=data_len,
        points=enc.points,
    )


def test_header_round_trip():
    params = mbr_params(k=3, d=5, n=8, beta=2)
    enc = build_encoding(params)
    h = make_header(params, enc, node_id=5, blocks=7, data_len=123)
    back = ShardHeader.unpack(io.BytesIO(h.pack()))
    assert back == h
    assert back.params() == params
    assert back.encoding().psi == enc.psi


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
    h = make_header(params, enc, node_id=2, blocks=4)
    path = tmp_path / shard_filename(2)
    write_shard(path, h, body)
    h2, body2 = read_shard(path)
    assert h2 == h
    assert (body2 == body).all()
    # body size matches blocks * alpha * 2 bytes
    assert path.stat().st_size == len(h.pack()) + 4 * params.alpha * 2


def test_encode_blocks_matches_unit_encoder():
    """Every block's shares equal the product-matrix definition psi @ M,
    slice by slice, with M laid out by the *_fill_message layout."""
    rng = random.Random(3)
    for params, q in (
        (msr_params(k=3, n=7, beta=2), 257),
        (mbr_params(k=3, d=5, n=8), 257),
        (mbr_params(k=2, d=3, n=5, beta=3), 263),
    ):
        enc = build_encoding(params, Fq(q))
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
                code = (enc.psi @ m).array()
                for i in range(1, params.n + 1):
                    assert (bodies[i][b, j * ap : (j + 1) * ap] == code[i - 1]).all()


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
