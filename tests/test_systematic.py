"""Systematic shard sets: nodes 1..k store the payload symbols themselves.

New sets are systematic (header flags bit 0). The product-matrix basis
(flags 0) still decodes and repairs: `tests/data/legacy/` holds two such sets
written by the encoder before systematic sets existed, from the 1,500 bytes
in `input.bin`:

- `msr-5-2-2-beta2-q65521`: MSR [5,2,2], beta = 2, q = 65521;
- `mbr-8-3-5`: MBR [8,3,5] at the default q = 257.
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from pmrc import (
    ConstructionError, Fq, build_encoding, encoding_from_points, linalg, mbr_params,
    msr_params, shards,
)
from pmrc.cli import EXIT_OK, main
from pmrc.shards import (
    ShardHeader,
    decode_reconstruct,
    encode_blocks,
    read_shard,
    shard_filename,
    share_map,
    write_shard,
)
from oracles import msr_read_message, msr_systematic_remap
from util import psi_m_basis

LEGACY = os.path.join(os.path.dirname(__file__), "data", "legacy")
LEGACY_SETS = {"msr-5-2-2-beta2-q65521": 5, "mbr-8-3-5": 8}  # name -> n


def _legacy_copy(tmp_path, name):
    dest = tmp_path / name
    shutil.copytree(os.path.join(LEGACY, name), dest)
    return dest


def _input():
    with open(os.path.join(LEGACY, "input.bin"), "rb") as fp:
        return fp.read()


def _payload(params, q, nblocks, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(nblocks, params.message_symbols))


@pytest.mark.parametrize("name", sorted(LEGACY_SETS))
def test_legacy_set_reconstructs_byte_identically(tmp_path, name):
    shards_dir = _legacy_copy(tmp_path, name)
    header, _ = read_shard(shards_dir / shard_filename(1))
    assert not header.enc.systematic
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(shards_dir), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == _input()
    assert main(["damage", str(shards_dir), "--corrupt", "1", "--seed", "4"]) == EXIT_OK
    dest.unlink()
    assert main(["reconstruct", str(shards_dir), "-o", str(dest), "-t", "1"]) == EXIT_OK
    assert dest.read_bytes() == _input()


@pytest.mark.parametrize("name", sorted(LEGACY_SETS))
def test_legacy_set_repairs_to_its_own_bytes(tmp_path, name):
    n = LEGACY_SETS[name]
    for node in (1, n):
        shards_dir = _legacy_copy(tmp_path / str(node), name)
        original = (shards_dir / shard_filename(node)).read_bytes()
        (shards_dir / shard_filename(node)).unlink()
        assert main(["repair", str(shards_dir), "--node", str(node)]) == EXIT_OK
        assert (shards_dir / shard_filename(node)).read_bytes() == original
    # and through a corrupt helper at t = 1
    shards_dir = _legacy_copy(tmp_path / "t1", name)
    original = (shards_dir / shard_filename(n)).read_bytes()
    assert main(["damage", str(shards_dir), "--erase", str(n), "--corrupt", "2"]) == EXIT_OK
    assert main(["repair", str(shards_dir), "--node", str(n), "-t", "1"]) == EXIT_OK
    assert (shards_dir / shard_filename(n)).read_bytes() == original


def test_info_reports_the_basis(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(_input())
    fresh = tmp_path / "fresh"
    assert main(["encode", str(src), "-o", str(fresh), "--mode", "mbr",
                 "-k", "3", "-d", "5", "-n", "8"]) == EXIT_OK
    legacy = _legacy_copy(tmp_path, "mbr-8-3-5")
    for shards_dir, systematic, line in (
        (fresh, True, "basis: systematic (nodes 1..k store the payload)"),
        (legacy, False, "basis: product-matrix (flags 0)"),
    ):
        capsys.readouterr()
        assert main(["info", str(shards_dir), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["systematic"] is systematic
        assert main(["info", str(shards_dir)]) == EXIT_OK
        assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("params,q", [
    (msr_params(k=4, n=10), 257),
    (msr_params(k=2, n=5, beta=2), 65521),
    (mbr_params(k=3, d=5, n=8), 257),
    (mbr_params(k=5, d=8, n=16, beta=2), 257),
])
def test_systematic_map_is_the_same_code(params, q):
    """Nodes 1..k store B' of their symbols as the payload itself (all of
    them for MSR, node i its i-th run), and every node's share is the
    product-matrix share of some message: the codeword space is the same."""
    enc = build_encoding(params, Fq(q))
    legacy = psi_m_basis(enc)
    assert enc.systematic and enc != legacy
    blocks = _payload(params, q, 7, seed=1)
    bodies = encode_blocks(blocks, enc)
    stacked = np.concatenate([bodies[i].reshape(-1, params.alpha_prime)
                              for i in range(1, params.k + 1)], axis=1)
    words = blocks.reshape(-1, params.slice_symbols)
    amap = share_map(enc)[: params.k].reshape(-1, params.slice_symbols)
    unit = (amap != 0).sum(axis=1) == 1
    assert unit.sum() == params.slice_symbols
    assert np.array_equal(stacked[:, unit], words[:, amap[unit].argmax(axis=1)])
    if params.mode.value == "msr":
        assert np.array_equal(stacked, words)
    ids = range(params.n - params.k + 1, params.n + 1)  # the last k nodes
    message = decode_reconstruct({i: bodies[i] for i in ids}, legacy, 0)
    again = encode_blocks(message, legacy)
    assert all(np.array_equal(again[i], bodies[i]) for i in bodies)


def _closed_form_layout(params):
    """The stacked rows of nodes 1..k that hold the payload, at nonzero
    points: all of them for MSR, node i's first d - i + 1 symbols for MBR."""
    ap = params.alpha_prime
    if params.mode.value == "msr":
        return np.arange(params.k * ap)
    return np.concatenate([(i - 1) * ap + np.arange(params.d - i + 1)
                           for i in range(1, params.k + 1)])


@pytest.mark.parametrize("beta", [1, 3])
@pytest.mark.parametrize("q", [29, 257, 65521])
def test_layout_has_its_closed_form_at_nonzero_points(q, beta):
    """The layout `share_map`'s build records is the closed form, on
    `build_encoding` codes and on random nonzero point sets, and every
    beta-slice of nodes 1..k's stored symbols holds the slice's payload
    there. The product-matrix basis (flags 0) has no layout."""
    rng = np.random.default_rng(q + beta)
    codes = [
        msr_params(k=2, n=5, beta=beta), msr_params(k=3, n=7, beta=beta),
        msr_params(k=4, n=10, beta=beta), mbr_params(k=1, d=1, n=4, beta=beta),
        mbr_params(k=2, d=3, n=5, beta=beta), mbr_params(k=3, d=3, n=6, beta=beta),
        mbr_params(k=3, d=5, n=8, beta=beta), mbr_params(k=5, d=8, n=16, beta=beta),
    ]
    checked = 0
    for params in codes:
        encs = [build_encoding(params, Fq(q))]
        for _ in range(3):
            points = rng.choice(np.arange(1, q), params.n, replace=False).tolist()
            try:
                encs.append(encoding_from_points(params, Fq(q), points))
            except ConstructionError:
                continue  # repeated MSR lambda
        assert shards._share_map_layout(psi_m_basis(encs[0]))[1] is None
        for enc in encs:
            layout = shards._share_map_layout(enc)[1]
            assert np.array_equal(layout, _closed_form_layout(params)), (params, enc.points)
            blocks = _payload(params, q, 4, seed=checked)
            bodies = encode_blocks(blocks, enc)
            stacked = np.concatenate(
                [bodies[i].reshape(-1, params.alpha_prime) for i in range(1, params.k + 1)],
                axis=1,
            )
            words = blocks.reshape(-1, params.slice_symbols)
            assert np.array_equal(stacked[:, layout], words)
            checked += 1
    assert checked >= 2 * len(codes)


@pytest.mark.parametrize("params,digest", [
    (msr_params(k=4, n=10), "225deef5650441926be13647cd16b1e7c71ce8e50bd8b391844a7c238a988aa9"),
    (mbr_params(k=5, d=8, n=16), "8b2b8391e73a7860fe30d04b12183faab14da14fffaad68b998cf3738a64430e"),
    # nodes 1..k hold payload copies and coded symbols, at beta > 1 and wide
    (mbr_params(k=3, d=5, n=8, beta=2),
     "1b66581eef8da662e8c1ab450d0bc1a479807a2bfb2813927fa1ff1a1bc9b80b"),
    (mbr_params(k=12, d=30, n=40), "af75714c18a5cf26a11b051472a2ebf01a1e521816022ac11e1c5236971f92d8"),
])
def test_systematic_encode_bytes_are_pinned(tmp_path, params, digest):
    """The systematic format is fixed: the sha256 of every node's shard file
    as `write_shard` writes it, in node order, for a fixed payload at the
    default modulus."""
    blocks = _payload(params, 256, 12, seed=16)
    enc = build_encoding(params)
    h = hashlib.sha256()
    for i, body in sorted(encode_blocks(blocks, enc).items()):
        path = tmp_path / shard_filename(i)
        write_shard(path, ShardHeader(enc, i, blocks.shape[0], blocks.size), body)
        h.update(path.read_bytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("beta", [1, 2])
def test_systematic_map_matches_msr_remap_oracle(beta):
    """The systematic MSR encoding is the product-matrix encoding of the
    message `msr_systematic_remap` solves for with nodes 1..k as the
    systematic nodes. The oracle lays node r's alpha symbols out as run r of
    the payload; the codec stores run r of each beta-slice, so the payload is
    reordered node-major before the oracle sees it."""
    params = msr_params(k=3, n=7, beta=beta)
    enc = build_encoding(params, Fq(257))
    legacy = psi_m_basis(enc)
    ap, k = params.alpha_prime, params.k
    for block in _payload(params, 257, 5, seed=2):
        bodies = encode_blocks(block[None], enc)
        node_major = block.reshape(beta, k, ap).transpose(1, 0, 2).ravel()
        slices = msr_systematic_remap(node_major.tolist(), legacy, range(1, k + 1))
        message = np.asarray(msr_read_message(slices, params))
        want = encode_blocks(message[None], legacy)
        for i in range(1, params.n + 1):
            assert np.array_equal(bodies[i], want[i])
        for i in range(1, k + 1):
            assert np.array_equal(bodies[i][0], node_major.reshape(k, -1)[i - 1])


def _count(monkeypatch, name):
    calls = []
    orig = getattr(linalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(linalg, name, counted)
    return calls


@pytest.mark.parametrize("params", [msr_params(k=4, n=10), msr_params(k=8, n=20, beta=2)])
def test_clean_systematic_msr_read_is_a_gather(monkeypatch, params):
    """A t = 0 reconstruct from nodes 1..k of a systematic MSR set runs no
    product over the bodies and no elimination once the map is built."""
    enc = build_encoding(params, Fq(257))
    blocks = _payload(params, 256, 50, seed=3)
    bodies = encode_blocks(blocks, enc)
    share_map(enc)  # the map is built (or found in its cache) before counting
    products, eliminations = _count(monkeypatch, "matmul_mod"), _count(monkeypatch, "_rref")
    shares = {i: bodies[i] for i in range(1, params.k + 1)}
    assert np.array_equal(decode_reconstruct(shares, enc, 0), blocks)
    assert products == [] and eliminations == []


@pytest.mark.parametrize("systematic", [True, False])
def test_clean_mbr_read_checks_only_the_unread_symbols(monkeypatch, systematic):
    """MBR [16,5,8] from nodes 1..5: the left inverse reads B' = 30 of the
    kd = 40 symbols, and one check product re-encodes the other 10, in both
    bases. The systematic read has no elimination and no candidate product;
    the product-matrix read builds its inverse from k-point solves, so no
    elimination has more than k rows."""
    params = mbr_params(k=5, d=8, n=16)
    enc = build_encoding(params, Fq(257))
    if not systematic:
        enc = psi_m_basis(enc)
    blocks = _payload(params, 256, 40, seed=4)
    bodies = encode_blocks(blocks, enc)
    shares = {i: bodies[i] for i in range(1, params.k + 1)}
    share_map(enc)
    products, eliminations = _count(monkeypatch, "matmul_mod"), _count(monkeypatch, "_rref")
    assert np.array_equal(decode_reconstruct(shares, enc, 0), blocks)
    unread = params.k * params.d - params.slice_symbols
    shapes = [b.shape for _, b, _ in products]
    assert shapes[-1] == (params.slice_symbols, unread)
    if systematic:
        assert len(products) == 1 and eliminations == []
    else:
        assert shapes[-2] == (params.k * params.d, params.slice_symbols)  # candidate
        assert all(arr.shape[0] <= params.k for arr, *_ in eliminations)
