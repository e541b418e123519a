"""The file-level commands run a chunk of blocks at a time
(`shards.block_chunks`): the rules that must hold across chunks, the bytes
`damage` draws, a FIFO input, and peak memory that does not grow with the
file. Most tests shrink `shards._CHUNK_SYMBOLS` so that a small file spans
several chunks."""

import contextlib
import gc
import os
import threading
import tracemalloc

import numpy as np
import pytest

from pmrc import msr_params, shards
from pmrc.cli import EXIT_DECODE, EXIT_OK, main
from pmrc.errors import DecodeFailure
from pmrc.shards import (
    load_shard_set,
    read_shard,
    reconstruct_blocks,
    reconstruct_chunks,
    repair_chunks,
    shard_filename,
    write_shard,
)

CODE = ["--mode", "msr", "-k", "4", "-n", "10"]  # MSR [10,4,6]: B = 12, alpha = 3
PARAMS = msr_params(k=4, n=10)
PER = 16  # blocks per chunk once `chunked` has run
NBLOCKS = 5 * PER - 3  # five chunks, the last one short


@pytest.fixture
def chunked(monkeypatch):
    monkeypatch.setattr(shards, "_CHUNK_SYMBOLS", PER * PARAMS.message_symbols)
    assert shards.chunk_blocks(PARAMS) == PER


def encoded(tmp_path, nblocks=NBLOCKS, seed=3):
    data = np.random.default_rng(seed).bytes(nblocks * PARAMS.message_symbols - 5)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    out = tmp_path / "shards"
    assert main(["encode", str(src), "-o", str(out)] + CODE) == EXIT_OK
    return data, out


def change(out, node, blocks, symbol=None):
    """Shard ``node`` with its symbols in ``blocks`` changed (set to
    ``symbol`` when given)."""
    path = out / shard_filename(node)
    header, body = read_shard(path)
    body[blocks] = symbol if symbol is not None else (body[blocks] + 1) % header.enc.field.q
    write_shard(path, header, body)


def whole_file_failure(out, t):
    """The DecodeFailure text of one decode of every block at once."""
    header, _ = load_shard_set(out)
    bodies = {i: read_shard(out / shard_filename(i))[1] for i in range(1, 11)}
    with pytest.raises(DecodeFailure) as failure:
        reconstruct_blocks(bodies, header.enc, t=t)
    return str(failure.value)


@pytest.mark.parametrize("bad,fine", [
    (list(range(2 * PER + 3, NBLOCKS)), []),  # from chunk 3 on
    ([2 * PER - 1, 2 * PER], [5, PER + 4]),  # the two sides of a border
    ([2 * PER], [2 * PER - 1, 3]),  # the lowest just past a border
], ids=["chunk-3", "both-sides", "past-border"])
def test_failure_names_the_files_lowest_block(tmp_path, capsys, chunked, bad, fine):
    """Nodes 1 and 2 wrong in the ``bad`` blocks is past t = 1; node 3 wrong
    in the ``fine`` ones is within it. Each chunk decodes on its own, and
    the failure names the file's lowest bad block, as one decode of the
    whole file does."""
    _, out = encoded(tmp_path)
    for node in (1, 2):
        change(out, node, bad)
    change(out, 3, fine)
    want = f"block {bad[0]} exceeded the (t=1) corruption budget"
    assert whole_file_failure(out, 1) == want
    capsys.readouterr()
    dest = tmp_path / "o"
    assert main(["reconstruct", str(out), "-o", str(dest), "-t", "1"]) == EXIT_DECODE
    assert capsys.readouterr().err == f"error: decode failure: {want}\n"


def test_a_body_bad_only_in_a_later_chunk_is_an_erasure_from_there(tmp_path, capsys,
                                                                   chunked):
    """Node 1's body holds a symbol >= q in chunk 3 only. Chunks 1 and 2 read
    it; from chunk 3 on it is an erasure, named once in a warning, and the
    next id takes its place. The outputs stay byte for byte."""
    data, out = encoded(tmp_path)
    pristine = (out / shard_filename(10)).read_bytes()
    change(out, 1, [2 * PER + 5], symbol=257)
    capsys.readouterr()
    header, bodies = load_shard_set(out)
    with contextlib.closing(bodies):
        used = [info["providers"] for _, info in reconstruct_chunks(bodies, header.enc)]
    assert used == [[1, 2, 3, 4]] * 2 + [[2, 3, 4, 5]] * 3
    assert capsys.readouterr().err.count(shard_filename(1)) == 1
    header, bodies = load_shard_set(out)
    with contextlib.closing(bodies):
        used = [info["helpers"] for _, info in repair_chunks(bodies, 10, header.enc)]
    assert used == [[1, 2, 3, 4, 5, 6]] * 2 + [[2, 3, 4, 5, 6, 7]] * 3
    assert capsys.readouterr().err.count(shard_filename(1)) == 1
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data
    os.remove(out / shard_filename(10))
    assert main(["repair", str(out), "--node", "10"]) == EXIT_OK
    assert (out / shard_filename(10)).read_bytes() == pristine
    assert capsys.readouterr().err.count(shard_filename(1)) == 2


def test_a_regular_output_is_all_or_nothing(tmp_path, chunked):
    """A decode that fails in chunk 3, after two chunks were written, leaves
    no output where there was none and the old one intact where there was
    one, with no temporary file: for a reconstructed file and a repaired
    shard alike."""
    _, out = encoded(tmp_path)
    old = (out / shard_filename(10)).read_bytes()
    for node in (1, 2):
        change(out, node, [2 * PER + 1])
    fresh, kept = tmp_path / "fresh.bin", tmp_path / "kept.bin"
    kept.write_bytes(b"old")
    for dest in (fresh, kept):
        argv = ["reconstruct", str(out), "-o", str(dest), "-t", "1"]
        assert main(argv) == EXIT_DECODE
    assert not fresh.exists() and kept.read_bytes() == b"old"
    assert main(["repair", str(out), "--node", "10", "-t", "1"]) == EXIT_DECODE
    alt = tmp_path / "alt"
    argv = ["repair", str(out), "--node", "10", "-t", "1", "-o", str(alt)]
    assert main(argv) == EXIT_DECODE
    assert (out / shard_filename(10)).read_bytes() == old
    assert sorted(os.listdir(alt)) == []
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_an_output_written_in_place_holds_the_chunks_before_the_failure(
        tmp_path, capfdbinary, chunked):
    """An output written in place (stdout's own file, or a pipe) receives
    each chunk as it is decoded: when chunk 3 fails, it holds chunks 1 and
    2, and the command still exits 4."""
    data, out = encoded(tmp_path)
    for node in (1, 2):
        change(out, node, [2 * PER + 1])
    argv = ["reconstruct", str(out), "-t", "1", "-o"]
    prefix = data[: 2 * PER * PARAMS.message_symbols]
    capfdbinary.readouterr()
    assert main(argv + ["/dev/stdout"]) == EXIT_DECODE
    got = capfdbinary.readouterr()
    assert got.out == prefix and b"block 33 exceeded" in got.err
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
    reader.start()
    try:
        assert main(argv + [str(fifo)]) == EXIT_DECODE
    finally:
        reader.join(timeout=10)
    assert read == [prefix]


def test_info_counts_are_the_files(tmp_path, chunked):
    """At t = 2, nodes 1 and 2 are wrong in every block of chunks 1, 3 and
    5, and nodes 3 and 4 in those of chunks 2 and 4: each chunk locates its
    word 0 and takes every word with one pass. The info sums passes and
    located words over the chunks so far, and counts the two masks once
    each over the file."""
    _, out = encoded(tmp_path)
    for first in range(0, NBLOCKS, PER):
        nodes = (3, 4) if first // PER % 2 else (1, 2)
        for node in nodes:
            change(out, node, list(range(first, min(first + PER, NBLOCKS))))
    header, bodies = load_shard_set(out)
    with contextlib.closing(bodies):
        infos = [dict(info) for _, info in reconstruct_chunks(bodies, header.enc, t=2)]
    assert [(i["passes"], i["located"], i["patterns"]) for i in infos] == [
        (1, 1, 1), (2, 2, 2), (3, 3, 2), (4, 4, 2), (5, 5, 2)]
    assert sum(i["downloaded"] for i in infos) == 8 * PARAMS.alpha * NBLOCKS


def test_a_large_inverse_is_built_once_per_file(tmp_path, monkeypatch, chunked):
    """An inverse too large for the memo is kept for the file: a reconstruct
    of five chunks from the same providers builds it once, not per chunk."""
    _, out = encoded(tmp_path)
    for node in (1, 2):
        change(out, node, list(range(NBLOCKS)))
    monkeypatch.setattr(shards, "_INVERSE_MEMO_BYTES", 0)
    builds = []
    orig = shards._build_inverse
    monkeypatch.setattr(shards, "_build_inverse",
                        lambda enc, ids: builds.append(ids) or orig(enc, ids))
    assert main(["reconstruct", str(out), "-o", str(tmp_path / "o"), "-t", "2"]) == EXIT_OK
    assert builds == [[3, 4, 5, 6]]


@pytest.mark.parametrize("q", [257, 65521])
def test_damage_draws_the_bytes_of_one_whole_draw(tmp_path, chunked, q):
    """`damage` draws each corrupt body a chunk of rows at a time; the
    symbols are those of one whole draw per body, in the order given."""
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(NBLOCKS * PARAMS.message_symbols))
    out = tmp_path / "shards"
    assert main(["encode", str(src), "-o", str(out), "--q", str(q)] + CODE) == EXIT_OK
    assert main(["damage", str(out), "--corrupt", "7,2", "--seed", "11"]) == EXIT_OK
    rng = np.random.default_rng(11)
    for node in (7, 2):
        header, body = read_shard(out / shard_filename(node))
        want = rng.integers(0, q, size=(NBLOCKS, PARAMS.alpha), dtype=np.int64)
        assert header.node_id == node and header.enc.field.q == q
        assert np.array_equal(body, want)


def test_encode_of_a_fifo_writes_the_files_shards(tmp_path, chunked):
    """The input is read a chunk at a time and the headers are written once
    it ends, so a FIFO encodes to the same shard bytes as the file."""
    data, out = encoded(tmp_path)
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        assert main(["encode", str(fifo), "-o", str(tmp_path / "piped")] + CODE) == EXIT_OK
    finally:
        writer.join(timeout=10)
    for i in range(1, 11):
        name = shard_filename(i)
        assert (tmp_path / "piped" / name).read_bytes() == (out / name).read_bytes()


def _peaks(tmp_path, nblocks):
    """Traced peak bytes of each command on an MSR [10,4,6] file of
    ``nblocks`` blocks, with node 1 corrupt and node 10 repaired at t = 1."""
    src = tmp_path / f"in{nblocks}.bin"
    src.write_bytes(np.random.default_rng(nblocks).bytes(nblocks * PARAMS.message_symbols))
    out = tmp_path / f"s{nblocks}"
    steps = {
        "encode": ["encode", str(src), "-o", str(out)] + CODE,
        "damage": ["damage", str(out), "--corrupt", "1"],
        "reconstruct": ["reconstruct", str(out), "-o", str(tmp_path / "o"), "-t", "1"],
        "repair": ["repair", str(out), "--node", "10", "-t", "1", "-o", str(tmp_path)],
        "info": ["info", str(out)],
    }
    peaks = {}
    for name, argv in steps.items():
        gc.collect()  # what earlier commands left is not this one's
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_peak_memory_does_not_grow_with_the_file(tmp_path, monkeypatch, capsys):
    """Each command's traced peak on a file of 4 chunks and on one 4x larger
    stays under a fixed bound, and the two are within 10%. A first round on
    a one-block file fills the caches of the code's tables."""
    monkeypatch.setattr(shards, "_CHUNK_SYMBOLS", 1 << 16)
    per = shards.chunk_blocks(PARAMS)
    _peaks(tmp_path, 1)
    small, large = _peaks(tmp_path, 4 * per), _peaks(tmp_path, 16 * per)
    for name, peak in small.items():
        assert max(peak, large[name]) < 4 << 20, (name, peak, large[name])
        assert abs(large[name] - peak) <= 0.1 * peak, (name, peak, large[name])
