"""Hostile shard sets: seeded random damage to the files of a shard set,
run through the command line.

Each case damages a fresh copy of an encoded set with one to three of:
a flipped body byte, a rewritten header byte, a truncation, appended bytes,
a shard renamed to another id, or copied over another id. Then
`reconstruct -t T`, `repair --node N -t T` and `info` run through
`cli.main`. None may raise; reconstruct and repair exit 0, 3 or 4, and info
exits 0, or 3 when no file keeps its header (every one renamed or
damaged). A shard counts as wrong when its file keeps its original header
bytes and full length but its body holds other symbols, all below q: it
still reads under the majority header. With at most T wrong shards,
reconstruct exits 0 with the input bytes, or 3, and a repair that exits 0
with at most T wrong helpers writes the original shard.

A hypothesis test rewrites one header field (mode, flags, n, k, d, beta, q,
node id, block count, data length or one point) in one to three shards of
a 7-node set and runs the same three commands. A shard whose header changed
is an erasure and the intact ones still win the vote, so reconstruct and
repair exit 0 with the original bytes when enough intact shards remain, and
3 otherwise; info exits 0.
"""

import random
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmrc.cli import EXIT_DECODE, EXIT_INFEASIBLE, EXIT_OK, main
from pmrc.shards import read_shard, shard_filename

# each code takes reconstruct budgets t <= 2 and repair budgets t <= 1
CODES = [
    ("msr", ["-k", "3", "-n", "7"]),
    ("mbr", ["-k", "3", "-d", "4", "-n", "7"]),
    ("msr", ["-k", "2", "-n", "6", "--beta", "2", "--q", "65521"]),
]
CASES = 34
ACCEPTED = (EXIT_OK, EXIT_INFEASIBLE, EXIT_DECODE)


def _damage(rng, files, n, head_len):
    """Apply one random damage to the {name: bytes} of a shard directory."""
    name = rng.choice(sorted(files))
    blob = bytearray(files[name])
    kind = rng.choice(["body", "header", "truncate", "append", "rename", "copy"])
    if kind == "body" and len(blob) > head_len:
        blob[rng.randrange(head_len, len(blob))] ^= rng.randrange(1, 256)
    elif kind == "header" and blob:
        blob[rng.randrange(min(head_len, len(blob)))] = rng.randrange(256)
    elif kind == "truncate" and blob:
        del blob[rng.randrange(len(blob)):]
    elif kind == "append":
        blob += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
    elif kind in ("rename", "copy"):
        other = shard_filename(rng.choice([i for i in range(1, n + 1)
                                           if shard_filename(i) != name]))
        files[other] = bytes(blob)
        if kind == "rename":
            del files[name]
        return
    files[name] = bytes(blob)


def _headed(files, pristine, head_len):
    """The files that keep their original header bytes and full length:
    the shards the header vote keeps."""
    return {
        name: blob for name, blob in files.items()
        if name in pristine and len(blob) >= len(pristine[name])
        and blob[:head_len] == pristine[name][:head_len]
    }


def _wrong(headed, pristine, head_len, q):
    """Node ids whose shard reads under the majority header with other
    symbols than it was written with."""
    out = set()
    for name, blob in headed.items():
        body = np.frombuffer(blob[head_len:len(pristine[name])], dtype="<u2")
        if body.tobytes() != pristine[name][head_len:] and int(body.max()) < q:
            out.add(int(name[4:8]))
    return out


@pytest.mark.parametrize("mode,shape", CODES)
def test_hostile_shard_sets_never_crash_or_lie_within_budget(tmp_path, mode, shape):
    src = tmp_path / "in.bin"
    data = random.Random(f"hostile:{mode}:{shape}").randbytes(700)
    src.write_bytes(data)
    clean = tmp_path / "clean"
    argv = ["encode", str(src), "-o", str(clean), "--mode", mode, *shape]
    assert main(argv) == EXIT_OK
    pristine = {p.name: p.read_bytes() for p in clean.iterdir()}
    header, body = read_shard(clean / shard_filename(1))
    n, q = header.enc.params.n, header.enc.field.q
    head_len = len(pristine[shard_filename(1)]) - body.nbytes
    for case in range(CASES):
        rng = random.Random(f"hostile:{mode}:{shape}:{case}")
        files = dict(pristine)
        for _ in range(rng.randint(1, 3)):
            _damage(rng, files, n, head_len)
        work = tmp_path / f"case{case}"
        work.mkdir()
        for name, blob in files.items():
            (work / name).write_bytes(blob)
        headed = _headed(files, pristine, head_len)
        wrong = _wrong(headed, pristine, head_len, q)
        budget = rng.randint(0, 2)
        out = tmp_path / f"out{case}.bin"
        code = main(["reconstruct", str(work), "-o", str(out), "-t", str(budget)])
        assert code in ACCEPTED, case
        if len(wrong) <= budget:
            assert code in (EXIT_OK, EXIT_INFEASIBLE), case
            assert code != EXIT_OK or out.read_bytes() == data, case
        node, budget = rng.randint(1, n), rng.randint(0, 1)
        rebuilt = tmp_path / f"repair{case}"
        code = main(["repair", str(work), "--node", str(node), "-t", str(budget),
                     "-o", str(rebuilt)])
        assert code in ACCEPTED, case
        if code == EXIT_OK and len(wrong - {node}) <= budget:
            got = (rebuilt / shard_filename(node)).read_bytes()
            assert got == pristine[shard_filename(node)], case
        code = main(["info", str(work)])
        assert code == EXIT_OK or (not headed and code == EXIT_INFEASIBLE), case


# (offset, struct format) of each header field; points follow at 40
FIELDS = {
    "mode": (6, "<B"), "flags": (7, "<B"), "n": (8, "<H"), "k": (10, "<H"),
    "d": (12, "<H"), "beta": (14, "<H"), "q": (16, "<I"), "node_id": (20, "<H"),
    "block_count": (24, "<Q"), "data_len": (32, "<Q"), "point": (40, "<I"),
}
HEADER_CODES = {"msr": ["-k", "3", "-n", "7"], "mbr": ["-k", "3", "-d", "4", "-n", "7"]}


@pytest.fixture(scope="module")
def header_sets(tmp_path_factory):
    """{mode: (input bytes, {name: shard bytes})} of a 700-byte MSR [7,3,4]
    and MBR [7,3,4] set."""
    sets = {}
    for mode, shape in HEADER_CODES.items():
        work = tmp_path_factory.mktemp(f"header-{mode}")
        data = random.Random(f"header:{mode}").randbytes(700)
        (work / "in.bin").write_bytes(data)
        argv = ["encode", str(work / "in.bin"), "-o", str(work / "set"), "--mode", mode]
        assert main(argv + shape) == EXIT_OK
        sets[mode] = data, {p.name: p.read_bytes() for p in (work / "set").iterdir()}
    return sets


@st.composite
def header_edits(draw):
    """(node, field, point index, value, step) rewrites of 1..3 distinct
    shards: the field becomes a small value or any value of its width, or,
    with a step, moves by at most 3, which often states another valid code
    or byte length."""
    nodes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))
    edits = []
    for node in nodes:
        field = draw(st.sampled_from(sorted(FIELDS)))
        top = 256 ** struct.calcsize(FIELDS[field][1]) - 1
        value = draw(st.one_of(st.integers(0, min(top, 300)), st.integers(0, top)))
        step = draw(st.sampled_from([None, -3, -2, -1, 1, 2, 3]))
        edits.append((node, field, draw(st.integers(0, 6)), value, step))
    return edits


@settings(max_examples=150, deadline=None, derandomize=True)
@example(mode="msr", edits=[(1, "data_len", 0, 0, 1)], budget=0, node=7, repair_budget=0)
@given(mode=st.sampled_from(sorted(HEADER_CODES)), edits=header_edits(),
       budget=st.integers(0, 2), node=st.integers(1, 7), repair_budget=st.integers(0, 1))
def test_rewritten_header_fields_never_crash_or_lie(header_sets, mode, edits, budget,
                                                    node, repair_budget):
    data, pristine = header_sets[mode]
    files = dict(pristine)
    for i, field, index, value, step in edits:
        offset, fmt = FIELDS[field]
        offset += 4 * index if field == "point" else 0
        blob = bytearray(files[shard_filename(i)])
        if step is not None:
            old = struct.unpack_from(fmt, blob, offset)[0]
            value = (old + step) % 256 ** struct.calcsize(fmt)
        struct.pack_into(fmt, blob, offset, value)
        files[shard_filename(i)] = bytes(blob)
    touched = sum(files[name] != pristine[name] for name in files)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "set"
        work.mkdir()
        for name, blob in files.items():
            (work / name).write_bytes(blob)
        out = Path(tmp) / "out.bin"
        code = main(["reconstruct", str(work), "-o", str(out), "-t", str(budget)])
        # k = 3, d = 4: enough intact shards decode, too few is infeasible
        assert code == (EXIT_OK if 7 - touched >= 3 + 2 * budget else EXIT_INFEASIBLE)
        assert code != EXIT_OK or out.read_bytes() == data
        rebuilt = Path(tmp) / "repair"
        code = main(["repair", str(work), "--node", str(node), "-t", str(repair_budget),
                     "-o", str(rebuilt)])
        name = shard_filename(node)
        helpers = sum(files[f] == pristine[f] for f in files if f != name)
        assert code == (EXIT_OK if helpers >= 4 + 2 * repair_budget else EXIT_INFEASIBLE)
        assert code != EXIT_OK or (rebuilt / name).read_bytes() == pristine[name]
        assert main(["info", str(work)]) == EXIT_OK  # 4 or more intact headers agree
