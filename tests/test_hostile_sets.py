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
"""

import random

import numpy as np
import pytest

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
