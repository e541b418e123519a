import dataclasses
import errno
import io
import json
import os
import random
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest

import pmrc
from pmrc import ParameterError, build_encoding, msr_params, shards
from pmrc.cli import (
    EXIT_BAD_ARGS,
    EXIT_DECODE,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    main,
)
from pmrc.shards import (
    ShardHeader,
    bytes_to_blocks,
    encode_blocks,
    read_shard,
    shard_filename,
    write_shard,
)
from oracles import message_matrices
from util import OVER_BUDGET, psi_m_basis


def write_random_file(path, size, seed=0):
    rng = random.Random(seed)
    data = bytes(rng.randrange(256) for _ in range(size))
    path.write_bytes(data)
    return data


def child_env():
    """The environment in which a child process imports the same pmrc package
    as this process."""
    src = os.path.dirname(os.path.dirname(pmrc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_pmrc(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """``python -m pmrc.cli argv`` in a child process, through real pipes (or
    the given ``stdout`` and ``stderr``)."""
    return subprocess.run([sys.executable, "-m", "pmrc.cli", *argv],
                          stdout=stdout, stderr=stderr, env=child_env())


def encode(tmp_path, name="orig.bin", size=3000, mode="mbr", k=3, d=5, n=8, extra=()):
    src = tmp_path / name
    data = write_random_file(src, size)
    out = tmp_path / "shards"
    argv = [
        "encode", str(src), "-o", str(out), "--mode", mode,
        "-k", str(k), "-n", str(n), *extra,
    ]
    if mode == "mbr":
        argv += ["-d", str(d)]
    assert main(argv) == EXIT_OK
    return data, out


def test_encode_refuses_shards_it_would_not_replace(tmp_path, capsys):
    """Shards 6..16 of an older [16,5,8] set left beside a new [5,2,3] set
    would win the header vote, so the encode is refused before it reads its
    input or writes a shard; re-encoding the same code still works."""
    _, out = encode(tmp_path, name="old.bin", size=5000, mode="mbr", k=5, d=8, n=16)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    new = tmp_path / "new.bin"
    data = write_random_file(new, 700, seed=1)
    small = ["-o", str(out), "--mode", "mbr", "-k", "2", "-d", "3", "-n", "5"]
    capsys.readouterr()
    for src in (new, tmp_path / "missing.bin"):
        assert main(["encode", str(src), *small]) == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert shard_filename(6) in err and shard_filename(16) in err
        assert shard_filename(5) not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    same = ["-o", str(out), "--mode", "mbr", "-k", "5", "-d", "8", "-n", "16"]
    assert main(["encode", str(new), *same]) == EXIT_OK
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data


def test_encode_reconstruct_round_trip_both_modes(tmp_path):
    for mode in ("msr", "mbr"):
        workdir = tmp_path / mode
        workdir.mkdir()
        data, out = encode(workdir, mode=mode, k=3, d=4, n=7)
        dest = tmp_path / f"back-{mode}.bin"
        assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
        assert dest.read_bytes() == data


def test_encode_empty_file(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    out = tmp_path / "sh"
    assert main([
        "encode", str(src), "-o", str(out), "--mode", "mbr",
        "-k", "2", "-d", "3", "-n", "5",
    ]) == EXIT_OK
    shards = sorted(os.listdir(out))
    assert len(shards) == 5
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == b""


def test_damage_noop_and_round_trip(tmp_path):
    data, out = encode(tmp_path)
    assert main(["damage", str(out)]) == EXIT_OK  # no-op
    assert main(["damage", str(out), "--corrupt", "5", "--seed", "3"]) == EXIT_OK
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest), "-t", "1"]) == EXIT_OK
    assert dest.read_bytes() == data


def test_damage_unknown_node(tmp_path):
    data, out = encode(tmp_path)
    assert main(["damage", str(out), "--erase", "99"]) == EXIT_BAD_ARGS
    assert main(["damage", str(out), "--erase", "2", "--corrupt", "2"]) == EXIT_BAD_ARGS
    # a repeated id is rejected before any shard is deleted
    assert main(["damage", str(out), "--erase", "1,1"]) == EXIT_BAD_ARGS
    assert (out / shard_filename(1)).exists()


def test_repair_writes_identical_shard(tmp_path):
    data, out = encode(tmp_path)
    original = (out / shard_filename(2)).read_bytes()
    assert main(["damage", str(out), "--erase", "2"]) == EXIT_OK
    assert main(["repair", str(out), "--node", "2"]) == EXIT_OK
    assert (out / shard_filename(2)).read_bytes() == original


def test_repair_through_corruption(tmp_path):
    data, out = encode(tmp_path)
    original = (out / shard_filename(2)).read_bytes()
    assert main(["damage", str(out), "--erase", "2", "--corrupt", "5"]) == EXIT_OK
    alt = tmp_path / "alt"
    assert main(["repair", str(out), "--node", "2", "-t", "1", "-o", str(alt)]) == EXIT_OK
    assert (alt / shard_filename(2)).read_bytes() == original


def test_repair_infeasible_when_n_is_d_plus_one(tmp_path):
    data, out = encode(tmp_path, mode="mbr", k=2, d=3, n=4)
    assert main(["repair", str(out), "--node", "1", "-t", "1"]) == EXIT_INFEASIBLE


def test_reconstruct_with_too_few_shards(tmp_path):
    data, out = encode(tmp_path, mode="mbr", k=3, d=4, n=5)
    for node in (1, 2, 4):
        os.remove(out / shard_filename(node))
    assert main([
        "reconstruct", str(out), "-o", str(tmp_path / "nope.bin"), "-s", "1",
    ]) == EXIT_INFEASIBLE


def test_one_bad_header_does_not_discard_good_shards(tmp_path):
    # node 1's header claims another data_len; the other 7 shards agree, so
    # node 1 is skipped as an erasure and the file still comes back exactly
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    path = out / shard_filename(1)
    header, body = read_shard(path)
    write_shard(path, dataclasses.replace(header, data_len=header.data_len + 1), body)
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest), "-t", "1"]) == EXIT_OK
    assert dest.read_bytes() == data


# offsets in the 40-byte fixed header: version u16 at 4, mode u8 at 6, flags
# u8 at 7, q u32 at 16, data_len u64 at 32; the n u32 points follow it
def _data_len(raw, scale):
    (data_len,) = struct.unpack("<Q", raw[32:40])
    return raw[:32] + struct.pack("<Q", int(data_len * scale)) + raw[40:]


@pytest.mark.parametrize("damage,reason", [
    (lambda raw: raw[:4] + struct.pack("<H", 2) + raw[6:], "unsupported shard version 2"),
    (lambda raw: raw[:6] + bytes([7]) + raw[7:], "unknown mode code 7"),
    (lambda raw: raw[:7] + bytes([0x81]) + raw[8:], "unknown header flags 0x81"),
    (lambda raw: raw[:7] + bytes([0x02]) + raw[8:], "unknown header flags 0x02"),
    (lambda raw: _data_len(raw, 0.1), "block count 667 does not hold 2000 bytes"),
    (lambda raw: _data_len(raw, 10), "block count 667 does not hold 200000 bytes"),
    (lambda raw: raw[:16] + struct.pack("<I", 70000) + raw[20:], "q must be < 65536"),
    (lambda raw: raw[:40], "truncated point table"),
    (lambda raw: raw[:16] + struct.pack("<I", 256) + raw[20:], "modulus 256 is not prime"),
    (lambda raw: raw[:44] + raw[40:44] + raw[48:], "pairwise distinct"),
    (lambda raw: raw[:40] + struct.pack("<I", 257) + raw[44:], "not a reduced element"),
], ids=["version", "mode", "flags-0x81", "flags-0x02", "data_len-div10", "data_len-x10",
        "q", "points", "q-not-prime", "point-repeated", "point-outside"])
def test_damaged_header_field_is_an_erasure(tmp_path, capsys, damage, reason):
    data, out = encode(tmp_path, size=20000, mode="mbr", k=5, d=8, n=16)
    path = out / shard_filename(1)
    raw = damage(path.read_bytes())
    with pytest.raises(ParameterError, match=reason):
        ShardHeader.unpack(io.BytesIO(raw))
    path.write_bytes(raw)
    capsys.readouterr()
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data
    err = capsys.readouterr().err
    assert err.count("warning") == 1 and shard_filename(1) in err


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:7] + bytes([0x81]) + raw[8:],
    lambda raw: _data_len(raw, 0.1),
    lambda raw: _data_len(raw, 10),
], ids=["flags-0x81", "data_len-div10", "data_len-x10"])
def test_set_whose_every_header_is_damaged_is_never_decoded(tmp_path, capsys, damage):
    """Every header of a 5,000-byte MBR [8,3,5] set sets an unknown flag or
    states a byte length its block count does not hold: no shard is
    readable, so reconstruct and info exit 3 without writing or reporting a
    file (a silently truncated output, or 50,000 bytes in info, before)."""
    data, out = encode(tmp_path, size=5000, mode="mbr", k=3, d=5, n=8)
    for i in range(1, 9):
        path = out / shard_filename(i)
        path.write_bytes(damage(path.read_bytes()))
    capsys.readouterr()
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_INFEASIBLE
    assert not dest.exists()
    assert main(["info", str(out), "--json"]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == "" and "no readable shards" in captured.err


def test_header_with_the_other_basis_loses_the_vote(tmp_path, capsys):
    # node 1's header states the product-matrix basis (flags 0): another
    # code, so it is outvoted and the set still decodes
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    path = out / shard_filename(1)
    raw = path.read_bytes()
    assert raw[7] == 0x01
    path.write_bytes(raw[:7] + bytes([0]) + raw[8:])
    capsys.readouterr()
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data
    assert shard_filename(1) in capsys.readouterr().err


def test_headers_stating_no_code_do_not_win_the_vote(tmp_path, capsys):
    """Nodes 1-8 of an MBR [16,5,8] set say q = 256. They tie with the
    intact nodes 9-16 and hold the lower ids, but a header that states no
    valid code is an erasure, so the intact half decodes the file."""
    data, out = encode(tmp_path, size=20000, mode="mbr", k=5, d=8, n=16)
    for i in range(1, 9):
        raw = (out / shard_filename(i)).read_bytes()
        (out / shard_filename(i)).write_bytes(raw[:16] + struct.pack("<I", 256) + raw[20:])
    capsys.readouterr()
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data
    err = capsys.readouterr().err
    assert err.count("warning") == 1
    assert all(shard_filename(i) in err for i in range(1, 9))


def test_payload_that_is_not_bytes_is_never_written(tmp_path, capsys):
    # a consistent MSR [5,2,2] set at q = 257 whose payload symbols are 256
    params = msr_params(k=2, n=5)
    enc = build_encoding(params)
    assert enc.field.q == 257
    bodies = encode_blocks(np.full((3, params.message_symbols), 256), enc)
    out = tmp_path / "shards"
    out.mkdir()
    for i, body in bodies.items():
        header = ShardHeader(enc, node_id=i, block_count=3, data_len=6)
        write_shard(out / shard_filename(i), header, body)
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_DECODE
    assert "decoded symbols are not bytes" in capsys.readouterr().err
    assert not dest.exists()


def test_misnamed_shard_is_an_erasure(tmp_path, capsys):
    # node0003.shard claims node 5 and holds garbage; it is skipped by its
    # name, so the real node0005.shard still serves repair and reconstruction
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    original = (out / shard_filename(1)).read_bytes()
    path = out / shard_filename(3)
    header, body = read_shard(path)
    fake = np.random.default_rng(3).integers(0, header.enc.field.q, size=body.shape)
    write_shard(path, dataclasses.replace(header, node_id=5), fake)
    capsys.readouterr()
    alt = tmp_path / "alt"
    assert main(["repair", str(out), "--node", "1", "-o", str(alt)]) == EXIT_OK
    assert shard_filename(3) in capsys.readouterr().err
    assert (alt / shard_filename(1)).read_bytes() == original
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data


def test_reconstruct_beyond_budget_exits_decode_failure(tmp_path):
    data, out = encode(tmp_path)
    assert main(["damage", str(out), "--corrupt", "1,2", "--seed", "1"]) == EXIT_OK
    assert main([
        "reconstruct", str(out), "-o", str(tmp_path / "x.bin"), "-t", "1",
    ]) == EXIT_DECODE


def test_negative_budget_is_a_bad_argument(tmp_path):
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    dest = str(tmp_path / "x.bin")
    for argv in (
        ["reconstruct", str(out), "-o", dest, "-s", "-3"],
        ["reconstruct", str(out), "-o", dest, "-s", "2", "-t", "-1"],
        ["repair", str(out), "--node", "1", "-s", "-1"],
    ):
        assert main(argv) == EXIT_BAD_ARGS, argv
    assert not os.path.exists(dest)


@pytest.mark.parametrize("budget", [["-t", "-1"], ["-s", "-2", "-t", "1"]])
def test_info_negative_budget_is_a_bad_argument(capsys, budget):
    argv = ["info", "--alpha", "2", "--delta", "5", "--kappa", "4", *budget]
    assert main(argv) == EXIT_BAD_ARGS
    out = capsys.readouterr()
    assert out.out == "" and "nonnegative" in out.err


def test_header_field_out_of_range_writes_no_shard(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_bytes(b"hello\n")
    out = tmp_path / "hs"
    assert main([
        "encode", str(src), "-o", str(out), "--mode", "mbr",
        "-k", "2", "-d", "3", "-n", "5", "--beta", "70000",
    ]) == EXIT_BAD_ARGS
    assert "beta=70000" in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []


def test_io_error_exit(tmp_path):
    assert main([
        "encode", str(tmp_path / "missing.bin"), "-o", str(tmp_path / "sh"),
        "--mode", "msr", "-k", "3", "-n", "7",
    ]) == EXIT_IO


def test_bad_params_exit(tmp_path):
    src = tmp_path / "f.bin"
    src.write_bytes(b"hi")
    assert main([
        "encode", str(src), "-o", str(tmp_path / "sh"),
        "--mode", "msr", "-k", "3", "-n", "4",  # n < 2k-1
    ]) == EXIT_BAD_ARGS
    assert main([
        "encode", str(src), "-o", str(tmp_path / "sh"),
        "--mode", "msr", "-k", "3", "-n", "7", "--q", "100",
    ]) == EXIT_BAD_ARGS


def test_msr_repair_degree_is_fixed(tmp_path, capsys):
    src = tmp_path / "f.bin"
    src.write_bytes(b"hi")
    for argv in (
        ["info", "--mode", "msr", "-k", "3", "-d", "5", "-n", "7"],
        ["encode", str(src), "-o", str(tmp_path / "sh"),
         "--mode", "msr", "-k", "3", "-d", "5", "-n", "7"],
    ):
        assert main(argv) == EXIT_BAD_ARGS, argv
        out = capsys.readouterr()
        assert out.out == "" and "MSR repair degree is fixed at d = 2k-2" in out.err
    assert not (tmp_path / "sh").exists()
    assert main(["info", "--mode", "msr", "-k", "3", "-d", "4", "-n", "7"]) == EXIT_OK


def test_info_params_output(capsys):
    assert main(["info", "--mode", "msr", "-k", "3", "-n", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[7, 3, 4]" in out
    assert "alpha=2 beta=1 B=6" in out
    assert "meets the bound exactly" in out


def test_info_default_n_is_d_plus_one(capsys):
    assert main(["info", "--mode", "msr", "-k", "3", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    assert payload["feasible_budgets"] == [[0, 0]]


def test_info_connectivity_mode(capsys):
    assert main([
        "info", "--alpha", "2", "--beta", "1", "--delta", "5", "--kappa", "4",
        "-s", "0", "-t", "1", "--json",
    ]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 3 and payload["k"] == 2
    assert payload["capacity_bound"] == 4


def test_info_shard_dir(tmp_path, capsys):
    data, out = encode(tmp_path, mode="mbr", k=2, d=3, n=5)
    capsys.readouterr()  # drop the encode command's output
    assert main(["info", str(out), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "mbr"
    assert payload["B"] == 5
    assert payload["shards_present"] == [1, 2, 3, 4, 5]


def test_info_connectivity_mode_as_text(capsys):
    """The capacity bound with adversaries: Delta = 9 and kappa = 6 under
    (s, t) = (1, 1) leave d = 6 and k = 3, and the sum of min(alpha, d - i)
    over i < k is 4 + 4 + 4 = 12."""
    argv = ["info", "--alpha", "4", "--delta", "9", "--kappa", "6", "-s", "1", "-t", "1"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "Delta=9 kappa=6 with (s=1, t=1) -> d=6, k=3",
        "alpha=4 beta=1: capacity bound B <= 12",
    ]


@pytest.mark.parametrize("argv,named", [
    (["info", "--delta", "9", "--alpha", "4"], "connectivity mode needs"),
    (["info", "--alpha", "4", "--delta", "4", "--kappa", "3", "-t", "2"],
     "budget leaves no usable connectivity"),
    (["info"], "info needs a shard dir"),
    (["info", "--alpha", "-3", "--delta", "5", "--kappa", "3"], "alpha >= 0 and beta >= 1"),
    (["info", "--alpha", "4", "--delta", "5", "--kappa", "3", "--beta", "0"],
     "alpha >= 0 and beta >= 1"),
    (["info", "--alpha", "4", "--delta", "5", "--kappa", "3", "--beta", "-2", "--json"],
     "alpha >= 0 and beta >= 1"),
])
def test_info_without_a_usable_question_is_a_bad_argument(capsys, argv, named):
    assert main(argv) == EXIT_BAD_ARGS
    out = capsys.readouterr()
    assert out.out == "" and named in out.err


def test_info_shard_dir_as_text(tmp_path, capsys):
    data, out = encode(tmp_path, size=8000, mode="msr", k=8, n=20)
    capsys.readouterr()
    assert main(["info", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "[n, k, d] = [20, 8, 14]" in lines
    assert lines[-1] == "shard set: 143 blocks, 8000 bytes"  # ceil(8000 / B=56)


def test_encode_with_too_small_a_field_creates_nothing(tmp_path, capsys):
    src = tmp_path / "f.bin"
    src.write_bytes(b"hello")
    out = tmp_path / "sh"
    argv = ["encode", str(src), "-o", str(out), "--mode", "msr", "-k", "2", "-n", "5"]
    assert main(argv + ["--q", "251"]) == EXIT_BAD_ARGS
    assert "q must be >= 257" in capsys.readouterr().err
    assert not out.exists()


def test_info_and_encode_reject_the_same_moduli(tmp_path, capsys):
    """info checks --q as encode does: 65537 is prime and at least the
    default, but no 16-bit symbol holds it."""
    src = tmp_path / "f.bin"
    src.write_bytes(b"hello")
    code = ["--mode", "mbr", "-k", "5", "-d", "8", "-n", "16", "--q", "65537"]
    for argv in (
        ["info", *code, "--json"],
        ["encode", str(src), "-o", str(tmp_path / "sh"), *code],
    ):
        assert main(argv) == EXIT_BAD_ARGS
        assert "modulus must be an integer in [2, 65536)" in capsys.readouterr().err
    assert not (tmp_path / "sh").exists()


def test_damage_bad_node_list_removes_nothing(tmp_path, capsys):
    data, out = encode(tmp_path)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["damage", str(out), "--erase", "1,x"]) == EXIT_BAD_ARGS
    assert "bad node list" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_simulate_command(tmp_path, capsys):
    scenario = {
        "mode": "msr", "k": 3, "n": 7, "q": 29, "seed": 1, "blocks": 1,
        "events": [
            {"op": "fail", "node": 1},
            {"op": "repair", "node": 1, "s": 0, "t": 1, "corrupt": [3]},
            {"op": "reconstruct", "s": 1, "t": 0, "erase": [2]},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # 3 events + summary
    summary = json.loads(lines[-1])["summary"]
    assert summary["successes"] == 3
    report = tmp_path / "report.jsonl"
    assert main(["simulate", str(path), "-o", str(report)]) == EXIT_OK
    assert len(report.read_text().strip().splitlines()) == 4


@pytest.mark.parametrize("cfg,detail", [
    ({"mode": "msr", "k": 2, "n": 5, "events": [
        {"op": "fail", "node": 2},
        {"op": "reconstruct", "s": 0, "t": 0, "erase": [1]},
    ]}, "1 erased responses exceeded the (s=0) erasure budget"),
    (OVER_BUDGET, "block 0 exceeded the (t=1) corruption budget"),
], ids=["erasures", "corruptions"])
def test_simulate_over_budget_event_is_reported_and_exits_decode_failure(
    tmp_path, capsys, cfg, detail
):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", str(path)]) == EXIT_DECODE
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.strip().splitlines()]
    assert len(lines) == len(cfg["events"]) + 1 and out.err == ""
    fail = next(r for r in lines[:-1] if r["kind"] == "fail")
    assert fail["outcome"] == "success"
    detected = [r for r in lines[:-1] if r["outcome"] == "detected-failure"]
    assert detected and all(r["detail"] == detail for r in detected)


@pytest.mark.parametrize("cfg,named", [
    ({"events": [{"op": "fail"}]}, "event 0 (fail) needs a 'node'"),
    ({"events": [{"op": "fail", "node": 1}, {"op": "repair", "t": 1}]},
     "event 1 (repair) needs a 'node'"),
    ({"events": [{"op": "reconstruct", "erase": 4}]}, "event 0 (reconstruct)"),
    ({"events": [{"op": "reconstruct", "corrupt": [None]}]}, "event 0 (reconstruct)"),
    ({"events": [{"op": "reconstruct", "s": "one"}]}, "event 0 (reconstruct)"),
    ({"events": 5}, "'events' must be a list"),
    ({"blocks": -1, "events": []}, "'blocks' must be nonnegative"),
    ({"events": [{"op": "reconstruct", "corrupt": [99]}]}, "event 0 (reconstruct)"),
    ({"events": [{"op": "fail", "node": 1}, {"op": "repair", "node": 1, "erase": [0]}]},
     "event 1 (repair)"),
    ({"events": [{"op": "fail", "node": 99}]},
     "scenario: event 0 (fail): node id 99 outside 1..5"),
    ({"events": [{"op": "reconstruct", "erase": [1], "corrupt": [1]}]},
     "scenario: event 0 (reconstruct): nodes [1] both erased and corrupted"),
    ({"events": [{"op": "reconstruct", "t": 1.9}]},
     "scenario: event 0 (reconstruct): 't' must be an integer, got 1.9"),
    ({"events": [{"op": "reconstruct", "s": True}]},
     "scenario: event 0 (reconstruct): 's' must be an integer, got True"),
    ({"events": [{"op": "reconstruct", "permute": "false"}]},
     "scenario: event 0 (reconstruct): 'permute' must be true or false"),
    ({"events": [{"op": "fail", "node": 1.7}]},
     "scenario: event 0 (fail): 'node' must be an integer, got 1.7"),
    ({"events": [{"op": "reconstruct", "s": 1, "erase": [True]}]},
     "scenario: event 0 (reconstruct): a node id must be an integer, got True"),
    ({"k": 2.0, "events": []}, "'k' must be an integer, got 2.0"),
    ({"d": 2.0, "events": []}, "'d' must be an integer, got 2.0"),
    ({"d": 3, "events": []}, "MSR repair degree is fixed at d = 2k-2"),
    ({"beta": "1", "events": []}, "'beta' must be an integer, got '1'"),
    ({"q": 257.0, "events": []}, "scenario: 'q' must be an integer, got 257.0"),
    ({"seed": "3", "events": []}, "scenario: 'seed' must be an integer, got '3'"),
    ({"blocks": 2.5, "events": []}, "scenario: 'blocks' must be an integer, got 2.5"),
    ({"events": [{"op": "fail", "node": 2}, {"op": "reconstruct", "s": -1}]},
     "scenario: event 1 (reconstruct): s and t must be nonnegative"),
    ({"events": [{"op": "fail", "node": 2}, {"op": "fail", "node": 2}]},
     "scenario: event 1 (fail): node 2 already failed"),
    ({"events": [{"op": "repair", "node": 2}]},
     "scenario: event 0 (repair): node 2 is alive; fail it first"),
    ({"events": [{"node": 2}]}, "scenario: event 0 needs an 'op'"),
])
def test_simulate_malformed_scenario_is_a_bad_argument(tmp_path, capsys, cfg, named):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"mode": "msr", "k": 2, "n": 5, **cfg}))
    assert main(["simulate", str(path)]) == EXIT_BAD_ARGS
    out = capsys.readouterr()
    assert out.out == "" and named in out.err


def test_simulate_infeasible_event_is_named(tmp_path, capsys):
    events = [{"op": "fail", "node": 2}, {"op": "reconstruct", "t": 2}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"mode": "msr", "k": 2, "n": 5, "events": events}))
    assert main(["simulate", str(path)]) == EXIT_INFEASIBLE
    out = capsys.readouterr()
    assert out.out == "" and "error: infeasible: scenario: event 1 (reconstruct): " \
        "(s=0, t=2) needs 6 nodes, at most 5 fit" in out.err


@pytest.mark.parametrize("blob", [b"{not json", b"\xff\xfe not utf-8"])
def test_simulate_scenario_that_is_not_json_is_a_bad_argument(tmp_path, capsys, blob):
    """A scenario file that does not parse (bad JSON, or bytes that are not
    UTF-8) is the user's input: exit 2 with the parser's message.
    `load_scenario` raises ParameterError for it, so `main` catches no
    ValueError (see the codec test below)."""
    path = tmp_path / "scenario.json"
    path.write_bytes(blob)
    assert main(["simulate", str(path)]) == EXIT_BAD_ARGS
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: scenario: ")


def test_a_value_error_inside_the_codec_is_not_a_bad_argument(tmp_path, monkeypatch):
    """A ValueError raised inside the codec is a bug, not a bad argument: it
    propagates out of `main` rather than exiting 2."""
    _, out = encode(tmp_path, mode="msr", k=4, n=10)

    def broken(*args, **kwargs):
        raise ValueError("cannot change data-type for array")

    monkeypatch.setattr(shards, "_locate_then_erase", broken)
    with pytest.raises(ValueError, match="cannot change data-type"):
        main(["reconstruct", str(out), "-o", str(tmp_path / "back.bin"), "-t", "1"])


def test_damage_matrix_end_to_end(tmp_path):
    """Every feasible (s, t) with randomized damage within budget restores
    exact bytes for both repair and reconstruction."""
    from pmrc import feasible_pairs, mbr_params

    rng = random.Random(21)
    params = mbr_params(k=2, d=3, n=7)
    data, out = encode(tmp_path, size=997, mode="mbr", k=2, d=3, n=7)
    pristine = {i: (out / shard_filename(i)).read_bytes() for i in range(1, 8)}
    for case, (s, t) in enumerate(feasible_pairs(params)):
        work = tmp_path / f"case{case}"
        work.mkdir()
        for i, blob in pristine.items():
            (work / shard_filename(i)).write_bytes(blob)
        # reconstruction reads kappa present shards, so deletions are capped
        # at n - kappa; the (s, t) budget itself is still exercised in full
        n_erase = min(s, params.n - (params.k + s + 2 * t))
        nodes = rng.sample(range(1, 8), n_erase + t)
        erase, corrupt = nodes[:n_erase], nodes[n_erase:]
        argv = ["damage", str(work), "--seed", str(case)]
        if erase:
            argv += ["--erase", ",".join(map(str, erase))]
        if corrupt:
            argv += ["--corrupt", ",".join(map(str, corrupt))]
        assert main(argv) == EXIT_OK
        dest = work / "back.bin"
        assert main([
            "reconstruct", str(work), "-o", str(dest), "-s", str(s), "-t", str(t),
        ]) == EXIT_OK
        assert dest.read_bytes() == data, (s, t)
        target = erase[0] if erase else rng.choice(
            [i for i in range(1, 8) if i not in corrupt]
        )
        alt = work / "repaired"
        assert main([
            "repair", str(work), "--node", str(target),
            "-s", "0", "-t", str(t), "-o", str(alt),
        ]) == EXIT_OK
        assert (alt / shard_filename(target)).read_bytes() == pristine[target], (s, t)


@pytest.mark.parametrize("body_of", ["random", "node 8"])
def test_out_of_range_node_id_is_an_erasure(tmp_path, capsys, body_of):
    # node0000.shard is named after its header's node id 0, outside 1..8; it
    # is skipped as an erasure whatever its body, so repair and a t=0
    # reconstruct come back byte for byte from the intact set
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    original = (out / shard_filename(2)).read_bytes()
    header, body = read_shard(out / shard_filename(8))
    if body_of == "random":
        body = np.random.default_rng(4).integers(0, header.enc.field.q, size=body.shape)
    write_shard(out / shard_filename(0), dataclasses.replace(header, node_id=0), body)
    capsys.readouterr()
    alt = tmp_path / "alt"
    assert main(["repair", str(out), "--node", "2", "-o", str(alt)]) == EXIT_OK
    assert shard_filename(0) in capsys.readouterr().err
    assert (alt / shard_filename(2)).read_bytes() == original
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert shard_filename(0) in capsys.readouterr().err
    assert dest.read_bytes() == data


def _count_body_reads(monkeypatch):
    """Names of the shards whose bodies are opened for reading from now on
    (`shards.ShardBodies` opens each once, and reads it a chunk at a time),
    in call order."""
    paths = []
    orig = shards.ShardBodies._open

    def counted(self, node_id):
        paths.append(shard_filename(node_id))
        return orig(self, node_id)

    monkeypatch.setattr(shards.ShardBodies, "_open", counted)
    return paths


def test_clean_decode_reads_only_the_bodies_it_uses(tmp_path, monkeypatch):
    """MBR [8,3,5] at t = 0: the header vote reads no body, reconstruct reads
    the k = 3 bodies it decodes and repair the d = 5 of its helpers."""
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    original = (out / shard_filename(8)).read_bytes()
    reads = _count_body_reads(monkeypatch)
    header, bodies = shards.load_shard_set(out)
    assert sorted(bodies) == list(range(1, 9)) and reads == []
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data
    assert reads == [shard_filename(i) for i in (1, 2, 3)]
    reads.clear()
    alt = tmp_path / "alt"
    assert main(["repair", str(out), "--node", "8", "-o", str(alt)]) == EXIT_OK
    assert (alt / shard_filename(8)).read_bytes() == original
    assert reads == [shard_filename(i) for i in (1, 2, 3, 4, 5)]


@pytest.mark.parametrize("damage", ["symbol >= q", "truncated"])
def test_bad_body_on_a_picked_shard_is_an_erasure(tmp_path, capsys, monkeypatch, damage):
    """Node 1's header is intact but its body is not. The decode skips it with
    a warning naming the file and uses the next id, reading every body at
    most once, so reconstruct and repair stay byte-identical at t = 0. A
    truncated body is caught by the header pass; a symbol >= q only when the
    body is read."""
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    original = (out / shard_filename(8)).read_bytes()
    path = out / shard_filename(1)
    blob = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(blob[:-2])
    else:
        header, body = read_shard(path)
        body[-1, -1] = header.enc.field.q
        with open(path, "wb") as fp:
            fp.write(header.pack())
            fp.write(body.astype("<u2").tobytes())
    reads = _count_body_reads(monkeypatch)
    capsys.readouterr()
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert shard_filename(1) in capsys.readouterr().err
    assert dest.read_bytes() == data
    alt = tmp_path / "alt"
    assert main(["repair", str(out), "--node", "8", "-o", str(alt)]) == EXIT_OK
    assert shard_filename(1) in capsys.readouterr().err
    assert (alt / shard_filename(8)).read_bytes() == original
    first = [shard_filename(1)] if damage == "symbol >= q" else []
    assert reads == first + [shard_filename(i) for i in (2, 3, 4)] + first + [
        shard_filename(i) for i in (2, 3, 4, 5, 6)
    ]


def _failing_open(monkeypatch, name, nth, code):
    """Make the nth open of shard file ``name`` by `pmrc.shards` (1: the
    header vote, 2: its body's first read) raise OSError ``code``."""
    opened = []

    def fake(path, *args, **kwargs):
        if os.path.basename(path) == name:
            opened.append(path)
            if len(opened) == nth:
                raise OSError(code, os.strerror(code), os.fspath(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(shards, "open", fake, raising=False)


@pytest.mark.parametrize("nth", [1, 2], ids=["header vote", "body read"])
@pytest.mark.parametrize("command", ["reconstruct", "repair"])
def test_too_many_open_files_is_an_io_error(tmp_path, capsys, monkeypatch, command, nth):
    """An open that fails with EMFILE says nothing about the shard's bytes:
    the command exits 5 naming the file, and skips no shard, whether the open
    is the header vote's or the first body read's; ENOENT (the file is gone)
    stays an erasure, and the next id is read."""
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    original = (out / shard_filename(8)).read_bytes()
    dest = tmp_path / "back"
    argv = ([command, str(out), "-o", str(dest)]
            + (["--node", "8"] if command == "repair" else []))
    capsys.readouterr()
    _failing_open(monkeypatch, shard_filename(2), nth, errno.EMFILE)
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert "Too many open files" in err and str(out / shard_filename(2)) in err
    assert "skipped" not in err and not dest.exists()
    _failing_open(monkeypatch, shard_filename(2), nth, errno.ENOENT)
    assert main(argv) == EXIT_OK
    assert f"skipped inconsistent shard files: {shard_filename(2)}" in capsys.readouterr().err
    if command == "repair":
        assert (dest / shard_filename(8)).read_bytes() == original
    else:
        assert dest.read_bytes() == data


def test_a_device_error_reading_a_body_is_an_io_error(tmp_path, capsys, monkeypatch):
    """EIO from a body's positioned read exits 5 naming the shard file."""
    _, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    capsys.readouterr()

    def failing(fd, buffers, offset):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(shards.os, "preadv", failing)
    assert main(["reconstruct", str(out), "-o", str(tmp_path / "back.bin")]) == EXIT_IO
    err = capsys.readouterr().err
    assert os.strerror(errno.EIO) in err and str(out / shard_filename(1)) in err
    assert "skipped" not in err


def test_reconstruct_checks_its_output_before_reading(tmp_path, monkeypatch):
    """A missing output directory exits 5 before any shard is read, and an
    existing output file is left as it was when the decode exits 3 or 4."""
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    reads = _count_body_reads(monkeypatch)
    monkeypatch.setattr(
        shards, "load_shard_set", lambda d: pytest.fail("read before the output check")
    )
    missing = tmp_path / "nowhere" / "x.bin"
    assert main(["reconstruct", str(out), "-o", str(missing)]) == EXIT_IO
    assert main(["reconstruct", str(out), "-o", str(tmp_path)]) == EXIT_IO
    assert reads == [] and not missing.parent.exists()
    monkeypatch.undo()
    dest = tmp_path / "keep.bin"
    dest.write_bytes(b"keep")
    assert main(["reconstruct", str(out), "-o", str(dest), "-s", "9"]) == EXIT_INFEASIBLE
    assert main(["damage", str(out), "--corrupt", "1,2", "--seed", "1"]) == EXIT_OK
    assert main(["reconstruct", str(out), "-o", str(dest), "-t", "1"]) == EXIT_DECODE
    assert dest.read_bytes() == b"keep"


def test_repair_checks_its_output_before_reading(tmp_path, monkeypatch):
    """An output under a regular file, or one whose shard path is a
    directory, exits 5 before any body is read; a missing shard directory
    exits 5, and a repair that exits 3 or 4 creates no output directory."""
    data, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    reads = _count_body_reads(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    for dest in (blocker / "out", blocker / "a" / "b", blocker):
        assert main(["repair", str(out), "--node", "1", "-o", str(dest)]) == EXIT_IO
    (tmp_path / "busy" / shard_filename(1)).mkdir(parents=True)
    assert main(["repair", str(out), "--node", "1", "-o", str(tmp_path / "busy")]) == EXIT_IO
    assert reads == []
    missing = tmp_path / "gone"
    assert main(["repair", str(missing), "--node", "1"]) == EXIT_IO
    assert not missing.exists()
    fresh = tmp_path / "fresh" / "dir"
    args = ["repair", str(out), "--node", "1", "-o", str(fresh)]
    assert main(args + ["-s", "9"]) == EXIT_INFEASIBLE
    assert main(["damage", str(out), "--corrupt", "2,3", "--seed", "1"]) == EXIT_OK
    assert main(args + ["-t", "1"]) == EXIT_DECODE
    assert not (tmp_path / "fresh").exists()


def test_output_folder_without_write_permission_exits_io(tmp_path, monkeypatch, capsys):
    """An output folder the user may not write to exits 5 ("Permission
    denied") before any body is read, and leaves no temporary file. A root
    user may write anywhere, so `os.access` is made to deny that folder."""
    _, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    locked = tmp_path / "locked"
    locked.mkdir()
    access = os.access
    monkeypatch.setattr(pmrc.cli.os, "access",
                        lambda p, mode: os.path.abspath(p) != str(locked) and access(p, mode))
    reads = _count_body_reads(monkeypatch)
    capsys.readouterr()
    for argv in (["reconstruct", str(out), "-o", str(locked / "back.bin")],
                 ["repair", str(out), "--node", "1", "-o", str(locked)]):
        assert main(argv) == EXIT_IO
        assert "Permission denied" in capsys.readouterr().err
    assert reads == [] and list(locked.iterdir()) == []
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_shard_write_leaves_the_old_shard(tmp_path):
    """A write_shard that raises after the header went out (a full disk, as
    the body is converted) leaves the shard it would have replaced
    byte-identical, and no temporary file."""
    _, out = encode(tmp_path, mode="msr", k=3, n=7)
    path = out / shard_filename(3)
    before = path.read_bytes()
    header, body = read_shard(path)

    class FullDisk(np.ndarray):
        def astype(self, *args, **kwargs):
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError):
        write_shard(path, header, body.view(FullDisk))
    assert path.read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == [shard_filename(i) for i in range(1, 8)]


def test_reconstruct_that_fails_leaves_its_output(tmp_path, monkeypatch):
    """An existing output survives an exit-4 reconstruct and a write whose
    rename fails (exit 5), and no temporary file is left beside it."""
    _, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    dest = tmp_path / "keep.bin"
    dest.write_bytes(b"keep")
    assert main(["damage", str(out), "--corrupt", "1,2", "--seed", "1"]) == EXIT_OK
    assert main(["reconstruct", str(out), "-o", str(dest), "-t", "1"]) == EXIT_DECODE

    def no_rename(src, dst):
        raise OSError(28, "No space left on device", src)

    monkeypatch.setattr(shards.os, "replace", no_rename)
    assert main(["reconstruct", str(out), "-o", str(dest), "-t", "2"]) == EXIT_IO
    assert dest.read_bytes() == b"keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.bin", "orig.bin", "shards"]


def test_reconstruct_refuses_to_write_over_a_shard_it_reads(tmp_path, monkeypatch, capsys):
    """OUT naming a shard of DIR, by its path, a symbolic link or a hard
    link, exits 2 before any body is read and leaves the shard as it was."""
    data, out = encode(tmp_path, mode="msr", k=3, n=7)
    shard = out / shard_filename(4)
    before = shard.read_bytes()
    (tmp_path / "soft").symlink_to(shard)
    os.link(shard, tmp_path / "hard")
    reads = _count_body_reads(monkeypatch)
    capsys.readouterr()
    for dest in (shard, tmp_path / "soft", tmp_path / "hard"):
        assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_BAD_ARGS
        assert shard_filename(4) in capsys.readouterr().err
    assert reads == [] and shard.read_bytes() == before
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data


def test_reconstruct_writes_through_a_link_and_into_a_pipe(tmp_path):
    """An OUT that is a symbolic link replaces its target and stays a link;
    one that is a pipe is written in place, not replaced by a file."""
    data, out = encode(tmp_path, mode="msr", k=3, n=7)
    link, target = tmp_path / "link", tmp_path / "target.bin"
    target.write_bytes(b"old")
    link.symlink_to(target)
    assert main(["reconstruct", str(out), "-o", str(link)]) == EXIT_OK
    assert link.is_symlink() and target.read_bytes() == data
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # 3000 bytes fit its buffer
    try:
        assert main(["reconstruct", str(out), "-o", str(fifo)]) == EXIT_OK
        assert os.read(reader, len(data) + 1) == data
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link", "orig.bin", "pipe", "shards", "target.bin",
    ]


def test_leftover_temporary_shard_is_not_a_shard(tmp_path, capsys):
    """A ``node*.shard.tmp`` left by a killed write is neither voted on nor
    a stale shard that blocks a re-encode."""
    data, out = encode(tmp_path, mode="msr", k=3, n=7)
    (out / (shard_filename(1) + ".tmp")).write_bytes(b"PMRC cut short")
    (out / (shard_filename(16) + ".tmp")).write_bytes((out / shard_filename(2)).read_bytes())
    capsys.readouterr()
    header, bodies = shards.load_shard_set(out)
    assert sorted(bodies) == list(range(1, 8))
    assert "skipped" not in capsys.readouterr().err
    src = tmp_path / "orig.bin"
    argv = ["encode", str(src), "-o", str(out), "--mode", "msr", "-k", "3", "-n", "7"]
    assert main(argv) == EXIT_OK
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest)]) == EXIT_OK
    assert dest.read_bytes() == data


def test_encode_over_a_set_leaves_each_shard_old_absent_or_new(tmp_path, monkeypatch):
    """An encode over an existing set whose third rename fails exits 5 and
    leaves shards 1-2 new, shard 3 absent and the rest old: the old shard
    is deleted before its replacement is written, never cut short."""
    _, out = encode(tmp_path, mode="msr", k=3, n=7)
    old = {p.name: p.read_bytes() for p in out.iterdir()}
    new, fresh = tmp_path / "new.bin", tmp_path / "fresh"
    write_random_file(new, 3000, seed=1)
    argv = ["encode", str(new), "--mode", "msr", "-k", "3", "-n", "7", "-o"]
    assert main(argv + [str(fresh)]) == EXIT_OK
    renames = []
    replace = shards.os.replace

    def third_fails(src, dst):
        renames.append(dst)
        if len(renames) == 3:
            raise OSError(28, "No space left on device", src)
        replace(src, dst)

    monkeypatch.setattr(shards.os, "replace", third_fails)
    assert main(argv + [str(out)]) == EXIT_IO
    names = [shard_filename(i) for i in range(1, 8)]
    assert sorted(p.name for p in out.iterdir()) == names[:2] + names[3:]
    for name in names[:2]:
        assert (out / name).read_bytes() == (fresh / name).read_bytes() != old[name]
    for name in names[3:]:
        assert (out / name).read_bytes() == old[name]


def test_encode_over_linked_shards(tmp_path):
    """A shard that is a symbolic link stays one, pointing at the rewritten
    target; a hard link to an old shard keeps the old bytes. Every shard
    then equals a fresh encode, and no temporary file is left."""
    _, out = encode(tmp_path, mode="mbr", k=3, d=5, n=8)
    link, target = out / shard_filename(1), tmp_path / "elsewhere.shard"
    os.replace(link, target)
    link.symlink_to(target)
    old2 = (out / shard_filename(2)).read_bytes()
    os.link(out / shard_filename(2), tmp_path / "hard")
    new, fresh = tmp_path / "new.bin", tmp_path / "fresh"
    write_random_file(new, 3000, seed=1)
    argv = ["encode", str(new), "--mode", "mbr", "-k", "3", "-d", "5", "-n", "8", "-o"]
    assert main(argv + [str(fresh)]) == EXIT_OK
    assert main(argv + [str(out)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    for i in range(1, 9):
        assert (out / shard_filename(i)).read_bytes() == (fresh / shard_filename(i)).read_bytes()
    assert (tmp_path / "hard").read_bytes() == old2
    assert not [p for p in tmp_path.rglob("*.tmp")]


def test_stream_outputs_carry_only_their_data(tmp_path, capsys):
    """`reconstruct -o /dev/stdout` and `simulate -o /dev/stdout` through a
    real pipe hand the reader the output alone; the summary goes to stderr,
    and to stdout when OUT is a regular file."""
    data, out = encode(tmp_path, mode="msr", k=3, n=7)
    capsys.readouterr()
    assert main(["reconstruct", str(out), "-o", str(tmp_path / "back.bin")]) == EXIT_OK
    got = capsys.readouterr()
    assert got.out.startswith("reconstructed 3000 bytes") and got.err == ""
    proc = run_pmrc("reconstruct", str(out), "-o", "/dev/stdout")
    assert proc.returncode == EXIT_OK and proc.stdout == data
    assert proc.stderr.startswith(b"reconstructed 3000 bytes")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"mode": "msr", "k": 3, "n": 7, "events": [
        {"op": "fail", "node": 1}, {"op": "repair", "node": 1}]}))
    proc = run_pmrc("simulate", str(scenario), "-o", "/dev/stdout")
    assert proc.returncode == EXIT_OK
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 3 and lines[-1]["summary"]["successes"] == 2
    assert proc.stderr.startswith(b"wrote 2 event reports to /dev/stdout")


def test_out_that_is_stdouts_file_is_appended_to(tmp_path):
    """`-o /dev/stdout >> log`: OUT is the file stdout is open on, so it is
    written in place through stdout, never renamed over. The log keeps what
    it held, stays the same file, and the summary goes to stderr. After
    `> log` (truncated, not appending) the next write to that stdout, as in
    `{ pmrc ...; echo done; } > log`, lands after the output."""
    data, out = encode(tmp_path, mode="msr", k=3, n=7)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"mode": "msr", "k": 3, "n": 7, "events": [
        {"op": "fail", "node": 1}, {"op": "repair", "node": 1}]}))
    log = tmp_path / "log"
    log.write_bytes(b"KEEP")
    inode = os.stat(log).st_ino
    with open(log, "ab") as fp:
        proc = run_pmrc("reconstruct", str(out), "-o", "/dev/stdout", stdout=fp)
    assert proc.returncode == EXIT_OK
    assert log.read_bytes() == b"KEEP" + data and os.stat(log).st_ino == inode
    assert proc.stderr.startswith(b"reconstructed 3000 bytes")
    with open(log, "ab") as fp:
        proc = run_pmrc("simulate", str(scenario), "-o", "/dev/stdout", stdout=fp)
    assert proc.returncode == EXIT_OK
    tail = log.read_bytes()[len(data) + 4:]
    lines = [json.loads(line) for line in tail.splitlines()]
    assert len(lines) == 3 and lines[-1]["summary"]["successes"] == 2
    assert proc.stderr.startswith(b"wrote 2 event reports to /dev/stdout")
    with open(log, "wb") as fp:
        proc = run_pmrc("reconstruct", str(out), "-o", "/dev/stdout", stdout=fp)
        fp.write(b"done")
    assert proc.returncode == EXIT_OK and log.read_bytes() == data + b"done"
    assert not list(tmp_path.glob("*.tmp"))


def test_out_that_is_stderrs_file_is_appended_to(tmp_path):
    """`-o /dev/stderr 2>> log`: OUT is the file stderr is open on, so it is
    written in place through stderr, never renamed over. The log keeps what
    it held and stays the same file, and the summary goes to stdout."""
    data, out = encode(tmp_path, mode="msr", k=3, n=7)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"mode": "msr", "k": 3, "n": 7, "events": [
        {"op": "fail", "node": 1}, {"op": "repair", "node": 1}]}))
    log = tmp_path / "log"
    log.write_bytes(b"KEEP")
    inode = os.stat(log).st_ino
    with open(log, "ab") as fp:
        proc = run_pmrc("reconstruct", str(out), "-o", "/dev/stderr", stderr=fp)
    assert proc.returncode == EXIT_OK
    assert log.read_bytes() == b"KEEP" + data and os.stat(log).st_ino == inode
    assert proc.stdout.startswith(b"reconstructed 3000 bytes")
    with open(log, "ab") as fp:
        proc = run_pmrc("simulate", str(scenario), "-o", "/dev/stderr", stderr=fp)
    assert proc.returncode == EXIT_OK
    tail = log.read_bytes()[len(data) + 4:]
    lines = [json.loads(line) for line in tail.splitlines()]
    assert len(lines) == 3 and lines[-1]["summary"]["successes"] == 2
    assert proc.stdout.startswith(b"wrote 2 event reports to /dev/stderr")
    assert os.stat(log).st_ino == inode and not list(tmp_path.glob("*.tmp"))


def test_reader_that_stops_early_ends_the_output_quietly(tmp_path):
    """`pmrc reconstruct DIR -o /dev/stdout | head -c 10`: the reader closes
    the pipe after 10 bytes, so the write meets a broken pipe; the command
    exits 0 with nothing on stderr. The file is bigger than a pipe holds."""
    data, out = encode(tmp_path, mode="msr", k=3, n=7, size=300_000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pmrc.cli", "reconstruct", str(out), "-o", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.read(10) == data[:10]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == EXIT_OK and err == b""


def test_simulation_bigger_than_memory_is_infeasible(tmp_path, capsys):
    """A scenario whose payload cannot be allocated (43.7 TiB) exits 3 with
    one line, not numpy's MemoryError traceback."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"mode": "msr", "k": 3, "n": 7, "blocks": 1000000000000, "events": []}))
    assert main(["simulate", str(path)]) == EXIT_INFEASIBLE
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: infeasible: ")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("q", [257, 65521])
def test_shard_bodies_stay_u2(tmp_path, q):
    """Bodies are uint16 from encode_blocks through write_shard and
    read_shard, equal to the int64 product psi @ M, and rewrite to the same
    bytes; q = 65521 runs the int64 branch of the kernel end to end."""
    extra = ("--beta", "2", "--q", str(q))
    data, out = encode(tmp_path, mode="msr", k=4, n=10, extra=extra)
    header, _ = read_shard(out / shard_filename(1))
    enc = header.enc
    blocks = bytes_to_blocks(data, enc.params.message_symbols)
    mats = message_matrices(blocks.astype(np.int64), enc.params)
    want = np.einsum("nd,bjdw->nbjw", enc.psi, mats) % q
    psi_m = encode_blocks(blocks, psi_m_basis(enc))
    for i, body in encode_blocks(blocks, enc).items():
        assert body.dtype == psi_m[i].dtype == np.uint16
        assert np.array_equal(psi_m[i], want[i - 1].reshape(body.shape))
        path = out / shard_filename(i)
        head, back = read_shard(path)
        assert back.dtype == np.uint16 and back.flags.writeable
        assert np.array_equal(back, body)
        write_shard(tmp_path / "again.shard", head, back)
        assert (tmp_path / "again.shard").read_bytes() == path.read_bytes()
    assert main(["damage", str(out), "--corrupt", "1"]) == EXIT_OK
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest), "-t", "1"]) == EXIT_OK
    assert dest.read_bytes() == data


@pytest.mark.parametrize("mode,beta", [("msr", 2), ("mbr", 3)])
def test_multi_slice_codes_end_to_end(tmp_path, capsys, mode, beta):
    """At beta > 1 reconstruction and repair go through damage byte for byte,
    and a decode past the budget names the failing block, not a slice."""
    data, out = encode(tmp_path, mode=mode, k=3, d=5, n=9, extra=("--beta", str(beta)))
    original = (out / shard_filename(2)).read_bytes()
    assert main(["damage", str(out), "--erase", "2", "--corrupt", "1"]) == EXIT_OK
    dest = tmp_path / "back.bin"
    assert main(["reconstruct", str(out), "-o", str(dest), "-s", "1", "-t", "1"]) == EXIT_OK
    assert dest.read_bytes() == data
    alt = tmp_path / "alt"
    assert main(["repair", str(out), "--node", "2", "-t", "1", "-o", str(alt)]) == EXIT_OK
    assert (alt / shard_filename(2)).read_bytes() == original
    # a second bad shard in the last block only: every other block still
    # decodes at t=1, the last one cannot
    path = out / shard_filename(3)
    header, body = read_shard(path)
    body[-1] = (body[-1] + 1) % header.enc.field.q
    write_shard(path, header, body)
    capsys.readouterr()
    assert main([
        "reconstruct", str(out), "-o", str(tmp_path / "x.bin"), "-t", "1",
    ]) == EXIT_DECODE
    assert f"block {header.block_count - 1} exceeded" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = run_pmrc("info", "--mode", "mbr", "-k", "2", "-d", "3", "-n", "6")
    assert proc.returncode == 0
    assert b"[6, 2, 3]" in proc.stdout


def test_every_export_resolves():
    # a name left in __all__ after its definition moved fails here, not at a
    # user's `from pmrc import *`
    missing = [name for name in pmrc.__all__ if not hasattr(pmrc, name)]
    assert missing == []
