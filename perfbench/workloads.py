"""The benchmark's workloads: one closed loop, one call at a time.

Bulk workloads drive ``pmrc.cli.main`` in-process with the argument lists a
user would type; the simulator workload drives ``pmrc.simulator.run_scenario``.
Every operation's output is checked against ground truth kept by the
benchmark, never by the program.
"""

from __future__ import annotations

import io
import os
import re
import shutil
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from statistics import geometric_mean, median
from time import perf_counter

import numpy as np

import pmrc.cli
import pmrc.simulator
from pmrc.params import SystemParams, mbr_params, msr_params
from pmrc.shards import shard_filename
from pmrc.simulator import SUCCESS

from calibrate import Calibrator

MB = 1e6
_DOWNLOADED = re.compile(r"\((\d+) symbols downloaded\)")
# Small enough that a warm-up round costs little next to a timed one.
_WARM_BYTES = 4096


class SetupError(RuntimeError):
    """A fixture could not be built; the run cannot report anything."""


@dataclass
class OpResult:
    kind: str  # encode, reconstruct, repair or over_budget
    code: str
    seconds: float  # as measured
    slowdown: float  # host slowdown against the reference host during the call
    failed: int  # checked outputs that were wrong (or wrong exit codes)
    ops: int = 1  # checked outputs: one per CLI call, one per sim event
    mb: float = 0.0  # payload MB the call covers
    downloaded: int = 0
    produced: int = 0
    blocks: int = 0  # sim only: event x block count of repair/reconstruct

    @property
    def ref_seconds(self) -> float:
        """Seconds the call would have taken on the reference host."""
        return self.seconds / self.slowdown


def code_params(code: dict) -> SystemParams:
    if code["mode"] == "msr":
        return msr_params(k=code["k"], n=code["n"])
    return mbr_params(k=code["k"], d=code["d"], n=code["n"])


def code_args(code: dict) -> list[str]:
    args = ["--mode", code["mode"], "-k", str(code["k"]), "-n", str(code["n"])]
    if code["mode"] == "mbr":
        args += ["-d", str(code["d"])]
    return args


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fp:
            return fp.read()
    except FileNotFoundError:
        return None


def write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fp:
        fp.write(data)


class Workload:
    """A workload owns a work directory, builds its fixtures in ``prepare``
    and runs one timed pass over its operations in ``round``. ``tag`` is set
    before each operation so traced spans carry the operation's id."""

    def __init__(self, spec: dict, codes: dict, seed: int):
        self.spec = spec
        self.codes = codes
        self.seed = seed
        self.tag = None  # callable(op id) while tracing
        self.cal = Calibrator()
        self.calibrating = False  # set while timed rounds run
        self._after = None

    def timed(self, fn, *args):
        """Call fn(*args); returns (result, seconds, slowdown). While
        calibrating, the slowdown is the mean of calibrations taken just
        before and just after the call (the previous call's closing one
        serves as this call's opening one); otherwise it is 1."""
        if not self.calibrating:
            t0 = perf_counter()
            result = fn(*args)
            return result, perf_counter() - t0, 1.0
        before = self._after if self._after is not None else self.cal.slowdown()
        t0 = perf_counter()
        result = fn(*args)
        dt = perf_counter() - t0
        self._after = self.cal.slowdown()
        return result, dt, (before + self._after) / 2

    def _mark(self, kind: str, code: str) -> None:
        if self.tag is not None:
            self.tag(f"{kind}:{code}")

    def prepare(self, workdir: str) -> None:
        raise NotImplementedError

    def round(self) -> list[OpResult]:
        raise NotImplementedError

    def printed(self, results: list[OpResult]) -> list[str]:
        """Extra lines printed by name (not part of the JSON metrics)."""
        return []


class BulkWorkload(Workload):
    def _input(self, index: int, size: int) -> bytes:
        return np.random.default_rng([self.seed, index]).bytes(size)

    @staticmethod
    def _main(argv: list[str]) -> int:
        try:
            return pmrc.cli.main(argv)
        except Exception:  # a crash is a failed op, not a harness error
            traceback.print_exc()
            return -1

    def cli(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Run ``pmrc argv`` in-process; returns (exit code, seconds,
        slowdown, captured output)."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            rc, dt, slow = self.timed(self._main, argv)
        return rc, dt, slow, out.getvalue()

    def _checked(self, kind, name, argv, check) -> tuple[float, float, bool, str]:
        """Run one operation; ``check(exit code)`` compares its output with
        ground truth. Returns (seconds, slowdown, ok, captured output)."""
        self._mark(kind, name)
        rc, dt, slow, text = self.cli(argv)
        ok = check(rc)
        if not ok:
            print(f"perfbench: check failed: pmrc {' '.join(argv)} -> exit {rc}\n{text}",
                  file=sys.stderr)
        return dt, slow, ok, text

    def encode(self, name, infile, out_dir, nbytes, expect=None) -> OpResult:
        """Encode; when ``expect`` (shard name -> bytes) is given, every shard
        file must match it."""
        argv = ["encode", infile, "-o", out_dir] + code_args(self.codes[name])
        dt, slow, ok, _ = self._checked("encode", name, argv, lambda rc: rc == 0 and (
            expect is None
            or all(read_bytes(os.path.join(out_dir, f)) == b for f, b in expect.items())))
        return OpResult("encode", name, dt, slow, int(not ok), mb=nbytes / MB)

    def reconstruct(self, name, shard_dir, out, s, t, truth: bytes) -> OpResult:
        if os.path.exists(out):
            os.remove(out)
        argv = ["reconstruct", shard_dir, "-o", out, "-s", str(s), "-t", str(t)]
        dt, slow, ok, text = self._checked(
            "reconstruct", name, argv, lambda rc: rc == 0 and read_bytes(out) == truth)
        params = code_params(self.codes[name])
        nblocks = -(-len(truth) // params.message_symbols)
        return OpResult("reconstruct", name, dt, slow, int(not ok), mb=len(truth) / MB,
                        downloaded=self._downloaded(text),
                        produced=nblocks * params.message_symbols)

    def repair(self, name, shard_dir, out_dir, node, s, t, truth: bytes, nbytes) -> OpResult:
        out = os.path.join(out_dir, shard_filename(node))
        if os.path.exists(out):
            os.remove(out)
        argv = ["repair", shard_dir, "--node", str(node), "-s", str(s), "-t", str(t),
                "-o", out_dir]
        dt, slow, ok, text = self._checked(
            "repair", name, argv, lambda rc: rc == 0 and read_bytes(out) == truth)
        params = code_params(self.codes[name])
        nblocks = -(-nbytes // params.message_symbols)
        return OpResult("repair", name, dt, slow, int(not ok), mb=nbytes / MB,
                        downloaded=self._downloaded(text),
                        produced=nblocks * params.alpha)

    @staticmethod
    def _downloaded(text: str) -> int:
        m = _DOWNLOADED.search(text)
        return int(m.group(1)) if m else 0

    def _warm(self, workdir: str) -> None:
        """One tiny clean encode/reconstruct/repair per code, so first-call
        costs land in set-up rather than in the first timed op."""
        warm = os.path.join(workdir, "warm")
        os.makedirs(warm)
        for i, name in enumerate(self.codes):
            data = self._input(1000 + i, _WARM_BYTES)
            infile = os.path.join(warm, f"{name}.in")
            write_bytes(infile, data)
            shard_dir = os.path.join(warm, name)
            results = [
                self.encode(name, infile, shard_dir, len(data)),
                self.reconstruct(name, shard_dir, infile + ".out", 0, 0, data),
            ]
            original = read_bytes(os.path.join(shard_dir, shard_filename(1)))
            results.append(self.repair(name, shard_dir, warm, 1, 0, 0, original, len(data)))
            if any(r.failed for r in results):
                raise SetupError(f"warm-up on {name} failed")
        shutil.rmtree(warm)


class CleanBulk(BulkWorkload):
    """Multi-MB files; encode, clean reconstruct, repair of a deleted shard."""

    def prepare(self, workdir: str) -> None:
        self.dir = workdir
        self.cases = []
        for i, case in enumerate(self.spec["cases"]):
            name = case["code"]
            data = self._input(i, case["bytes"])
            infile = os.path.join(workdir, f"{name}.in")
            write_bytes(infile, data)
            self.cases.append((case, infile, data))
        self._warm(workdir)

    def round(self) -> list[OpResult]:
        out = []
        for case, infile, data in self.cases:
            name = case["code"]
            shard_dir = os.path.join(self.dir, name)
            out.append(self.encode(name, infile, shard_dir, len(data)))
            rec = case["reconstruct"]
            out.append(self.reconstruct(name, shard_dir, infile + ".out",
                                        rec["s"], rec["t"], data))
            rep = case["repair"]
            victim = os.path.join(shard_dir, shard_filename(rep["node"]))
            original = read_bytes(victim)
            os.remove(victim)
            out.append(self.repair(name, shard_dir, self.dir, rep["node"],
                                   rep["s"], rep["t"], original, len(data)))
        return out


class FaultyBulk(BulkWorkload):
    """Small files, damaged on the lowest node ids, decoded within budget;
    plus one reconstruct past its budget that must exit 4."""

    def _fixture(self, workdir, index, name, size, erase, corrupt):
        """Encode a seeded file, keep its pristine shards, then damage a copy
        with ``pmrc damage``. Returns (infile, data, pristine, damaged dir)."""
        data = self._input(index, size)
        infile = os.path.join(workdir, f"{name}-{index}.in")
        write_bytes(infile, data)
        pristine_dir = os.path.join(workdir, f"{name}-{index}.pristine")
        if self.encode(name, infile, pristine_dir, size).failed:
            raise SetupError(f"fixture encode on {name} failed")
        pristine = {f: read_bytes(os.path.join(pristine_dir, f))
                    for f in sorted(os.listdir(pristine_dir))}
        damaged = os.path.join(workdir, f"{name}-{index}.damaged")
        shutil.copytree(pristine_dir, damaged)
        argv = ["damage", damaged, "--erase", ",".join(map(str, erase)),
                "--corrupt", ",".join(map(str, corrupt)), "--seed", str(self.seed)]
        rc, _, _, text = self.cli(argv)
        if rc != 0:
            raise SetupError(f"pmrc {' '.join(argv)} -> exit {rc}: {text}")
        return infile, data, pristine, damaged

    def prepare(self, workdir: str) -> None:
        self.dir = workdir
        self.cases = []
        for i, case in enumerate(self.spec["cases"]):
            fx = self._fixture(workdir, i, case["code"], case["bytes"],
                               case["erase"], case["corrupt"])
            self.cases.append((case,) + fx)
        ob = self.spec["over_budget"]
        self.over = (ob,) + self._fixture(workdir, len(self.cases), ob["code"],
                                          ob["bytes"], [], ob["corrupt"])
        self._warm(workdir)

    def round(self) -> list[OpResult]:
        out = []
        for case, infile, data, pristine, damaged in self.cases:
            name = case["code"]
            out.append(self.encode(name, infile, os.path.join(self.dir, name),
                                   len(data), expect=pristine))
            rec = case["reconstruct"]
            out.append(self.reconstruct(name, damaged, infile + ".out",
                                        rec["s"], rec["t"], data))
            rep = case["repair"]
            node = rep["node"]
            out.append(self.repair(name, damaged, self.dir, node, rep["s"], rep["t"],
                                   pristine[shard_filename(node)], len(data)))
        out.append(self.over_budget())
        return out

    def over_budget(self) -> OpResult:
        ob, infile, _, _, damaged = self.over
        argv = ["reconstruct", damaged, "-o", infile + ".out", "-t", str(ob["t"])]
        dt, slow, ok, _ = self._checked("over_budget", ob["code"], argv,
                                        lambda rc: rc == ob["exit"])
        return OpResult("over_budget", ob["code"], dt, slow, int(not ok))

    def printed(self, results):
        secs = [r.ref_seconds for r in results if r.kind == "over_budget"]
        return [f"over_budget_s.{self.spec['over_budget']['code']} = "
                f"{median(secs):.4f} s (median of {len(secs)}, exit 4 expected)"]


class SimPerBlock(Workload):
    """run_scenario on the per-block path; one scenario per operation kind."""

    def prepare(self, workdir: str) -> None:
        self.scenarios = []
        for i, case in enumerate(self.spec["cases"]):
            code = self.codes[case["code"]]
            params = code_params(code)
            for kind, sc in case["scenarios"].items():
                cfg = dict(code, seed=self.seed * 1000 + i, blocks=sc["blocks"],
                           events=sc["events"])
                self.scenarios.append((kind, case["code"], cfg, params))
        # warm-up: every scenario on two blocks
        for kind, name, cfg, params in self.scenarios:
            if self._run(kind, name, dict(cfg, blocks=2), params).failed:
                raise SetupError(f"sim warm-up {kind} on {name} failed")

    @staticmethod
    def _scenario(cfg):
        try:
            return pmrc.simulator.run_scenario(cfg)[0]
        except Exception:  # a crash is a failed op, not a harness error
            traceback.print_exc()
            return None

    def _run(self, kind, name, cfg, params) -> OpResult:
        self._mark(kind, name)
        reports, dt, slow = self.timed(self._scenario, cfg)
        if reports is None:
            return OpResult(kind, name, dt, slow, 1, ops=len(cfg["events"]))
        bad = [r for r in reports if r.outcome != SUCCESS]
        for r in bad:
            print(f"perfbench: sim event failed on {name}: {r.to_dict()}", file=sys.stderr)
        nb = cfg["blocks"]
        payload_mb = nb * params.message_symbols / MB
        per_kind = {"repair": params.alpha, "reconstruct": params.message_symbols}
        decodes = [r for r in reports if r.kind in per_kind]
        return OpResult(
            kind, name, dt, slow, len(bad), ops=len(reports),
            mb=payload_mb * (len(decodes) if kind != "encode" else 1),
            downloaded=sum(r.downloaded for r in decodes),
            produced=sum(per_kind[r.kind] * nb for r in decodes),
            blocks=nb * len(decodes),
        )

    def round(self) -> list[OpResult]:
        return [self._run(*sc) for sc in self.scenarios]

    def printed(self, results):
        med = {}
        blocks = {}
        for r in results:
            if r.kind != "encode":
                med.setdefault((r.kind, r.code), []).append(r.ref_seconds)
                blocks[(r.kind, r.code)] = r.blocks
        rate = sum(blocks.values()) / sum(median(v) for v in med.values())
        return [f"sim_blocks_s = {rate:.2f} blocks/s (repair and reconstruct events x blocks)"]


WORKLOADS = {
    "clean-bulk": CleanBulk,
    "faulty-bulk": FaultyBulk,
    "sim-perblock": SimPerBlock,
}


def summarize(results: list[OpResult]) -> tuple[dict[str, float], list[str]]:
    """End-to-end throughput and download metrics from the timed rounds,
    plus the per-code lines printed by name. A kind's throughput is the
    geometric mean over codes of payload MB / median op time at reference
    speed, so a slowdown on one code moves it by the same share whatever
    that code's size."""
    metrics: dict[str, float] = {}
    lines: list[str] = []
    for kind in ("encode", "reconstruct", "repair"):
        ops: dict[str, list[OpResult]] = {}
        for r in results:
            if r.kind == kind:
                ops.setdefault(r.code, []).append(r)
        rates = {c: v[0].mb / median(r.ref_seconds for r in v) for c, v in ops.items()}
        metrics[f"{kind}_mb_s"] = geometric_mean(rates.values())
        for c, v in ops.items():
            raw = v[0].mb / median(r.seconds for r in v)
            lines.append(f"{kind}_mb_s.{c} = {rates[c]:.4f} MB/s at reference speed, "
                         f"{raw:.4f} MB/s as measured (median of {len(v)} ops "
                         f"of {v[0].mb:.6g} MB)")
    lines.append(f"host_slowdown = {median(r.slowdown for r in results):.4f} "
                 "(median over ops; 1 = reference host)")
    decodes = [r for r in results if r.kind in ("reconstruct", "repair")]
    metrics["download_ratio"] = (sum(r.downloaded for r in decodes)
                                 / sum(r.produced for r in decodes))
    return metrics, lines
