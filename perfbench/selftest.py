"""Checks on the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs of ``run.py`` with one seed report identical counts
   (every ``*_calls``, ``shards.decode_attempts``, ``shards.download_symbols``
   and ``trace.spans``) on every workload.
2. On tiny inputs, each faulty-bulk operation makes exactly the decode
   attempts recorded in spec.json (``expected_attempts``).
3. The correctness gate counts a wrong output as failed: one flipped byte in
   a reconstructed file or a repaired shard, a wrong exit code on the
   over-budget reconstruct, and a simulator event that did not succeed.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr

import run

TINY_BYTES = 3000
TINY_BLOCKS = 3


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    from tracer import is_exact

    return {k: v["value"] for k, v in result["metrics"].items() if is_exact(k)}


def tiny(spec: dict) -> dict:
    spec = copy.deepcopy(spec)
    for w in spec["workloads"].values():
        for case in w["cases"]:
            if "bytes" in case:
                case["bytes"] = TINY_BYTES
            for sc in case.get("scenarios", {}).values():
                sc["blocks"] = TINY_BLOCKS
        if "over_budget" in w:
            w["over_budget"]["bytes"] = TINY_BYTES
    return spec


def flip_last_byte(path: str) -> None:
    with open(path, "r+b") as fp:
        fp.seek(-1, os.SEEK_END)
        b = fp.read(1)
        fp.seek(-1, os.SEEK_END)
        fp.write(bytes([b[0] ^ 0x01]))


def main() -> int:
    run.import_program()
    import pmrc.cli
    import pmrc.simulator
    from tracer import Tracer, attempts_by_op
    from workloads import WORKLOADS

    spec = run.load_json(os.path.join(run.HERE, "spec.json"))
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    for workload in spec["workloads"]:
        first, second = traced_counts(workload, 7), traced_counts(workload, 7)
        diff = sorted(k for k in first if first[k] != second.get(k))
        check(not diff, f"{workload}: counts repeat across two traced runs {diff or ''}")

    small = tiny(spec)

    def fresh(name: str):
        w = WORKLOADS[name](small["workloads"][name], small["codes"], 7)
        d = os.path.join(work, name)
        os.makedirs(d)
        w.prepare(d)
        return w

    real_main = pmrc.cli.main
    real_run = pmrc.simulator.run_scenario
    with run.work_dir("selftest") as work:
        try:
            faulty = fresh("faulty-bulk")
            tracer = Tracer()
            faulty.tag = lambda op: setattr(tracer, "op", op)
            with tracer:
                faulty.round()
            got = attempts_by_op(tracer.spans)
            want = {}
            for case in small["workloads"]["faulty-bulk"]["cases"]:
                for kind, n in case["expected_attempts"].items():
                    want[f"{kind}:{case['code']}"] = n
            ob = small["workloads"]["faulty-bulk"]["over_budget"]
            want[f"over_budget:{ob['code']}"] = ob["expected_attempts"]
            check(got == want, f"faulty-bulk attempts per op {got} == {want}")

            def tampering_main(argv):
                rc = real_main(argv)
                if argv[0] == "reconstruct" and rc == 0:
                    flip_last_byte(argv[argv.index("-o") + 1])
                if argv[0] == "repair" and rc == 0:
                    node = int(argv[argv.index("--node") + 1])
                    out = argv[argv.index("-o") + 1]
                    flip_last_byte(os.path.join(out, f"node{node:04d}.shard"))
                if argv[0] == "reconstruct" and rc == 4:
                    rc = 0
                return rc

            clean = fresh("clean-bulk")
            pmrc.cli.main = tampering_main
            with redirect_stderr(io.StringIO()):  # the expected failure reports
                res = clean.round() + faulty.round()
            pmrc.cli.main = real_main
            flagged = sorted({(r.kind, r.failed) for r in res})
            check(all(r.failed == (r.kind != "encode") for r in res),
                  f"one flipped byte / wrong exit code counts as failed {flagged}")

            def spoiled_run(cfg):
                reports, stats = real_run(cfg)
                reports[-1] = dataclasses.replace(reports[-1], outcome="mismatch")
                return reports, stats

            sim = fresh("sim-perblock")
            pmrc.simulator.run_scenario = spoiled_run
            with redirect_stderr(io.StringIO()):
                res = sim.round()
            pmrc.simulator.run_scenario = real_run
            check(all(r.failed == 1 for r in res), "a sim event that did not succeed counts as failed")
        finally:
            pmrc.cli.main = real_main
            pmrc.simulator.run_scenario = real_run

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
