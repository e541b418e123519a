"""pmrc benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload {clean-bulk,faulty-bulk,sim-perblock}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/`` of the
same checkout, and every file the run writes lives under ``.perfbench_work/``
there and is removed at the end.

``--trace 0`` times rounds of the workload's operations until ``--seconds``
have passed and reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones; their exact counts must repeat across traced
rounds. The last stdout line is the JSON result; the lines before it print
each metric by name with its unit.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import pmrc from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pmrc", "__init__.py")):
        sys.exit(f"perfbench: no pmrc sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import pmrc

    if os.path.dirname(os.path.dirname(os.path.abspath(pmrc.__file__))) != src:
        sys.exit(f"perfbench: imported pmrc from {pmrc.__file__}, not {src}")


@contextmanager
def work_dir(name):
    """A scratch directory under the checkout, removed on exit."""
    path = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        parent = os.path.dirname(path)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def load_json(path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def timed_rounds(workload, seconds):
    """Closed loop: whole rounds until ``seconds`` have passed (at least one)."""
    results = []
    end = perf_counter() + seconds
    while True:
        results.extend(workload.round())
        if perf_counter() >= end:
            return results


def traced_rounds(workload, seconds):
    """Untraced and traced rounds alternately, at least two pairs and until
    ``seconds`` have passed. Returns (results, per-layer metrics, problems)."""
    from tracer import Tracer, is_exact, layer_metrics

    results, plain, traced, layers = [], [], [], []
    end = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() < end:
        t0 = perf_counter()
        results.extend(workload.round())
        plain.append(perf_counter() - t0)
        tracer = Tracer()
        workload.tag = lambda op: setattr(tracer, "op", op)
        with tracer:
            t0 = perf_counter()
            results.extend(workload.round())
            traced.append(perf_counter() - t0)
        workload.tag = None
        layers.append(layer_metrics(tracer.spans))
    problems = []
    exact = [k for k in layers[0] if is_exact(k)]
    for k in exact:
        seen = {m[k] for m in layers}
        if len(seen) > 1:
            problems.append(f"{k} differs across traced rounds: {sorted(seen)}")
    metrics = {k: (layers[0][k] if k in exact else median(m[k] for m in layers))
               for k in layers[0]}
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return results, metrics, problems


def main(argv=None):
    args = parse_args(argv)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in spec["workloads"]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    import_program()
    from workloads import WORKLOADS, summarize

    t_imported = perf_counter()
    workload = WORKLOADS[args.workload](
        spec["workloads"][args.workload], spec["codes"], args.seed
    )
    with work_dir(args.workload) as work:
        # set-up time at reference speed: imports, then the median of full
        # set-ups, each scaled by the slowdown measured around it
        slow = workload.cal.slowdown()
        imports_s = (t_imported - T_START) / slow
        prep = []
        for i in range(1 if args.trace else SETUP_REPEATS):
            d = os.path.join(work, f"setup{i}")
            os.makedirs(d)
            t0 = perf_counter()
            workload.prepare(d)
            dt = perf_counter() - t0
            after = workload.cal.slowdown()
            prep.append(dt / ((slow + after) / 2))
            slow = after
        setup_s = imports_s + median(prep)
        workload.calibrating = True

        if args.trace:
            results, metrics, problems = traced_rounds(workload, args.seconds)
            wanted = bench["per_layer"]
            lines = []
        else:
            results = timed_rounds(workload, args.seconds)
            metrics, lines = summarize(results)
            lines += workload.printed(results)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems = []
            wanted = bench["end_to_end"]

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            sys.exit(f"perfbench: metric {m['name']} was not measured")
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']} = {value:.6g} {m['unit']}")
    lines.append(f"failed_op_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
