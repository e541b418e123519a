"""Mutated scenario files through `pmrc simulate`.

Each seeded case takes a small valid scenario and applies one to three
mutations: a key dropped, a value of the wrong type or another small
number, other erased or corrupted ids, a node id outside 1..n, an unknown op, a `permute` that is not a bool, or a file that is not
JSON. Numbers are drawn from small ranges, so no case asks for more memory
than the machine has (that case exits 3: `tests/test_cli.py`). Every run
ends in exit 0, 2, 3 or 4, and never raises.
"""

import json
import random

from pmrc.cli import EXIT_BAD_ARGS, EXIT_DECODE, EXIT_INFEASIBLE, EXIT_OK, main

CASES = 300
BASES = [
    {"mode": "msr", "k": 3, "n": 7, "seed": 1, "blocks": 2, "events": [
        {"op": "fail", "node": 1},
        {"op": "repair", "node": 1, "t": 1, "corrupt": [3]},
        {"op": "reconstruct", "s": 1, "erase": [2], "permute": True},
    ]},
    {"mode": "mbr", "k": 3, "d": 4, "n": 7, "q": 257, "beta": 2, "blocks": 3, "events": [
        {"op": "reconstruct", "t": 1, "corrupt": [2]},
        {"op": "fail", "node": 5},
        {"op": "repair", "node": 5, "s": 1, "erase": [6]},
    ]},
]
WRONG = [None, True, 1.5, -1, 0, 2, 40, "3", [], [1], {}, {"op": "fail"}]


def _mutate(rng, cfg):
    """Apply one random mutation to a scenario dict, in place."""
    events = cfg.get("events")
    events = [e for e in events if isinstance(e, dict)] if isinstance(events, list) else []
    event = rng.choice(events) if events else None
    target = event if event is not None and rng.random() < 0.6 else cfg
    kind = rng.choice(["drop", "type", "number", "ids", "node", "op", "permute"])
    if kind == "drop" and target:
        del target[rng.choice(sorted(target))]
    elif kind == "number" and target:
        target[rng.choice(sorted(target))] = rng.randint(0, 9)
    elif kind == "type" and target:
        target[rng.choice(sorted(target))] = rng.choice(WRONG)
    elif kind == "ids" and event is not None:
        event[rng.choice(["erase", "corrupt"])] = rng.sample(range(1, 8), rng.randint(0, 3))
    elif kind == "node" and event is not None:
        bad = rng.choice([0, -1, 8, 99])  # every base has n = 7
        key = rng.choice(["node", "erase", "corrupt"])
        event[key] = bad if key == "node" else [bad]
    elif kind == "op" and event is not None:
        event["op"] = rng.choice(["explode", "", "FAIL", 3, None])
    elif kind == "permute" and event is not None:
        event["permute"] = rng.choice(["true", 1, 0, None, [True]])


def test_mutated_scenarios_exit_cleanly(tmp_path):
    codes = set()
    for case in range(CASES):
        rng = random.Random(f"scenario:{case}")
        cfg = json.loads(json.dumps(rng.choice(BASES)))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, cfg)
        blob = json.dumps(cfg).encode()
        if rng.random() < 0.1:  # not JSON: cut short or not UTF-8
            blob = blob[:rng.randrange(len(blob))] if rng.random() < 0.5 else b"\xff" + blob
        path = tmp_path / f"case{case}.json"
        path.write_bytes(blob)
        code = main(["simulate", str(path)])
        assert code in (EXIT_OK, EXIT_BAD_ARGS, EXIT_INFEASIBLE, EXIT_DECODE), case
        codes.add(code)
    assert codes == {EXIT_OK, EXIT_BAD_ARGS, EXIT_INFEASIBLE, EXIT_DECODE}
