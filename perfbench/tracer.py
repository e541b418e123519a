"""Spans recorded from outside the program.

The tracer replaces public pmrc functions, at the name each caller looks up,
with wrappers that record a span (name, start, end, parent, op id) around the
original call. Spans stay in memory until the round ends; nothing under
``src/`` is modified and ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
from time import perf_counter

import pmrc.cli
import pmrc.decoding
import pmrc.linalg
import pmrc.shards
import pmrc.simulator


def _downloaded(args, kwargs, result):
    return {"downloaded": result[1]["downloaded"]}


# (owner, attribute, span name, note) -- note(args, kwargs, result) -> dict
# keeps what a span's caller would otherwise discard.
TARGETS = [
    (pmrc.cli, "main", "cli.main", None),
    (pmrc.cli, "build_encoding", "params.encoding", None),
    (pmrc.shards, "encoding_from_points", "params.encoding", None),
    (pmrc.simulator, "build_encoding", "params.encoding", None),
    (pmrc.shards, "encode_blocks", "shards.encode", None),
    (pmrc.shards, "load_shard_set", "shards.load", None),
    (pmrc.shards, "read_shard", "shards.read", None),
    (pmrc.shards, "write_shard", "shards.write", None),
    (pmrc.shards, "bytes_to_blocks", "shards.pack", None),
    (pmrc.shards, "blocks_to_bytes", "shards.pack", None),
    (pmrc.shards, "reconstruct_blocks", "shards.reconstruct", _downloaded),
    (pmrc.shards, "repair_blocks", "shards.repair", _downloaded),
    (pmrc.linalg, "inverse", "linalg.inverse", None),
    (pmrc.linalg, "left_inverse", "linalg.left_inverse", None),
    (pmrc.linalg, "solve", "linalg.solve", None),
    (pmrc.linalg, "solve_any", "linalg.solve", None),
    (pmrc.decoding, "rs_decode_ee", "decoding.rs_decode_ee", None),
    (pmrc.decoding, "consistency_reconstruct", "decoding.consistency_reconstruct", None),
    (pmrc.simulator, "run_scenario", "simulator.run", None),
    (pmrc.simulator.ClusterState, "fail", "simulator.event", None),
    (pmrc.simulator.ClusterState, "repair", "simulator.event", None),
    (pmrc.simulator.ClusterState, "reconstruct", "simulator.event", None),
]
for _mode in ("msr", "mbr"):
    for _fn in ("encode", "helper_symbol", "repair", "reconstruct"):
        TARGETS.append((pmrc.simulator, f"{_mode}_{_fn}", f"{_mode}.{_fn}", None))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "ok", "note", "child_s")

    def __init__(self, name: str, parent: int | None, op: str | None):
        self.name = name
        self.parent = parent
        self.op = op
        self.ok = False
        self.note: dict = {}
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Records spans while installed. ``op`` tags every span opened until it
    is changed, so spans of one benchmark operation share an id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, note in TARGETS:
            orig = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(orig, name, note))
            self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.dur
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced round."""
    names = [s.name for s in spans]

    def of(name):
        return [s for s in spans if s.name == name]

    def parent_name(s):
        return names[s.parent] if s.parent is not None else None

    def total(group, attr="dur"):
        return sum(getattr(s, attr) for s in group)

    rec, rep = of("shards.reconstruct"), of("shards.repair")
    attempts = sum(attempts_by_op(spans).values())
    decoded = sum(s.ok for s in rec + rep)
    solves = [s for s in of("linalg.solve") if not (parent_name(s) or "").startswith("linalg.")]
    cons = of("decoding.consistency_reconstruct")
    subsets = sum(1 for s in solves if parent_name(s) == "decoding.consistency_reconstruct")
    loads = [s for s in spans if s.name in ("shards.load", "shards.read")
             and parent_name(s) != "shards.load"]
    m = {
        "cli.self_s": total(of("cli.main"), "self_s"),
        "shards.encode_s": total(of("shards.encode")),
        "shards.load_s": total(loads),
        "shards.load_calls": len(of("shards.read")),
        "shards.write_s": total(of("shards.write")),
        "shards.pack_s": total(of("shards.pack")),
        "shards.reconstruct_s": total(rec),
        "shards.reconstruct_self_s": total(rec, "self_s"),
        "shards.repair_s": total(rep),
        "shards.repair_self_s": total(rep, "self_s"),
        "shards.decode_attempts": attempts,
        "shards.decode_yield": decoded / attempts if attempts else 0.0,
        "shards.download_symbols": sum(s.note.get("downloaded", 0) for s in rec + rep),
        "linalg.inverse_calls": len(of("linalg.inverse")),
        "linalg.inverse_s": total(of("linalg.inverse")),
        "linalg.left_inverse_calls": len(of("linalg.left_inverse")),
        "linalg.left_inverse_s": total(of("linalg.left_inverse")),
        "linalg.solve_calls": len(solves),
        "linalg.solve_s": total(solves),
        "decoding.rs_decode_ee_calls": len(of("decoding.rs_decode_ee")),
        "decoding.rs_decode_ee_s": total(of("decoding.rs_decode_ee")),
        "decoding.consistency_reconstruct_calls": len(cons),
        "decoding.consistency_reconstruct_s": total(cons),
        "decoding.subsets_per_reconstruct": subsets / len(cons) if cons else 0.0,
        "simulator.event_s": total(of("simulator.event")),
        "simulator.self_s": total(of("simulator.run") + of("simulator.event"), "self_s"),
        "params.encoding_calls": len(of("params.encoding")),
        "params.encoding_s": total(of("params.encoding")),
        "trace.spans": len(spans),
    }
    for mode in ("msr", "mbr"):
        m[f"{mode}.encode_calls"] = len(of(f"{mode}.encode"))
        for fn in ("encode", "helper_symbol", "repair", "reconstruct"):
            m[f"{mode}.{fn}_s"] = total(of(f"{mode}.{fn}"))
    return m


# A bulk decode attempt is one candidate subset's inverse.
_ATTEMPT = {
    ("linalg.left_inverse", "shards.reconstruct"),
    ("linalg.inverse", "shards.repair"),
}


def attempts_by_op(spans: list[Span]) -> dict[str, int]:
    """Decode attempts of the bulk decoders per op id."""
    out: dict[str, int] = {}
    for s in spans:
        if s.parent is not None and (s.name, spans[s.parent].name) in _ATTEMPT:
            out[s.op] = out.get(s.op, 0) + 1
    return out


# Counts that must repeat exactly across traced rounds of one seed, besides
# every *_calls count.
_EXACT = {
    "shards.decode_attempts",
    "shards.download_symbols",
    "trace.spans",
}


def is_exact(metric: str) -> bool:
    return metric.endswith("_calls") or metric in _EXACT
