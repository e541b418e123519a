"""Block-granular storage-cluster simulator with fault injection.

The cluster holds each node's shares for all blocks as one (nblocks, alpha)
array and retains the ground truth (the payloads and their `encode_blocks`
encoding), so every repair/reconstruction outcome is checked: the codec
under test never sees the truth, the harness always does. Each event runs
the batched codec of `pmrc.shards` once over all blocks. Adversaries act at
block granularity: an erased helper drops its whole response, a corrupt
helper replaces all of its response symbols with seeded-random values.
Payloads and corrupt symbols each come from one seeded numpy draw.

Helper/provider selection is deterministic (lowest alive ids) by default; an
event may ask for a seeded permutation instead to exercise the "any Delta
(kappa) nodes" guarantee.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DecodeFailure, InfeasibleError, ParameterError, PmrcError
from .field import Fq, default_modulus
from .params import (
    CodeMode,
    EncodingMatrix,
    SystemParams,
    build_encoding,
    code_params,
    connectivity,
)
# msr_*/mbr_* are not called here: bound so the benchmark tracer
# (perfbench/tracer.py) resolves them, until ROADMAP item 1 retargets it.
from .perblock import (  # noqa: F401
    mbr_encode, mbr_helper_symbol, mbr_reconstruct, mbr_repair,
    msr_encode, msr_helper_symbol, msr_reconstruct, msr_repair,
)
from .shards import decode_reconstruct, decode_repair, encode_blocks, helper_symbols

SUCCESS = "success"
DETECTED = "detected-failure"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class AdversaryPlan:
    """Whole-response faults for one event: erase drops a helper's response,
    corrupt replaces it with seeded-random symbols."""

    erase: frozenset[int] = frozenset()
    corrupt: frozenset[int] = frozenset()
    seed: int = 0

    def __post_init__(self):
        overlap = self.erase & self.corrupt
        if overlap:
            raise ParameterError(f"nodes {sorted(overlap)} both erased and corrupted")


@dataclass(frozen=True)
class EventReport:
    kind: str
    s: int
    t: int
    connectivity: int
    downloaded: int
    outcome: str
    node: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """The fields in order, without a node of None or an empty detail."""
        return {
            k: v for k, v in dataclasses.asdict(self).items()
            if not ((k == "node" and v is None) or (k == "detail" and not v))
        }


def _seeded_rng(tag: str) -> np.random.Generator:
    """A numpy generator seeded by the bytes of a string tag."""
    return np.random.default_rng(list(tag.encode()))


class ClusterState:
    """n node slots, each alive with an (nblocks, alpha) share array or
    failed; the (nblocks, B) payloads are kept as one read-only array."""

    def __init__(self, enc: EncodingMatrix, payloads: Sequence[Sequence[int]]):
        self.enc = enc
        self.params = enc.params
        self.field = enc.field
        self.payloads = np.array(payloads, dtype=np.int64)
        if self.payloads.shape[1:] != (self.params.message_symbols,):
            raise ParameterError("payloads must be an (nblocks, B) array")
        self.payloads.setflags(write=False)
        self.blocks = list(range(len(self.payloads)))
        self._truth = encode_blocks(self.payloads, enc)
        self._shares: dict[int, np.ndarray | None] = dict(self._truth)

    def alive(self) -> list[int]:
        return sorted(i for i, s in self._shares.items() if s is not None)

    def is_alive(self, node: int) -> bool:
        self.enc.check_node(node)
        return self._shares[node] is not None

    def share(self, node: int, block: int) -> tuple[int, ...]:
        if not self.is_alive(node):
            raise ParameterError(f"node {node} is failed")
        return tuple(int(v) for v in self._shares[node][block])

    def fail(self, node: int) -> None:
        """Discard a live node's shares (it is replaced by an empty node)."""
        if not self.is_alive(node):
            raise ParameterError(f"node {node} already failed")
        self._shares[node] = None

    def _event(
        self, kind: str, s: int, t: int, candidates: list[int], send, decode,
        adversary: AdversaryPlan | None, permute_rng: random.Random | None,
    ) -> tuple[EventReport, np.ndarray | None]:
        """Contact `connectivity` candidates (lowest ids, or a seeded pick),
        drop the erased responses of send(node), replace the corrupt ones by
        one seeded (blocks, corrupt nodes, width) draw in node order, and decode;
        the result is None, and the report DETECTED, on DecodeFailure or when
        more than s contacted responses are erased (then nothing is decoded)."""
        repair = kind == "repair"
        count = connectivity(self.params, s, t, repair)
        if len(candidates) < count:
            raise InfeasibleError(
                f"only {len(candidates)} alive nodes, {kind} needs {count}"
            )
        chosen = candidates[:count]
        if permute_rng is not None:
            picked = list(candidates)
            permute_rng.shuffle(picked)
            chosen = sorted(picked[:count])
        nb, width = len(self.blocks), self.params.beta if repair else self.params.alpha
        plan = adversary or AdversaryPlan()
        report = EventReport(
            kind=kind, s=s, t=t, connectivity=count, downloaded=count * width * nb,
            outcome=SUCCESS,
        )
        erased = len(plan.erase.intersection(chosen))
        if erased > s:
            detail = f"{erased} erased responses exceeded the (s={s}) erasure budget"
            return dataclasses.replace(report, outcome=DETECTED, detail=detail), None
        received = {i: send(i) for i in chosen if i not in plan.erase}
        bad = [i for i in received if i in plan.corrupt]
        if bad:
            fake = _seeded_rng(f"corrupt:{plan.seed}").integers(
                0, self.field.q, size=(nb, len(bad), width)
            )
            for c, i in enumerate(bad):
                received[i] = fake[:, c, :]
        try:
            return report, decode(received)
        except DecodeFailure as e:
            return dataclasses.replace(report, outcome=DETECTED, detail=str(e)), None

    def repair(
        self,
        failed: int,
        s: int = 0,
        t: int = 0,
        adversary: AdversaryPlan | None = None,
        permute_rng: random.Random | None = None,
    ) -> EventReport:
        """Regenerate a failed node from Delta = d+s+2t helper responses and
        reinstate the result; the installed share is checked against ground
        truth so a beyond-budget adversary can never corrupt silently."""
        if self.is_alive(failed):
            raise ParameterError(f"node {failed} is alive; fail it first")
        report, rebuilt = self._event(
            "repair", s, t, [i for i in self.alive() if i != failed],
            lambda h: helper_symbols(self._shares[h], failed, self.enc),
            lambda received: decode_repair(received, failed, self.enc, t),
            adversary, permute_rng,
        )
        report = dataclasses.replace(report, node=failed)
        if rebuilt is not None:
            mismatch = np.flatnonzero((rebuilt != self._truth[failed]).any(axis=1))
            if mismatch.size:
                report = dataclasses.replace(
                    report, outcome=MISMATCH,
                    detail=f"block {mismatch[0]} share differs from ground truth",
                )
            self._shares[failed] = rebuilt
        return report

    def reconstruct(
        self,
        s: int = 0,
        t: int = 0,
        adversary: AdversaryPlan | None = None,
        permute_rng: random.Random | None = None,
    ) -> tuple[EventReport, np.ndarray | None]:
        """Data-collector read from kappa = k+s+2t providers; the recovered
        (nblocks, B) payload is compared against ground truth."""
        report, blocks = self._event(
            "reconstruct", s, t, self.alive(), lambda i: self._shares[i],
            lambda received: decode_reconstruct(received, self.enc, t),
            adversary, permute_rng,
        )
        if blocks is not None and not np.array_equal(blocks, self.payloads):
            report = dataclasses.replace(
                report, outcome=MISMATCH,
                detail="recovered payload differs from ground truth",
            )
        return report, blocks


def _integer(value, what: str) -> int:
    """A scenario's JSON integer; a bool, a float or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


def params_from_scenario(cfg: dict) -> SystemParams:
    try:
        mode = CodeMode(cfg["mode"])
        k, n = _integer(cfg.get("k"), "'k'"), _integer(cfg.get("n"), "'n'")
        beta = _integer(cfg.get("beta", 1), "'beta'")
        d = None if cfg.get("d") is None else _integer(cfg["d"], "'d'")
    except (KeyError, ValueError) as e:
        raise ParameterError(f"scenario: bad or missing code parameters ({e})")
    return code_params(mode, k, n, d, beta)


def load_scenario(path) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            cfg = json.load(fp)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ParameterError(f"scenario: {e}") from None
    if not isinstance(cfg, dict) or "events" not in cfg:
        raise ParameterError("scenario: top-level object with an 'events' list required")
    return cfg


def _parse_event(ev, idx: int, seed: int, n: int):
    """(op, node, s, t, adversary plan, permute) of scenario event ``idx``;
    a missing or malformed field, a node or erase/corrupt id outside 1..n, or
    an id both erased and corrupted is a ParameterError naming the event."""
    if not isinstance(ev, dict) or "op" not in ev:
        raise ParameterError(f"scenario: event {idx} needs an 'op'")
    op = ev["op"]
    if op not in ("fail", "repair", "reconstruct"):
        raise ParameterError(f"scenario: unknown op {op!r} in event {idx}")
    if op != "reconstruct" and "node" not in ev:
        raise ParameterError(f"scenario: event {idx} ({op}) needs a 'node'")
    try:
        ids = [ev.get(key, []) for key in ("erase", "corrupt")]
        if not all(isinstance(v, list) for v in ids):
            raise TypeError("'erase' and 'corrupt' must be lists of node ids")
        erase, corrupt = (frozenset(_integer(i, "a node id") for i in v) for v in ids)
        outside = sorted(i for i in erase | corrupt if not 1 <= i <= n)
        if outside:
            raise ValueError(f"node ids {outside} outside 1..{n}")
        node = None if op == "reconstruct" else _integer(ev["node"], "'node'")
        if node is not None and not 1 <= node <= n:
            raise ValueError(f"node id {node} outside 1..{n}")
        s, t = _integer(ev.get("s", 0), "'s'"), _integer(ev.get("t", 0), "'t'")
        permute = ev.get("permute", False)
        if not isinstance(permute, bool):
            raise TypeError(f"'permute' must be true or false, got {permute!r}")
        plan = AdversaryPlan(erase, corrupt, seed * 100003 + idx)
    except (TypeError, ValueError) as e:
        raise ParameterError(f"scenario: event {idx} ({op}): {e}")
    return op, node, s, t, plan, permute


def run_scenario(cfg: dict) -> tuple[list[EventReport], dict]:
    """Deterministic replay of a scenario dict; returns per-event reports and
    aggregate statistics. An error an event raises names the event."""
    params = params_from_scenario(cfg)
    q = _integer(cfg.get("q", default_modulus(params.n)), "scenario: 'q'")
    seed = _integer(cfg.get("seed", 0), "scenario: 'seed'")
    nblocks = _integer(cfg.get("blocks", 1), "scenario: 'blocks'")
    if nblocks < 0:
        raise ParameterError(f"scenario: 'blocks' must be nonnegative, got {nblocks}")
    if not isinstance(cfg.get("events"), list):
        raise ParameterError("scenario: 'events' must be a list")
    enc = build_encoding(params, Fq(q))
    payloads = _seeded_rng(f"payload:{seed}").integers(
        0, q, size=(nblocks, params.message_symbols)
    )
    cluster = ClusterState(enc, payloads)

    reports: list[EventReport] = []
    for idx, ev in enumerate(cfg["events"]):
        op, node, s, t, plan, permute = _parse_event(ev, idx, seed, params.n)
        permute = random.Random(f"permute:{seed}:{idx}") if permute else None
        try:
            if op == "fail":
                cluster.fail(node)
                reports.append(
                    EventReport(
                        kind="fail", s=0, t=0, connectivity=0, downloaded=0,
                        outcome=SUCCESS, node=node,
                    )
                )
            elif op == "repair":
                reports.append(cluster.repair(node, s, t, plan, permute))
            else:
                reports.append(cluster.reconstruct(s, t, plan, permute)[0])
        except PmrcError as e:  # same class, so the same exit code
            raise type(e)(f"scenario: event {idx} ({op}): {e}") from e

    successes = sum(r.outcome == SUCCESS for r in reports)
    stats = {
        "events": len(reports),
        "successes": successes,
        "success_rate": successes / len(reports) if reports else 1.0,
        "downloaded_total": sum(r.downloaded for r in reports),
    }
    return reports, stats
