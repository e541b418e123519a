import json
import random

import numpy as np
import pytest

from pmrc import (
    AdversaryPlan,
    ClusterState,
    Fq,
    InfeasibleError,
    ParameterError,
    build_encoding,
    feasible_pairs,
    mbr_params,
    msr_params,
    run_scenario,
)
from pmrc.shards import decode_reconstruct, encode_blocks, helper_symbols
from pmrc.simulator import DETECTED, MISMATCH, SUCCESS, _seeded_rng, load_scenario
from util import OVER_BUDGET, random_payload, verify_consistent


def small_cluster(params=None, q=29, blocks=2, seed=0):
    params = params or msr_params(k=3, n=7)
    enc = build_encoding(params, Fq(q))
    rng = random.Random(seed)
    payloads = [random_payload(rng, params, q) for _ in range(blocks)]
    return ClusterState(enc, payloads)


def test_fail_then_repair_restores_share():
    c = small_cluster()
    before = [c.share(3, b) for b in c.blocks]
    c.fail(3)
    assert not c.is_alive(3)
    report = c.repair(3)
    assert report.outcome == SUCCESS
    assert [c.share(3, b) for b in c.blocks] == before
    assert verify_consistent(c)


def test_fail_twice_errors():
    c = small_cluster()
    c.fail(2)
    with pytest.raises(ParameterError):
        c.fail(2)
    with pytest.raises(ParameterError):
        c.repair(5)  # alive node cannot be repaired


def test_repair_even_after_max_failures():
    params = mbr_params(k=2, d=3, n=6)
    c = small_cluster(params, q=23)
    for node in (6, 5, 4):  # fail n - d = 3 nodes, d helpers remain
        c.fail(node)
    report = c.repair(4)
    assert report.outcome == SUCCESS
    c.fail(1)
    with pytest.raises(InfeasibleError):
        c.repair(1, s=1, t=0)  # only 3 = d alive helpers, Delta = 4 needed


def test_bandwidth_ledger_closed_forms():
    params = mbr_params(k=3, d=4, n=8, beta=2)
    c = small_cluster(params, q=257, blocks=3)
    c.fail(1)
    rep = c.repair(1, s=0, t=0)
    assert rep.downloaded == params.d * params.beta * 3
    assert rep.connectivity == params.d
    rep = c.reconstruct(s=0, t=0)[0]
    assert rep.downloaded == params.k * params.alpha * 3
    c.fail(2)
    rep = c.repair(2, s=1, t=1)
    assert rep.connectivity == params.d + 3
    assert rep.downloaded == (params.d + 3) * params.beta * 3


def test_reconstruct_returns_payload():
    c = small_cluster(blocks=3, seed=5)
    report, payloads = c.reconstruct()
    assert report.outcome == SUCCESS
    assert (payloads == c.payloads).all()


def test_cluster_keeps_payloads_as_one_checked_array():
    c = small_cluster(blocks=3)
    assert c.payloads.shape == (3, c.params.message_symbols)
    assert not c.payloads.flags.writeable
    enc = c.enc
    assert ClusterState(enc, np.zeros((0, c.params.message_symbols))).blocks == []
    for bad in ([(1, 2, 3)], np.zeros((0, 5)), [1, 2, 3, 4, 5, 6]):
        with pytest.raises(ParameterError):
            ClusterState(enc, bad)


def test_adversary_within_budget_succeeds():
    c = small_cluster()
    c.fail(1)
    plan = AdversaryPlan(corrupt=frozenset({5}), seed=3)
    assert c.repair(1, s=0, t=1, adversary=plan).outcome == SUCCESS
    plan = AdversaryPlan(erase=frozenset({2}), seed=3)
    report, payloads = c.reconstruct(s=1, t=0, adversary=plan)
    assert report.outcome == SUCCESS and (payloads == c.payloads).all()


def test_adversary_beyond_budget_never_silent():
    c = small_cluster(seed=2)
    c.fail(1)
    plan = AdversaryPlan(corrupt=frozenset({5}), seed=3)
    report = c.repair(1, s=0, t=0, adversary=plan)
    assert report.outcome in (DETECTED, MISMATCH)
    report, _ = c.reconstruct(s=0, t=0, adversary=AdversaryPlan(corrupt=frozenset({2}), seed=1))
    assert report.outcome in (DETECTED, MISMATCH)


def test_erasures_beyond_s_are_detected_without_decoding():
    """More erased contacted responses than s is over budget: the event is a
    detected failure naming the count and s, and the cluster carries on.
    An erased node that is not contacted does not count."""
    c = small_cluster(msr_params(k=2, n=5), q=257)
    c.fail(2)
    plan = AdversaryPlan(erase=frozenset({1}))
    report, blocks = c.reconstruct(s=0, t=0, adversary=plan)
    assert (report.outcome, blocks) == (DETECTED, None)
    assert report.detail == "1 erased responses exceeded the (s=0) erasure budget"
    report = c.repair(2, s=1, t=0, adversary=AdversaryPlan(erase=frozenset({1, 3})))
    assert (report.outcome, report.node) == (DETECTED, 2)
    assert report.detail == "2 erased responses exceeded the (s=1) erasure budget"
    assert not c.is_alive(2)
    report, _ = c.reconstruct(adversary=AdversaryPlan(erase=frozenset({5})))
    assert report.outcome == SUCCESS
    assert c.repair(2).outcome == SUCCESS and verify_consistent(c)


def test_corruption_beyond_t_is_detected_and_the_scenario_goes_on():
    reports, stats = run_scenario(OVER_BUDGET)
    assert [(r.kind, r.outcome) for r in reports] == [
        ("reconstruct", DETECTED), ("fail", SUCCESS), ("repair", DETECTED),
    ]
    assert reports[1].node == 4
    for r in (reports[0], reports[2]):
        assert r.detail == "block 0 exceeded the (t=1) corruption budget"
    assert stats["successes"] == 1


def test_adversary_plan_validates_disjoint():
    with pytest.raises(ParameterError):
        AdversaryPlan(erase=frozenset({1}), corrupt=frozenset({1}))


def test_all_feasible_budgets_succeed_one_encoding():
    params = mbr_params(k=2, d=3, n=6)
    c = small_cluster(params, q=23, blocks=1, seed=9)
    for s, t in feasible_pairs(params):
        helpers_pool = [i for i in c.alive() if i != 1]
        erase = frozenset(helpers_pool[:s])
        corrupt = frozenset(helpers_pool[s : s + t])
        c.fail(1)
        rep = c.repair(1, s=s, t=t, adversary=AdversaryPlan(erase, corrupt, seed=s + t))
        assert rep.outcome == SUCCESS, (s, t)
        pool = c.alive()
        erase = frozenset(pool[:s])
        corrupt = frozenset(pool[s : s + t])
        rep, _ = c.reconstruct(s=s, t=t, adversary=AdversaryPlan(erase, corrupt, seed=s))
        assert rep.outcome == SUCCESS, (s, t)
    assert verify_consistent(c)


def test_permuted_selection_still_succeeds():
    c = small_cluster(seed=3)
    c.fail(4)
    rep = c.repair(4, permute_rng=random.Random(1))
    assert rep.outcome == SUCCESS
    rep, _ = c.reconstruct(permute_rng=random.Random(2))
    assert rep.outcome == SUCCESS


SCENARIO = {
    "mode": "mbr",
    "k": 2,
    "d": 3,
    "n": 6,
    "q": 23,
    "seed": 7,
    "blocks": 2,
    "events": [
        {"op": "fail", "node": 2},
        {"op": "repair", "node": 2, "s": 0, "t": 1, "corrupt": [4]},
        {"op": "reconstruct", "s": 1, "t": 0, "erase": [1]},
        {"op": "reconstruct", "s": 0, "t": 0},
    ],
}


def test_run_scenario_deterministic():
    r1, stats1 = run_scenario(SCENARIO)
    r2, stats2 = run_scenario(SCENARIO)
    assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]
    assert stats1 == stats2
    assert stats1["successes"] == stats1["events"] == 4
    assert stats1["success_rate"] == 1.0


def test_run_scenario_empty():
    reports, stats = run_scenario({"mode": "msr", "k": 2, "n": 5, "events": []})
    assert reports == [] and stats["events"] == 0


def test_run_scenario_malformed():
    with pytest.raises(ParameterError):
        run_scenario({"mode": "msr", "events": []})
    with pytest.raises(ParameterError):
        run_scenario({"mode": "mbr", "k": 2, "n": 5, "events": []})  # missing d
    with pytest.raises(ParameterError):
        run_scenario(
            {"mode": "msr", "k": 2, "n": 5, "events": [{"op": "bogus"}]}
        )


def test_load_scenario(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(SCENARIO))
    assert load_scenario(path) == SCENARIO
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    with pytest.raises(ParameterError):
        load_scenario(bad)


def test_report_serialization():
    c = small_cluster()
    c.fail(1)
    d = c.repair(1).to_dict()
    assert d["kind"] == "repair" and d["outcome"] == SUCCESS and d["node"] == 1
    assert set(d) >= {"kind", "s", "t", "connectivity", "downloaded", "outcome"}


def test_negative_seed_replays_identically():
    cfg = dict(SCENARIO, seed=-3)
    r1, stats1 = run_scenario(cfg)
    r2, stats2 = run_scenario(cfg)
    assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]
    assert stats1 == stats2 and stats1["successes"] == 4


def test_report_dict_keeps_field_order_and_drops_unset():
    from pmrc.simulator import EventReport

    full = EventReport("repair", 1, 2, 7, 21, MISMATCH, node=3, detail="x")
    assert list(full.to_dict().items()) == [
        ("kind", "repair"), ("s", 1), ("t", 2), ("connectivity", 7),
        ("downloaded", 21), ("outcome", MISMATCH), ("node", 3), ("detail", "x"),
    ]
    bare = EventReport("reconstruct", 0, 0, 3, 0, SUCCESS)
    assert list(bare.to_dict()) == [
        "kind", "s", "t", "connectivity", "downloaded", "outcome",
    ]


@pytest.mark.parametrize("params", [
    msr_params(k=3, n=7), msr_params(k=3, n=7, beta=2),
    mbr_params(k=3, d=4, n=7), mbr_params(k=3, d=4, n=7, beta=2),
], ids=str)
def test_one_helper_product_equals_each_helpers(params, monkeypatch):
    """A repair event makes one `helper_symbols` call over the joined shares
    of all its responding helpers, consecutive ids or not, and it gives each
    helper the symbols its own call gives."""
    calls = []

    def recorded(share, failed, enc):
        calls.append((share, failed, helper_symbols(share, failed, enc)))
        return calls[-1][2]

    monkeypatch.setattr("pmrc.simulator.helper_symbols", recorded)
    c = small_cluster(params, q=257, blocks=5)
    truth = encode_blocks(c.payloads, c.enc)
    events = [  # (failed, s, erased, the helpers that respond)
        (1, 0, frozenset(), [2, 3, 4, 5]),
        (3, 1, frozenset({4}), [1, 2, 5, 6]),  # node 1 as repaired above
    ]
    for failed, s, erase, nodes in events:
        c.fail(failed)
        calls.clear()
        report = c.repair(failed, s=s, adversary=AdversaryPlan(erase=erase))
        assert report.outcome == SUCCESS
        [(share, called_for, one)] = calls
        assert called_for == failed
        assert np.array_equal(share, np.concatenate([truth[i] for i in nodes]))
        for symbols, i in zip(one.reshape(len(nodes), 5, params.beta), nodes):
            assert np.array_equal(symbols, helper_symbols(truth[i], failed, c.enc))
    assert verify_consistent(c)


def test_reconstruct_reads_the_encoded_arrays_themselves(monkeypatch):
    """A reconstruct hands `decode_reconstruct` the arrays `encode_blocks`
    gave the providers, not copies of them, and read-only: they are the
    ground truth too."""
    encoded, handed = [], []

    def encode(blocks, enc):
        encoded.append(encode_blocks(blocks, enc))
        return encoded[-1]

    def decode(shares, enc, t):
        handed.append(dict(shares))
        return decode_reconstruct(shares, enc, t)

    monkeypatch.setattr("pmrc.simulator.encode_blocks", encode)
    monkeypatch.setattr("pmrc.simulator.decode_reconstruct", decode)
    for params in (msr_params(k=3, n=7), mbr_params(k=3, d=4, n=7, beta=2)):
        encoded.clear()
        handed.clear()
        c = small_cluster(params, q=257, blocks=4)
        c.fail(2)
        report, _ = c.reconstruct(t=1)
        assert report.outcome == SUCCESS
        [truth], [shares] = encoded, handed
        assert list(shares) == [1, 3, 4, 5, 6]
        assert all(np.shares_memory(shares[i], truth[i]) for i in shares)
        assert not any(shares[i].flags.writeable for i in shares)


@pytest.mark.parametrize("tag", ["payload:0", "payload:-3", "payload:61000",
                                 "corrupt:0", "corrupt:6100301"])
def test_seeded_rng_streams_equal_the_list_seeded_ones(tag):
    """`_seeded_rng` seeds from a uint32 array of the tag's bytes: the same
    entropy words as the list of byte values, so every draw is the same."""
    got, want = _seeded_rng(tag), np.random.default_rng(list(tag.encode()))
    assert np.array_equal(got.integers(0, 257, size=(40, 7)),
                          want.integers(0, 257, size=(40, 7)))
    assert np.array_equal(got.integers(0, 65521, size=99), want.integers(0, 65521, size=99))
