"""The (s, t) contract through every front end: the file-level calls in
`pmrc.shards`, `ClusterState` and the per-block `msr_*`/`mbr_*` calls must
agree on which budgets and node counts are usable. Past the erasure budget
the cluster reports a detected failure where the other two raise."""

import numpy as np
import pytest

from pmrc import (
    AdversaryPlan,
    ClusterState,
    InfeasibleError,
    ParameterError,
    mbr_params,
    msr_params,
)
from pmrc.decoding import Response
from pmrc.shards import encode_blocks, reconstruct_blocks, repair_blocks
from pmrc.simulator import DETECTED, SUCCESS
from util import make_code, random_payload, seeded

P, I, D = ParameterError, InfeasibleError, DETECTED

# Both codes are [8, 3, 4]: Delta = 4+s+2t <= 7 and kappa = 3+s+2t <= 8.
# A case is (s, t, lost, erased). The `lost` highest ids are absent (deleted
# shards, failed nodes, responses not supplied); the first `erased` nodes a
# front end contacts do not answer (for the file-level calls, a deleted
# shard, which the lowest-id pick skips). Expected outcomes are (file-level,
# cluster, per-block) for repair of node 1, then for reconstruction; None is
# success, D the cluster's detected failure.
GRID = [
    ((0, 0, 0, 0), (None, None, None), (None, None, None)),
    ((-1, 0, 0, 0), (P, P, P), (P, P, P)),
    ((0, -1, 0, 0), (P, P, P), (P, P, P)),
    ((2, -1, 0, 0), (P, P, P), (P, P, P)),
    ((-1, 3, 0, 0), (P, P, P), (P, P, P)),  # s < 0 outranks Delta = 9 > n-1
    ((1, 1, 0, 0), (None, None, None), (None, None, None)),
    ((0, 2, 0, 0), (I, I, I), (None, None, None)),  # Delta = 8 > n-1
    ((2, 2, 0, 0), (I, I, I), (I, I, I)),  # kappa = 9 > n
    ((0, 1, 4, 0), (I, I, P), (I, I, P)),  # 3 of 6 helpers, 4 of 5 providers
    ((1, 0, 3, 0), (I, I, P), (None, None, None)),  # 4 = d of 5 helpers
    ((1, 0, 0, 1), (None, None, None), (None, None, None)),  # erased = s
    ((0, 0, 0, 1), (None, D, P), (None, D, P)),  # erased > s
    ((1, 0, 0, 5), (I, D, P), (None, D, P)),  # every contacted node erased
]


def _outcome(call):
    try:
        result = call()
    except (ParameterError, InfeasibleError) as e:
        return type(e)
    if result == DETECTED:
        return D
    assert result in (True, SUCCESS)
    return None


@pytest.mark.parametrize("params", [msr_params(k=3, n=8), mbr_params(k=3, d=4, n=8)],
                         ids=["msr", "mbr"])
@pytest.mark.parametrize("case,want_repair,want_reconstruct", GRID)
def test_every_front_end_keeps_the_same_contract(params, case, want_repair, want_reconstruct):
    s, t, lost, erased = case
    enc, encode_payload, helper, repair, reconstruct = make_code(params, 257)
    payload = random_payload(seeded("contract", *case), params, 257)
    shares = encode_payload(payload)
    truth = encode_blocks(np.array([payload]), enc)
    alive = list(range(1, params.n + 1 - lost))

    def contacted(pool, need):
        return pool[: need + s + 2 * t]

    def file_level(pool, need, decode):
        gone = set(contacted(pool, need)[:erased])
        return decode({i: truth[i] for i in pool if i not in gone})

    def cluster(pool, need, event):
        c = ClusterState(enc, [payload])
        for i in range(1, params.n + 1):
            if i not in pool:
                c.fail(i)
        return event(c, AdversaryPlan(erase=frozenset(contacted(pool, need)[:erased])))

    def per_block(pool, need, word_of, decode):
        ids = contacted(pool, need)
        return decode([
            Response(i, None) if i in ids[:erased] else Response(i, word_of(i))
            for i in ids
        ])

    helpers = [i for i in alive if i != 1]
    got = (
        _outcome(lambda: file_level(
            helpers, params.d,
            lambda bodies: (repair_blocks(bodies, 1, enc, s, t)[0] == truth[1]).all(),
        )),
        _outcome(lambda: cluster(
            helpers, params.d,
            lambda c, plan: c.repair(1, s, t, plan).outcome,
        )),
        _outcome(lambda: per_block(
            helpers, params.d, lambda h: helper(shares[h - 1], 1, enc),
            lambda word: repair(word, 1, enc, s, t) == shares[0],
        )),
    )
    assert got == want_repair
    got = (
        _outcome(lambda: file_level(
            alive, params.k,
            lambda bodies: (reconstruct_blocks(bodies, enc, s, t)[0] == [payload]).all(),
        )),
        _outcome(lambda: cluster(
            alive, params.k,
            lambda c, plan: c.reconstruct(s, t, plan)[0].outcome,
        )),
        _outcome(lambda: per_block(
            alive, params.k, lambda i: shares[i - 1].symbols,
            lambda word: reconstruct(word, enc, s, t) == payload,
        )),
    )
    assert got == want_reconstruct


@pytest.mark.parametrize("params", [msr_params(k=3, n=8), mbr_params(k=3, d=4, n=8)],
                         ids=["msr", "mbr"])
def test_per_block_word_is_checked(params):
    """A per-block word needs distinct valid node ids, never the failed node,
    and width field elements in every response that arrived; at s = 1 a
    word short of one response would still decode."""
    enc, encode_payload, helper, repair, reconstruct = make_code(params, 257)
    shares = encode_payload(random_payload(seeded("word"), params, 257))
    word = [Response(h, helper(shares[h - 1], 1, enc)) for h in range(2, 3 + params.d)]
    assert repair(word, 1, enc, s=1) == shares[0]
    for bad in (
        word[:-1] + [word[0]],
        word[:-1] + [Response(99, word[-1].symbols)],
        word[:-1] + [Response(1, word[-1].symbols)],
        word[:-1] + [Response(word[-1].node_id, word[-1].symbols * 2)],
        word[:-1] + [Response(word[-1].node_id, (257,) * params.beta)],
    ):
        with pytest.raises(ParameterError):
            repair(bad, 1, enc, s=1)
    word = [Response(i, shares[i - 1].symbols) for i in range(1, 2 + params.k)]
    for bad in (
        word[:-1] + [word[0]],
        word[:-1] + [Response(0, word[-1].symbols)],
        word[:-1] + [Response(word[-1].node_id, word[-1].symbols[1:])],
        word[:-1] + [Response(word[-1].node_id, (-1,) * params.alpha)],
    ):
        with pytest.raises(ParameterError):
            reconstruct(bad, enc, s=1)
