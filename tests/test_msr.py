import random
from itertools import combinations

import pytest

from pmrc import (
    DecodeFailure,
    Fq,
    InfeasibleError,
    ParameterError,
    build_encoding,
    feasible_pairs,
    mbr_params,
    msr_params,
)
from pmrc.decoding import Response
from pmrc.perblock import msr_encode, msr_helper_symbol, msr_reconstruct, msr_repair
from oracles import msr_fill_message, msr_read_message, msr_systematic_remap
from util import (
    apply_faults, fault_patterns, make_code, psi_m_basis, random_payload, seeded,
)

F29 = Fq(29)


def test_fill_canonical_layout():
    params = msr_params(k=3, n=7)
    slices = msr_fill_message((1, 2, 3, 4, 5, 6), params, F29)
    assert len(slices) == 1
    assert slices[0].s1.tolist() == [[1, 2], [2, 3]]
    assert slices[0].s2.tolist() == [[4, 5], [5, 6]]
    assert (slices[0].s1 == slices[0].s1.T).all()
    assert (slices[0].s2 == slices[0].s2.T).all()


def test_fill_zero_and_round_trip():
    params = msr_params(k=3, n=7, beta=2)
    zero = (0,) * params.message_symbols
    slices = msr_fill_message(zero, params, F29)
    assert all(not s.s1.any() and not s.s2.any() for s in slices)
    rng = random.Random(1)
    payload = random_payload(rng, params, 29)
    assert msr_read_message(msr_fill_message(payload, params, F29), params) == payload


def test_fill_wrong_length():
    params = msr_params(k=3, n=7)
    with pytest.raises(ParameterError):
        msr_fill_message((1, 2, 3), params, F29)


def test_encode_rejects_bad_payload():
    params = msr_params(k=3, n=7)
    enc = build_encoding(params, F29)
    for payload in ((1, 2, 3), (0,) * 7, (0, 0, -1, 0, 0, 0), (0, 29, 0, 0, 0, 0)):
        with pytest.raises(ParameterError):
            msr_encode(payload, enc)
    with pytest.raises(ParameterError):
        msr_encode((0,) * 5, build_encoding(mbr_params(k=2, d=3, n=5), F29))


def test_encode_zero_message():
    params = msr_params(k=3, n=7)
    enc = build_encoding(params, F29)
    shares = msr_encode((0,) * 6, enc)
    assert all(s.symbols == (0, 0) for s in shares)


def test_encode_unit_message_example():
    params = msr_params(k=3, n=7)
    enc = psi_m_basis(build_encoding(params, F29))
    shares = msr_encode((1, 0, 0, 0, 0, 0), enc)
    assert all(s.symbols == (1, 0) for s in shares)


def test_helper_symbol_examples():
    params = msr_params(k=3, n=7)
    enc = psi_m_basis(build_encoding(params, F29))
    zero_shares = msr_encode((0,) * 6, enc)
    assert msr_helper_symbol(zero_shares[1], 1, enc) == (0,)
    unit_shares = msr_encode((1, 0, 0, 0, 0, 0), enc)
    for h in unit_shares[1:]:
        assert msr_helper_symbol(h, 1, enc) == (1,)
    with pytest.raises(ParameterError):
        msr_helper_symbol(unit_shares[0], 1, enc)  # helper == failed
    with pytest.raises(ParameterError):
        msr_helper_symbol(unit_shares[0], 9, enc)


def test_repair_base_case_all_nodes():
    enc, encode_payload, helper, repair, _ = make_code(msr_params(k=3, n=7), 29)
    payload = random_payload(random.Random(2), enc.params, 29)
    shares = encode_payload(payload)
    for f in range(1, 8):
        helpers = [s for s in shares if s.node_id != f][: enc.params.d]
        resp = [Response(h.node_id, helper(h, f, enc)) for h in helpers]
        assert repair(resp, f, enc).symbols == shares[f - 1].symbols


def test_repair_with_corrupted_helper_example():
    params = msr_params(k=3, n=7)
    enc = build_encoding(params, F29)
    shares = msr_encode((1, 0, 0, 0, 0, 0), enc)
    helpers = [s for s in shares if s.node_id != 1][:6]  # Delta = d + 2t = 6
    resp = [Response(h.node_id, msr_helper_symbol(h, 1, enc)) for h in helpers]
    assert resp[0].node_id == 2
    resp[0] = Response(2, (5,))  # corrupt helper 2
    assert msr_repair(resp, 1, enc, s=0, t=1).symbols == (1, 0)


def test_repair_rejects_wrong_response_count():
    params = msr_params(k=3, n=7)
    enc = build_encoding(params, F29)
    shares = msr_encode((1, 0, 0, 0, 0, 0), enc)
    helpers = [s for s in shares if s.node_id != 1][: params.d]
    resp = [Response(h.node_id, msr_helper_symbol(h, 1, enc)) for h in helpers]
    with pytest.raises(ParameterError):
        msr_repair(resp, 1, enc, s=0, t=1)  # t=1 needs Delta = d+2 responses


def test_repair_rejects_duplicates_and_overbudget_erasures():
    params = msr_params(k=3, n=7)
    enc = build_encoding(params, F29)
    shares = msr_encode((1, 0, 0, 0, 0, 0), enc)
    resp = [
        Response(h.node_id, msr_helper_symbol(h, 1, enc))
        for h in [s for s in shares if s.node_id != 1][:4]
    ]
    dup = resp[:3] + [resp[2]]
    with pytest.raises(ParameterError):
        msr_repair(dup, 1, enc)
    erased = [Response(resp[0].node_id, None)] + resp[1:]
    with pytest.raises(ParameterError):
        msr_repair(erased, 1, enc, s=0, t=0)


def test_repair_infeasible_budget():
    params = msr_params(k=3, n=5)  # n = d + 1
    enc = build_encoding(params, Fq(257))
    with pytest.raises(InfeasibleError):
        msr_repair([], 1, enc, s=1, t=0)


def test_reconstruct_round_trip_and_faults():
    enc, encode_payload, _, _, reconstruct = make_code(msr_params(k=3, n=7), 29)
    rng = random.Random(3)
    payload = random_payload(rng, enc.params, 29)
    shares = encode_payload(payload)
    resp = [Response(s.node_id, s.symbols) for s in shares[:3]]
    assert reconstruct(resp, enc) == payload
    # kappa = 5, one fully corrupted share
    resp = [Response(s.node_id, s.symbols) for s in shares[:5]]
    resp[2] = Response(resp[2].node_id, tuple((v + 3) % 29 for v in resp[2].symbols))
    assert reconstruct(resp, enc, s=0, t=1) == payload
    # kappa = 4, one erasure
    resp = [Response(s.node_id, s.symbols) for s in shares[:4]]
    resp[1] = Response(resp[1].node_id, None)
    assert reconstruct(resp, enc, s=1, t=0) == payload


def test_exhaustive_small_case_repair_and_reconstruction():
    """Every failed node, every helper subset, every fault pattern within
    budget, for the smallest MSR code."""
    params = msr_params(k=2, n=5)
    q = 23
    enc, encode_payload, helper, repair, reconstruct = make_code(params, q)
    rng = seeded("msr-exhaustive")
    payload = random_payload(rng, params, q)
    shares = encode_payload(payload)
    all_ids = list(range(1, 6))
    for s, t in feasible_pairs(params):
        delta = params.d + s + 2 * t
        kappa = params.k + s + 2 * t
        for f in all_ids:
            others = [i for i in all_ids if i != f]
            for hs in combinations(others, delta):
                base = [
                    Response(h, helper(shares[h - 1], f, enc)) for h in hs
                ]
                for erase, corrupt in fault_patterns(hs, s, t):
                    word = apply_faults(rng, base, erase, corrupt, q)
                    got = repair(word, f, enc, s, t)
                    assert got.symbols == shares[f - 1].symbols
        for ids in combinations(all_ids, kappa):
            base = [Response(i, shares[i - 1].symbols) for i in ids]
            for erase, corrupt in fault_patterns(ids, s, t):
                word = apply_faults(rng, base, erase, corrupt, q)
                assert reconstruct(word, enc, s, t) == payload


def test_randomized_subset_sweep_full_size():
    """Random helper/provider subsets and fault placements at [n=7, k=3]."""
    params = msr_params(k=3, n=7)
    q = 29
    enc, encode_payload, helper, repair, reconstruct = make_code(params, q)
    rng = seeded("msr-random-subsets")
    payload = random_payload(rng, params, q)
    shares = encode_payload(payload)
    for s, t in feasible_pairs(params):
        delta = params.d + s + 2 * t
        kappa = params.k + s + 2 * t
        for _ in range(8):
            f = rng.randrange(1, 8)
            hs = sorted(rng.sample([i for i in range(1, 8) if i != f], delta))
            base = [Response(h, helper(shares[h - 1], f, enc)) for h in hs]
            erase = frozenset(rng.sample(hs, s))
            corrupt = frozenset(rng.sample([h for h in hs if h not in erase], t))
            word = apply_faults(rng, base, erase, corrupt, q)
            assert repair(word, f, enc, s, t).symbols == shares[f - 1].symbols
            ids = sorted(rng.sample(range(1, 8), kappa))
            base = [Response(i, shares[i - 1].symbols) for i in ids]
            erase = frozenset(rng.sample(ids, s))
            corrupt = frozenset(rng.sample([i for i in ids if i not in erase], t))
            word = apply_faults(rng, base, erase, corrupt, q)
            assert reconstruct(word, enc, s, t) == payload


def test_helper_symbol_independent_of_helper_set():
    """Replaying repair with every helper-set composition yields bit-identical
    per-helper symbols (they depend only on the helper and the failed node)."""
    params = msr_params(k=3, n=7)
    enc, encode_payload, helper, repair, _ = make_code(params, 29)
    payload = random_payload(random.Random(8), params, 29)
    shares = encode_payload(payload)
    for f in (1, 4):
        others = [i for i in range(1, 8) if i != f]
        seen: dict[int, set] = {}
        for hs in combinations(others, params.d):
            resp = [Response(h, helper(shares[h - 1], f, enc)) for h in hs]
            assert repair(resp, f, enc).symbols == shares[f - 1].symbols
            for r in resp:
                seen.setdefault(r.node_id, set()).add(r.symbols)
        assert all(len(v) == 1 for v in seen.values())


def test_beta_concatenation_matches_slicewise_encoding():
    q = 29
    beta = 3
    params = msr_params(k=3, n=7, beta=beta)
    base = msr_params(k=3, n=7)
    enc = build_encoding(params, Fq(q))
    enc1 = build_encoding(base, Fq(q))
    rng = random.Random(11)
    payload = random_payload(rng, params, q)
    shares = msr_encode(payload, enc)
    per = base.message_symbols
    for j in range(beta):
        chunk = payload[j * per : (j + 1) * per]
        sl_shares = msr_encode(chunk, enc1)
        ap = base.alpha
        for i in range(7):
            assert shares[i].symbols[j * ap : (j + 1) * ap] == sl_shares[i].symbols


def test_reconstruct_beyond_budget_fails_or_detects():
    enc, encode_payload, _, _, reconstruct = make_code(msr_params(k=3, n=7), 29)
    payload = random_payload(random.Random(13), enc.params, 29)
    shares = encode_payload(payload)
    resp = [Response(s.node_id, s.symbols) for s in shares[:5]]
    for i in (0, 1):  # two corruptions, only t=1 budget
        resp[i] = Response(resp[i].node_id, tuple((v + 5) % 29 for v in resp[i].symbols))
    with pytest.raises(DecodeFailure):
        reconstruct(resp, enc, s=0, t=1)


def test_systematic_remap():
    q = 257
    params = msr_params(k=3, n=7, beta=2)
    enc = build_encoding(params, Fq(q))
    zero = (0,) * params.message_symbols
    assert all(
        not s.s1.any() and not s.s2.any()
        for s in msr_systematic_remap(zero, enc, (1, 2, 3))
    )
    rng = random.Random(17)
    payload = random_payload(rng, params, q)
    sys_nodes = (2, 5, 7)
    slices = msr_systematic_remap(payload, enc, sys_nodes)
    shares = msr_encode(msr_read_message(slices, params), enc)
    a = params.alpha
    for r, node in enumerate(sys_nodes):
        assert shares[node - 1].symbols == payload[r * a : (r + 1) * a]
    # reconstruct recovers the remapped message; reading the designated nodes
    # of its re-encoding returns the original payload
    resp = [Response(s.node_id, s.symbols) for s in shares[:3]]
    u = msr_reconstruct(resp, enc)
    assert u == msr_read_message(slices, params)
    re_shares = msr_encode(u, enc)
    got = tuple(
        v for node in sys_nodes for v in re_shares[node - 1].symbols
    )
    assert got == payload


def test_systematic_remap_validates_nodes():
    params = msr_params(k=3, n=7)
    enc = build_encoding(params, F29)
    with pytest.raises(ParameterError):
        msr_systematic_remap((0,) * 6, enc, (1, 1, 2))
    with pytest.raises(ParameterError):
        msr_systematic_remap((0,) * 6, enc, (1, 2, 9))
