import random
from itertools import combinations

import pytest

from pmrc import (
    Fq,
    InfeasibleError,
    ParameterError,
    build_encoding,
    feasible_pairs,
    mbr_encode,
    mbr_helper_symbol,
    mbr_params,
    mbr_repair,
    msr_params,
)
from pmrc.decoding import Response
from oracles import mbr_fill_message, mbr_read_message
from util import (
    apply_faults, fault_patterns, make_code, psi_m_basis, random_payload, seeded,
)

F23 = Fq(23)


def test_fill_canonical_layout():
    params = mbr_params(k=2, d=3, n=5)
    slices = mbr_fill_message((1, 2, 3, 4, 5), params, F23)
    m = slices[0].assembled()
    assert m.tolist() == [[1, 2, 4], [2, 3, 5], [4, 5, 0]]
    assert (m == m.T).all()


def test_fill_zero_and_round_trip():
    params = mbr_params(k=3, d=5, n=8, beta=2)
    f = Fq(257)
    zero = (0,) * params.message_symbols
    assert all(
        not s.assembled().any() for s in mbr_fill_message(zero, params, f)
    )
    rng = random.Random(1)
    payload = random_payload(rng, params, 257)
    assert mbr_read_message(mbr_fill_message(payload, params, f), params) == payload
    with pytest.raises(ParameterError):
        mbr_fill_message((1, 2), params, f)


def test_encode_rejects_bad_payload():
    params = mbr_params(k=2, d=3, n=5)
    enc = build_encoding(params, F23)
    for payload in ((1, 2), (0,) * 6, (0, -1, 0, 0, 0), (0, 0, 0, 0, 23)):
        with pytest.raises(ParameterError):
            mbr_encode(payload, enc)
    with pytest.raises(ParameterError):
        mbr_encode((0,) * 6, build_encoding(msr_params(k=3, n=7), F23))


def test_encode_examples():
    params = mbr_params(k=2, d=3, n=5)
    enc = psi_m_basis(build_encoding(params, F23))
    zero_shares = mbr_encode((0,) * 5, enc)
    assert all(s.symbols == (0, 0, 0) for s in zero_shares)
    unit_shares = mbr_encode((1, 0, 0, 0, 0), enc)
    assert all(s.symbols == (1, 0, 0) for s in unit_shares)


def test_helper_symbol_examples():
    params = mbr_params(k=2, d=3, n=5)
    enc = build_encoding(params, F23)
    shares = mbr_encode((1, 0, 0, 0, 0), enc)
    for h in shares[1:]:
        assert mbr_helper_symbol(h, 1, enc) == (1,)
    zero_shares = mbr_encode((0,) * 5, enc)
    assert mbr_helper_symbol(zero_shares[3], 1, enc) == (0,)
    with pytest.raises(ParameterError):
        mbr_helper_symbol(shares[2], 3, enc)


def test_repair_base_case_and_erasure():
    params = mbr_params(k=2, d=3, n=5)
    enc, encode_payload, helper, repair, _ = make_code(params, 23)
    payload = random_payload(random.Random(2), params, 23)
    shares = encode_payload(payload)
    for f in range(1, 6):
        helpers = [s for s in shares if s.node_id != f][: params.d]
        resp = [Response(h.node_id, helper(h, f, enc)) for h in helpers]
        assert repair(resp, f, enc).symbols == shares[f - 1].symbols
    # s = 1: one of Delta = 4 responses dropped
    helpers = [s for s in shares if s.node_id != 1][:4]
    resp = [Response(h.node_id, helper(h, 1, enc)) for h in helpers]
    resp[2] = Response(resp[2].node_id, None)
    assert repair(resp, 1, enc, s=1, t=0).symbols == shares[0].symbols


def test_repair_infeasible_when_t_needs_too_many_helpers():
    params = mbr_params(k=2, d=3, n=5)  # t=1 needs Delta = 5 > n-1 = 4
    enc = build_encoding(params, F23)
    assert not feasible_pairs(params).count((0, 1))
    with pytest.raises(InfeasibleError):
        mbr_repair([], 1, enc, s=0, t=1)


def test_reconstruct_round_trip_and_single_erasure_regime():
    params = mbr_params(k=2, d=3, n=5)
    enc, encode_payload, _, _, reconstruct = make_code(params, 23)
    rng = random.Random(3)
    payload = random_payload(rng, params, 23)
    shares = encode_payload(payload)
    resp = [Response(s.node_id, s.symbols) for s in shares[:2]]
    assert reconstruct(resp, enc) == payload
    # kappa = k+1 = 3 with one erasure (the s=1, t=0 setting)
    resp = [Response(s.node_id, s.symbols) for s in shares[:3]]
    resp[0] = Response(resp[0].node_id, None)
    assert reconstruct(resp, enc, s=1, t=0) == payload
    # kappa = 4 with one fully corrupted share
    resp = [Response(s.node_id, s.symbols) for s in shares[:4]]
    resp[3] = Response(resp[3].node_id, tuple((v + 9) % 23 for v in resp[3].symbols))
    assert reconstruct(resp, enc, s=0, t=1) == payload


def test_storage_equals_download_at_repair():
    params = mbr_params(k=3, d=4, n=8, beta=2)
    assert params.alpha == params.d * params.beta
    enc, encode_payload, helper, repair, _ = make_code(params, 257)
    payload = random_payload(random.Random(5), params, 257)
    shares = encode_payload(payload)
    helpers = [s for s in shares if s.node_id != 2][: params.d]
    resp = [Response(h.node_id, helper(h, 2, enc)) for h in helpers]
    downloaded = sum(len(r.symbols) for r in resp)
    got = repair(resp, 2, enc)
    assert downloaded == params.d * params.beta == params.alpha == len(got.symbols)


def test_exhaustive_small_case_repair_and_reconstruction():
    """Every failed node, every helper subset, every fault pattern within
    budget, for a small MBR code (n = 6 gives nonzero budgets)."""
    params = mbr_params(k=2, d=3, n=6)
    q = 29
    enc, encode_payload, helper, repair, reconstruct = make_code(params, q)
    rng = seeded("mbr-exhaustive")
    payload = random_payload(rng, params, q)
    shares = encode_payload(payload)
    all_ids = list(range(1, 7))
    for s, t in feasible_pairs(params):
        delta = params.d + s + 2 * t
        kappa = params.k + s + 2 * t
        for f in all_ids:
            others = [i for i in all_ids if i != f]
            for hs in combinations(others, delta):
                base = [Response(h, helper(shares[h - 1], f, enc)) for h in hs]
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
    """Random helper/provider subsets and fault placements at [n=8, k=3, d=4]."""
    params = mbr_params(k=3, d=4, n=8)
    q = 257
    enc, encode_payload, helper, repair, reconstruct = make_code(params, q)
    rng = seeded("mbr-random-subsets")
    payload = random_payload(rng, params, q)
    shares = encode_payload(payload)
    for s, t in feasible_pairs(params):
        delta = params.d + s + 2 * t
        kappa = params.k + s + 2 * t
        for _ in range(8):
            f = rng.randrange(1, 9)
            hs = sorted(rng.sample([i for i in range(1, 9) if i != f], delta))
            base = [Response(h, helper(shares[h - 1], f, enc)) for h in hs]
            erase = frozenset(rng.sample(hs, s))
            corrupt = frozenset(rng.sample([h for h in hs if h not in erase], t))
            word = apply_faults(rng, base, erase, corrupt, q)
            assert repair(word, f, enc, s, t).symbols == shares[f - 1].symbols
            ids = sorted(rng.sample(range(1, 9), kappa))
            base = [Response(i, shares[i - 1].symbols) for i in ids]
            erase = frozenset(rng.sample(ids, s))
            corrupt = frozenset(rng.sample([i for i in ids if i not in erase], t))
            word = apply_faults(rng, base, erase, corrupt, q)
            assert reconstruct(word, enc, s, t) == payload


def test_helper_symbol_independent_of_helper_set():
    params = mbr_params(k=2, d=3, n=6)
    enc, encode_payload, helper, repair, _ = make_code(params, 29)
    payload = random_payload(random.Random(8), params, 29)
    shares = encode_payload(payload)
    for f in (1, 5):
        others = [i for i in range(1, 7) if i != f]
        seen: dict[int, set] = {}
        for hs in combinations(others, params.d):
            resp = [Response(h, helper(shares[h - 1], f, enc)) for h in hs]
            assert repair(resp, f, enc).symbols == shares[f - 1].symbols
            for r in resp:
                seen.setdefault(r.node_id, set()).add(r.symbols)
        assert all(len(v) == 1 for v in seen.values())


def test_degenerate_d_equals_k():
    params = mbr_params(k=3, d=3, n=6)
    enc, encode_payload, helper, repair, reconstruct = make_code(params, 257)
    rng = random.Random(4)
    payload = random_payload(rng, params, 257)
    shares = encode_payload(payload)
    resp = [Response(s.node_id, s.symbols) for s in shares[:3]]
    assert reconstruct(resp, enc) == payload
    helpers = [s for s in shares if s.node_id != 4][:3]
    word = [Response(h.node_id, helper(h, 4, enc)) for h in helpers]
    assert repair(word, 4, enc).symbols == shares[3].symbols


def test_beta_concatenation_matches_slicewise_encoding():
    q = 257
    beta = 2
    params = mbr_params(k=2, d=4, n=6, beta=beta)
    base = mbr_params(k=2, d=4, n=6)
    enc = build_encoding(params, Fq(q))
    enc1 = build_encoding(base, Fq(q))
    rng = random.Random(11)
    payload = random_payload(rng, params, q)
    shares = mbr_encode(payload, enc)
    per = base.message_symbols
    for j in range(beta):
        chunk = payload[j * per : (j + 1) * per]
        sl_shares = mbr_encode(chunk, enc1)
        ap = base.alpha
        for i in range(6):
            assert shares[i].symbols[j * ap : (j + 1) * ap] == sl_shares[i].symbols

