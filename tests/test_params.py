import dataclasses
from itertools import combinations

import numpy as np
import pytest

from pmrc import (
    CodeMode,
    ConstructionError,
    EncodingMatrix,
    Fq,
    ParameterError,
    SystemParams,
    build_encoding,
    capacity_bound,
    encoding_from_points,
    feasible_pairs,
    mbr_params,
    msr_params,
)
from pmrc.params import budget_extra, code_params
from oracles import rank


def test_msr_params_examples():
    p = msr_params(k=3, n=7)
    assert (p.d, p.alpha, p.message_symbols) == (4, 2, 6)
    p = msr_params(k=2, n=4)
    assert (p.d, p.alpha, p.message_symbols) == (2, 1, 2)
    p = msr_params(k=3, n=7, beta=2)
    assert (p.alpha, p.message_symbols) == (4, 12)


def test_code_is_stated_by_its_inputs():
    """SystemParams holds (mode, n, k, d, beta) and EncodingMatrix holds
    (params, field, points, systematic); everything else is derived from
    them."""
    assert [f.name for f in dataclasses.fields(SystemParams)] == [
        "mode", "n", "k", "d", "beta",
    ]
    assert [f.name for f in dataclasses.fields(EncodingMatrix)] == [
        "params", "field", "points", "systematic",
    ]
    p = code_params("mbr", k=3, n=8, d=5, beta=2)
    assert (p.alpha_prime, p.slice_symbols, p.alpha, p.message_symbols) == (5, 12, 10, 24)
    assert code_params("msr", k=3, n=7) == code_params("msr", k=3, n=7, d=4) == msr_params(3, 7)
    with pytest.raises(ParameterError, match="d = 2k-2"):
        code_params("msr", k=3, n=7, d=5)
    a = build_encoding(msr_params(k=3, n=7), Fq(29))
    b = build_encoding(msr_params(k=3, n=7), Fq(29))
    assert a is not b and a == b and hash(a) == hash(b)
    assert (a.sigma, build_encoding(mbr_params(k=2, d=3, n=5), Fq(23)).lam) == (None, None)


def test_lam_of_an_mbr_code_is_a_parameter_error():
    """An MBR code has no Lambda; asking for a node's lambda is refused with
    ParameterError, which ``python -O`` keeps, not with an assert."""
    enc = build_encoding(mbr_params(k=3, d=5, n=8))
    with pytest.raises(ParameterError, match="MBR"):
        enc.lam_of(1)
    assert build_encoding(msr_params(k=3, n=7), Fq(29)).lam_of(2) == 4


def test_mode_given_as_a_string_is_the_mode():
    """A plain string names the mode as the enum member does: MSR [40,18,34]
    has alpha' = k - 1 = 17 and B' = k(k - 1) = 306, not MBR's 34 and 459."""
    p = SystemParams("msr", 40, 18, 34, 1)
    assert p.mode is CodeMode.MSR and p == msr_params(k=18, n=40)
    assert (p.alpha_prime, p.slice_symbols) == (17, 306)
    assert SystemParams("mbr", 10, 4, 6, 1).mode is CodeMode.MBR
    with pytest.raises(ParameterError, match="unknown mode 'banana'"):
        SystemParams("banana", 10, 4, 6, 1)
    with pytest.raises(ParameterError, match="unknown mode"):
        code_params("banana", k=4, n=10, d=6)


def test_msr_params_rejects_small_n():
    with pytest.raises(ParameterError):
        msr_params(k=3, n=4)  # needs n >= 2k-1 = 5
    with pytest.raises(ParameterError):
        msr_params(k=1, n=3)


def test_mbr_params_examples():
    p = mbr_params(k=2, d=3, n=5)
    assert (p.message_symbols, p.alpha) == (5, 3)
    assert mbr_params(k=3, d=3, n=5).message_symbols == 6
    p = mbr_params(k=2, d=3, n=5, beta=2)
    assert (p.message_symbols, p.alpha) == (10, 6)


def test_mbr_params_rejects_bad_ordering():
    with pytest.raises(ParameterError):
        mbr_params(k=4, d=3, n=6)
    with pytest.raises(ParameterError):
        mbr_params(k=2, d=5, n=5)


def test_capacity_bound_examples():
    assert capacity_bound(2, 3, 2, 1) == 4
    assert capacity_bound(2, 3, 3, 1) == 5
    assert capacity_bound(3, 4, 0, 1) == 0
    for alpha, beta in ((-3, 1), (4, 0), (4, -2)):
        with pytest.raises(ParameterError, match="alpha >= 0 and beta >= 1"):
            capacity_bound(2, 3, alpha, beta)


def test_constructed_codes_meet_bound_exactly():
    for k in (2, 3, 4):
        p = msr_params(k=k, n=2 * k)
        assert p.message_symbols == capacity_bound(p.k, p.d, p.alpha, p.beta)
    for k, d in ((2, 2), (2, 3), (3, 4), (3, 5)):
        p = mbr_params(k=k, d=d, n=d + 2)
        assert p.message_symbols == capacity_bound(p.k, p.d, p.alpha, p.beta)


def test_resilience_feasible():
    p = mbr_params(k=2, d=3, n=6)
    assert (0, 0) in feasible_pairs(p)
    assert (0, 1) in feasible_pairs(p)  # Delta = 5 <= n-1
    assert (2, 1) not in feasible_pairs(p)  # d+s+2t = 7 > 5
    with pytest.raises(ParameterError):
        budget_extra(-1, 0)


def test_only_zero_budget_when_n_is_d_plus_one():
    p = mbr_params(k=2, d=3, n=4)
    assert feasible_pairs(p) == [(0, 0)]
    for s in range(3):
        for t in range(3):
            if (s, t) != (0, 0):
                assert (s, t) not in feasible_pairs(p)


def test_feasible_pairs_ordering():
    p = mbr_params(k=3, d=4, n=8)
    pairs = feasible_pairs(p)
    assert pairs[0] == (0, 0)
    assert set(pairs) == {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)}


def test_build_psi_msr_lambda_example():
    enc = build_encoding(msr_params(k=3, n=7), Fq(29))
    assert enc.points == (1, 2, 3, 4, 5, 6, 7)
    assert enc.lam == (1, 4, 9, 16, 25, 7, 20)
    assert len(set(enc.lam)) == 7


def test_build_psi_msr_splits_consistently():
    enc = build_encoding(msr_params(k=3, n=7), Fq(29))
    q = 29
    for i in range(7):
        psi_row = tuple(enc.psi[i].tolist())
        phi_row = tuple(enc.phi[i].tolist())
        assert psi_row[:2] == phi_row
        assert psi_row[2:] == tuple(enc.lam[i] * v % q for v in phi_row)


def test_build_psi_msr_subset_ranks_exhaustive():
    enc = build_encoding(msr_params(k=3, n=7), Fq(29))
    for rows in combinations(range(7), 4):
        assert rank(enc.psi[list(rows)], 29) == 4
    for rows in combinations(range(7), 2):
        assert rank(enc.phi[list(rows)], 29) == 2


def test_build_psi_msr_point_search_failure():
    # q = 13 < 4n: only 6 distinct squares exist, the scan must fail
    with pytest.raises(ConstructionError):
        build_encoding(msr_params(k=3, n=7), Fq(13))


def test_build_psi_mbr_subset_ranks():
    enc = build_encoding(mbr_params(k=2, d=3, n=5), Fq(23))
    for rows in combinations(range(5), 2):
        assert rank(enc.phi[list(rows)], 23) == 2
    for rows in combinations(range(5), 3):
        assert rank(enc.psi[list(rows)], 23) == 3


def test_build_psi_mbr_subset_ranks_n10():
    enc = build_encoding(mbr_params(k=3, d=4, n=10), Fq(41))
    for rows in combinations(range(10), 4):
        assert rank(enc.psi[list(rows)], 41) == 4


def test_build_psi_mbr_degenerate_d_equals_k():
    enc = build_encoding(mbr_params(k=3, d=3, n=5), Fq(23))
    assert enc.sigma.shape[1] == 0
    assert np.array_equal(enc.psi, enc.phi)


def test_build_psi_mbr_too_few_points():
    with pytest.raises(ConstructionError):
        build_encoding(mbr_params(k=2, d=3, n=5), Fq(5))


def test_encoding_from_points_round_trip():
    for enc in (
        build_encoding(msr_params(k=3, n=7), Fq(29)),
        build_encoding(mbr_params(k=2, d=3, n=5), Fq(23)),
    ):
        redone = encoding_from_points(enc.params, enc.field, enc.points)
        assert np.array_equal(redone.psi, enc.psi)
        assert np.array_equal(redone.phi, enc.phi)
        assert redone.lam == enc.lam
        assert np.array_equal(redone.sigma, enc.sigma)  # None for MSR


def test_encoding_from_points_checks_its_points():
    msr, mbr = msr_params(k=3, n=7), mbr_params(k=2, d=3, n=5)
    for params, points, error in (
        (mbr, (1, 2, 3, 4, 23), ParameterError),  # outside F_23
        (mbr, (1, 2, 3, 4), ParameterError),  # n = 5 points needed
        (mbr, (1, 2, 3, 4, 4), ParameterError),  # repeated point
        (msr, (1, 2, 3, 4, 5, 6, 28), ConstructionError),  # 28^2 = 1^2 mod 29
    ):
        field = Fq(29 if params is msr else 23)
        with pytest.raises(error):
            encoding_from_points(params, field, points)


def test_node_id_bounds():
    enc = build_encoding(msr_params(k=2, n=5), Fq(257))
    with pytest.raises(ParameterError):
        enc.psi_row(0)
    with pytest.raises(ParameterError):
        enc.psi_row(6)
    assert enc.point_of(1) == enc.points[0]


def test_mode_enum_round_trip():
    assert CodeMode("msr") is CodeMode.MSR
    assert CodeMode("mbr") is CodeMode.MBR
