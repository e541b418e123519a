import random
from itertools import combinations

import pytest

import numpy as np

from pmrc import (
    DecodeFailure,
    Fq,
    ParameterError,
    rs_decode_ee,
)
from pmrc.decoding import Response, consistency_reconstruct
from pmrc.linalg import matmul_mod, rank, solve, vandermonde
from oracles import AmbiguityError, subset_decode_oracle

F29 = Fq(29)


def evals(coeffs, points, q):
    out = []
    for x in points:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        out.append(acc)
    return out


def test_oracle_plain_solve_no_faults():
    points = [1, 2, 3, 4]
    rows = vandermonde(F29, points, 3)
    msg = (4, 7, 1)
    values = evals(msg, points, 29)
    assert subset_decode_oracle(values, rows, 0, F29) == msg


def test_oracle_single_error_example():
    # constant polynomial 1 evaluated at 1..6; position of point 3 corrupted
    points = [1, 2, 3, 4, 5, 6]
    rows = vandermonde(F29, points, 4)
    values = [1, 1, 5, 1, 1, 1]
    assert subset_decode_oracle(values, rows, 1, F29) == (1, 0, 0, 0)


def test_oracle_zero_codeword_one_error():
    points = [1, 2, 3, 4, 5, 6]
    rows = vandermonde(F29, points, 4)
    values = [0, 0, 0, 9, 0, 0]
    assert subset_decode_oracle(values, rows, 1, F29) == (0, 0, 0, 0)


def test_oracle_precondition():
    rows = vandermonde(F29, [1, 2, 3], 3)
    with pytest.raises(ParameterError):
        subset_decode_oracle([1, 1, 1], rows, 1, F29)  # R = 3 < msg_len + t_max


def test_rs_matches_oracle_on_examples():
    points = [1, 2, 3, 4, 5, 6]
    rows = vandermonde(F29, points, 4)
    for values, t in (
        ([1, 1, 5, 1, 1, 1], 1),
        ([0, 0, 0, 9, 0, 0], 1),
        ([1, 1, 1, 1, 1, 1], 0),
    ):
        assert rs_decode_ee(values, points, 4, t, F29) == subset_decode_oracle(
            values, rows, t, F29
        )


def test_rs_interpolation_no_faults():
    points = [3, 7, 11, 20]
    msg = (9, 0, 13, 2)
    values = evals(msg, points, 29)
    assert rs_decode_ee(values, points, 4, 0, F29) == msg


def test_rs_erasure_only():
    points = [1, 2, 3, 4, 5, 6]
    msg = (5, 6, 7, 8)
    values = list(evals(msg, points, 29))
    values[1] = None
    values[4] = None
    assert rs_decode_ee(values, points, 4, 0, F29) == msg


def test_rs_error_and_erasure_mix():
    points = [1, 2, 3, 4, 5, 6, 7]
    msg = (5, 6, 7, 8)
    values = list(evals(msg, points, 29))
    values[0] = None  # s = 1
    values[3] = (values[3] + 11) % 29  # t = 1
    assert rs_decode_ee(values, points, 4, 1, F29) == msg


def test_rs_rejects_duplicate_points():
    with pytest.raises(ParameterError):
        rs_decode_ee([1, 1], [2, 2], 1, 0, F29)


def test_oracle_equivalence_sweep_small():
    rng = random.Random(5)
    q = 29
    f = Fq(q)
    for msg_len in (2, 3):
        for n in range(msg_len, msg_len + 4):
            points = list(range(1, n + 1))
            rows = vandermonde(f, points, msg_len)
            budget = n - msg_len
            for s in range(budget + 1):
                for t in range((budget - s) // 2 + 1):
                    for _ in range(3):
                        msg = tuple(rng.randrange(q) for _ in range(msg_len))
                        base = evals(msg, points, q)
                        for er in combinations(range(n), s):
                            rest = [i for i in range(n) if i not in er]
                            for co in combinations(rest, t):
                                values = list(base)
                                for i in er:
                                    values[i] = None
                                for i in co:
                                    values[i] = (values[i] + 1 + rng.randrange(q - 1)) % q
                                a = subset_decode_oracle(values, rows, t, f)
                                b = rs_decode_ee(values, points, msg_len, t, f)
                                assert a == b == msg


def test_decoders_deterministic():
    points = [1, 2, 3, 4, 5, 6]
    values = [1, 1, 5, 1, 1, 1]
    rows = vandermonde(F29, points, 4)
    assert subset_decode_oracle(values, rows, 1, F29) == subset_decode_oracle(
        values, rows, 1, F29
    )
    assert rs_decode_ee(values, points, 4, 1, F29) == rs_decode_ee(
        values, points, 4, 1, F29
    )


def test_beyond_budget_never_crashes():
    rng = random.Random(9)
    q = 29
    f = Fq(q)
    points = list(range(1, 7))
    rows = vandermonde(f, points, 3)
    msg = (1, 2, 3)
    base = evals(msg, points, q)
    for n_bad in (2, 3, 4):  # t_max = 1, so all of these exceed the budget
        for co in combinations(range(6), n_bad):
            values = list(base)
            for i in co:
                values[i] = (values[i] + 1 + rng.randrange(q - 1)) % q
            for decode in (
                lambda v: subset_decode_oracle(v, rows, 1, f),
                lambda v: rs_decode_ee(v, points, 3, 1, f),
            ):
                try:
                    got = decode(values)
                    assert len(got) == 3  # arbitrary candidate is allowed
                except (DecodeFailure, AmbiguityError):
                    pass


def make_vector_code(k, n, q, share_len, seed=0):
    """Toy linear vector code: share_i = G_i @ msg with random full-rank maps."""
    rng = random.Random(seed)
    msg_len = k * share_len
    while True:
        gs = {
            i: np.array(
                [[rng.randrange(q) for _ in range(msg_len)] for _ in range(share_len)]
            )
            for i in range(1, n + 1)
        }
        ok = all(
            rank(np.concatenate([gs[i] for i in sub]), q) == msg_len
            for sub in combinations(range(1, n + 1), k)
        )
        if ok:
            return gs, msg_len


def test_consistency_reconstruct_toy_code():
    q = 29
    gs, msg_len = make_vector_code(k=2, n=5, q=q, share_len=3, seed=2)

    def encode(msg):
        return {
            i: tuple(matmul_mod(g, np.array(msg)[:, None], q)[:, 0].tolist())
            for i, g in gs.items()
        }

    def solve_k(ids, shares):
        a = np.concatenate([gs[i] for i in ids])
        rhs = np.array([v for sh in shares for v in sh])[:, None]
        return tuple(solve(a, rhs, q)[:, 0].tolist())

    def reencode(cand, node_id):
        col = matmul_mod(gs[node_id], np.array(cand)[:, None], q)
        return tuple(col[:, 0].tolist())

    rng = random.Random(4)
    msg = tuple(rng.randrange(q) for _ in range(msg_len))
    shares = encode(msg)

    # t_max = 0: first subset solves immediately
    word = [Response(i, shares[i]) for i in (1, 2)]
    assert consistency_reconstruct(word, 2, 0, solve_k, reencode) == msg

    # kappa = 4 with one corrupted share
    for bad in range(1, 5):
        word = []
        for i in range(1, 5):
            sym = shares[i]
            if i == bad:
                sym = tuple((v + 7) % q for v in sym)
            word.append(Response(i, sym))
        assert consistency_reconstruct(word, 2, 1, solve_k, reencode) == msg

    # one erasure, s = 1 budget occupied by it
    word = [Response(1, None)] + [Response(i, shares[i]) for i in (2, 3)]
    assert consistency_reconstruct(word, 2, 0, solve_k, reencode) == msg

    # t_max + 1 corruptions: fails or returns some candidate, never crashes
    word = []
    for i in range(1, 5):
        sym = shares[i]
        if i in (1, 2):
            sym = tuple((v + 7) % q for v in sym)
        word.append(Response(i, sym))
    try:
        consistency_reconstruct(word, 2, 1, solve_k, reencode)
    except DecodeFailure:
        pass


def test_consistency_preconditions():
    def solve_k(ids, shares):  # pragma: no cover - never reached
        raise AssertionError

    reencode = solve_k
    with pytest.raises(ParameterError):
        consistency_reconstruct([Response(1, (1,))], 2, 0, solve_k, reencode)
    with pytest.raises(ParameterError):
        consistency_reconstruct(
            [Response(1, (1,)), Response(1, (1,))], 1, 0, solve_k, reencode
        )
