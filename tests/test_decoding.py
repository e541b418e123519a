import random
from itertools import combinations

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrc import (
    DecodeFailure,
    Fq,
    ParameterError,
    rs_decode_ee,
)
from pmrc.decoding import Response, consistency_reconstruct, locate, locate_off_diagonal
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


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_locate_matches_rs_decode_ee_and_the_subset_oracle(data):
    """The batched locator against both reference decoders, word by word: a
    word that has a message agreeing with at least R - t entries (the
    subset oracle's answer, and rs_decode_ee's) is flagged exactly where it
    differs from that message's evaluations; any other word gets at most t
    flags. q in {29, 257, 65521}, point sets with and without 0, R from
    msg_len + 2t up, and 0 to t + 2 wrong entries per word."""
    q = data.draw(st.sampled_from([29, 257, 65521]), label="q")
    f = Fq(q)
    msg_len = data.draw(st.integers(1, 3), label="msg_len")
    t = data.draw(st.integers(0, 3), label="t")
    r = data.draw(st.integers(msg_len + 2 * t, msg_len + 2 * t + 2), label="R")
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    points = rng.sample(range(1, q), r)
    if data.draw(st.booleans(), label="point 0"):
        points[rng.randrange(r)] = 0
    rows = vandermonde(f, points, msg_len)
    words = []
    for _ in range(data.draw(st.integers(1, 4), label="words")):
        values = evals([rng.randrange(q) for _ in range(msg_len)], points, q)
        for i in rng.sample(range(r), min(r, rng.randrange(t + 3))):
            values[i] = (values[i] + rng.randrange(1, q)) % q
        words.append(values)
    masks = locate(np.array(words), points, msg_len, t, f)
    assert masks.shape == (len(words), r) and masks.dtype == bool
    for values, mask in zip(words, masks):
        try:
            msg = subset_decode_oracle(values, rows, t, f)
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                rs_decode_ee(values, points, msg_len, t, f)
            assert mask.sum() <= t
            continue
        assert rs_decode_ee(values, points, msg_len, t, f) == msg
        assert mask.tolist() == [a != b for a, b in zip(evals(msg, points, q), values)]


def test_locate_off_diagonal_leaves_each_rows_own_point_out():
    """Row i of a square array is a word at every point but the i-th: its
    diagonal entry is never read or flagged, and each row is located as
    `locate` locates it at the other points."""
    q, t, msg_len = 257, 1, 3
    f = Fq(q)
    rng = random.Random(3)
    points = [0, 3, 5, 7, 11, 13]
    values = np.array([
        [[rng.randrange(q) for _ in points] for _ in points] for _ in range(3)
    ])
    for word in values:
        for i, row in enumerate(word):
            word[i] = evals([rng.randrange(q) for _ in range(msg_len)], points, q)
            bad = rng.choice([j for j in range(len(points)) if j != i])
            word[i, bad] = (word[i, bad] + 1 + rng.randrange(q - 1)) % q
            word[i, i] = rng.randrange(q)  # the row's own point: never read
    got = locate_off_diagonal(values, points, msg_len, t, f)
    for word, masks in zip(values, got):
        for i, (row, mask) in enumerate(zip(word, masks)):
            others = [j for j in range(len(points)) if j != i]
            want = locate(row[None, others], [points[j] for j in others], msg_len, t, f)
            assert not mask[i] and mask[others].tolist() == want[0].tolist()
            assert mask.sum() == 1


def test_locate_needs_room_for_the_budget():
    with pytest.raises(ParameterError):
        locate(np.zeros((1, 4), dtype=np.int64), [1, 2, 3, 4], 3, 1, F29)
    with pytest.raises(ParameterError):
        locate_off_diagonal(np.zeros((1, 5, 5), dtype=np.int64), [1, 2, 3, 4, 5], 3, 1, F29)
