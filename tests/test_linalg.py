import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrc import (
    FieldMismatchError,
    Fq,
    InconsistentSystemError,
    MatrixFq,
    ParameterError,
    SingularMatrixError,
    smallest_prime_at_least,
)
from pmrc.linalg import (
    inverse,
    left_inverse,
    _reduce,
    matmul_mod,
    rank,
    solve,
    solve_any,
    vandermonde,
    vstack,
)

F13 = Fq(13)
F29 = Fq(29)


def test_identity_product():
    a = MatrixFq(F13, [[3, 5], [7, 11], [0, 1]])
    assert MatrixFq.identity(F13, 3) @ a == a


def test_hand_product():
    a = MatrixFq(F13, [[1, 1], [1, 2]])
    b = MatrixFq(F13, [[0], [1]])
    assert (a @ b).array().tolist() == [[1], [2]]


def test_solve_identity():
    y = MatrixFq(F13, [[4], [9]])
    assert solve(MatrixFq.identity(F13, 2), y) == y


def test_solve_hand_example():
    a = MatrixFq(F13, [[1, 1], [1, 2]])
    y = MatrixFq(F13, [[1], [2]])
    assert solve(a, y).array().tolist() == [[0], [1]]


def test_vandermonde_3x3_invertible_f13():
    v = vandermonde(F13, [1, 2, 3], 3)
    assert rank(v) == 3
    assert (v @ inverse(v)) == MatrixFq.identity(F13, 3)


def test_vandermonde_examples():
    assert vandermonde(F29, [1, 2, 3], 1).array().tolist() == [[1], [1], [1]]
    assert vandermonde(F29, [1, 2], 3).array().tolist() == [[1, 1, 1], [1, 2, 4]]
    with pytest.raises(ParameterError):
        vandermonde(F29, [1, 2, 2], 2)


def test_vandermonde_is_built_once_per_key():
    """Equal (field, points, width) keys share one immutable matrix, however
    the points are given; validation still runs on a key not seen yet."""
    v = vandermonde(F29, [3, 4, 5], 2)
    assert vandermonde(F29, (3, 4, 5), 2) is v
    assert vandermonde(Fq(29), range(3, 6), 2) is v
    assert vandermonde(F29, [3, 4, 5], 3) is not v
    assert vandermonde(F13, [3, 4, 5], 2) is not v
    with pytest.raises(ValueError):
        v.array()[0, 0] = 2
    for _ in range(2):
        with pytest.raises(ParameterError):
            vandermonde(F29, [3, 4, 3], 2)
        with pytest.raises(ParameterError):
            vandermonde(F29, (3, 29), 2)
        with pytest.raises(ParameterError):
            vandermonde(F29, range(-1, 2), 2)


def test_vandermonde_any_width_rows_full_rank():
    v = vandermonde(F29, [1, 2, 3, 4, 5, 6], 3)
    for rows in combinations(range(6), 3):
        assert rank(v.take_rows(rows)) == 3


def test_rank_zero_matrix():
    assert rank(MatrixFq(F13, np.zeros((3, 4), dtype=np.int64))) == 0


def test_rank_vandermonde_min():
    assert rank(vandermonde(F29, [1, 2, 3, 4, 5], 3)) == 3
    assert rank(vandermonde(F29, [1, 2], 4)) == 2


def test_solve_round_trip_random():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(2, 6), rng.randint(1, 4)
        rows = max(rows, cols)
        a = vandermonde(F29, rng.sample(range(29), rows), cols)
        x = MatrixFq(F29, [[rng.randrange(29)] for _ in range(cols)])
        assert solve(a, a @ x) == x


def test_solve_errors():
    singular = MatrixFq(F13, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve(singular, MatrixFq(F13, [[1], [2]]))
    # inconsistent overdetermined system
    a = MatrixFq(F13, [[1], [1]])
    with pytest.raises(InconsistentSystemError):
        solve(a, MatrixFq(F13, [[1], [2]]))
    with pytest.raises(ParameterError):
        solve(a, MatrixFq(F13, [[1]]))


def test_solve_any_picks_some_solution():
    a = MatrixFq(F13, [[1, 2], [2, 4]])
    y = MatrixFq(F13, [[3], [6]])
    x = solve_any(a, y)
    assert (a @ x) == y


def test_field_mismatch():
    a = MatrixFq(F13, [[1]])
    b = MatrixFq(F29, [[1]])
    with pytest.raises(FieldMismatchError):
        a @ b
    with pytest.raises(FieldMismatchError):
        vstack([a, b])


def test_entries_must_be_reduced():
    with pytest.raises(ParameterError):
        MatrixFq(F13, [[13]])
    with pytest.raises(ParameterError):
        MatrixFq(F13, [[-1]])


def test_matrix_is_immutable():
    a = MatrixFq(F13, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a.array()[0, 0] = 5


def test_left_inverse():
    a = vandermonde(F29, [1, 2, 3, 4, 5], 3)
    li = left_inverse(a)
    assert (li @ a) == MatrixFq.identity(F29, 3)
    with pytest.raises(SingularMatrixError):
        left_inverse(MatrixFq(F13, [[1, 2], [2, 4], [0, 0]]))


def test_stacking_and_slicing():
    a = MatrixFq(F13, [[1, 2], [3, 4]])
    b = MatrixFq(F13, [[5, 6]])
    assert vstack([a, b]).array().tolist() == [[1, 2], [3, 4], [5, 6]]
    assert np.hstack([a.array(), a.array()]).shape == (2, 4)
    assert a.slice_cols(1, 2).array().tolist() == [[2], [4]]
    assert a.T.array().tolist() == [[1, 3], [2, 4]]


def test_modulus_capped_at_16_bits():
    # shard symbols are u16, so the field stops below 65536 and every int64
    # product stays exact
    with pytest.raises(ParameterError):
        Fq(smallest_prime_at_least(2**16))
    f = Fq(65521)
    q = f.q
    a = MatrixFq(f, [[q - 1, q - 2], [1, q - 1]])
    b = MatrixFq(f, [[q - 1], [q - 1]])
    got = (a @ b).array().tolist()
    want = [
        [((q - 1) * (q - 1) + (q - 2) * (q - 1)) % q],
        [((q - 1) + (q - 1) * (q - 1)) % q],
    ]
    assert got == want


def test_product_reproduces_node_share():
    # one psi row times the message matrix equals that node's stored share
    from pmrc import msr_params, build_encoding
    from pmrc.shards import encode_blocks
    from oracles import msr_fill_message

    params = msr_params(k=3, n=7)
    enc = build_encoding(params, F29)
    payload = tuple(range(1, 7))
    slices = msr_fill_message(payload, params, F29)
    bodies = encode_blocks(np.array([payload]), enc)
    for i in range(params.n):
        row = enc.psi.take_rows([i]) @ slices[0].stacked()
        assert tuple(row.array()[0]) == tuple(bodies[i + 1][0])


def _operand(rng, shape, q, entries, dtype):
    if entries == "top":
        a = np.full(shape, q - 1, dtype=np.int64)
    elif entries == "near-top":
        a = rng.integers(max(q - 16, 0), q, size=shape)
    else:
        a = rng.integers(0, q, size=shape)
    return a.astype(dtype)


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([257, 401, 65521]),
    side=st.sampled_from([-1, 0, 1, 2]),
    rows=st.integers(0, 5),
    cols=st.integers(0, 5) | st.integers(60, 200),
    entries=st.sampled_from(["top", "near-top", "any"]),
    dtypes=st.tuples(*[st.sampled_from([np.uint16, np.int64, np.float32])] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_mod_matches_int64(q, side, rows, cols, entries, dtypes, seed):
    # inner widths just inside, at and past one exact float32 span, and past
    # three (q = 65521 stays int64); the wider column counts take the
    # products off the small int64 path
    width = (2**24 - 1) // (q - 1) ** 2  # widest exact float32 inner width
    inner = max(0, {-1: width - 1, 0: width, 1: width + 1, 2: 3 * width + 5}[side])
    rng = np.random.default_rng(seed)
    a = _operand(rng, (rows, inner), q, entries, dtypes[0])
    b = _operand(rng, (inner, cols), q, entries, dtypes[1])
    got = matmul_mod(a, b, q)
    assert got.dtype == np.uint16 and got.shape == (rows, cols)
    assert np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64) % q)


def test_matmul_mod_chunks_the_long_side():
    # both orientations of the wide-output product cross the step boundary
    # (more than 2**20 output entries); zero-size operands give empty products
    q = 257
    rng = np.random.default_rng(12)
    tall = rng.integers(0, q, size=(70_001, 9))
    for cols in (3, 64):
        small = rng.integers(0, q, size=(9, cols))
        assert np.array_equal(matmul_mod(tall, small, q), tall @ small % q)
        assert np.array_equal(matmul_mod(small.T, tall.T, q), small.T @ tall.T % q)
    assert matmul_mod(np.zeros((0, 4)), np.zeros((4, 6)), q).shape == (0, 6)
    assert matmul_mod(np.zeros((3, 0)), np.zeros((0, 2)), q).tolist() == [[0, 0]] * 3
    with pytest.raises(ParameterError):
        matmul_mod(np.zeros((2, 3)), np.zeros((2, 3)), q)


@pytest.mark.parametrize("q", [3, 257, 401, 65519, 65521])
def test_float_reduction_is_exact_up_to_the_bound(q):
    # around every multiple of q near 2**24 the rounded floor(p / q) is off
    # by one either way; the fix-up must catch both
    top = (2**24 - 1) // q
    m = np.concatenate([np.arange(0, 2000), np.arange(max(top - 50_000, 0), top + 1)])
    p = (m[:, None] * q + np.arange(-2, 3)).ravel()
    p = p[(p >= 0) & (p < 2**24)]
    assert np.array_equal(_reduce(p.astype(np.float32), q), p % q)
