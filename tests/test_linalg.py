import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrc import (
    Fq,
    ParameterError,
    build_encoding,
    mbr_params,
    msr_params,
    smallest_prime_at_least,
)
from pmrc.errors import InconsistentSystemError, SingularMatrixError
from pmrc.linalg import (
    _SMALL,
    _STEP,
    _STEP_ROWS,
    _compute_dtype,
    inverse,
    left_inverse,
    _reduce,
    matmul_mod,
    solve,
    solve_any,
    vandermonde,
)
from oracles import rank

F13 = Fq(13)
F29 = Fq(29)


def mat(rows):
    return np.array(rows, dtype=np.int64)


def test_identity_product():
    a = mat([[3, 5], [7, 11], [0, 1]])
    assert np.array_equal(matmul_mod(np.eye(3, dtype=np.int64), a, 13), a)


def test_hand_product():
    a = mat([[1, 1], [1, 2]])
    b = mat([[0], [1]])
    assert matmul_mod(a, b, 13).tolist() == [[1], [2]]


def test_solve_identity():
    y = mat([[4], [9]])
    assert np.array_equal(solve(np.eye(2, dtype=np.int64), y, 13), y)


def test_solve_hand_example():
    a = mat([[1, 1], [1, 2]])
    y = mat([[1], [2]])
    assert solve(a, y, 13).tolist() == [[0], [1]]


def test_vandermonde_3x3_invertible_f13():
    v = vandermonde(F13, [1, 2, 3], 3)
    assert rank(v, 13) == 3
    assert np.array_equal(matmul_mod(v, inverse(v, 13), 13), np.eye(3))


def test_vandermonde_examples():
    assert vandermonde(F29, [1, 2, 3], 1).tolist() == [[1], [1], [1]]
    assert vandermonde(F29, [1, 2], 3).tolist() == [[1, 1, 1], [1, 2, 4]]
    with pytest.raises(ParameterError):
        vandermonde(F29, [1, 2, 2], 2)


def test_vandermonde_is_built_once_per_key():
    """Equal (field, points, width) keys share one read-only array, however
    the points are given; validation still runs on a key not seen yet."""
    v = vandermonde(F29, [3, 4, 5], 2)
    assert vandermonde(F29, (3, 4, 5), 2) is v
    assert vandermonde(Fq(29), range(3, 6), 2) is v
    assert vandermonde(F29, [3, 4, 5], 3) is not v
    assert vandermonde(F13, [3, 4, 5], 2) is not v
    with pytest.raises(ValueError):
        v[0, 0] = 2
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
        assert rank(v[list(rows)], 29) == 3


def test_rank_zero_matrix():
    assert rank(np.zeros((3, 4), dtype=np.int64), 13) == 0


def test_rank_vandermonde_min():
    assert rank(vandermonde(F29, [1, 2, 3, 4, 5], 3), 29) == 3
    assert rank(vandermonde(F29, [1, 2], 4), 29) == 2


def test_solve_round_trip_random():
    """solve recovers x from a @ x, and left_inverse gives L @ a = I, on
    random Vandermonde systems, whose word-sized products run in int64. The
    tables the solvers read (vandermonde, and an encoding's psi with its phi
    and sigma views) reject writes."""
    rng = random.Random(3)
    for f in (F29, Fq(65521)):
        q = f.q
        for _ in range(25):
            rows, cols = rng.randint(2, 6), rng.randint(1, 4)
            rows = max(rows, cols)
            a = vandermonde(f, rng.sample(range(q), rows), cols)
            x = mat([[rng.randrange(q)] for _ in range(cols)])
            assert np.array_equal(solve(a, matmul_mod(a, x, q), q), x)
            li = left_inverse(a, q)
            assert np.array_equal(matmul_mod(li, a, q), np.eye(cols))
        for table in (a, build_encoding(msr_params(k=3, n=7), f).psi):
            with pytest.raises(ValueError):
                table[0, 0] = 1
    enc = build_encoding(mbr_params(k=2, d=3, n=5), F29)
    for table in (enc.psi, enc.phi, enc.sigma):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_solve_errors():
    singular = mat([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve(singular, mat([[1], [2]]), 13)
    # inconsistent overdetermined system
    a = mat([[1], [1]])
    with pytest.raises(InconsistentSystemError):
        solve(a, mat([[1], [2]]), 13)
    with pytest.raises(ParameterError):
        solve(a, mat([[1]]), 13)


def test_solve_any_picks_some_solution():
    a = mat([[1, 2], [2, 4]])
    y = mat([[3], [6]])
    x = solve_any(a, y, 13)
    assert np.array_equal(matmul_mod(a, x, 13), y)


def test_matrix_is_immutable():
    # the solvers copy what they eliminate, so they take the read-only
    # tables as they are and leave every operand as it was
    a = mat([[1, 2], [3, 4]])
    y = mat([[5], [6]])
    for m in (a, y):
        m.setflags(write=False)
    x = solve(a, y, 13)
    assert np.array_equal(matmul_mod(a, x, 13), y)
    assert rank(a, 13) == 2 and solve_any(a, y, 13).tolist() == x.tolist()
    assert np.array_equal(matmul_mod(inverse(a, 13), a, 13), np.eye(2))
    assert np.array_equal(matmul_mod(left_inverse(a, 13), a, 13), np.eye(2))
    assert a.tolist() == [[1, 2], [3, 4]] and y.tolist() == [[5], [6]]


def test_left_inverse():
    a = vandermonde(F29, [1, 2, 3, 4, 5], 3)
    li = left_inverse(a, 29)
    assert np.array_equal(matmul_mod(li, a, 29), np.eye(3))
    with pytest.raises(SingularMatrixError):
        left_inverse(mat([[1, 2], [2, 4], [0, 0]]), 13)


def test_modulus_capped_at_16_bits():
    # shard symbols are u16, so the field stops below 65536 and every int64
    # product stays exact
    with pytest.raises(ParameterError):
        Fq(smallest_prime_at_least(2**16))
    f = Fq(65521)
    q = f.q
    a = mat([[q - 1, q - 2], [1, q - 1]])
    b = mat([[q - 1], [q - 1]])
    got = matmul_mod(a, b, q).tolist()
    want = [
        [((q - 1) * (q - 1) + (q - 2) * (q - 1)) % q],
        [((q - 1) + (q - 1) * (q - 1)) % q],
    ]
    assert got == want


def test_product_reproduces_node_share():
    # one psi row times the message matrix equals that node's stored share
    from pmrc.shards import encode_blocks
    from oracles import msr_fill_message
    from util import psi_m_basis

    params = msr_params(k=3, n=7)
    enc = psi_m_basis(build_encoding(params, F29))
    payload = tuple(range(1, 7))
    slices = msr_fill_message(payload, params, F29)
    bodies = encode_blocks(np.array([payload]), enc)
    for i in range(params.n):
        row = matmul_mod(enc.psi[[i]], slices[0].stacked(), 29)
        assert tuple(row[0]) == tuple(bodies[i + 1][0])


def _operand(rng, shape, q, entries, dtype):
    if entries == "top":
        a = np.full(shape, q - 1, dtype=np.int64)
    elif entries == "near-top":
        a = rng.integers(max(q - 16, 0), q, size=shape)
    else:
        a = rng.integers(0, q, size=shape)
    return a.astype(dtype)


def _float32_width(q):
    """The widest inner side whose whole sum, inner * (q-1)**2, stays below
    2**22: the float32 limit (63 at q = 257, 0 for q > 2048)."""
    return (2**22 - 1) // (q - 1) ** 2


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([257, 401, 2039, 4093, 65521]),
    side=st.sampled_from([-1, 0, 1, 2, 3]),
    rows=st.integers(0, 5),
    cols=st.integers(0, 5) | st.integers(60, 200) | st.integers(3300, 4000),
    entries=st.sampled_from(["top", "near-top", "any"]),
    dtypes=st.tuples(*[st.sampled_from([np.uint16, np.int64, np.float32])] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_mod_matches_int64(q, side, rows, cols, entries, dtypes, seed):
    # inner widths just inside, at and past the float32 whole-inner limit,
    # then well past it and a wide float64 sum; the wider column counts take
    # the products off the small int64 path
    width = _float32_width(q)
    inner = max(0, {-1: width - 1, 0: width, 1: width + 1, 2: 3 * width + 5, 3: 300}[side])
    rng = np.random.default_rng(seed)
    a = _operand(rng, (rows, inner), q, entries, dtypes[0])
    b = _operand(rng, (inner, cols), q, entries, dtypes[1])
    got = matmul_mod(a, b, q)
    assert got.dtype == np.uint16 and got.shape == (rows, cols)
    assert np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64) % q)


@pytest.mark.parametrize("q", [257, 401, 2039, 4093, 65521])
def test_compute_dtype_is_int64_only_for_word_sized_products(q):
    # a product of _SMALL multiply-adds or more runs in float32 when its whole
    # inner sum stays below 2**22 and in float64 when it stays below 2**51
    # (inner < 2**19 at any q < 2**16); smaller products run in int64
    width, wide = _float32_width(q), (2**51 - 1) // (q - 1) ** 2
    assert wide >= 2**19 and width == {257: 63, 401: 26, 2039: 1}.get(q, 0)
    for inner in sorted({1, width, width + 1, 300, 2**19 - 1, wide} - {0}):
        kind = np.float32 if inner <= width else np.float64
        cols = -(-_SMALL // inner)  # rows * inner * cols reaches _SMALL
        assert _compute_dtype(1, inner, cols, q) is kind
        assert _compute_dtype(7, inner, cols, q) is kind
        if inner < _SMALL:
            assert _compute_dtype(1, inner, cols - 1, q) is np.int64
    assert _compute_dtype(1, wide + 1, 1, q) is np.int64


def test_matmul_mod_chunks_the_long_side():
    # both orientations of the wide-output product cross the step boundary
    # (more than _STEP output entries); an output wider than _STEP //
    # _STEP_ROWS columns takes _STEP_ROWS rows a step, again both ways;
    # zero-size operands give empty products
    q = 257
    rng = np.random.default_rng(12)
    tall = rng.integers(0, q, size=(70_001, 9))
    for cols in (3, 64):
        small = rng.integers(0, q, size=(9, cols))
        assert np.array_equal(matmul_mod(tall, small, q), tall @ small % q)
        assert np.array_equal(matmul_mod(small.T, tall.T, q), small.T @ tall.T % q)
    long, wide = rng.integers(0, q, size=(1000, 9)), rng.integers(0, q, size=(9, 700))
    assert _STEP // 700 < _STEP_ROWS < 1000
    assert np.array_equal(matmul_mod(long, wide, q), long @ wide % q)
    assert np.array_equal(matmul_mod(wide.T, long.T, q), wide.T @ long.T % q)
    assert matmul_mod(np.zeros((0, 4)), np.zeros((4, 6)), q).shape == (0, 6)
    assert matmul_mod(np.zeros((3, 0)), np.zeros((0, 2)), q).tolist() == [[0, 0]] * 3
    with pytest.raises(ParameterError):
        matmul_mod(np.zeros((2, 3)), np.zeros((2, 3)), q)


@pytest.mark.parametrize("q", [3, 257, 401, 2039, 4093, 65519, 65521])
def test_float_reduction_is_exact_up_to_the_bound(q):
    # p - q * floor((p + 1/2) * fl(1/q)) needs no fix-up below 2**22 in
    # float32 and 2**51 in float64; the rounded quotient comes closest to an
    # integer around the multiples of q near the bound, so probe +-2 around
    # each of them there, and near 0
    for dtype, bound in ((np.float32, 2**22), (np.float64, 2**51)):
        top = (bound - 1) // q
        m = np.concatenate([np.arange(0, 2000), np.arange(max(top - 50_000, 0), top + 1)])
        p = (m[:, None] * q + np.arange(-2, 3)).ravel()
        p = p[(p >= 0) & (p < bound)]
        assert np.array_equal(_reduce(p.astype(dtype), q), p % q)
