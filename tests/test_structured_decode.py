"""The product-matrix decode: every reconstruct inverse and the systematic
map come from k- and (k-1)-point Vandermonde solves, not from a B'-sized
elimination, and change no answer.

`shards._reconstruct_inverse` builds the left inverse of k providers' stacked
share maps that reads their staircase of B' symbols. The left inverse that
reads a given B' independent symbols is unique, so it must equal the one
`linalg.left_inverse` finds by elimination, entry for entry, in both bases
and at any points, 0 included.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrc import (
    ConstructionError, DecodeFailure, Fq, SystemParams, build_encoding,
    encoding_from_points, linalg, mbr_params, msr_params, shards,
)
from pmrc.shards import (
    decode_reconstruct, decode_repair, encode_blocks, helper_symbols, share_map,
)
from oracles import locate_then_erase_full, share_map_by_elimination


def _points(rng, params, q, zero_at=None):
    """n distinct random points of F_q (MSR: with distinct lambda = x^(k-1)),
    with 0 at index ``zero_at`` when given."""
    pts, lams = [], set()
    while len(pts) < params.n:
        x = 0 if len(pts) == zero_at else rng.randrange(1, q)
        lam = pow(x, params.k - 1, q) if params.mode.value == "msr" else x
        if x not in pts and lam not in lams:
            pts.append(x)
            lams.add(lam)
    return pts


def _code(params, q, systematic, zero_at=None, seed=0):
    pts = _points(random.Random(seed), params, q, zero_at)
    return encoding_from_points(params, Fq(q), pts, systematic)


def _stacked(enc, ids):
    return np.concatenate([share_map(enc)[i - 1] for i in ids])


INVERSE_CODES = [
    msr_params(k=2, n=5),
    msr_params(k=4, n=10),
    mbr_params(k=1, d=3, n=5),
    mbr_params(k=3, d=3, n=6),
    mbr_params(k=3, d=5, n=8),
    mbr_params(k=5, d=8, n=16),
    msr_params(k=9, n=17),  # k * alpha' = 72
    mbr_params(k=6, d=12, n=14),  # k * alpha' = 72
]


@pytest.mark.parametrize("params", INVERSE_CODES, ids=str)
@pytest.mark.parametrize("q", [257, 65521])
def test_reconstruct_inverse_is_the_elimination_one(params, q):
    """For random provider sets in random order, with and without a point
    at 0 (before, among or after the providers), in both bases."""
    rng = random.Random(f"{params}{q}")
    for trial in range(12):
        zero_at = rng.choice([None, 0, rng.randrange(params.n)])
        enc = _code(params, q, trial % 2 == 0, zero_at, seed=trial)
        _, layout = shards._share_map_layout(enc)
        for _ in range(4):
            ids = rng.sample(range(1, params.n + 1), params.k)
            got = shards._reconstruct_inverse(enc, ids, layout)
            assert np.array_equal(got, linalg.left_inverse(_stacked(enc, ids), q))


@pytest.mark.parametrize("slab", [1, 7, 64])
@pytest.mark.parametrize("params", INVERSE_CODES[-2:], ids=str)
def test_reconstruct_inverse_is_the_elimination_one_in_any_slabs(monkeypatch, params, slab):
    """The identity taken in slabs of ``slab`` rows, boundaries inside a
    share and between shares, gives the same left inverse, with and without
    a point at 0."""
    monkeypatch.setattr(shards, "_INVERSE_SLAB", slab)
    rng = random.Random(f"{params}{slab}")
    for trial, zero_at in enumerate([None, 0, 3]):
        enc = _code(params, 257, trial != 1, zero_at, seed=trial)
        _, layout = shards._share_map_layout(enc)
        ids = rng.sample(range(1, params.n + 1), params.k)
        got = shards._build_inverse(enc, ids, layout)  # not the memo: built in these slabs
        assert np.array_equal(got, linalg.left_inverse(_stacked(enc, ids), 257))


@pytest.mark.parametrize("params", [INVERSE_CODES[1], INVERSE_CODES[5]], ids=str)
def test_memoized_inverse_is_read_only_and_the_built_one(params):
    """Each (code, providers in order, basis) has its own memoized inverse,
    read-only, shared by every later call and equal to a fresh build."""
    rng = random.Random(str(params))
    for trial in range(4):
        enc = _code(params, 257, trial % 2 == 0, rng.choice([None, 0]), seed=trial)
        _, layout = shards._share_map_layout(enc)
        ids = rng.sample(range(1, params.n + 1), params.k)
        for order in (ids, ids[::-1], rng.sample(ids, len(ids))):
            got = shards._reconstruct_inverse(enc, order, layout)
            assert not got.flags.writeable
            assert np.array_equal(got, shards._build_inverse(enc, order, layout))
            assert shards._reconstruct_inverse(enc, list(order), layout) is got


@pytest.mark.parametrize("systematic", [True, False])
def test_second_reconstruct_builds_no_inverse(monkeypatch, systematic):
    """A second decode of 60-block MBR [16,5,8] sets read from the same
    providers (at least k * alpha' = 40 words, so its passes apply an
    inverse) builds none: clean from nodes 3..7, and at t = 1 from nodes
    3..9 with node 4 wrong in every block."""
    params = mbr_params(k=5, d=8, n=16)
    enc = _code(params, 257, systematic, seed=7)
    blocks = np.random.default_rng(7).integers(0, 256, size=(60, params.message_symbols))
    bodies = encode_blocks(blocks, enc)
    wrong = {**bodies, 4: (bodies[4] + 1) % 257}
    shards._memo_inverse.cache_clear()
    builds = []
    orig = shards._build_inverse

    def counted(enc, ids, layout):
        builds.append(ids)
        return orig(enc, ids, layout)

    monkeypatch.setattr(shards, "_build_inverse", counted)
    for shares, t in (({i: bodies[i] for i in range(3, 8)}, 0),
                      ({i: wrong[i] for i in range(3, 10)}, 1)):
        for call in range(2):
            before = len(builds)
            assert np.array_equal(decode_reconstruct(shares, enc, t), blocks)
            assert (len(builds) > before) == (call == 0), (t, builds)


def test_inverse_memo_keeps_a_bounded_size():
    """The memo keeps a bounded number of inverses of at most
    `_INVERSE_MEMO_BYTES` each, 32 MiB in all: MBR [40,12,30]'s (211 KB)
    is kept, the 1.5 MB one of the widest code CI runs, MSR [100,30,58] at
    q = 401, is built on every call and not kept."""
    assert shards._memo_inverse.cache_info().maxsize * shards._INVERSE_MEMO_BYTES <= 32 << 20
    shards._memo_inverse.cache_clear()
    enc = build_encoding(mbr_params(k=12, d=30, n=40), Fq(257))
    kept = shards._reconstruct_inverse(enc, list(range(3, 15)), None)
    assert kept.nbytes <= shards._INVERSE_MEMO_BYTES
    assert shards._memo_inverse.cache_info().currsize == 1
    enc = build_encoding(msr_params(k=30, n=100), Fq(401))
    ids = list(range(3, 33))
    wide = shards._reconstruct_inverse(enc, ids, None)
    assert wide.nbytes > shards._INVERSE_MEMO_BYTES and not wide.flags.writeable
    assert shards._reconstruct_inverse(enc, ids, None) is not wide
    assert shards._memo_inverse.cache_info().currsize == 1


@pytest.mark.parametrize("params,q,zero_at", [
    (msr_params(k=4, n=10), 257, None),
    (msr_params(k=3, n=7, beta=3), 257, 1),
    (msr_params(k=2, n=5, beta=3), 65521, None),
    (mbr_params(k=3, d=5, n=8), 257, None),
    (mbr_params(k=5, d=8, n=16, beta=3), 257, None),
    (mbr_params(k=4, d=6, n=9), 257, 2),  # node 3 at point 0 moves the layout
    (mbr_params(k=3, d=4, n=6, beta=3), 65521, 0),
], ids=str)
def test_systematic_map_and_layout_match_elimination(params, q, zero_at):
    """The map and layout the product-matrix build gives are the ones the
    elimination gives, bit for bit: they are on-disk format. `encode_blocks`,
    which copies the payload at the layout in runs and computes the rest,
    stores that map applied to every slice."""
    if zero_at is None:
        enc = build_encoding(params, Fq(q))
    else:
        enc = _code(params, q, True, zero_at, seed=5)
    amap, layout = shards._share_map_layout(enc)
    want_map, want_layout = share_map_by_elimination(enc)
    assert np.array_equal(amap, want_map)
    assert np.array_equal(layout, want_layout)
    blocks = np.random.default_rng(5).integers(0, q, size=(3, params.message_symbols))
    words = blocks.reshape(-1, params.slice_symbols)
    for i, body in encode_blocks(blocks, enc).items():
        want = words @ want_map[i - 1].astype(np.int64).T % q
        assert np.array_equal(body.reshape(-1, params.alpha_prime), want)


def _rref_rows(monkeypatch):
    rows = []
    orig = linalg._rref

    def counted(arr, q, stop_col):
        rows.append(arr.shape[0])
        return orig(arr, q, stop_col)

    monkeypatch.setattr(linalg, "_rref", counted)
    return rows


def test_wide_codes_run_no_elimination_past_d_rows(monkeypatch):
    """A t = 0 read of a systematic MBR [40,12,30] set from nodes 2..13,
    and a first systematic map of MBR [60,20,50], each ran one B'-sized
    elimination (294 and 810 rows); now none has more than d rows."""
    params = mbr_params(k=12, d=30, n=40)
    enc = build_encoding(params, Fq(257))
    blocks = np.random.default_rng(3).integers(0, 256, size=(4, params.message_symbols))
    bodies = encode_blocks(blocks, enc)
    shards._memo_inverse.cache_clear()  # every inverse is built, not found
    linalg.vandermonde_inverse.cache_clear()
    rows = _rref_rows(monkeypatch)
    shares = {i: bodies[i] for i in range(2, params.k + 2)}
    assert np.array_equal(decode_reconstruct(shares, enc, 0), blocks)
    assert rows and max(rows) <= params.d

    params = mbr_params(k=20, d=50, n=60)
    enc = build_encoding(params, Fq(257))
    shards._share_map_layout.cache_clear()
    rows.clear()
    amap = share_map(enc)
    assert amap.shape == (60, 50, params.slice_symbols)
    assert rows and max(rows) <= params.d


HYPOTHESIS_CODES = [
    SystemParams("msr", 5, 2, 2, 1),
    SystemParams("msr", 7, 3, 4, 1),
    SystemParams("msr", 7, 3, 4, 2),
    SystemParams("mbr", 7, 2, 3, 1),
    SystemParams("mbr", 8, 3, 5, 2),
    SystemParams("mbr", 7, 3, 3, 1),
]


def _outcome(decode):
    try:
        return decode()
    except DecodeFailure as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_structured_decode_matches_elimination_oracle(data):
    """decode_reconstruct and decode_repair give the same array or the same
    DecodeFailure text as `locate_then_erase_full`, which finds every pass's
    left inverse by `linalg.left_inverse`: both bases, q in {257, 65521},
    beta in {1, 2}, header points with and without 0, contact sets from
    nodes 1..k or drawn at random, located chunks of 1, 2, 3 or 2048 words,
    and three kinds of faults: scattered (each block its own wrong nodes, one
    symbol changed per wrong node) within and beyond t, and whole-shard
    damage from a drawn block on (block 0 clean when it is not block 0), on
    up to t + 1 nodes."""
    params = data.draw(st.sampled_from(HYPOTHESIS_CODES), label="code")
    q = data.draw(st.sampled_from([257, 65521]), label="q")
    zero_at = data.draw(st.one_of(st.none(), st.integers(0, params.n - 1)), label="zero at")
    systematic = data.draw(st.booleans(), label="systematic")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    try:
        enc = _code(params, q, systematic, zero_at, seed)
    except ConstructionError:
        return
    rng = np.random.default_rng(seed)
    nb = data.draw(st.integers(1, 4), label="blocks")
    bodies = encode_blocks(rng.integers(0, q, size=(nb, params.message_symbols)), enc)
    n = params.n
    repair = data.draw(st.booleans(), label="repair")
    need = params.d if repair else params.k
    top = n - 1 if repair else n
    t = data.draw(st.integers(0, (top - need) // 2), label="t")
    r_count = data.draw(st.integers(need + 2 * t, top), label="R")
    if repair:
        failed = data.draw(st.integers(1, n), label="failed")
        others = [i for i in range(1, n + 1) if i != failed]
        ids = data.draw(st.permutations(others), label="helpers")[:r_count]
        responses = {h: helper_symbols(bodies[h], failed, enc) for h in ids}
    else:
        ids = data.draw(st.permutations(range(1, n + 1)), label="providers")[:r_count]
        if data.draw(st.booleans(), label="lowest ids"):
            ids = list(range(1, r_count + 1))
        responses = {i: bodies[i].copy() for i in ids}
    damage = data.draw(st.sampled_from(["within", "beyond", "from a block on"]), label="damage")
    if damage == "from a block on":
        first = data.draw(st.integers(0, nb - 1), label="first damaged block")
        for i in rng.permutation(ids)[: int(rng.integers(0, t + 2))]:
            tail = responses[i][first:]
            tail[...] = (tail + rng.integers(1, q, tail.shape)) % q
    else:
        for b in range(nb):
            n_bad = int(rng.integers(t + 1, r_count + 1) if damage == "beyond"
                        else rng.integers(0, t + 1))
            for i in rng.permutation(ids)[:n_bad]:
                col = int(rng.integers(responses[i].shape[1]))
                responses[i][b, col] = (int(responses[i][b, col]) + int(rng.integers(1, q))) % q
    chunk = data.draw(st.sampled_from([1, 2, 3, 2048]), label="located chunk")

    def decode():
        if repair:
            return decode_repair(responses, failed, enc, t)
        return decode_reconstruct(responses, enc, t)

    with mock.patch.object(shards, "_LOCATE_CHUNK", chunk):
        got = _outcome(decode)
    with mock.patch.object(shards, "_locate_then_erase", locate_then_erase_full):
        want = _outcome(decode)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)


MASK_CODES = [
    mbr_params(k=3, d=3, n=9),  # d = k: no T symbols
    mbr_params(k=4, d=4, n=12),
    mbr_params(k=2, d=15, n=20),  # d much larger than k
    mbr_params(k=5, d=8, n=16),
]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_locate_mbr_flags_exactly_the_wrong_shares(data):
    """Within budget `_locate_mbr` returns exactly the wrong shares of every
    word, at R > k + 2t (s >= 1), providers in any order, with and without
    a point at 0, whether a share is wrong in its S symbols (0..k-1) only,
    its T symbols (k..d-1) only, or both."""
    params = data.draw(st.sampled_from(MASK_CODES), label="code")
    k, d, n = params.k, params.d, params.n
    zero_at = data.draw(st.one_of(st.none(), st.integers(0, n - 1)), label="zero at")
    enc = _code(params, 257, data.draw(st.booleans(), label="systematic"), zero_at,
                data.draw(st.integers(0, 3), label="points seed"))
    t = data.draw(st.integers(1, (n - k - 1) // 2), label="t")
    r_count = data.draw(st.integers(k + 2 * t + 1, n), label="R")
    ids = data.draw(st.permutations(range(1, n + 1)), label="providers")[:r_count]
    part = data.draw(st.sampled_from(["S", "T", "both"] if d > k else ["S"]), label="part")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    nb = 5
    bodies = encode_blocks(rng.integers(0, 256, size=(nb, params.message_symbols)), enc)
    y = np.stack([bodies[i] for i in ids], axis=1)
    want = np.zeros((nb, r_count), dtype=bool)
    for b in range(nb):
        for j in rng.permutation(r_count)[: int(rng.integers(0, t + 1))]:
            s_cols = rng.permutation(k)[: int(rng.integers(1, k + 1))]
            t_cols = k + rng.permutation(d - k)[: int(rng.integers(1, max(d - k, 1) + 1))]
            cols = {"S": s_cols, "T": t_cols, "both": np.r_[s_cols, t_cols]}[part]
            y[b, j, cols] = (y[b, j, cols] + rng.integers(1, 257, cols.size)) % 257
            want[b, j] = True
    assert np.array_equal(shards._locate_mbr(y, ids, enc, t), want)


def test_locate_mbr_peak_memory_of_one_chunk():
    """One located chunk, `_LOCATE_CHUNK` words of MBR [60,20,50] at R = 60
    and t = 4, each with four wrong shares, peaks below 6x the chunk's
    shares (decoding M and re-encoding it peaked at 10.3x)."""
    params = mbr_params(k=20, d=50, n=60)
    enc = build_encoding(params, Fq(257))
    nb = shards._LOCATE_CHUNK
    rng = np.random.default_rng(11)
    bodies = encode_blocks(rng.integers(0, 256, size=(nb, params.message_symbols)), enc)
    ids = list(range(1, params.n + 1))
    y = np.stack([bodies[i] for i in ids], axis=1)
    del bodies
    want = np.zeros((nb, params.n), dtype=bool)
    for b in range(nb):
        for j in rng.choice(params.n, 4, replace=False):
            y[b, j, b % params.d] = (y[b, j, b % params.d] + 1) % 257
            want[b, j] = True
    shards._locate_mbr(y[:1], ids, enc, 4)  # build the shared tables outside the trace
    tracemalloc.start()
    try:
        got = shards._locate_mbr(y, ids, enc, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 6 * y.nbytes, peak / y.nbytes


def test_locate_mbr_vote_holds_at_its_bound():
    """MBR [16,5,8] at t = 3 from R = k + 2t = 11 providers: nodes 1 and 2
    are wrong in a T symbol, which spoils rows 0 and 1 of P, and node 3 in
    its S symbols by the coefficients of prod (x - x_i) over nodes 4..7, so
    k - 1 = 4 of the 9 clean rows miss it. The other 5 flag it, more than
    t; had only k + t rows voted, 2 would."""
    params = mbr_params(k=5, d=8, n=16)
    enc = build_encoding(params, Fq(257))
    k, t, ids = params.k, 3, list(range(1, 12))
    blocks = np.random.default_rng(2).integers(0, 256, size=(3, params.message_symbols))
    bodies = encode_blocks(blocks, enc)
    y = np.stack([bodies[i] for i in ids], axis=1)
    y[:, 0, k] = (y[:, 0, k] + 1) % 257
    y[:, 1, -1] = (y[:, 1, -1] + 5) % 257
    error = np.polynomial.polynomial.polyfromroots([enc.point_of(i) for i in range(4, 8)])
    error = error.astype(np.int64) % 257  # low-first, k coefficients
    assert (linalg.vandermonde(enc.field, enc.points[:11], k) @ error % 257 == 0).sum() == k - 1
    y[:, 2, :k] = (y[:, 2, :k] + error) % 257
    want = np.zeros((3, 11), dtype=bool)
    want[:, :3] = True
    assert np.array_equal(shards._locate_mbr(y, ids, enc, t), want)
