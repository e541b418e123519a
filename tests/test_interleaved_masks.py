"""Words whose distinct masks leave the same rows, interleaved.

`shards._locate_then_erase` groups a located chunk's words by their rows:
the first ``need`` positions their masks leave clean. Distinct masks can
leave the same rows, and then one row set holds the words of several masks,
which interleave in word order. A pass must read exactly those words, and
file each result under its own word, also when an earlier pass has already
taken a word that lies between them.

The two constructions below put word 7 between the words of one row set and
let the first pass take it. A pass that reads the row set's words as one
contiguous run decodes word 7 in word 10's slot, and the result is a wrong
block 10 with no error. The hypothesis test draws such row-sharing mask
pools at random and compares the engine with the truth and with
`oracles.locate_then_erase_full`.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pmrc import Fq, build_encoding, linalg, msr_params
from pmrc import shards
from pmrc.shards import (
    decode_reconstruct, decode_repair, encode_blocks, helper_symbols, poly_decode,
)
from oracles import locate_then_erase_full


def _damaged(words: dict[int, np.ndarray], wrong: list[set[int]], q: int) -> dict:
    """Position r's (nwords, w) symbols with symbol 0 of word j changed at
    every position ``wrong[j]`` names (positions in the dict's order)."""
    out = {i: y.astype(np.int64) for i, y in words.items()}
    ids = list(out)
    for j, positions in enumerate(wrong):
        for r in positions:
            out[ids[r]][j, 0] = (out[ids[r]][j, 0] + 1) % q
    return out


def test_reconstruct_of_interleaved_masks_is_exact():
    """MSR [20,8,14] from nodes 1..14 at t = 3, at most 3 wrong shares per
    block: masks {0, 1, 12} and {0, 1, 13} both leave rows 2..9, and their
    words 6, 10 and 8, 9 enclose word 7, which the first pass takes. Before
    the mend block 10 came back as block 7's payload."""
    params = msr_params(k=8, n=20)
    enc = build_encoding(params)
    q = enc.field.q
    blocks = np.random.default_rng(10).integers(0, 256, size=(11, params.message_symbols))
    wrong = [set(), *[{5, 6, 7}] * 5, {0, 1, 12}, {11, 12, 13}, *[{0, 1, 13}] * 2,
             {0, 1, 12}]
    bodies = encode_blocks(blocks, enc)
    shares = _damaged({i: bodies[i] for i in range(1, 15)}, wrong, q)
    assert np.array_equal(decode_reconstruct(shares, enc, 3), blocks)


def test_repair_of_interleaved_masks_is_exact():
    """The same shape for repair: MSR [20,8,14], node 20 rebuilt from 18
    helpers at t = 2; masks {0, 15} and {0, 16} both leave rows 1..14, and
    word 7 ({16, 17}) lies between their words."""
    params = msr_params(k=8, n=20)
    enc = build_encoding(params)
    q = enc.field.q
    blocks = np.random.default_rng(11).integers(0, 256, size=(11, params.message_symbols))
    wrong = [set(), *[{5, 6}] * 5, {0, 15}, {16, 17}, *[{0, 16}] * 2, {0, 15}]
    bodies = encode_blocks(blocks, enc)
    symbols = {h: helper_symbols(bodies[h], 20, enc) for h in range(1, 19)}
    symbols = _damaged(symbols, wrong, q)
    assert np.array_equal(decode_repair(symbols, 20, enc, 2), bodies[20])


def _masks(n_pos: int, need: int, t: int, data) -> list[set[int]]:
    """Each word's mask, from a pool of four: A leaves rows that hold
    position 0; B1 and B2 share a head of t - 1 positions, so both leave
    the same rows; C leaves the first ``need`` positions, so the first pass
    (word 0 is clean) takes it, as it takes a clean word. The words are
    word 0, more A words than there are B words (so A's rows are the most
    common and B's run over their own words), then B1, an interleaving of B2
    words with C and clean words, B1 words, and a few more from the pool."""
    head = set(range(t - 1))
    a, c = {t - 1}, {n_pos - 1}
    b1, b2 = head | {n_pos - 2}, head | {n_pos - 3}
    gaps = data.draw(st.lists(st.sampled_from([set(), c]), min_size=1, max_size=2),
                     label="gaps")
    middle = data.draw(st.permutations(
        [b2] * data.draw(st.integers(1, 3), label="B2 words") + gaps), label="middle")
    extra = data.draw(st.lists(st.sampled_from([set(), a, b1, b2, c]), max_size=4),
                      label="extra")
    tail = [b1] + middle + [b1] * len(gaps) + extra
    return [set()] + [a] * (len(tail) + 1) + tail


def _engine_and_oracle(decode):
    """decode() with `_locate_then_erase` and with `locate_then_erase_full`."""
    got = decode()
    with mock.patch.object(shards, "_locate_then_erase", locate_then_erase_full):
        return got, decode()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interleaved_masks_decode_exactly(data):
    """Words whose distinct masks share rows, interleaved with words an
    earlier pass takes (`_masks`): `poly_decode` (2 message symbols over R =
    2 + 2t points, t = 2 or 3) and `decode_reconstruct` (MSR [7,3,4] from
    nodes 1..7 at t = 2, β = 1 and 2) return the truth, as
    `locate_then_erase_full` does."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    f = Fq(257)
    if data.draw(st.booleans(), label="poly"):
        t = data.draw(st.integers(2, 3), label="t")
        n_pos, need = 2 + 2 * t, 2
        masks = _masks(n_pos, need, t, data)
        points = list(range(1, n_pos + 1))
        truth = rng.integers(0, 257, size=(need, len(masks)))
        y = linalg.matmul_mod(linalg.vandermonde(f, points, need), truth, 257)
        y = y.T.astype(np.int64)
        for j, mask in enumerate(masks):
            y[j, list(mask)] = (y[j, list(mask)] + rng.integers(1, 257, size=len(mask))) % 257
        got, want = _engine_and_oracle(lambda: poly_decode(y.T, points, need, t, f))
    else:
        t, beta = 2, data.draw(st.sampled_from([1, 2]), label="beta")
        params = msr_params(k=3, n=7, beta=beta)
        enc = build_encoding(params, f)
        masks = _masks(7, 3, t, data)
        nb = -(-len(masks) // beta)
        masks += [set()] * (nb * beta - len(masks))
        truth = rng.integers(0, 257, size=(nb, params.message_symbols))
        # word j is slice j % beta of block j // beta
        slices = {i: y.reshape(nb * beta, -1) for i, y in encode_blocks(truth, enc).items()}
        shares = {i: y.reshape(nb, -1) for i, y in _damaged(slices, masks, 257).items()}
        got, want = _engine_and_oracle(lambda: decode_reconstruct(shares, enc, t))
    assert np.array_equal(got, truth)
    assert np.array_equal(want, truth)
