"""Shared helpers for the test suite: mode dispatch, fault patterns, a
simulator consistency sweep and an over-budget scenario."""

import random
from itertools import combinations

from pmrc import (
    CodeMode,
    Fq,
    build_encoding,
    encoding_from_points,
    mbr_encode,
    mbr_helper_symbol,
    mbr_reconstruct,
    mbr_repair,
    msr_encode,
    msr_helper_symbol,
    msr_reconstruct,
    msr_repair,
)
from pmrc.decoding import Response
from pmrc.shards import encode_blocks


def mode_ops(mode):
    if mode is CodeMode.MSR:
        return msr_encode, msr_helper_symbol, msr_repair, msr_reconstruct
    return mbr_encode, mbr_helper_symbol, mbr_repair, mbr_reconstruct


def psi_m_basis(enc):
    """The same code in the product-matrix basis, where node i stores
    psi_i @ M of the payload's operand M: a flags-0 shard set's code."""
    return encoding_from_points(enc.params, enc.field, enc.points, systematic=False)


def make_code(params, q):
    enc = build_encoding(params, Fq(q))
    encode, helper, repair, reconstruct = mode_ops(params.mode)

    def encode_payload(payload):
        return encode(payload, enc)

    return enc, encode_payload, helper, repair, reconstruct


def random_payload(rng, params, q):
    return tuple(rng.randrange(q) for _ in range(params.message_symbols))


def corrupt_symbols(rng, symbols, q):
    """Replace every symbol with a guaranteed-different random value."""
    return tuple((v + 1 + rng.randrange(q - 1)) % q for v in symbols)


def fault_patterns(positions, s, t):
    """All disjoint (erase_set, corrupt_set) pairs with at most s erasures and
    at most t corruptions over the given positions."""
    out = []
    for ne in range(s + 1):
        for er in combinations(positions, ne):
            rest = [p for p in positions if p not in er]
            for nc in range(t + 1):
                for co in combinations(rest, nc):
                    out.append((frozenset(er), frozenset(co)))
    return out


def apply_faults(rng, responses, erase, corrupt, q):
    out = []
    for r in responses:
        if r.node_id in erase:
            out.append(Response(r.node_id, None))
        elif r.node_id in corrupt:
            out.append(Response(r.node_id, corrupt_symbols(rng, r.symbols, q)))
        else:
            out.append(r)
    return out


def seeded(*parts):
    return random.Random(":".join(str(p) for p in parts))


def verify_consistent(cluster):
    """Every alive share of a simulator cluster equals the encoding of its
    payloads."""
    truth = encode_blocks(cluster.payloads, cluster.enc)
    return all(
        [list(cluster.share(node, b)) for b in cluster.blocks] == truth[node].tolist()
        for node in cluster.alive()
    )


# corruption beyond t where the decoder has redundancy (t = 1) to detect it
OVER_BUDGET = {
    "mode": "mbr", "k": 2, "d": 3, "n": 6, "blocks": 3,
    "events": [
        {"op": "reconstruct", "t": 1, "corrupt": [1, 2, 3]},
        {"op": "fail", "node": 4},
        {"op": "repair", "node": 4, "t": 1, "corrupt": [1, 2, 3]},
    ],
}
