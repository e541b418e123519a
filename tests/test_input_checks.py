"""Input checks of the public calls: a bad argument is a ParameterError
that says what is wrong, never a crash or a wrong answer."""

import numpy as np
import pytest

from pmrc import (
    ClusterState, CodeMode, Fq, ParameterError, SystemParams, build_encoding,
    linalg, msr_params, run_scenario,
)
from pmrc.decoding import Response, consistency_reconstruct, rs_decode_ee
from pmrc.perblock import msr_helper_symbol
from pmrc.shards import ShardHeader, blocks_to_bytes, encode_blocks, write_shard

PARAMS = msr_params(k=2, n=5)
ENC = build_encoding(PARAMS, Fq(257))


def _failed_node_share():
    cluster = ClusterState(ENC, np.zeros((1, PARAMS.message_symbols), dtype=np.int64))
    cluster.fail(2)
    cluster.share(2, 0)


CASES = [
    (lambda tmp: write_shard(tmp / "x.shard", ShardHeader(ENC, 1, 2, 4),
                             np.zeros((2, PARAMS.alpha + 1), dtype=np.uint16)),
     "body shape (2, 2) != (blocks=2, alpha=1)"),
    (lambda tmp: blocks_to_bytes(np.zeros((1, 2), dtype=np.uint16), 3),
     "data_len exceeds decoded payload"),
    (lambda tmp: encode_blocks(np.zeros((1, PARAMS.message_symbols + 1), dtype=np.int64), ENC),
     "payload block width must be B"),
    (lambda tmp: msr_helper_symbol(Response(1, (0, 0)), 2, ENC),
     "helper share has wrong length"),
    (lambda tmp: _failed_node_share(), "node 2 is failed"),
    (lambda tmp: run_scenario({"mode": "msr", "k": 2, "n": 5, "events": [{"node": 1}]}),
     "scenario: event 0 needs an 'op'"),
    (lambda tmp: rs_decode_ee([1, 2], [1, 2, 3], 1, 0, Fq(257)),
     "one value per evaluation point required"),
    (lambda tmp: rs_decode_ee([1, 2, 3], [1, 2, 1], 1, 0, Fq(257)),
     "evaluation points must be distinct"),
    (lambda tmp: rs_decode_ee([1, 2, 3], [1, 2, 3], 1, -1, Fq(257)),
     "t_max must be nonnegative"),
    (lambda tmp: rs_decode_ee([1, None, 3], [1, 2, 3], 2, 1, Fq(257)),
     "2 received symbols cannot tolerate 1 errors on a length-2 message"),
    (lambda tmp: consistency_reconstruct([], 1, -1, None, None), "t_max must be nonnegative"),
    (lambda tmp: Fq(257).pow(2, -1), "exponent must be nonnegative"),
    (lambda tmp: SystemParams(CodeMode.MSR, 5, 2, 2, 0), "beta must be >= 1"),
    (lambda tmp: linalg.inverse(np.zeros((2, 3), dtype=np.int64), 257),
     "only square matrices have inverses"),
    (lambda tmp: linalg.vandermonde(Fq(257), (1, 2), -1), "width must be nonnegative"),
]


# each case is named by its message; a repeated one also by its row
IDS = [m if m not in [n for _, n in CASES[:i]] else f"{m} (row {i})"
       for i, (_, m) in enumerate(CASES)]


@pytest.mark.parametrize("call,message", CASES, ids=IDS)
def test_bad_input_is_a_parameter_error(tmp_path, call, message):
    with pytest.raises(ParameterError) as err:
        call(tmp_path)
    assert str(err.value) == message
