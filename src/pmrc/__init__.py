"""Product-matrix regenerating codes, resilient to block errors and erasures.

One fixed encoding serves every feasible (s, t) budget: erasures and silent
corruptions during repair or reconstruction are absorbed by connecting to
s + 2t extra nodes at decode time, never by re-encoding. The codec's calls
(encode, repair and reconstruct, on many blocks at once) are in `pmrc.shards`.
"""

from .errors import (
    ConstructionError,
    DecodeFailure,
    InfeasibleError,
    ParameterError,
    PmrcError,
)
from .field import Fq, default_modulus, is_prime, smallest_prime_at_least
from .linalg import vandermonde
from .params import (
    CodeMode,
    EncodingMatrix,
    SystemParams,
    build_encoding,
    capacity_bound,
    encoding_from_points,
    feasible_pairs,
    mbr_params,
    msr_params,
)
from .simulator import AdversaryPlan, ClusterState, EventReport, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AdversaryPlan",
    "ClusterState",
    "CodeMode",
    "ConstructionError",
    "DecodeFailure",
    "EncodingMatrix",
    "EventReport",
    "Fq",
    "InfeasibleError",
    "ParameterError",
    "PmrcError",
    "SystemParams",
    "build_encoding",
    "capacity_bound",
    "default_modulus",
    "encoding_from_points",
    "feasible_pairs",
    "is_prime",
    "mbr_params",
    "msr_params",
    "run_scenario",
    "smallest_prime_at_least",
    "vandermonde",
]
