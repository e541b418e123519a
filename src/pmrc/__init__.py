"""Product-matrix regenerating codes, resilient to block errors and erasures.

One fixed encoding serves every feasible (s, t) budget: erasures and silent
corruptions during repair or reconstruction are absorbed by connecting to
s + 2t extra nodes at decode time, never by re-encoding.
"""

from .decoding import Response
from .errors import (
    ConstructionError,
    DecodeFailure,
    InconsistentSystemError,
    InfeasibleError,
    ParameterError,
    PmrcError,
    SingularMatrixError,
)
from .field import Fq, default_modulus, is_prime, smallest_prime_at_least
from .linalg import vandermonde
from .perblock import (
    NodeShare,
    mbr_encode,
    mbr_helper_symbol,
    mbr_reconstruct,
    mbr_repair,
    msr_encode,
    msr_helper_symbol,
    msr_reconstruct,
    msr_repair,
)
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
    "InconsistentSystemError",
    "InfeasibleError",
    "NodeShare",
    "ParameterError",
    "PmrcError",
    "Response",
    "SingularMatrixError",
    "SystemParams",
    "build_encoding",
    "capacity_bound",
    "default_modulus",
    "encoding_from_points",
    "feasible_pairs",
    "is_prime",
    "mbr_encode",
    "mbr_helper_symbol",
    "mbr_params",
    "mbr_reconstruct",
    "mbr_repair",
    "msr_encode",
    "msr_helper_symbol",
    "msr_params",
    "msr_reconstruct",
    "msr_repair",
    "run_scenario",
    "smallest_prime_at_least",
    "vandermonde",
]
