"""Product-matrix regenerating codes, resilient to block errors and erasures.

One fixed encoding serves every feasible (s, t) budget: erasures and silent
corruptions during repair or reconstruction are absorbed by connecting to
s + 2t extra nodes at decode time, never by re-encoding.
"""

from .decoding import (
    Response,
    consistency_reconstruct,
    rs_decode_ee,
)
from .errors import (
    ConstructionError,
    DecodeFailure,
    FieldMismatchError,
    InconsistentSystemError,
    InfeasibleError,
    ParameterError,
    PmrcError,
    SingularMatrixError,
)
from .field import Fq, default_modulus, is_prime, smallest_prime_at_least
from .linalg import MatrixFq, vandermonde
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
    build_psi_mbr,
    build_psi_msr,
    capacity_bound,
    encoding_from_points,
    feasible_pairs,
    mbr_params,
    msr_params,
    resilience_feasible,
)
from .simulator import (
    AdversaryPlan,
    ClusterState,
    EventReport,
    adversary_patterns,
    exhaustive_resilience_check,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryPlan",
    "ClusterState",
    "CodeMode",
    "ConstructionError",
    "DecodeFailure",
    "EncodingMatrix",
    "EventReport",
    "FieldMismatchError",
    "Fq",
    "InconsistentSystemError",
    "InfeasibleError",
    "MatrixFq",
    "NodeShare",
    "ParameterError",
    "PmrcError",
    "Response",
    "SingularMatrixError",
    "SystemParams",
    "adversary_patterns",
    "build_encoding",
    "build_psi_mbr",
    "build_psi_msr",
    "capacity_bound",
    "consistency_reconstruct",
    "default_modulus",
    "encoding_from_points",
    "exhaustive_resilience_check",
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
    "resilience_feasible",
    "rs_decode_ee",
    "run_scenario",
    "smallest_prime_at_least",
    "vandermonde",
]
