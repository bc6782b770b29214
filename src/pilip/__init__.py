"""pilip: certified brackets for Lipschitz p-summing norms of multilinear
operators, with Pietsch-style domination certificates, Hilbert-Schmidt
coincidence checks, and the associated Chevet-Saphar-type tensor norm."""

__version__ = "0.1.0"

from .bounds import BoundReport
from .formnorm import (
    config_denominator,
    denominator_upper,
    operator_norm,
    rank_one_form,
)
from .hilbert_schmidt import (
    KhintchineConstant,
    basis_config_lower,
    basis_configuration,
    hs_norm,
    khintchine_constant,
    verify_sandwich,
)
from .summing import (
    Budget,
    FactorizationBundle,
    PietschCertificate,
    build_factorization,
    estimate_pi_lip,
    estimate_pi_lip_poly,
    lower_bound_config,
    pietsch_upper_lp,
    restrict_operator,
    symmetrize_kernel,
)
from .tensor_norm import (
    DualWitness,
    MixedTensor,
    Representation,
    check_delta_epsilon_bound,
    conjugate_exponent,
    delta_p_norm,
    dp_lower_dual,
    dp_upper,
    epsilon_norm_diff,
)
from .tensors import (
    DenseTensor,
    MultilinearOperator,
    NormSpec,
    PairConfiguration,
    SegrePoint,
    ShapeError,
    elementary_tensor,
    eval_operator,
    flatten,
    vector_norm,
)

__all__ = [
    "__version__",
    "BoundReport",
    "Budget",
    "DenseTensor",
    "DualWitness",
    "FactorizationBundle",
    "KhintchineConstant",
    "MixedTensor",
    "MultilinearOperator",
    "NormSpec",
    "PairConfiguration",
    "PietschCertificate",
    "Representation",
    "SegrePoint",
    "ShapeError",
    "basis_config_lower",
    "basis_configuration",
    "build_factorization",
    "check_delta_epsilon_bound",
    "config_denominator",
    "conjugate_exponent",
    "delta_p_norm",
    "denominator_upper",
    "dp_lower_dual",
    "dp_upper",
    "elementary_tensor",
    "epsilon_norm_diff",
    "estimate_pi_lip",
    "estimate_pi_lip_poly",
    "eval_operator",
    "flatten",
    "hs_norm",
    "khintchine_constant",
    "lower_bound_config",
    "operator_norm",
    "pietsch_upper_lp",
    "rank_one_form",
    "restrict_operator",
    "symmetrize_kernel",
    "vector_norm",
    "verify_sandwich",
]
