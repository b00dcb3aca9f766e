"""Differentially private attention surrogates via Gaussian sampling.

The library computes the row-normalized attention map of a Gram matrix
``X X^T``, releases a private surrogate of that Gram matrix by re-sampling
its covariance (the Gaussian sampling mechanism), and ships a verification
harness that measures every step of the accompanying analysis: the
deterministic attention perturbation chain, neighbor sensitivity, mechanism
utility scaling, and the (eps, delta) privacy tail of the loss variable.
"""

from .attention import (
    Activation,
    ChainReport,
    RequirementCheck,
    attention_matrix,
    entrywise_activation,
    perturbation_chain_check,
    theoretical_error_bound,
)
from .dataset import (
    Dataset,
    NeighborPair,
    SensitivityBound,
    generate_good_dataset,
    make_neighbor,
    sensitivity_bound,
)
from .errors import (
    DpAttnError,
    Infeasible,
    NotPsd,
    Overflow,
    ParamRange,
    SingularMatrix,
)
from .linalg import SymMatrix
from .mechanism import (
    MechanismOutput,
    gaussian_sampling_mechanism,
    required_samples,
    utility_radius,
)
from .pipeline import (
    DpAttentionReport,
    DpParams,
    NeighborPrivacyReport,
    dp_attention,
    verify_neighbor_privacy,
)
from .privacy import (
    CertificateReport,
    PrivacyLoss,
    dp_certificate,
    neighbor_loss,
    privacy_loss_samples,
    sensitivity_budget,
    wilson_upper,
)

__version__ = "0.1.0"
