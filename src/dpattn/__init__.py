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
    ChainStage,
    attention_error,
    attention_matrix,
    entrywise_activation,
    perturbation_chain_check,
    theoretical_error_bound,
)
from .dataset import (
    Dataset,
    NeighborPair,
    SensitivityBound,
    SensitivityMeasurement,
    check_good,
    generate_good_dataset,
    gram,
    make_neighbor,
    sensitivity_bound,
    sensitivity_measured,
)
from .errors import (
    DimMismatch,
    DpAttnError,
    Infeasible,
    InvalidMatrix,
    NotPsd,
    Overflow,
    ParamRange,
    PreconditionFailed,
    SingularMatrix,
)
from .linalg import (
    SpectralDecomposition,
    SymMatrix,
    is_psd,
    loewner_within,
    psd_inv_sqrt,
    psd_project,
    psd_sqrt,
    relative_frobenius_distance,
    sym_eigendecompose,
)
from .mechanism import (
    MechanismOutput,
    gaussian_sampling_mechanism,
    required_samples,
    sample_gaussian,
    utility_radius,
)
from .pipeline import (
    DpAttentionReport,
    DpParams,
    NeighborPrivacyReport,
    RequirementCheck,
    dp_attention,
    verify_neighbor_privacy,
)
from .privacy import (
    CertificateReport,
    McTail,
    PrivacySpectrum,
    SensitivityBudget,
    SubExpParams,
    dp_certificate,
    expected_privacy_loss,
    mc_privacy_verify,
    privacy_loss_sample,
    privacy_loss_samples,
    privacy_spectrum,
    sensitivity_budget,
    sub_exp_params,
    tail_bound,
    wilson_upper,
)

__version__ = "0.1.0"
