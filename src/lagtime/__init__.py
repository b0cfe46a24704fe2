"""Data-driven analysis of time-series dynamics.

Estimators for transfer-operator decompositions (linear, kernelized, and
density-ansatz variants), Markov state models, hidden Markov models, sparse
dynamics identification, clustering, and the synthetic benchmark systems the
estimators are validated on. Data convention throughout: matrices carry one
frame per row.
"""

from . import (
    basis,
    clustering,
    covariance,
    datasets,
    decomposition,
    errors,
    hmm,
    kernels,
    markov,
    numerics,
    serialization,
    sindy,
)
from .basis import (
    ChainedFeatures,
    CylinderEmbedding,
    FeatureMap,
    IdentityFeatures,
    IndicatorFeatures,
    LinearFeatures,
    MonomialFeatures,
    RandomFeatureNet,
    Whitener,
    WithConstant,
    indicator_features,
)
from .clustering import ClusteringModel, kmeans_assign, kmeans_fit
from .covariance import (
    CovarianceAccumulator,
    CovarianceModel,
    covariances_from_pairs,
    estimate_covariances,
    lagged_pairs,
)
from .decomposition import (
    CovarianceKoopmanModel,
    KVADModel,
    TransferOperatorModel,
    dmd_fit,
    edmd_fit,
    kernel_cca_fit,
    kernel_edmd_fit,
    kvad_fit,
    kvad_score,
    tica_fit,
    vamp_fit,
    vamp_score,
    vamp_score_cv,
)
from .errors import (
    ConvergenceFailure,
    DegenerateInput,
    DivergenceError,
    InsufficientData,
    InvalidArgument,
    LagtimeError,
    NumericalDegeneracy,
    UndefinedScore,
)
from .hmm import (
    DiscreteOutputModel,
    GaussianOutputModel,
    HiddenMarkovModel,
    baum_welch,
    forward_backward,
    init_from_msm,
    viterbi,
)
from .kernels import GaussianKernel, Kernel, gram_matrix
from .markov import (
    MarkovStateModel,
    TransitionCountModel,
    coherence_score,
    count_transitions,
    largest_connected_submodel,
    mfpt,
    msm_mle,
    msm_to_koopman,
    sample_markov_chain,
    spectral_analysis,
    stationary_distribution,
    timescales,
)
from .serialization import from_document, load_model, save_model, to_document
from .sindy import SINDyModel, sindy_fit, sindy_predict, sindy_score, sindy_simulate

__version__ = "0.1.0"
