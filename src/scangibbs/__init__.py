"""Exact spectral and mixing analysis of Gibbs sampler scan orders."""

from .model import (
    BipartiteModel,
    ModelError,
    build_dbm,
    build_hardcore_complete_bipartite,
    build_rbm,
    model_from_dict,
    model_from_json,
    random_bipartite_model,
)
from .chain import (
    Kernel,
    StateSpace,
    adjoint,
    enumerate_state_space,
    reversibilization,
)
from .spectral import (
    SpectralReport,
    deviation_norm,
    relaxation_time,
    verify_theorem1,
)
from .mixing import (
    MixingReport,
    exact_mixing_time,
    verify_mixing_bounds,
)
from .lumped import (
    lumped_as_kernel,
    lumped_ru_kernel,
    lumped_state_space,
)
from .coupling import (
    CouplingReport,
    grand_coupling_time,
    monotonicity_precondition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
