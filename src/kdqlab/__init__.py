"""Complex joint quasi-probabilities for pre- and post-selected quantum systems."""

from .qcore import (
    MAX_DIM,
    TOL,
    DimensionMismatchError,
    Operator,
    OrthonormalBasis,
    StateVector,
    bloch_state,
    complete_basis,
    expectation,
    inner,
    pauli,
    post_selection_basis,
    projector,
    tensor_op,
    tensor_state,
)
from .kdq import (
    ActionSpectrum,
    KDDistribution,
    NegativityReport,
    PostSelectionError,
    ReconstructionError,
    Transformation,
    is_half_periodic,
    kd_joint,
    marginals,
    negativity,
    overlap_direct,
    overlap_from_kd,
    reconstruct_state,
    unitary_from_actions,
    weak_value,
)
from .scenarios import (
    Check,
    ScenarioReport,
    SCENARIO_NAMES,
    bell_scenario,
    bell_state,
    build,
    cheshire_cat,
    hardy,
    leggett_garg,
    peres_mermin_swap,
    three_box,
)
from .weaksim import (
    PointerConfig,
    PointerStatistics,
    SampleBatch,
    conditional_pointer_mean,
    conditional_pointer_mean_quadrature,
    observable_from_eigenvalues,
    post_selection_probability,
    sample,
    sample_moments,
)
from .scenario_file import ScenarioFile, ScenarioFileError, load_scenario_file, parse_scenario_text

__version__ = "0.1.0"
