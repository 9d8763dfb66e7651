"""Jump-conditioned feedback master equations and counting statistics.

The package models open quantum systems whose control depends on the last
detected quantum jump.  The joint dynamics of system and jump memory is a
Lindbladian on an extended space; on top of it sit deterministic evolution,
stationary states, full counting statistics of weighted transitions, and
stochastic trajectory sampling.
"""

def _apply_thread_env():
    # Opt-in thread cap for the CLI: exported to the BLAS runtimes, which
    # only honor it if numpy has not been loaded yet in this process.
    import os

    threads = os.environ.get("JUMPFEEDBACK_THREADS")
    if threads:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, threads)


_apply_thread_env()
del _apply_thread_env

from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    DimensionError,
    JumpFeedbackError,
    PositivityError,
    ResolventError,
    SettingError,
    StencilError,
    ValidationError,
)
from .superops import (
    Superoperator,
    drazin,
    steady_state,
    trace_vector,
    unvec,
    vec,
)
from .model import (
    FeedbackModel,
    feedback_model,
    no_feedback,
    validate,
)
from .hybrid import (
    GeneratorStack,
    HybridState,
    embed,
    extended_liouvillian,
    marginals,
    validate_hybrid_state,
)
from .dynamics import (
    EvolutionResult,
    evolve_extended,
    feedback_steady_state,
    memory_distribution_rate,
)
from .fcs import (
    CorrelationSamples,
    CountingWeights,
    SpectrumSamples,
    average_current,
    current_superop,
    noise_background,
    noise_by_quadrature,
    power_spectrum,
    spectral_gap,
    steady_noise,
    tilted_cumulants,
    tilted_generator,
    two_point_correlation,
)
from .models import (
    MASER_CHANNELS,
    QUBIT_CHANNELS,
    MaserParams,
    QubitParams,
    maser_analytic,
    maser_model,
    qubit_analytic,
    qubit_baseline_model,
    qubit_cooling_model,
    work_weights,
)
from .trajectories import (
    McEstimate,
    TrajectoryRecord,
    charge_from_record,
    mc_estimate,
    sample_trajectory,
    trajectory_stream,
)

__version__ = "0.1.0"
