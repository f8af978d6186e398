"""KAM linearization of circle-diffeomorphism transition cocycles.

The pieces, bottom up: truncated Laurent series on annuli with one-sided
weighted norms (:mod:`circlekam.series`); analytic circle diffeomorphisms in
multiplicative form with expansion, rotation numbers, composition, and
inversion (:mod:`circlekam.circle`); covering nerves, unitary flat bundles,
and the per-mode coboundary solver (:mod:`circlekam.cocycle`); the iteration
engine with its schedule and certificates (:mod:`circlekam.engine`); scenario
builders and the simultaneous-linearization extraction
(:mod:`circlekam.scenarios`); and the CLI (:mod:`circlekam.cli`).
"""

from types import ModuleType as _ModuleType

from .circle import (
    CircleDiffeo,
    RotationConvergenceWarning,
    apply_inverse,
    compose,
    eval_diffeo,
    expand_detailed,
    identity_map,
    invert,
    rotation,
    rotation_number,
    unit_circle,
)
from .cocycle import (
    DiophantineFit,
    Edge,
    ModeCochainSolution,
    Nerve,
    TransitionSystem,
    UnitaryFlatBundle,
    amplification_spectrum,
    fit_diophantine,
    holonomy,
    solve_mode,
)
from .engine import (
    Conjugacy,
    GateReport,
    IterationTrace,
    KamParams,
    RunResult,
    StepReport,
    alpha_vs_rotation,
    gate_check,
    kam_step,
    run,
    schedule,
)
from .errors import (
    AnnulusDomainError,
    CertificateError,
    CircleKamError,
    CoboundaryError,
    ConvergenceViolationError,
    ExtractionError,
    InsufficientSamplesError,
    InversionDivergedError,
    NerveError,
    NestingError,
    NotACircleMapError,
    PathError,
    ResonantModeError,
    ScheduleViolationError,
    SchemaError,
    TruncationError,
    UnivalenceError,
    ValidationError,
    WindingError,
)
from .scenarios import (
    Scenario,
    SimultaneousResult,
    build_genus2,
    build_single_chart,
    conjugated_rotation,
    extract_simultaneous,
)
from .series import (
    LaurentSeries,
    coeffs_from_circle,
    decay_check,
    empirical_sup_norm,
    eval_series,
    log_derivative_majorant,
    majorant_norm,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
