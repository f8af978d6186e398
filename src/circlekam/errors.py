"""Exception hierarchy.

Two families matter downstream: ``ValidationError`` covers malformed inputs
and broken structural invariants (CLI exit code 2), ``CertificateError``
covers mathematical failures of the iteration, its certificates, and its
solvers (CLI exit code 3). Everything derives from ``CircleKamError``.

Each class names its failure in CLI reports by ``outcome``, and ``fields``
maps the further report keys to the attributes that fill them.
"""

from __future__ import annotations


class CircleKamError(Exception):
    """Base class for all library errors."""

    outcome = "validation_error"
    fields: dict = {}


class ValidationError(CircleKamError):
    """Malformed input, broken invariant, or bad serialization."""


class AnnulusDomainError(ValidationError):
    """Point or radius outside the annulus of validity."""


class InsufficientSamplesError(ValidationError):
    """Too few samples for the requested truncation degree."""


class NotACircleMapError(ValidationError):
    """Samples violate the reality symmetry of a circle diffeomorphism."""


class WindingError(ValidationError):
    """Nonzero winding of f(w)/w: no global log branch exists."""


class NerveError(ValidationError):
    """Bad covering-nerve combinatorics (disconnected, duplicate labels...)."""


class PathError(NerveError):
    """Edge walk is not a closed loop in the nerve."""


class SchemaError(ValidationError):
    """JSON document does not match the scenario / series schema."""


class CertificateError(CircleKamError):
    """A mathematical certificate or solver failed."""

    outcome = "certificate_failure"


class NestingError(CertificateError):
    """Annulus-fit precondition for composition failed."""

    fields = {"inclusion": "inclusion"}

    def __init__(self, message: str, inclusion: str = ""):
        super().__init__(message)
        self.inclusion = inclusion


class UnivalenceError(CertificateError):
    """Derivative bound too large: injectivity cannot be certified."""


class InversionDivergedError(CertificateError):
    """Pointwise fixed-point inversion failed to converge or to certify."""


class ResonantModeError(CertificateError):
    """A mode-n coboundary system is resonant: some loop has trivial
    holonomy after n-fold twisting."""

    outcome = "resonant_mode"
    fields = {"mode": "mode", "loop": "loop"}

    def __init__(self, mode: int, loop=None, holonomy: float = 0.0, message: str = ""):
        self.mode = mode
        self.loop = list(loop) if loop is not None else []
        self.holonomy = holonomy
        if not message:
            message = (
                f"resonant mode n={mode}: loop {self.loop} has n*holonomy "
                f"= {holonomy!r} = 0 mod 2pi"
            )
        super().__init__(message)


class CoboundaryError(CertificateError):
    """Mode data is not a coboundary within tolerance (condition on the
    solvability of the per-mode linear system failed)."""

    outcome = "coboundary_failure"
    fields = {"mode": "mode"}

    def __init__(self, mode: int, residual: float, norm: float, message: str = ""):
        self.mode = mode
        self.residual = residual
        self.norm = norm
        if not message:
            message = (
                f"coboundary condition failed at mode n={mode}: "
                f"residual {residual:.3e} vs data norm {norm:.3e}"
            )
        super().__init__(message)


class ScheduleViolationError(CertificateError):
    """A per-step certificate required by the iteration schedule failed:
    ``lhs`` against ``rhs`` at level ``step``."""

    outcome = "schedule_violation"
    fields = {"failed_certificate": "certificate", "step": "step", "margin": "margin"}

    def __init__(self, certificate: str, message: str = "", step: int | None = None,
                 lhs: float | None = None, rhs: float | None = None):
        self.certificate = certificate
        self.step, self.lhs, self.rhs = step, lhs, rhs
        # rhs - lhs: negative or NaN on a failure, None without sides
        self.margin = None if lhs is None or rhs is None else rhs - lhs
        super().__init__(message or f"schedule certificate failed: {certificate}")


class ConvergenceViolationError(ScheduleViolationError):
    """The quadratic-contraction claim failed at a step."""

    outcome = "convergence_violation"

    def __init__(self, certificate: str = "contraction_claim", message: str = "", **sides):
        super().__init__(certificate, message or "contraction claim failed", **sides)


class TruncationError(ScheduleViolationError):
    """Discarded spectral tail mass exceeded its budget."""

    outcome = "truncation_error"


class ExtractionError(CertificateError):
    """Simultaneous-linearization extraction failed its chart-collapse check."""
