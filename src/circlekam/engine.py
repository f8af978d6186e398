"""The linearization iteration: schedule, per-step coordinate changes,
certificates, transition renewal, and the assembled conjugacy.

One step at level m does, for a transition system of width sigma_m:

1. read the hat coefficients ``b_{e|n}`` of every edge and audit their decay;
2. solve the mode-n coboundary system for the per-chart coefficients
   ``a_{j|n}`` of the coordinate changes ``psi_j(w) = w exp(psihat_j(w))``;
3. certify the norm and derivative bounds the schedule requires of psihat
   (power law in the strip shrink, derivative majorant small enough for
   univalence), and the annulus nesting that makes the renewal well defined;
4. renew every edge as ``psi_k^{-1} o f o psi_j`` on the shrunk annulus,
   re-extract phases and hats, and certify that the new norms contract
   quadratically below the schedule's delta sequence.

These inequalities are held as data: one row of :data:`CERTIFICATES` each,
checked by the one comparison :func:`_certify`, which records the binding
lhs and rhs on a pass too and fails closed on a NaN or inf on either side.

The schedule is a set of recursions: ``eta_{m+1} = mu^(-1/(mu+1))
eta_m``, ``sigma_{m+1} = sigma_m - 4 eta_m``, ``delta_{m+1} = (1 +
e^sigma0) C1 delta_m^2 / eta_m^(mu+1)``, started at ``delta_0 = min(eta_0,
eta_0^(mu+1) / ((1 + e^sigma0) C1 mu))``. With ``strict_schedule`` the run
aborts on the first failed certificate with the row's exception, which
carries the certificate, step, lhs and rhs; otherwise failures are logged in
the trace and the iteration continues, which is how behaviour outside the
guaranteed regime stays observable.

All norm comparisons use the one-sided weighted coefficient sums
(:func:`circlekam.series.majorant_norm`); sampled sup-norms appear only in
reports. Gamma(mu) stands in for (mu-1)! in the constant C1 so non-integer
exponents are meaningful; every report header records that convention.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .circle import (
    ROTATION_ITERS,
    CircleDiffeo,
    compose_rows,
    eval_diffeos,
    identity_map,
    renew_rows,
    rotation_number,
    unit_circle,
)
from .cocycle import (
    TransitionSystem,
    UnitaryFlatBundle,
    closest_loop,
    fit_c0,
    is_convergent_denominator,
    power_or_inf,
    solve_modes,
)
from .errors import (
    ConvergenceViolationError,
    ScheduleViolationError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from .series import (
    LaurentSeries,
    _boolean,
    _integral,
    _real,
    empirical_sup_norms,
    majorants,
)

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi

CONVENTIONS = {
    "c1_constant": "Gamma(mu) replaces the factorial (mu-1)! in C1",
    "norms": "schedule comparisons use weighted coefficient majorants",
}

# Relative residual above which a mode system counts as unsolvable.
COBOUNDARY_REL_TOL = 0.1

# Tolerances of the per-step certificates.
PHASE_DRIFT_TOL = 1e-10
SYMMETRY_PROJECTION_TOL = 1e-8
TAIL_BUDGET_FACTOR = 1e-3

# Unit-circle points of a conjugacy check (``Conjugacy.residual``, ``verify``).
VERIFY_SAMPLES = 128


@dataclass(frozen=True)
class KamParams:
    """Constants of the iteration schedule, and the one home of every run
    default.

    ``eta0`` left as None is :meth:`default_eta0`. ``c0`` may be left as
    None and fitted from the measured amplification spectrum when a run or
    gate report first needs it.
    """

    sigma0: float
    eta0: float | None = None
    c0: float | None = None
    mu: float = 2.0
    n_trunc: int = 64
    tol: float = 1e-10
    max_iter: int = 40
    strict_schedule: bool = True

    def __post_init__(self):
        if not (0 < self.sigma0 < math.inf):
            raise ValidationError(f"sigma0 must be finite and positive, got {self.sigma0}")
        if not (self.mu > 1):
            raise ValidationError(f"mu must exceed 1, got {self.mu}")
        if self.eta0 is None:
            object.__setattr__(self, "eta0", self.default_eta0(self.sigma0, self.mu))
        bound = self.eta0_bound(self.sigma0, self.mu)
        if not (0 < self.eta0 < bound):
            raise ValidationError(
                f"eta0 must lie in (0, {bound:.6g}), got {self.eta0}"
            )
        if self.c0 is not None and not (0 < self.c0 < math.inf):
            raise ValidationError(f"c0 must be finite and positive, got {self.c0}")
        if self.n_trunc < 1 or self.max_iter < 1 or not (0 < self.tol < math.inf):
            raise ValidationError("n_trunc, max_iter must be >= 1 and tol finite and > 0")
        # a sigma0 or mu whose schedule constants leave float range is
        # rejected here, before a run meets the overflow
        try:
            _ = self.delta0 if self.c0 is not None else self.exp_factor
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"schedule constants out of float range at sigma0={self.sigma0}, "
                f"mu={self.mu}: {exc}") from exc

    @property
    def ratio(self) -> float:
        """Geometric factor of the eta sequence, mu^(-1/(mu+1))."""
        return self.mu ** (-1.0 / (self.mu + 1.0))

    @staticmethod
    def eta0_bound(sigma0: float, mu: float) -> float:
        """Upper end of the admissible ``eta0`` range for ``sigma0`` and
        ``mu``: ``min(pi, (1 - mu^(-1/(mu+1))) sigma0 / 4)``."""
        return min(math.pi, (1.0 - mu ** (-1.0 / (mu + 1.0))) * sigma0 / 4.0)

    @classmethod
    def default_eta0(cls, sigma0: float, mu: float) -> float:
        """The ``eta0`` used when none is given: half the admissible bound."""
        return cls.eta0_bound(sigma0, mu) / 2.0

    @property
    def exp_factor(self) -> float:
        """``1 + e^sigma0``: the factor of the delta recursion, and the
        inverse of the derivative bound on the changes."""
        return 1.0 + math.exp(self.sigma0)

    @property
    def c1(self) -> float:
        if self.c0 is None:
            raise ValidationError("c0 is unset; fit it from the spectrum first")
        return (
            2.0
            * self.c0
            * self.sigma0**self.mu
            * math.gamma(self.mu)
            / (1.0 - math.exp(-self.sigma0)) ** self.mu
        )

    @property
    def delta0(self) -> float:
        return min(
            self.eta0,
            self.eta0 ** (self.mu + 1.0)
            / (self.exp_factor * self.c1 * self.mu),
        )

    @property
    def sigma_inf(self) -> float:
        return self.sigma0 - 4.0 * self.eta0 / (1.0 - self.ratio)

    def with_c0(self, c0: float) -> "KamParams":
        return dataclasses.replace(self, c0=c0)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, name) for key, (name, _) in _PARAM_KEYS.items()}

    @classmethod
    def from_json_dict(cls, doc: dict, sigma0: float | None = None) -> "KamParams":
        """Parse a params document; a key the document omits takes the
        field default, and ``sigma0`` stands in for a missing "sigma0". A
        value of the wrong type raises :class:`SchemaError`."""
        given = {}
        for key, value in doc.items():
            if key in _PARAM_KEYS:
                name, convert = _PARAM_KEYS[key]
                try:
                    given[name] = convert(value)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"params {key}: {exc}") from exc
        return cls(**{"sigma0": sigma0, **given})


# params document key -> (KamParams field, conversion of the document value)
_PARAM_KEYS = {
    "C0": ("c0", lambda v: None if v is None else _real(v)),
    "mu": ("mu", _real),
    "sigma0": ("sigma0", _real),
    "eta0": ("eta0", _real),
    "N": ("n_trunc", _integral),
    "tol": ("tol", _real),
    "max_iter": ("max_iter", _integral),
    "strict_schedule": ("strict_schedule", _boolean),
}


def _levels(params: KamParams, m: int = 0):
    """Yield (sigma_k, eta_k, delta_k) for k = m, m+1, ...: the one place
    the schedule recursions are written. Lazy, so a level is computed only
    when a caller reaches it (a far ``delta_k**2`` can overflow)."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    r = params.ratio
    sigma = params.sigma0
    delta = params.delta0
    factor = params.exp_factor * params.c1
    for k in itertools.count():
        eta = params.eta0 * r**k
        if k >= m:
            yield sigma, eta, delta
        sigma = sigma - 4.0 * eta
        try:
            delta = factor * delta**2 / eta ** (params.mu + 1.0)
        except (OverflowError, ZeroDivisionError):
            # past float range: every gate against this delta fails closed
            delta = math.inf


def schedule(params: KamParams, m: int) -> tuple[float, float, float]:
    """(sigma_m, eta_m, delta_m): widths and gates at level m, read off
    :func:`_levels`; eta is geometric, sigma and delta follow their
    recursions from level 0."""
    return next(_levels(params, m))


def _fit_c0(system: TransitionSystem, params: KamParams) -> tuple:
    """:func:`resolve_c0`, and the mode whose ratio sets the fitted c0 (None
    when c0 was given)."""
    if params.c0 is not None:
        return params, None
    c0, mode, factored = fit_c0(system.bundle(), params.n_trunc, params.mu)
    logger.debug("C0 fit: factored %d of %d modes; C0 = %.17g set by mode %s",
                 factored, params.n_trunc, c0, mode)
    return params.with_c0(c0), mode


def resolve_c0(system: TransitionSystem, params: KamParams) -> KamParams:
    """Fit c0 from the amplification spectrum when it is unset:
    :func:`circlekam.cocycle.fit_c0`, the largest ``A_n / n^(mu-1)`` over
    n = 1..N, bit for bit the C0 of :func:`circlekam.cocycle.fit_diophantine`
    on the full spectrum. The result is what :func:`kam_step` needs."""
    return _fit_c0(system, params)[0]


def _check_truncations(system: TransitionSystem, n_trunc: int) -> None:
    """Every transition hat must vanish beyond the truncation N: the step
    solves modes |n| <= N only, so a coefficient beyond would be dropped."""
    for e, f in zip(system.nerve.edges, system.transitions):
        if f.hat.degree > n_trunc:
            raise ValidationError(
                f"edge {e}: hat has a nonzero coefficient at |n| = "
                f"{f.hat.degree}, beyond the truncation N = {n_trunc}"
            )


# ---------------------------------------------------------------------------
# reports and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertRecord:
    """One row of the certificate ledger: lhs against rhs, and the verdict."""

    name: str
    passed: bool
    lhs: float
    rhs: float


@dataclass
class StepReport:
    """One step of the iteration, and one row of the trace: the level's
    schedule values, the certificate ledger and the step's measurements. The
    row of the last level runs no step and keeps the defaults past
    ``max_hat_norm``. A new per-step field is added here, once."""

    m: int
    sigma: float = 0.0
    eta: float = 0.0
    delta: float = 0.0
    max_hat_norm: float = 0.0        # certified hat majorant at width sigma
    worst_mode_residual: float = 0.0
    tail_mass: float = 0.0
    certificates: dict = field(default_factory=dict)
    phase_drift: float = 0.0
    symmetry_projection: float = 0.0
    modes_solved: int = 0
    max_hat_empirical: float = 0.0   # sampled sup norm, diagnosis only
    # unit-circle points M of the last expansion attempt of the renewal and
    # of the collapse (last step row: the chain); 0 where none ran
    grid_points: dict = field(default_factory=lambda: {"renewal": 0, "compose": 0})
    wall_ms: float = 0.0
    # wall time in ms of the phases gate (entry gate, sup-norm report and decay
    # audit), solve, certificates, renewal and compose (last step row: the chain)
    phase_ms: dict = field(default_factory=dict)
    strict: bool = False   # a failed certificate raises (strict_schedule)

    @property
    def violations(self) -> list:
        """Names of the failed certificates, in the order they were checked."""
        return [name for name, r in self.certificates.items() if not r.passed]

    def ledger(self) -> dict:
        """Every certificate as ``{name: {lhs, rhs, passed}}``."""
        return {name: {"lhs": r.lhs, "rhs": r.rhs, "passed": r.passed}
                for name, r in self.certificates.items()}

    def to_json_dict(self) -> dict:
        """The trace.json row: every field in order, the certificates as
        their ledger, ``strict`` left out."""
        row = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.name != "strict"}
        return dict(row, certificates=self.ledger())


# The certified inequalities of the iteration, one row each: name ->
# (exception raised under strict_schedule, comparison of lhs with rhs, what
# the lhs measures).
CERTIFICATES = {
    "initial_norm_gate": (ScheduleViolationError, "<",
                          "largest transition-hat majorant at sigma0 against the entry gate"),
    "hat_norm_below_delta": (ScheduleViolationError, "<",
                             "certified transition-hat norm against the schedule gate"),
    "coefficient_decay": (ScheduleViolationError, "<=",
                          "number of hats failing the per-index decay audit; implied: "
                          "it fails only when the hat_norm_below_delta lhs is not "
                          "finite (_decay_failures)"),
    "change_reality_symmetry": (ScheduleViolationError, "<=",
                                "projection size of the solved change coefficients"),
    "change_norm_power_law": (ScheduleViolationError, "<=",
                              "change-hat majorant against C1 * |f| * lambda^-mu, "
                              "at the (chart, nu) pair of largest ratio"),
    "change_derivative_bound": (ScheduleViolationError, "<=",
                                "log-lift derivative majorant of the changes"),
    "annulus_nesting": (ScheduleViolationError, "<",
                        "largest radial displacement of charts and transitions"),
    "phase_invariance": (ScheduleViolationError, "<=",
                         "multiplier phase drift across the renewal"),
    "tail_budget": (TruncationError, "<=", "discarded spectral tail mass"),
    "contraction_claim": (ConvergenceViolationError, "<",
                          "renewed hat norm against the next schedule gate"),
}


def _certify(report: StepReport, name: str, lhs, rhs) -> None:
    """Check row ``name`` of :data:`CERTIFICATES`, ``lhs < rhs`` or ``lhs <=
    rhs`` as the row says, and record it on ``report``. It passes only when
    both sides are finite and the inequality holds. A failure under
    ``report.strict`` raises the row's exception."""
    lhs, rhs = float(lhs), float(rhs)
    error, op, _ = CERTIFICATES[name]
    holds = lhs < rhs if op == "<" else lhs <= rhs
    passed = math.isfinite(lhs) and math.isfinite(rhs) and holds
    report.certificates[name] = CertRecord(name, passed, lhs, rhs)
    if not passed and report.strict:
        raise error(name, f"{name}: {lhs:.6e} !{op} {rhs:.6e} at step {report.m}",
                    step=report.m, lhs=lhs, rhs=rhs)


CSV_HEADER = "m,sigma,eta,delta,max_hat_norm,worst_mode_residual,tail_mass,wall_ms"


@dataclass
class IterationTrace:
    rows: list = field(default_factory=list)   # one StepReport per level
    # the run's entry report, holding its initial_norm_gate record; its
    # ledger is written to trace.json only, as a top-level key
    entry: StepReport = field(default_factory=lambda: StepReport(m=0))
    gate: "GateReport | None" = None   # the entry gate's report; None until it has run
    # wall time in ms of the parts of run outside the step rows: entry (the
    # C0 fit and the entry gate) and residual (the final conjugation
    # residual); 0.0 for a part that has not run
    run_phase_ms: dict = field(default_factory=lambda: {"entry": 0.0, "residual": 0.0})

    @property
    def violations(self) -> list:
        """The failed certificates of the rows as (m, name) pairs, step by
        step in the order they were checked."""
        return [(row.m, name) for row in self.rows for name in row.violations]

    def to_csv(self) -> str:
        columns = CSV_HEADER.split(",")
        rows = (",".join(repr(getattr(r, c)) for c in columns) for r in self.rows)
        return "\n".join([CSV_HEADER, *rows]) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "conventions": dict(CONVENTIONS),
            **self.entry.ledger(),
            "rows": [r.to_json_dict() for r in self.rows],
            "violations": [
                {"m": m, "certificate": cert} for m, cert in self.violations
            ],
            **GateReport.c0_record(self.gate),
            "run_phase_ms": dict(self.run_phase_ms),
        }


@dataclass(frozen=True)
class GateReport:
    """Initial-norm gate: certified hat majorants against the entry threshold."""

    passed: bool
    gate_value: float
    c0_used: float
    c1: float
    eta0: float
    per_edge: tuple   # (edge str, majorant, margin, passed)
    c0_mode: int | None = None    # mode whose ratio sets a fitted C0
    c0_loop: list | None = None   # fundamental cycle closest to resonance there
    c0_mode_convergent: bool | None = None   # c0_mode is a q_k of its rotation number
    conventions: dict = field(default_factory=lambda: dict(CONVENTIONS))

    @staticmethod
    def c0_record(report: "GateReport | None") -> dict:
        """C0 with its mode, loop and convergent flag; all None without a report."""
        return {key: getattr(report, attr, None) for key, attr in (
            ("C0", "c0_used"), ("C0_mode", "c0_mode"), ("C0_loop", "c0_loop"),
            ("C0_mode_convergent", "c0_mode_convergent"))}

    def to_json_dict(self) -> dict:
        return {
            "conventions": self.conventions,
            "passed": self.passed,
            "gate_value": self.gate_value,
            **GateReport.c0_record(self),
            "C1": self.c1,
            "eta0": self.eta0,
            "per_edge": [
                {"edge": e, "majorant": m, "margin": g, "passed": p}
                for e, m, g, p in self.per_edge
            ],
        }


def gate_check(system: TransitionSystem, params: KamParams) -> GateReport:
    """Compare every edge's certified hat majorant at sigma0 against the gate
    ``min(eta0, eta0^(mu+1) / ((1 + e^sigma0) C1 mu))``. Pure report. A
    fitted C0 is reported with its mode, the loop closest to resonance there
    and whether the mode is a convergent denominator q_k <= N of that loop's
    rotation number; on a forest no loop names the mode: all three are None."""
    params, c0_mode = _fit_c0(system, params)
    hit = None if c0_mode is None else closest_loop(system.bundle(), c0_mode)
    c0_loop, rho = (None, None) if hit is None else hit
    gate = float(params.delta0)
    majs = majorants([f.hat for f in system.transitions], params.sigma0).tolist()
    per_edge = [(str(e), maj, gate - maj, maj < gate)
                for e, maj in zip(system.nerve.edges, majs)]
    return GateReport(
        passed=all(row[3] for row in per_edge),
        gate_value=gate,
        c0_used=float(params.c0),
        c1=float(params.c1),
        eta0=float(params.eta0),
        per_edge=tuple(per_edge),
        c0_mode=None if c0_loop is None else c0_mode,
        c0_loop=c0_loop,
        c0_mode_convergent=None if hit is None else is_convergent_denominator(
            c0_mode, rho, params.n_trunc),
    )


# ---------------------------------------------------------------------------
# one step of the iteration
# ---------------------------------------------------------------------------


def _solve_changes(system: TransitionSystem, params: KamParams, sigma_m: float,
                   eta_m: float, report: StepReport) -> dict:
    """Solve every populated mode and assemble the per-chart change hats.

    Every pass runs over the band ``|n| <= k``, k the largest hat degree (at
    most N): modes beyond are zero in every hat and project to exact zeros,
    so each change hat has the bits of the pass over all 2N+1."""
    nerve = system.nerve
    bundle = system.bundle()
    k = min(params.n_trunc, max((f.hat.degree for f in system.transitions), default=0))
    hats = np.array([f.hat.dense(k) for f in system.transitions])
    populated = np.any(np.abs(hats) > 0, axis=0)
    populated[k] = False
    # solvability is judged against the dominant mode of the step; sub-scale
    # modes carry round-off whose inconsistency means nothing
    scale = float(np.max(np.abs(hats[:, populated]))) if populated.any() else 0.0
    coeffs = np.zeros((len(nerve.charts), 2 * k + 1), dtype=complex)
    # walked in (|n|, -n) order: the first failing mode is the one reported
    modes = sorted((np.flatnonzero(populated) - k).tolist(),
                   key=lambda n: (abs(n), -n))
    cols = np.array(modes, dtype=int) + k
    sols = solve_modes(bundle, modes, hats[:, cols].T,
                       solvability_tol=COBOUNDARY_REL_TOL * scale)
    for col, sol in zip(cols, sols):
        coeffs[:, col] = sol.a
    report.worst_mode_residual = max((sol.residual for sol in sols), default=0.0)
    report.modes_solved = len(modes)

    # one projection of the whole block onto the reality-symmetric subspace
    flipped = np.conj(coeffs[:, ::-1])
    report.symmetry_projection = float(np.max(np.abs(coeffs + flipped)))
    _certify(report, "change_reality_symmetry", report.symmetry_projection,
             SYMMETRY_PROJECTION_TOL)
    return {c: CircleDiffeo(0.0, LaurentSeries.from_band(row, sigma_m - eta_m, params.n_trunc))
            for c, row in zip(nerve.charts, 0.5 * (coeffs - flipped))}


def _decay_failures(hats, entry: np.ndarray) -> int:
    """The number of hats failing the coefficient decay audit at sigma_m,
    ``decay_checks([h.with_width(sigma_m) for h in hats], entry)``, with
    ``entry`` their majorants at sigma_m as the norm bounds, in closed form:
    a hat fails exactly when its truncation is at least 1 and its majorant
    is not a finite number.

    A non-finite bound fails every such hat by definition. A finite one
    passes: nonnegative terms added one by one in rounded arithmetic never
    sum below any term ``|c_n| e^{|n| sigma_m}`` (``a + b >= a`` exactly,
    and rounding is monotone), and a finite sum means no weight overflowed,
    so ``|n| sigma_m <= 709``; ``entry e^{-|n| sigma_m}`` then falls short of
    ``|c_n|`` by a few ulps of ``|c_n|`` at most, far below the slack
    ``1e-12 max(entry, 1)``. A NaN coefficient makes its majorant NaN. So
    the audit is implied: a failing hat makes the largest entry, the lhs of
    ``hat_norm_below_delta``, not finite, and that row fails too."""
    return sum(h.truncation >= 1 and not math.isfinite(e)
               for h, e in zip(hats, entry.tolist()))


def kam_step(
    system: TransitionSystem, m: int, params: KamParams
) -> tuple[TransitionSystem, dict, StepReport]:
    """One renewal step at level m; returns the shrunk-width system, the
    per-chart coordinate changes, and the certificate report. ``params``
    must carry a fitted C0 (:func:`resolve_c0`); the step does not fit it.

    With ``strict_schedule`` the first failed certificate raises; otherwise
    failures are recorded in the report and the step completes anyway.
    """
    (sigma_m, eta_m, delta_m), (sigma_next, _, delta_next) = itertools.islice(
        _levels(params, m), 2)
    if abs(system.width - sigma_m) > 1e-9:
        raise ValidationError(
            f"system width {system.width:.6g} does not match schedule width "
            f"{sigma_m:.6g} at step {m}"
        )
    _check_truncations(system, params.n_trunc)
    report = StepReport(m=m, sigma=sigma_m, eta=eta_m, delta=delta_m,
                        strict=params.strict_schedule)

    edges = system.nerve.edges
    hats = [f.hat for f in system.transitions]
    count = len(hats)
    clock = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        report.phase_ms[phase] = (now - clock) * 1000.0
        clock = now

    # entry gate of the induction, with the transitions' nesting majorants
    # in the same block; the sampled sup norm rides along in the report but
    # never drives a comparison
    maj = majorants(hats + hats, np.repeat([sigma_m, sigma_m - 3.0 * eta_m], count))
    entry, nest_maps = maj[:count], maj[count:]
    report.max_hat_norm = max_maj = float(np.max(entry, initial=0.0))
    degree = max((h.degree for h in hats), default=0)
    report.max_hat_empirical = float(np.max(
        empirical_sup_norms(hats, sigma_m * (1.0 - 1e-9), max(2 * degree + 1, 256)),
        initial=0.0))
    _certify(report, "hat_norm_below_delta", max_maj, delta_m)

    _certify(report, "coefficient_decay", _decay_failures(hats, entry), 0.0)
    lap("gate")

    psis = _solve_changes(system, params, sigma_m, eta_m, report)
    lap("solve")

    # one majorant block for the changes: the strips sigma_m - nu eta_m,
    # nu = 1..4 (power law; nu = 1 and 4 are also the nesting widths), chart
    # by chart, then the derivative majorants at sigma_m - eta_m
    charts = system.nerve.charts
    change_hats = [psis[c].hat for c in charts]
    lams = [nu * eta_m for nu in (1, 2, 3, 4)]
    cmaj = majorants(
        [h for h in change_hats for _ in lams] + change_hats,
        [sigma_m - lam for lam in lams] * len(charts) + [sigma_m - eta_m] * len(charts),
        [0] * (len(lams) * len(charts)) + [1] * len(charts),
    )
    power = cmaj[: len(lams) * len(charts)].reshape(len(charts), len(lams))

    # norm power law of the changes on shrunk strips, bound by the (chart,
    # nu) pair of largest ratio (argmax picks a NaN first)
    rhs = np.array([params.c1 * max(max_maj, 1e-300) * power_or_inf(lam, -params.mu)
                    for lam in lams])
    worst = np.argmax(power / rhs)
    _certify(report, "change_norm_power_law", power.flat[worst], rhs[worst % len(lams)])

    # derivative bound: contraction margin for inversion and injectivity
    _certify(report, "change_derivative_bound", np.max(cmaj[power.size:], initial=0.0),
             1.0 / params.exp_factor)

    # annulus nesting that makes the renewed transitions well defined: the
    # changes at sigma_m - 4 eta_m and sigma_m - eta_m, the transitions at
    # sigma_m - 3 eta_m
    nest = np.concatenate([power[:, [3, 0]].ravel(), nest_maps])
    _certify(report, "annulus_nesting", np.max(nest), eta_m)
    lap("certificates")

    # renewal: psi_k^{-1} o f o psi_j of every edge on the shrunk annulus, in
    # one batched pass per grid, the grid sized by the factors' degrees
    new_transitions, infos = renew_rows(
        [psis[e.src] for e in edges], system.transitions, [psis[e.dst] for e in edges],
        params.n_trunc, sigma_next, labels=[f"edge {e}" for e in edges])
    d = np.abs(np.array([f.phase for f in new_transitions])
               - np.array([f.phase for f in system.transitions])) % TWO_PI
    report.grid_points["renewal"] = infos[0].points if infos else 0
    report.phase_drift = float(np.max(np.minimum(d, TWO_PI - d), initial=0.0))
    report.tail_mass = float(np.max([i.tail_mass for i in infos], initial=0.0))
    report.symmetry_projection = float(np.max(
        [report.symmetry_projection] + [i.symmetry_defect for i in infos]))
    _certify(report, "phase_invariance", report.phase_drift, PHASE_DRIFT_TOL)
    _certify(report, "tail_budget", report.tail_mass, TAIL_BUDGET_FACTOR * delta_m)

    new_system = TransitionSystem(system.nerve, tuple(new_transitions), sigma_next)
    new_maj = new_system.max_hat_majorant(sigma_next)
    lap("renewal")
    _certify(report, "contraction_claim", new_maj, delta_next)

    return new_system, psis, report


# ---------------------------------------------------------------------------
# the full run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conjugacy:
    """Per-chart composed coordinate change plus the limiting linear cocycle.

    ``charts[j]`` maps final coordinates to initial ones, so correctness
    reads ``charts[k](t_e u) = f_e(charts[j](u))`` for every edge j -> k of
    the initial system.
    """

    charts: dict
    linear_cocycle: UnitaryFlatBundle
    final_width: float

    def check_nerve(self, system: TransitionSystem) -> None:
        """Raise :class:`ValidationError`, naming the first part and index
        that differ, unless the linear cocycle's nerve is the system's."""
        ours = self.linear_cocycle.nerve
        for part in ("charts", "edges", "triples"):
            mine, theirs = getattr(ours, part), getattr(system.nerve, part)
            if mine != theirs:
                at = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b),
                          min(len(mine), len(theirs)))
                raise ValidationError(f"conjugacy {part} differ from the system's at {at}")

    def residual(self, initial: TransitionSystem, samples: int = VERIFY_SAMPLES) -> float:
        """Largest ``|charts[k](t_e u) - f_e(charts[j](u))|`` over the edges
        and ``samples`` unit-circle points; NaN if any value is NaN, so a
        comparison with the tolerance fails. ``samples`` must be at least 1:
        no points would check nothing. A conjugacy over another nerve raises
        (:meth:`check_nerve`): it would pair phases with the wrong edges."""
        if samples < 1:
            raise ValidationError(f"samples must be at least 1, got {samples}")
        self.check_nerve(initial)
        u = unit_circle(samples)
        edges = initial.nerve.edges
        turned = np.exp(1j * np.array(self.linear_cocycle.phases))[:, None] * u
        lhs = eval_diffeos([self.charts[e.dst] for e in edges], turned)
        rhs = eval_diffeos(initial.transitions,
                           eval_diffeos([self.charts[e.src] for e in edges], u))
        return float(np.max(np.abs(lhs - rhs), initial=0.0))

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "final_width": float(self.final_width),
            "charts": {c: phi.to_json_dict() for c, phi in self.charts.items()},
            "linear_cocycle": self.linear_cocycle.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Conjugacy":
        """Parse a conjugacy document; every type or value failure, including
        a non-finite width, phase or hat coefficient, chart keys other than
        the linear cocycle's charts, or a ``final_width`` outside
        ``(0, least chart hat width]``, raises :class:`SchemaError`."""
        try:
            bundle = UnitaryFlatBundle.from_json_dict(doc["linear_cocycle"])
            charts = {
                c: CircleDiffeo.from_json_dict(d) for c, d in doc["charts"].items()
            }
            final_width = _real(doc["final_width"])
        except KeyError as exc:
            raise SchemaError(f"conjugacy document missing field {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"bad conjugacy document: {exc}") from exc
        if set(charts) != set(bundle.nerve.charts):
            raise SchemaError(f"conjugacy charts {list(charts)} are not its linear cocycle's")
        w = min(phi.width for phi in charts.values())
        if not 0 < final_width <= w:
            raise SchemaError(f"final_width {final_width} not in (0, least chart width {w}]")
        return cls(charts=charts, linear_cocycle=bundle, final_width=final_width)


@dataclass
class RunResult:
    conjugacy: Conjugacy
    trace: IterationTrace
    converged: bool
    outcome: str                  # "converged" or "max_iter"
    gate: GateReport
    conjugation_residual: float
    params: KamParams
    steps: int


def run(system: TransitionSystem, params: KamParams) -> RunResult:
    """Iterate until the certified hat norm drops below tol or max_iter hits.

    The steps' changes are kept as a chain and collapsed once, after the
    last step, into the per-chart conjugacy ``psi_0 o psi_1 o ...`` at the
    final width (:func:`compose_rows`), timed as the last step row's
    ``compose``. The entry (C0 fit and entry gate) and the final residual
    are timed in the trace's ``run_phase_ms``. Any hard error carries the
    trace so far on its ``trace`` attribute. The level's hat majorant is the
    ``initial_norm_gate`` lhs at level 0 and the previous step's
    ``contraction_claim`` lhs from level 1 on: the same majorant at the same
    width.
    """
    trace = IterationTrace(entry=StepReport(m=0, strict=params.strict_schedule))
    initial = system
    charts = system.nerve.charts
    try:
        t0 = time.perf_counter()
        _check_truncations(system, params.n_trunc)
        gate = gate_check(system, params)
        if params.c0 is None:
            params = params.with_c0(gate.c0_used)
        trace.gate = gate
        _certify(trace.entry, "initial_norm_gate",
                 np.max([row[1] for row in gate.per_edge], initial=0.0), gate.gate_value)
        trace.run_phase_ms["entry"] = (time.perf_counter() - t0) * 1000.0
        chain = []
        max_maj = trace.entry.certificates["initial_norm_gate"].lhs
        for m, (sigma_m, eta_m, delta_m) in enumerate(_levels(params)):
            if max_maj < params.tol or m == params.max_iter:
                trace.rows.append(StepReport(m, sigma_m, eta_m, delta_m, max_maj))
                converged = max_maj < params.tol
                steps = m
                break
            t0 = time.perf_counter()
            system, psis, report = kam_step(system, m, params)
            chain.append([psis[c] for c in charts])
            report.phase_ms["compose"] = 0.0
            report.wall_ms = (time.perf_counter() - t0) * 1000.0
            trace.rows.append(report)
            max_maj = report.certificates["contraction_claim"].lhs
        phis = [identity_map(params.sigma0) for _ in charts]
        if chain:
            t0 = time.perf_counter()
            phis, infos = compose_rows(chain, sigma_m, params.n_trunc,
                                       labels=[f"chart {c}" for c in charts])
            collapse_ms = (time.perf_counter() - t0) * 1000.0
            trace.rows[-2].phase_ms["compose"] = collapse_ms
            trace.rows[-2].wall_ms += collapse_ms
            trace.rows[-2].grid_points["compose"] = infos[0].points
    except Exception as exc:
        exc.trace = trace
        raise

    conj = Conjugacy(
        charts=dict(zip(charts, phis)),
        linear_cocycle=system.bundle(),
        final_width=sigma_m,
    )
    t0 = time.perf_counter()
    residual = conj.residual(initial)
    trace.run_phase_ms["residual"] = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        conjugacy=conj,
        trace=trace,
        converged=converged,
        outcome="converged" if converged else "max_iter",
        gate=gate,
        conjugation_residual=residual,
        params=params,
        steps=steps,
    )


def alpha_vs_rotation(system: TransitionSystem, iters: int = ROTATION_ITERS) -> list:
    """Per-edge comparison of the multiplier phase with 2 pi times the
    rotation number. Diagnostic only; nothing is asserted."""
    out = []
    for e, f in zip(system.nerve.edges, system.transitions):
        rho = rotation_number(f, iters=iters)
        diff = (f.phase - TWO_PI * rho + math.pi) % TWO_PI - math.pi
        out.append(
            {
                "edge": str(e),
                "phase": float(f.phase),
                "two_pi_rotation_number": float(TWO_PI * rho),
                "difference_mod_2pi": float(diff),
            }
        )
    return out
