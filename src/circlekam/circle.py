"""Analytic orientation-preserving circle diffeomorphisms in multiplicative
form ``w -> w exp(i phase + hat(w))``.

``hat`` is a Laurent series with zero constant term obeying the reality
symmetry ``c_{-n} = -conj(c_n)``, which makes the exponent purely imaginary
on ``|w| = 1`` and hence keeps the unit circle invariant. The constant term
of the exponent is the multiplier phase; everything here tracks the log of
``f(w)/w`` along the circle with a continuously unwrapped branch, the winding
number of ``f(w)/w`` being the only obstruction to that branch existing.
"""

from __future__ import annotations

import cmath
import functools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CircleKamError,
    InversionDivergedError,
    NestingError,
    NotACircleMapError,
    UnivalenceError,
    ValidationError,
    WindingError,
)
from .series import (
    LaurentSeries,
    band_coeffs,
    circle_spectrum,
    eval_series,
    log_derivative_majorant,
    majorant_norm,
)

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi

# Tolerance on the reality-symmetry defect of sampled maps; larger defects
# mean the samples do not trace a circle diffeomorphism at all.
SYMMETRY_TOL = 1e-8

# Measured spectral coefficients below this (times the sample scale) are
# round-off, not signal; they are zeroed so weighted norms stay meaningful.
NOISE_FLOOR_FACTOR = 32.0 * np.finfo(float).eps


# Default orbit length of :func:`rotation_number`.
ROTATION_ITERS = 8192


class RotationConvergenceWarning(UserWarning):
    """Weighted Birkhoff averages of the rotation number over T/2 and T
    iterates disagree: the orbit has not settled."""


@dataclass(frozen=True)
class CircleDiffeo:
    """Circle diffeomorphism ``w -> w exp(i phase + hat(w))``."""

    phase: float
    hat: LaurentSeries

    def __post_init__(self):
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)
        c0 = self.hat.coeff(0)
        if abs(c0) > 1e-12:
            raise NotACircleMapError(
                f"hat series has nonzero constant term {c0!r}"
            )
        defect = symmetry_defect(self.hat)
        if defect > SYMMETRY_TOL:
            raise NotACircleMapError(
                f"reality symmetry defect {defect:.3e} exceeds {SYMMETRY_TOL:.0e}"
            )

    @property
    def width(self) -> float:
        return self.hat.width

    @property
    def multiplier(self) -> complex:
        return complex(np.exp(1j * self.phase))

    def is_rotation(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.hat.coeffs) <= tol))

    def __call__(self, w):
        return eval_diffeo(self, w)

    def to_json_dict(self) -> dict:
        return {"phase": float(self.phase), "hat": self.hat.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CircleDiffeo":
        return cls(float(doc["phase"]), LaurentSeries.from_json_dict(doc["hat"]))


def symmetry_defect(hat: LaurentSeries) -> float:
    """Max over n of ``|c_n + conj(c_{-n})|`` (n = 0 included)."""
    flipped = np.conj(hat.coeffs[::-1])
    return float(np.max(np.abs(hat.coeffs + flipped))) if hat.coeffs.size else 0.0


def symmetrize(hat: LaurentSeries) -> tuple[LaurentSeries, float]:
    """Project onto the reality-symmetric subspace; return (series, defect)."""
    defect = symmetry_defect(hat)
    arr = 0.5 * (hat.coeffs - np.conj(hat.coeffs[::-1]))
    return LaurentSeries(arr, hat.width), defect


def identity_map(width: float, n_trunc: int = 0) -> CircleDiffeo:
    return CircleDiffeo(0.0, LaurentSeries.zero(width, n_trunc))


def rotation(phase: float, width: float, n_trunc: int = 0) -> CircleDiffeo:
    return CircleDiffeo(phase, LaurentSeries.zero(width, n_trunc))


@functools.lru_cache(maxsize=32)
def unit_circle(samples: int) -> np.ndarray:
    """Equispaced points ``e^{2 pi i k / M}``, k = 0..M-1.

    One read-only array per M is computed once and shared by every caller.
    """
    points = np.exp(2j * np.pi * np.arange(samples) / samples)
    points.setflags(write=False)
    return points


def eval_diffeo(f: CircleDiffeo, w):
    """Evaluate ``w exp(i phase + hat(w))`` inside the annulus of validity."""
    wa = np.asarray(w, dtype=complex)
    return wa * np.exp(1j * f.phase + eval_series(f.hat, wa))


def circle_defect(f: CircleDiffeo, samples: int = 1024) -> float:
    """Max over sampled ``|w| = 1`` of ``| |f(w)| - 1 |``."""
    vals = eval_diffeo(f, unit_circle(samples))
    return float(np.max(np.abs(np.abs(vals) - 1.0)))


def _tracked_log(gvals: np.ndarray) -> tuple[np.ndarray, float]:
    """Continuous branch of log along sampled values; returns (log, winding).

    The winding number is the total increment of arg(g) around the closed
    loop divided by 2 pi.
    """
    arg = np.unwrap(np.angle(gvals))
    closing = np.angle(gvals[0] * np.exp(-1j * arg[-1]))
    winding = (arg[-1] + closing - arg[0]) / TWO_PI
    return np.log(np.abs(gvals)) + 1j * arg, float(winding)


@dataclass(frozen=True)
class ExpandInfo:
    """Diagnostics of one spectral expansion."""

    symmetry_defect: float   # projection size applied to restore symmetry
    tail_mass: float         # discarded band N < |n| <= M/2, unit-circle sum
    noise_floor: float       # coefficients at or below this were zeroed


def expand_detailed(fvals, n_trunc: int, width: float) -> tuple[CircleDiffeo, ExpandInfo]:
    """:func:`expand` plus diagnostics (projection size, discarded tail mass)."""
    vals = np.asarray(fvals, dtype=complex)
    m = vals.size
    g = vals / unit_circle(m)
    if np.any(np.abs(g) == 0.0) or not np.all(np.isfinite(g)):
        raise ValidationError("samples contain zeros or non-finite values")
    logg, winding = _tracked_log(g)
    if abs(winding) > 0.25:
        raise WindingError(
            f"winding number of f(w)/w is {winding:.3f}, expected 0; "
            "no global log branch exists"
        )
    spectrum = circle_spectrum(logg, n_trunc)
    hat_arr = band_coeffs(spectrum, n_trunc)
    c0 = complex(hat_arr[n_trunc])
    phase = float(np.imag(c0)) % TWO_PI
    hat_arr[n_trunc] = 0.0
    hat = LaurentSeries(hat_arr, width)

    defect = symmetry_defect(hat)
    defect = max(defect, 2.0 * abs(float(np.real(c0))))
    if defect > SYMMETRY_TOL:
        raise NotACircleMapError(
            f"symmetry defect {defect:.3e} before projection exceeds "
            f"{SYMMETRY_TOL:.0e}: samples are not a circle diffeomorphism"
        )
    hat, _ = symmetrize(hat)
    logger.debug("expand: symmetry projection of size %.3e applied", defect)

    floor = NOISE_FLOOR_FACTOR * max(1.0, float(np.max(np.abs(logg))))
    arr = hat.coeffs.copy()
    arr[np.abs(arr) <= floor] = 0.0

    wave = ((np.arange(m) + m // 2) % m) - m // 2
    band = np.abs(wave) > n_trunc
    tail_coeffs = np.abs(spectrum[band])
    tail = float(np.sum(tail_coeffs[tail_coeffs > floor]))

    diffeo = CircleDiffeo(phase, LaurentSeries(arr, width))
    return diffeo, ExpandInfo(symmetry_defect=float(defect), tail_mass=tail,
                              noise_floor=float(floor))


def expand(fvals, n_trunc: int, width: float) -> CircleDiffeo:
    """Build a :class:`CircleDiffeo` from equispaced unit-circle samples of f.

    Tracks log(f(w)/w) continuously around the circle; a nonzero winding of
    f(w)/w obstructs the global branch and raises. The constant Fourier term
    becomes the phase; the remaining modes become the hat, projected onto the
    reality-symmetric subspace after the defect is checked. Sub-round-off
    coefficients are zeroed so weighted norms are not polluted by noise.
    """
    diffeo, _ = expand_detailed(fvals, n_trunc, width)
    return diffeo


def expand_by_degree(
    sample, degree: int, n_trunc: int, width: float
) -> tuple[CircleDiffeo, ExpandInfo]:
    """Expand the map the callable ``sample`` evaluates on unit-circle points,
    on a grid sized by the data rather than by ``n_trunc``.

    ``degree`` is the sum of the effective degrees of the factors the
    callable composes. The expansion starts at truncation
    ``k = max(1, 2 * degree)`` with ``M = 4k`` samples and doubles k while the
    measured band ``k < |n| <= 2k`` still holds a coefficient above the noise
    floor (``ExpandInfo.tail_mass > 0``), the adaptive-truncation rule of
    spectral methods (Aurentz and Trefethen, "Chopping a Chebyshev series",
    ACM TOMS 43, 2017). At ``k = n_trunc`` it is exactly
    ``expand_detailed(sample(unit_circle(max(4 n_trunc, 8))), n_trunc,
    width)``, and only that attempt may raise: an attempt at a smaller k that
    raises a :class:`CircleKamError` is retried at 2k. The hat is zero-padded
    to ``n_trunc``.
    """
    k = min(n_trunc, max(1, 2 * degree))
    while k < n_trunc:
        try:
            f, info = expand_detailed(sample(unit_circle(4 * k)), k, width)
            if info.tail_mass == 0.0:
                hat = LaurentSeries(f.hat.dense(n_trunc), width)
                return CircleDiffeo(f.phase, hat), info
        except CircleKamError:
            pass  # the attempt at n_trunc decides whether the input fails
        k = min(2 * k, n_trunc)
    return expand_detailed(sample(unit_circle(max(4 * n_trunc, 8))), n_trunc, width)


def expand_map(f, n_trunc: int, width: float, samples: int | None = None) -> CircleDiffeo:
    """Sample a callable on the unit circle and expand it."""
    m = samples if samples is not None else max(4 * n_trunc, 8)
    return expand(f(unit_circle(m)), n_trunc, width)


def _bump_weights(iters: int) -> np.ndarray:
    # w(k / T) for k = 1..T-1, normalised to sum 1; w(0) = w(1) = 0
    t = np.arange(1, iters) / iters
    w = np.exp(-1.0 / (t * (1.0 - t)))
    return w / np.sum(w)


def rotation_number(f: CircleDiffeo, iters: int = ROTATION_ITERS) -> float:
    """Rotation number by the exponentially weighted Birkhoff average of the
    lift displacement; result in [0, 1).

    The lift is ``F(x) = x + (phase + Im hat(e^{2 pi i x})) / 2 pi`` and the
    orbit ``x_{k+1} = F(x_k)`` starts at 0. The rotation number is the
    average of the displacements ``d_k = F(x_k) - x_k`` over k < T = iters,
    weighted by ``w(k/T)`` with the bump ``w(t) = exp(-1/(t(1-t)))`` and the
    weights normalised to sum 1 (Das, Saiki, Sander and Yorke, "Quantitative
    quasiperiodicity", Nonlinearity 30, 2017). For an analytic circle map with
    a Diophantine rotation number this converges faster than any power of T
    (Das and Yorke, "Super convergence of ergodic averages for quasiperiodic
    orbits", Nonlinearity 31, 2018), whereas the plain average errs by
    O(1/T). How soon the error reaches round-off depends on how close the
    rotation number lies to rationals of small denominator: on conjugated
    rotations with hats of size 2e-3 it does so by T = 2048 in most cases,
    but at 0.0014 from 1/3 the error is 1.7e-12 at T = 4096 and 8e-15 at
    T = 8192, which is therefore the default. A map with no nonzero hat mode
    is the rigid rotation ``phase / 2 pi``.

    The same average over the first T/2 iterates is the convergence check.
    If the two differ by more than 1e-6, a :class:`RotationConvergenceWarning`
    is attached and the T-iterate value is still returned: the orbit has not
    settled, as happens near the edge of a mode-locking tongue or at a
    rotation number very well approximated by rationals. A non-finite result
    (non-finite coefficients, or an orbit that overflows) raises
    :class:`ValidationError`.
    """
    if iters < 1000:
        raise ValidationError(f"iters must be at least 1000, got {iters}")
    base = f.phase / TWO_PI
    positive = f.hat.coeffs[f.hat.truncation + 1 :]
    nonzero = np.flatnonzero(positive)
    if nonzero.size == 0:
        return float(base % 1.0)

    # Im hat(z) / 2 pi = Im(sum_{n>=1} c_n z^n) / pi on |z| = 1, by Horner
    # from the highest nonzero mode; scalar Python beats numpy at this size
    horner = [complex(c) / np.pi for c in positive[: nonzero[-1] + 1][::-1]]
    two_pi_i = 2j * np.pi
    exp = cmath.exp
    disp = [0.0] * iters
    x = 0.0
    for k in range(iters):
        z = exp(two_pi_i * x)
        acc = 0j
        for c in horner:
            acc = (acc + c) * z
        disp[k] = acc.imag
        x = (x + base + acc.imag) % 1.0

    d = np.asarray(disp)
    half = iters // 2
    mean = float(_bump_weights(iters) @ d[1:])
    spread = abs(mean - float(_bump_weights(half) @ d[1:half]))
    rho = base + mean
    if not np.isfinite(rho):
        raise ValidationError(f"rotation number is not finite ({rho!r})")
    if spread > 1e-6:
        warnings.warn(
            f"weighted Birkhoff averages over {half} and {iters} iterates "
            f"differ by {spread:.3e} > 1e-6",
            RotationConvergenceWarning,
            stacklevel=2,
        )
    return float(rho % 1.0)


def compose(
    g: CircleDiffeo, f: CircleDiffeo, out_width: float, n_trunc: int | None = None
) -> CircleDiffeo:
    """Composition ``g o f`` re-expanded on an annulus of width ``out_width``.

    Analyticity of the composite on the target annulus needs the image of
    that annulus under f to sit inside the domain annulus of g; both
    inclusions are certified with the one-sided weighted norms before any
    sampling happens. Composition populates modes beyond those of either
    factor, so the output truncation defaults to the sum of the factors';
    pass ``n_trunc`` to pin it (the iteration engine pins it to the scenario
    truncation and budgets the discarded tail instead). The sampling grid
    follows the factors' effective degrees (:func:`expand_by_degree`).
    """
    if out_width > f.width:
        raise NestingError(
            f"out_width {out_width:.6g} exceeds domain width {f.width:.6g} of f",
            inclusion="out_annulus within domain(f)",
        )
    reach = out_width + majorant_norm(f.hat, out_width)
    if reach > g.width:
        raise NestingError(
            f"f maps the width-{out_width:.6g} annulus into width "
            f"{reach:.6g}, outside domain width {g.width:.6g} of g",
            inclusion="f(out_annulus) within domain(g)",
        )
    if n_trunc is None:
        n_trunc = f.hat.truncation + g.hat.truncation
    composite, _ = expand_by_degree(lambda w: eval_diffeo(g, eval_diffeo(f, w)),
                                    g.hat.degree + f.hat.degree, n_trunc, out_width)
    return composite


def _solve_log_lift(hat: LaurentSeries, zeta0: np.ndarray) -> np.ndarray:
    """Solve ``zeta + hat(e^zeta) = zeta0`` per sample.

    Fixed-point iteration ``zeta <- zeta0 - hat(e^zeta)`` (a contraction when
    the derivative majorant is below one), with a Newton fallback after 50
    sweeps and a hard cap of 200.
    """
    dhat = LaurentSeries(hat.coeffs * hat.indices(), hat.width)
    zeta = zeta0.copy()
    for it in range(200):
        if it < 50:
            znew = zeta0 - eval_series(hat, np.exp(zeta))
        else:
            ez = np.exp(zeta)
            residual = zeta + eval_series(hat, ez) - zeta0
            znew = zeta - residual / (1.0 + eval_series(dhat, ez))
        delta = float(np.max(np.abs(znew - zeta)))
        zeta = znew
        if delta < 1e-15 * (1.0 + float(np.max(np.abs(zeta)))):
            return zeta
    raise InversionDivergedError(
        f"log-lift fixed point did not converge (last delta {delta:.3e})"
    )


def invert(psi: CircleDiffeo, out_width: float, n_trunc: int | None = None) -> CircleDiffeo:
    """Inverse diffeomorphism, re-expanded at ``out_width``.

    Works on the log-lift where psi reads ``zeta -> zeta + hat(e^zeta)``; a
    derivative majorant below ``1/(1 + e^width)`` certifies both injectivity
    and the contraction driving the per-sample solve. The result is accepted
    only if ``psi^{-1} o psi`` is the identity to 1e-9 across the out_width
    annulus. The inverse carries more modes than psi (its hat decays only
    geometrically in the hat size), so the output truncation defaults to a
    comfortable multiple of the input's.
    """
    maj = majorant_norm(psi.hat, psi.width)
    if out_width > psi.width - 2.0 * maj:
        raise UnivalenceError(
            f"out_width {out_width:.6g} exceeds certified inversion width "
            f"{psi.width - 2.0 * maj:.6g}"
        )
    working = min(psi.width, out_width + 2.0 * maj) if maj > 0 else psi.width
    deriv = log_derivative_majorant(psi.hat, working) if psi.hat.truncation else 0.0
    threshold = 1.0 / (1.0 + np.exp(psi.width))
    if deriv > threshold:
        raise UnivalenceError(
            f"derivative majorant {deriv:.3e} exceeds {threshold:.3e}; "
            "univalence of the lift cannot be certified"
        )

    if n_trunc is None:
        n_trunc = max(16, 2 * psi.hat.truncation)
    m = max(4 * n_trunc, 8)
    theta = 2.0 * np.pi * np.arange(m) / m
    zeta = _solve_log_lift(psi.hat, (1j * theta) - 1j * psi.phase)
    inv = expand(np.exp(zeta), n_trunc, out_width)

    # certify strictly inside the out annulus so psi's image stays evaluable
    rho = (out_width - majorant_norm(psi.hat, out_width)) * (1.0 - 1e-9)
    radii = [1.0] if rho <= 0 else [np.exp(-rho), 1.0, np.exp(rho)]
    res = 0.0
    for r in radii:
        w = r * unit_circle(m)
        res = max(res, float(np.max(np.abs(eval_diffeo(inv, eval_diffeo(psi, w)) - w))))
    if res > 1e-9:
        raise InversionDivergedError(
            f"identity residual of psi^-1 o psi is {res:.3e} > 1e-9"
        )
    return inv


def apply_inverse(psi: CircleDiffeo, u: np.ndarray) -> np.ndarray:
    """Pointwise ``psi^{-1}(u)`` without re-expansion (u inside the annulus)."""
    ua = np.asarray(u, dtype=complex)
    zeta0 = np.log(np.abs(ua)) + 1j * np.angle(ua) - 1j * psi.phase
    return np.exp(_solve_log_lift(psi.hat, zeta0))
