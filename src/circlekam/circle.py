"""Analytic orientation-preserving circle diffeomorphisms in multiplicative
form ``w -> w exp(i phase + hat(w))``, built from samples by :func:`expand_detailed`.

``hat`` is a Laurent series with zero constant term obeying the reality
symmetry ``c_{-n} = -conj(c_n)``, which makes the exponent purely imaginary
on ``|w| = 1`` and hence keeps the unit circle invariant. The constant term
of the exponent is the multiplier phase; everything here tracks the log of
``f(w)/w`` along the circle with a continuously unwrapped branch, the winding
number of ``f(w)/w`` being the only obstruction to that branch existing.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientSamplesError,
    InversionDivergedError,
    NestingError,
    NotACircleMapError,
    UnivalenceError,
    ValidationError,
    WindingError,
)
from .series import (
    LaurentSeries,
    SeriesRows,
    _real,
    band_coeffs,
    circle_spectrum,
    log_derivative_majorant,
    majorant_norm,
    majorants,
    unit_circle,
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
        phase = float(self.phase)
        if not cmath.isfinite(phase):
            raise NotACircleMapError(f"phase {phase!r} is not finite")
        object.__setattr__(self, "phase", phase % TWO_PI)
        # both tests fail closed: a NaN or infinite coefficient fails one
        c0 = self.hat.coeff(0)
        if not abs(c0) <= 1e-12:
            raise NotACircleMapError(
                f"hat series has nonzero constant term {c0!r}"
            )
        defect = symmetry_defect(self.hat)
        if not defect <= SYMMETRY_TOL:
            raise NotACircleMapError(
                f"reality symmetry defect {defect:.3e} exceeds {SYMMETRY_TOL:.0e}"
            )

    @property
    def width(self) -> float:
        return self.hat.width

    def __call__(self, w):
        return eval_diffeo(self, w)

    def to_json_dict(self) -> dict:
        return {"phase": float(self.phase), "hat": self.hat.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CircleDiffeo":
        return cls(_real(doc["phase"]), LaurentSeries.from_json_dict(doc["hat"]))


def symmetry_defect(hat: LaurentSeries) -> float:
    """Max over n of ``|c_n + conj(c_{-n})|`` (n = 0 included); NaN when
    the coefficients hold a NaN, or infinities of opposite sign at n, -n.

    The max runs over the support: a pair of zeros adds exactly 0, and the
    term at -n has the bits of the one at n (the real parts add the same two
    numbers, the imaginary part is negated exactly)."""
    n, d = hat.support, hat.degree
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(hat.band[d + n] + np.conj(hat.band[d - n])),
                            initial=0.0))


def identity_map(width: float, n_trunc: int = 0) -> CircleDiffeo:
    return CircleDiffeo(0.0, LaurentSeries.zero(width, n_trunc))


def rotation(phase: float, width: float, n_trunc: int = 0) -> CircleDiffeo:
    return CircleDiffeo(phase, LaurentSeries.zero(width, n_trunc))


# -- rows of maps --------------------------------------------------------------
#
# The row functions below evaluate, invert and expand several maps at once,
# one row of a stacked array per map. A failing row does not stop the others:
# its first error is recorded in an ``errors`` dict keyed by row, and callers
# raise the error of the lowest failing row, which is the error a loop over
# the rows in order would have raised. The one-map functions eval_diffeo,
# apply_inverse, expand_detailed and compose are their one-row cases.


def _fail(errors: dict, bad: np.ndarray, make) -> None:
    """Record ``make(r)`` as the error of every flagged row r without one."""
    for r in bad.nonzero()[0].tolist():
        if r not in errors:
            errors[r] = make(r)


def _raise_first(errors: dict, labels=None) -> None:
    """Raise the error of the lowest failing row, its message prefixed with
    the row's label when labels are given."""
    if errors:
        r = min(errors)
        exc = errors[r]
        if labels is not None:
            exc.args = (f"{labels[r]}: {exc}",)
        raise exc


def _rows_of(maps) -> tuple[np.ndarray, SeriesRows]:
    return np.array([f.phase for f in maps]), SeriesRows.of([f.hat for f in maps])


def _eval_rows(phases: np.ndarray, hats: SeriesRows, w: np.ndarray, errors: dict,
               grid: bool = False):
    """Row r: ``w[r] exp(i phase_r + hat_r(w[r]))`` (or at the shared points
    ``w``); a row with a point outside its annulus fails. With ``grid`` the
    points are the shared ``unit_circle(M)`` and the hats are evaluated
    there by one inverse FFT (:meth:`SeriesRows.on_circles`), else by
    Horner."""
    _fail(errors, hats.outside(w), hats.domain_error)
    vals = hats.on_circles([0.0], w.size)[0] if grid else hats(w)
    return w * np.exp(1j * phases[:, None] + vals)


def _solve_log_lift(hats: SeriesRows, zeta0: np.ndarray, errors: dict) -> np.ndarray:
    """Solve ``zeta + hat_r(e^zeta) = zeta0[r]`` per sample and row.

    Fixed-point iteration ``zeta <- zeta0 - hat(e^zeta)`` (a contraction when
    the derivative majorant is below one), with a Newton fallback after 50
    sweeps and a hard cap of 200. Every sweep runs on the whole block; a row
    that has converged, or whose iterate has left its annulus, or that had
    failed before the solve, is finished and keeps its value under a mask.
    Row r of a sweep depends on row r alone, so each row takes exactly the
    sweeps, and gets exactly the bits, it would alone. A row that leaves its
    annulus fails; the overflow its last sweep may meet is not warned about,
    the error reports it.
    """
    zeta = zeta0.copy()
    active = np.array([r not in errors for r in range(zeta.shape[0])])
    masked = not active.all()   # no masking pass until some row is finished
    with np.errstate(all="ignore"):
        for it in range(200 if active.any() else 0):
            ez = np.exp(zeta)
            outside = hats.outside(ez)
            if outside.any():
                _fail(errors, outside, hats.domain_error)
            if it < 50:
                znew = zeta0 - hats(ez)
            else:
                center = (hats.coeffs.shape[-1] - 1) // 2
                dh = SeriesRows(hats.coeffs * np.arange(-center, center + 1), hats.widths)
                znew = zeta - (zeta + hats(ez) - zeta0) / (1.0 + dh(ez))
            step = np.abs(znew - zeta).max(axis=-1)
            if masked:
                np.copyto(znew, zeta, where=~active[:, None])
            zeta = znew
            stop = outside | (step < 1e-15 * (1.0 + np.abs(znew).max(axis=-1)))
            if stop.any():
                active[stop] = False
                masked = True
                if not active.any():
                    break
    _fail(errors, active, lambda r: InversionDivergedError(
        f"log-lift fixed point did not converge (last delta {step[r]:.3e})"))
    return zeta


def _inverse_rows(phases: np.ndarray, hats: SeriesRows, u: np.ndarray, errors: dict):
    """Row r: ``psi_r^{-1}(u[r])`` pointwise, by the log-lift solve."""
    zeta0 = np.log(np.abs(u)) + 1j * np.angle(u) - 1j * phases[:, None]
    return np.exp(_solve_log_lift(hats, zeta0, errors))


def eval_diffeos(maps, w: np.ndarray) -> np.ndarray:
    """Row r: ``maps[r]`` at the points ``w[r]`` (``w`` of shape (R, M)), or
    every map at the shared points ``w`` of shape (M,); raises the error of
    the first map with a point outside its annulus."""
    errors: dict = {}
    out = _eval_rows(*_rows_of(maps), w, errors)
    _raise_first(errors)
    return out


def eval_diffeo(f: CircleDiffeo, w):
    """Evaluate ``w exp(i phase + hat(w))`` inside the annulus of validity:
    the one-row case of :func:`eval_diffeos`."""
    wa = np.asarray(w, dtype=complex)
    return eval_diffeos([f], wa.reshape(1, -1)).reshape(wa.shape)[()]


def _tracked_log(gvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous branch of log along sampled values (per row, along the last
    axis); returns (log, winding).

    The winding number is the total increment of arg(g) around the closed
    loop divided by 2 pi.
    """
    arg = np.unwrap(np.angle(gvals), axis=-1)
    closing = np.angle(gvals[..., 0] * np.exp(-1j * arg[..., -1]))
    winding = (arg[..., -1] + closing - arg[..., 0]) / TWO_PI
    return np.log(np.abs(gvals)) + 1j * arg, winding


@dataclass(frozen=True)
class ExpandInfo:
    """Diagnostics of one spectral expansion."""

    symmetry_defect: float   # projection size applied to restore symmetry
    tail_mass: float         # discarded band N < |n| <= M/2, unit-circle sum
    noise_floor: float       # coefficients at or below this were zeroed
    # M, the unit-circle points sampled (0: nothing was expanded); a grid
    # size, not an outcome, so it is left out of comparisons
    points: int = field(default=0, compare=False)


def _expand_rows(vals: np.ndarray, n_trunc: int, errors: dict):
    """Row-wise spectral expansion of stacked samples (R, M): per row the
    phase, the hat coefficients (R, 2N+1) and an :class:`ExpandInfo`."""
    m = vals.shape[-1]
    if m < 4 * n_trunc or m < 1:
        raise InsufficientSamplesError(f"need at least 4N={4 * n_trunc} samples, got {m}")
    g = vals / unit_circle(m)
    _fail(errors, ~np.all(np.isfinite(g) & (g != 0), axis=-1),
          lambda r: ValidationError("samples contain zeros or non-finite values"))
    logg, winding = _tracked_log(g)
    _fail(errors, abs(winding) > 0.25, lambda r: WindingError(
        f"winding number of f(w)/w is {winding[r]:.3f}, expected 0; "
        "no global log branch exists"))
    spectrum = circle_spectrum(logg, n_trunc)
    hats = band_coeffs(spectrum, n_trunc)
    c0 = hats[:, n_trunc].copy()
    hats[:, n_trunc] = 0.0
    defect = np.maximum(np.abs(hats + np.conj(hats[:, ::-1])).max(axis=-1),
                        2.0 * np.abs(c0.real))
    _fail(errors, defect > SYMMETRY_TOL, lambda r: NotACircleMapError(
        f"symmetry defect {defect[r]:.3e} before projection exceeds "
        f"{SYMMETRY_TOL:.0e}: samples are not a circle diffeomorphism"))
    hats = 0.5 * (hats - np.conj(hats[:, ::-1]))
    logger.debug("expand: symmetry projections of size %s applied", defect)

    floor = NOISE_FLOOR_FACTOR * np.maximum(1.0, np.abs(logg).max(axis=-1))
    hats[np.abs(hats) <= floor[:, None]] = 0.0
    # the band N < |n| <= M/2 is the entries k = N+1 .. M-N-1 of the DFT
    tail = np.abs(spectrum[:, n_trunc + 1 : m - n_trunc])
    infos = [ExpandInfo(symmetry_defect=d, tail_mass=float(np.sum(t[t > f])),
                        noise_floor=f, points=m)
             for d, t, f in zip(defect.tolist(), tail, floor.tolist())]
    return [c % TWO_PI for c in c0.imag.tolist()], hats, infos


def expand_detailed(fvals, n_trunc: int, width: float) -> tuple[CircleDiffeo, ExpandInfo]:
    """The :class:`CircleDiffeo` of equispaced unit-circle samples of f, and its
    :class:`ExpandInfo`. log(f(w)/w) is tracked around the circle (a nonzero
    winding of f(w)/w raises); the constant Fourier term becomes the phase and
    the other modes the hat, projected onto the reality-symmetric subspace once
    the defect is checked, with sub-round-off coefficients zeroed."""
    errors: dict = {}
    with np.errstate(all="ignore"):
        phases, hats, infos = _expand_rows(np.asarray(fvals, dtype=complex)[None],
                                           n_trunc, errors)
    _raise_first(errors)
    return CircleDiffeo(phases[0], LaurentSeries.from_band(hats[0], width, n_trunc)), infos[0]


def expand_rows_by_degree(sample, degrees, n_trunc: int, width: float,
                          labels=None, bound=None) -> tuple[list, list]:
    """Expand the maps that ``sample`` evaluates row by row on one grid of
    unit-circle points, sized by the data rather than by ``n_trunc``.

    ``sample(w)`` returns the stacked values (R, M) at the points ``w`` and a
    dict of per-row errors. ``degrees[r]`` is the sum of the effective
    degrees of the factors row r composes. ``bound``, when given, holds per
    row a proven truncation ``k_r`` and the log-radius ``s_r`` it was read
    at (:func:`expand_chain`): ``log(g(w)/w)`` less its phase is bounded by
    some G on ``|log|w|| <= s_r``, so by Cauchy its coefficients obey
    ``|c_n| <= G e^{-|n| s_r}`` and those beyond ``k_r`` lie below a
    quarter of the least noise floor. On ``M = 4k`` points the DFT folds
    ``c_{n+jM}`` onto ``c_n``; for ``|n| <= k``, ``|n + jM| >= 3k`` when
    ``j != 0``, so the in-band aliasing is at most about ``2 G e^{-3ks}``
    (Trefethen and Weideman, "The exponentially convergent trapezoidal
    rule", SIAM Review 56, 2014). A row whose ``k_r`` is not finite starts
    where every row started before the bound: ``2 * degrees[r]``.

    The expansion starts at the largest row start ``k``, at least 1, with
    ``M = 4k`` samples, and doubles k while the measured band ``k < |n| <=
    2k`` of some row still holds a coefficient above that row's noise floor
    (``ExpandInfo.tail_mass > 0``) or some row fails, the adaptive-truncation
    rule of spectral methods (Aurentz and Trefethen, "Chopping a Chebyshev
    series", ACM TOMS 43, 2017). At ``k = n_trunc`` the grid is exactly the
    fixed one of ``max(4 n_trunc, 8)`` points, and only that attempt may
    raise: the error of the lowest failing row, prefixed with its label.
    Returns one map (hat zero-padded to ``n_trunc``, built from its band
    of the last attempt) and one :class:`ExpandInfo` per row. The final
    truncation, its number of points and the number of attempts are logged
    at debug level, with the largest finite row bound and its s, or "no
    bound".
    """
    starts = [2 * d for d in degrees]
    note = "no bound"
    if bound is not None:
        k_bound, s_bound = bound
        starts = [2 * d if kb == math.inf else kb for kb, d in zip(k_bound, degrees)]
        bounded = [(kb, sb) for kb, sb in zip(k_bound, s_bound) if kb < math.inf]
        if bounded:
            note = "bound k = %d, s = %.6g" % max(bounded)
    k = int(min(n_trunc, max(1, *starts)))
    attempts = 0
    while True:
        final = k >= n_trunc
        m = max(4 * n_trunc, 8) if final else 4 * k
        attempts += 1
        with np.errstate(all="ignore"):
            vals, errors = sample(unit_circle(m))
            phases, hats, infos = _expand_rows(vals, n_trunc if final else k, errors)
        if final:
            _raise_first(errors, labels)
        if final or not errors and all(i.tail_mass == 0.0 for i in infos):
            break
        k = min(2 * k, n_trunc)
    logger.debug("expand by degree: k = %d on M = %d points after %d attempts (%s)",
                 k, m, attempts, note)
    return [CircleDiffeo(p, LaurentSeries.from_band(h, width, n_trunc))
            for p, h in zip(phases, hats)], infos


def _width_sums(factors) -> list:
    """The weights of a chain (``(maps, inverse)`` pairs): per factor a
    (2, rows) array, each row's hat's majorant and log-derivative majorant
    at the hat's own width, from one stacked :func:`majorants` call."""
    hats = [f.hat for maps, _ in factors for f in maps]
    maj = majorants(hats * 2, [h.width for h in hats] * 2, np.repeat([0, 1], len(hats)))
    return list(maj.reshape(2, len(factors), -1).swapaxes(0, 1))


def _cauchy_start(factors, weights) -> tuple[list, list]:
    """Per row of a chain (``(maps, inverse)`` pairs in the order applied,
    as in :func:`expand_chain`), the proven start truncation k of its grid
    and the log-radius s it holds on, from its weights (:func:`_width_sums`)
    and no samples; k is inf where the chain nests on no annulus.

    In the log coordinate ``zeta = log w`` factor j moves zeta, anywhere on
    its strip ``|Re zeta| <= width``, by at most D_j. A forward factor moves
    it by ``i phase + hat(e^zeta)``, and ``|hat| <= sum |c_n| e^{|n|
    width}``, its majorant at its width. An inverse factor solves ``xi =
    zeta - i phase - hat(e^xi)``. With q_j the log-derivative majorant of
    its hat at its width, the right side is a q_j-contraction on the strip,
    and for ``q_j < 1`` it maps the disc of radius ``D_j = majorant / (1 -
    q_j)`` about ``zeta - i phase`` into itself as long as that disc lies in
    the strip; so the solution moves by at most D_j (Banach), and D_j is inf
    where ``q_j >= 1``.

    A point with ``|log|w|| <= s`` reaches factor j within ``s + Delta_j``,
    ``Delta_j = sum_{l<j} D_l``, of the real axis, which must lie within the
    factor's width (for an inverse, together with its disc: ``+ D_j``); s
    is the largest such log-radius. On ``|log|w|| <= s`` the function
    ``log(g(w)/w) - i Phi`` (Phi the sum of the phases, an inverse's
    negated) is the sum of the factors' moves, so ``G = sum_j D_j`` bounds
    it. Factor j's move is also its hat at the point the phases alone would
    give, a Laurent polynomial of the hat's degree d_j, plus a rest: that
    point lies within ``Delta_j`` (an inverse: ``Delta_j + D_j``) of the true
    one, and the hat moves by at most q_j times that. So beyond ``d = max_j
    d_j`` the coefficients are those of the rests, bounded by ``G2 =
    sum_j q_j (Delta_j [+ D_j])``. By Cauchy ``|c_n| <= G e^{-|n| s}``, and
    ``|c_n| <= G2 e^{-|n| s}`` for ``|n| > d``; k is the least with ``G
    e^{-(k+1) s} <= NOISE_FLOOR_FACTOR / 4``, or, if smaller, the larger of
    d and the least with ``G2 e^{-(k+1) s} <= NOISE_FLOOR_FACTOR / 4``. A
    displacement that is not finite leaves the row with no bound; a NaN
    weight makes its s NaN.
    """
    # the recursion over a chain's few factors is scalar
    table = [w.tolist() for w in weights]
    starts, radii = [], []
    for r in range(len(factors[0][0])):
        s, reach, rest, degree = math.inf, 0.0, 0.0, 0
        for (row, inverse), (maj, qs) in zip(factors, table):
            hat, m, q = row[r].hat, maj[r], qs[r]
            move, own = m, 0.0
            if inverse:
                move = own = m / (1.0 - q) if q < 1.0 else math.inf
            s = min(hat.width - reach - own, s)   # a NaN sticks
            rest += q * (reach + own)
            reach += move
            degree = max(degree, hat.degree)
        k = math.inf
        if s > 0 and reach < math.inf:
            k = min(_least_k(reach, s), max(degree, _least_k(rest, s)))
        starts.append(max(k, 0))
        radii.append(s)
    return starts, radii


def _least_k(bound: float, s: float) -> float:
    """The least k with ``bound e^{-(k+1) s} <= NOISE_FLOOR_FACTOR / 4``
    (-inf for a zero bound, inf for one that is not finite)."""
    if not bound < math.inf:
        return math.inf
    if bound == 0.0:
        return -math.inf
    return math.ceil(math.log(4.0 / NOISE_FLOOR_FACTOR * bound) / s) - 1


def expand_chain(factors, n_trunc: int, width: float, labels=None, bound=None):
    """Row r: the composite of ``factors``, expanded by
    :func:`expand_rows_by_degree`: the one sampler of every composite map
    and of every inverse. Each factor is a pair ``(maps, inverse)``, in the
    order applied: row r goes through ``maps[r]``, or its inverse when
    ``inverse`` is true. Returns the maps and their :class:`ExpandInfo`; an
    error names its row by its label.

    The grid starts at a proven truncation (:func:`_cauchy_start`). With
    a bound D_j on how far factor j moves ``log w`` on its own strip, the
    chain is defined on ``|log|w|| <= s`` for the largest s at which every
    factor is reached within its width, and there ``G = sum_j D_j`` bounds
    ``|log(g(w)/w) - i Phi|`` (Phi the sum of the phases, an inverse's
    negated), a function analytic on that annulus. So its coefficients
    obey the Cauchy estimate ``|c_n| <= G e^{-|n| s}``, and the least k
    with ``G e^{-(k+1) s} <= NOISE_FLOOR_FACTOR / 4`` leaves every
    coefficient beyond k below a quarter of the least noise floor; on
    ``4k`` points the aliasing is then at most about ``2 G e^{-3ks}``.
    Beyond the largest factor degree only the second-order rests of the
    factors' moves contribute, which gives a second, often smaller start
    (:func:`_cauchy_start`). G enters k through its log only, so weighing
    each factor at its width rather than at the reach costs little: one
    stacked majorant call per chain (:func:`_width_sums`), or none when the
    caller passes the ``(k, s)`` rows of :func:`_cauchy_start` as ``bound``.
    A row whose chain nests on no annulus starts at twice the sum of its
    factors' degrees.

    The innermost factor, when it is a forward one, is evaluated on the
    sampling grid itself by one inverse FFT whenever the grid has ``2d+1``
    points for its degree d; every other factor by Horner.
    """
    rows = [(_rows_of(maps), inverse) for maps, inverse in factors]
    degrees = [sum(f.hat.degree for f in row) for row in zip(*(m for m, _ in factors))]
    if bound is None:
        bound = _cauchy_start(factors, _width_sums(factors))

    def sample(w):
        errs: dict = {}
        for i, ((phases, hats), inverse) in enumerate(rows):
            if inverse:
                w = _inverse_rows(phases, hats, w, errs)
            else:
                grid = i == 0 and w.size >= 2 * hats.degree + 1
                w = _eval_rows(phases, hats, w, errs, grid)
        return w, errs

    return expand_rows_by_degree(sample, degrees, n_trunc, width, labels, bound)


def renew_rows(src, maps, dst, n_trunc: int, width: float, weights, labels=None):
    """``dst[r]^{-1} o maps[r] o src[r]`` for every row r by :func:`expand_chain`:
    the renewed maps and their :class:`ExpandInfo`; the grid starts at the
    Cauchy bound of the three factors' ``weights`` (as :func:`_width_sums`)."""
    factors = [(src, False), (maps, False), (dst, True)]
    return expand_chain(factors, n_trunc, width, labels, _cauchy_start(factors, weights))


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
    degree = int(f.hat.support[-1]) if f.hat.support.size else 0
    if degree <= 0:
        return float(base % 1.0)

    # the weights first: an orbit too long for memory fails at once, with
    # the size numpy could not allocate
    weights, half_weights = _bump_weights(iters), _bump_weights(iters // 2)
    # Im hat(z) / 2 pi = Im(sum_{n>=1} c_n z^n) / pi on |z| = 1, by Horner
    # from the highest nonzero mode down to n = 1; scalar Python beats numpy
    # at this size
    d = f.hat.degree
    horner = [complex(c) / np.pi for c in f.hat.band[d + degree : d : -1]]
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
    mean = float(weights @ d[1:])
    spread = abs(mean - float(half_weights @ d[1:half]))
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


def compose_rows(chain, out_width: float, n_trunc: int, labels=None) -> tuple[list, list]:
    """Row r: ``chain[0][r] o chain[1][r] o ...`` (outermost factor first)
    re-expanded at width ``out_width`` by :func:`expand_chain`, with the
    :class:`ExpandInfo` of each row; a chain of one factor is its maps
    re-widthed, not re-expanded (infos of zeros).

    Nesting is certified first, with no samples, from the inside out by
    the one-sided weighted norms: the reach starts at ``out_width``, must
    lie within each factor's width (NaN fails), and then grows by that
    factor's majorant at the reach. A failing row is weighed no further;
    the first failing row's :class:`NestingError`, naming the factor and
    prefixed with the row's label, is raised before any row is sampled.
    The grid bound of :func:`expand_chain` weighs the factors at their
    widths anyway, and those majorants bound the ones at the reach: a row
    whose log-radius s (:func:`_cauchy_start`) exceeds ``out_width`` by
    ``1e-12`` times the widest factor's width, which covers the rounding of
    the sums, nests by the reach too; if all rows do, none is weighed again."""
    factors = [(maps, False) for maps in reversed(chain)]
    bound = _cauchy_start(factors, _width_sums(factors)) if len(chain) > 1 else None
    margin = 1e-12 * max(f.width for maps in chain for f in maps)
    errors: dict = {}
    if bound is None or not all(s - out_width >= margin for s in bound[1]):
        reach = np.full(len(chain[0]), float(out_width))
        for i in reversed(range(len(chain))):
            for r, (x, f) in enumerate(zip(reach.tolist(), chain[i])):
                if r not in errors and not x <= f.width:
                    errors[r] = NestingError(
                        f"factor {i}: the factors inside it map the width-{out_width:.6g} "
                        f"annulus into width {x:.6g}, outside its domain width {f.width:.6g}",
                        f"inner factors(out_annulus) within domain(factor {i})")
            if i:
                live = [r for r in range(reach.size) if r not in errors]
                reach[live] += majorants([chain[i][r].hat for r in live], reach[live])
    _raise_first(errors, labels)
    if len(chain) == 1:
        return ([CircleDiffeo(f.phase, f.hat.with_width(out_width)) for f in chain[0]],
                [ExpandInfo(0.0, 0.0, 0.0) for _ in chain[0]])
    return expand_chain(factors, n_trunc, out_width, labels, bound)


def compose(
    g: CircleDiffeo, f: CircleDiffeo, out_width: float, n_trunc: int | None = None
) -> CircleDiffeo:
    """``g o f`` re-expanded at width ``out_width``: the one-row case of
    :func:`compose_rows`. Composition populates modes beyond those of either
    factor, so the truncation defaults to the sum of the factors'."""
    if n_trunc is None:
        n_trunc = f.hat.truncation + g.hat.truncation
    return compose_rows([[g], [f]], out_width, n_trunc)[0][0]


def invert(psi: CircleDiffeo, out_width: float, n_trunc: int | None = None) -> CircleDiffeo:
    """Inverse diffeomorphism, re-expanded at ``out_width``.

    Works on the log-lift where psi reads ``zeta -> zeta + hat(e^zeta)``; a
    derivative majorant below ``1/(1 + e^width)`` certifies both injectivity
    and the contraction driving the per-sample solve. The inverse carries
    more modes than psi (its hat decays only geometrically in the hat size),
    so the output truncation defaults to a comfortable multiple of the
    input's. The pointwise inverse is expanded by :func:`expand_chain`, on
    the grid started from its Cauchy bound and doubled until the inverse's
    band is resolved. The result is accepted only if ``psi^{-1} o psi`` is the
    identity to 1e-9 on three radii of the out_width annulus, each sampled
    at ``max(4 n_trunc, 8)`` points whatever grid the expansion stopped at.
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
    (inv,), _ = expand_chain([([psi], True)], n_trunc, out_width)
    unit = unit_circle(max(4 * n_trunc, 8))

    # certify strictly inside the out annulus so psi's image stays evaluable
    rho = (out_width - majorant_norm(psi.hat, out_width)) * (1.0 - 1e-9)
    radii = np.array([1.0] if rho <= 0 else [np.exp(-rho), 1.0, np.exp(rho)])
    w = (radii[:, None] * unit).ravel()
    res = float(np.max(np.abs(eval_diffeo(inv, eval_diffeo(psi, w)) - w)))
    if not res <= 1e-9:
        raise InversionDivergedError(
            f"identity residual of psi^-1 o psi is {res:.3e} > 1e-9"
        )
    return inv


def conjugated_rotation(
    psi: CircleDiffeo, phase: float, n_trunc: int, out_width: float
) -> CircleDiffeo:
    """The map ``psi o R_phase o psi^{-1}`` sampled pointwise and re-expanded.

    Pairs built this way from one common psi are simultaneously linearizable
    by construction, which is what the genus-2 coboundary condition demands
    at every level of the iteration. The samples ``psi(e^{i phase}
    psi^{-1}(w))`` are taken on the grid of :func:`expand_rows_by_degree`,
    started from twice psi's degree (psi and its inverse are the two
    factors), so the cost follows psi's modes rather than ``n_trunc``. Only
    the last attempt, on the ``max(4 n_trunc, 8)``-point grid, raises. The
    turn is one scalar product, not a rotation factor of :func:`expand_chain`,
    which evaluates it as an array: that changed the bits of all of 200
    random maps and made 32 builds 14-23 % slower on a 2-vCPU Xeon.
    """
    rows = _rows_of([psi])
    turn = np.exp(1j * phase)

    def sample(w):
        errors: dict = {}
        z = _inverse_rows(*rows, w, errors)
        return _eval_rows(*rows, turn * z, errors), errors

    (f,), _ = expand_rows_by_degree(sample, [2 * psi.hat.degree], n_trunc, out_width)
    return f


def apply_inverses(maps, u: np.ndarray) -> np.ndarray:
    """Row r: ``maps[r]^{-1}(u[r])`` pointwise without re-expansion (``u`` of
    shape (R, M), inside the annuli); raises the error of the first map
    whose solve fails."""
    errors: dict = {}
    out = _inverse_rows(*_rows_of(maps), u, errors)
    _raise_first(errors)
    return out


def apply_inverse(psi: CircleDiffeo, u: np.ndarray) -> np.ndarray:
    """Pointwise ``psi^{-1}(u)`` without re-expansion (u inside the annulus):
    the one-row case of :func:`apply_inverses`."""
    ua = np.asarray(u, dtype=complex)
    return apply_inverses([psi], ua.reshape(1, -1)).reshape(ua.shape)[()]
