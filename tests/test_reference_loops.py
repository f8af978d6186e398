"""The array-native numerical core against the per-mode and per-coefficient
loops it replaced, the one-FFT spectral expansion against the two-FFT form
it replaced, the data-sized forms (degree-sized expansion grids, one
stacked solve per step, the mirrored spectrum) against the fixed-size forms
they replaced, the edge-stacked step (stacked majorants, the array C0
fit, the stacked decay audit, the batched renewal) against the per-edge
loops it replaced, the pruned C0 fit against the full spectrum, and the
support-sized passes of a step (symmetry defect, change solve, the decay
audit in closed form) and the series document written from the support
against the full-width forms they replaced, ``conjugated_rotation``
and ``invert`` on degree-sized grids against the fixed grid they replaced,
the circle evaluator by inverse FFT and the sup norms built on it against
Horner, every chain expansion started at its Cauchy bound against the
fixed grid, the nesting verdict of ``compose_rows`` against the loop
that weighs every factor at the reach, and the integer walk order of a
step's modes against the Python sort key it replaced.

Each reference below is the replaced formulation kept verbatim, except
``majorant_loop``, which adds the same support terms as ``majorants``
left to right in an explicit loop. Where the new code performs the same
floating-point operations in the same order on every nonzero term,
results must match exactly, not within a tolerance.
The degree-sized expansion, the batched renewal, the two scenario
builders and the bound-started chains sample a different grid, the FFT
evaluator sums in another order and the stacked solve uses a
pseudo-inverse instead of ``lstsq``; those match to a stated round-off.
"""

import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from circlekam import (
    CircleDiffeo,
    CircleKamError,
    CoboundaryError,
    DiophantineFit,
    Edge,
    InsufficientSamplesError,
    InversionDivergedError,
    KamParams,
    LaurentSeries,
    Nerve,
    NestingError,
    TransitionSystem,
    ResonantModeError,
    UnitaryFlatBundle,
    UnivalenceError,
    ValidationError,
    WindingError,
    amplification_spectrum,
    conjugated_rotation,
    fit_diophantine,
    invert,
    rotation,
)
from circlekam.circle import (
    NOISE_FLOOR_FACTOR,
    SYMMETRY_TOL,
    ExpandInfo,
    RotationConvergenceWarning,
    _cauchy_start,
    _tracked_log,
    _width_sums,
    apply_inverse,
    apply_inverses,
    compose_rows,
    eval_diffeo,
    expand_chain,
    expand_detailed,
    expand_rows_by_degree,
    renew_rows,
    rotation_number,
    symmetry_defect,
    unit_circle,
)
from circlekam.cocycle import (
    RANK_RCOND,
    TWO_PI,
    ModeCochainSolution,
    _mode_tensor,
    _pseudo_inverses,
    _raise_if_resonant,
    _rank_deficient,
    _rank_floor,
    _resonant_cycle,
    amplification_bounds,
    amplification_norms,
    fit_c0,
    mode_matrix,
    solve_modes,
)
from circlekam.engine import (
    COBOUNDARY_REL_TOL,
    SYMMETRY_PROJECTION_TOL,
    StepReport,
    _certify,
    _decay_failures,
    _solve_changes,
    _walk_order,
    resolve_c0,
)
from circlekam.series import (
    SERIALIZATION_FLOOR,
    AnnulusDomainError,
    DecayReport,
    SeriesRows,
    coeffs_from_circle,
    decay_check,
    decay_checks,
    empirical_sup_norms,
    eval_series,
    log_derivative_majorant,
    majorant_norm,
    majorants,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def symmetrize(hat):
    """Project onto the reality-symmetric subspace; return (series, defect)."""
    arr = 0.5 * (hat.coeffs - np.conj(hat.coeffs[::-1]))
    return LaurentSeries(arr, hat.width), symmetry_defect(hat)


def expand_by_degree(sample, degree, n_trunc, width):
    """The one-row case of ``expand_rows_by_degree``: the map the callable
    ``sample`` evaluates on unit-circle points, on a grid sized by
    ``degree``; an attempt below ``n_trunc`` whose sample raises a
    :class:`CircleKamError` is retried at twice the truncation."""
    def rows(w):
        try:
            return np.asarray(sample(w), dtype=complex)[None], {}
        except CircleKamError as exc:
            return np.full((1, w.size), np.nan, dtype=complex), {0: exc}

    maps, infos = expand_rows_by_degree(rows, [degree], n_trunc, width)
    return maps[0], infos[0]


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def eval_series_dense(s, w):
    """Horner over all 2N+1 coefficients, leading zeros included."""
    wa = np.asarray(w, dtype=complex)
    n_t = s.truncation
    pos = s.coeffs[n_t:]
    neg = s.coeffs[:n_t][::-1]
    acc = np.zeros_like(wa)
    for c in pos[::-1]:
        acc = acc * wa + c
    if n_t > 0:
        u = 1.0 / wa
        acc_neg = np.zeros_like(wa)
        for c in neg[::-1]:
            acc_neg = acc_neg * u + c
        acc = acc + acc_neg * u
    return acc


def decay_check_loop(s, norm_sigma, slack=1e-12):
    n_t = s.truncation
    passed = True
    worst_index = None
    worst_excess = 0.0
    for n in range(-n_t, n_t + 1):
        if n == 0:
            continue
        bound = norm_sigma * np.exp(-abs(n) * s.width)
        excess = abs(s.coeff(n)) - bound
        good = excess <= slack * max(1.0, norm_sigma)
        if not good:
            passed = False
            if excess > worst_excess:
                worst_excess = excess
                worst_index = n
    return DecayReport(norm_sigma=float(norm_sigma), passed=passed,
                       worst_index=worst_index, worst_excess=float(worst_excess))


def coeffs_from_circle_loop(vals, n_trunc, width):
    vals = np.asarray(vals, dtype=complex)
    m = vals.size
    spectrum = np.fft.fft(vals) / m
    arr = np.zeros(2 * n_trunc + 1, dtype=complex)
    for n in range(-n_trunc, n_trunc + 1):
        arr[n + n_trunc] = spectrum[n % m]
    return LaurentSeries(arr, width)


def expand_detailed_two_ffts(fvals, n_trunc, width):
    """Spectral expansion taking one FFT for the band |n| <= N (through
    ``coeffs_from_circle``) and a second one for the tail band."""
    vals = np.asarray(fvals, dtype=complex)
    m = vals.size
    logg, _ = _tracked_log(vals / unit_circle(m))
    raw = coeffs_from_circle(logg, n_trunc, width)
    phase = float(np.imag(raw.coeff(0))) % TWO_PI
    hat_arr = raw.coeffs.copy()
    hat_arr[raw.truncation] = 0.0
    hat, defect = symmetrize(LaurentSeries(hat_arr, width))
    defect = max(defect, 2.0 * abs(float(np.real(raw.coeff(0)))))
    floor = NOISE_FLOOR_FACTOR * max(1.0, float(np.max(np.abs(logg))))
    arr = hat.coeffs.copy()
    arr[np.abs(arr) <= floor] = 0.0
    spectrum = np.fft.fft(logg) / m
    wave = ((np.arange(m) + m // 2) % m) - m // 2
    tail_coeffs = np.abs(spectrum[np.abs(wave) > n_trunc])
    tail = float(np.sum(tail_coeffs[tail_coeffs > floor]))
    return (CircleDiffeo(phase, LaurentSeries(arr, width)),
            ExpandInfo(symmetry_defect=float(defect), tail_mass=tail,
                       noise_floor=float(floor)))


def mode_matrix_loop(bundle, n):
    nerve = bundle.nerve
    a = np.zeros((len(nerve.edges), len(nerve.charts)), dtype=complex)
    for row, (e, phi) in enumerate(zip(nerve.edges, bundle.phases)):
        j = nerve.charts.index(e.src)
        k = nerve.charts.index(e.dst)
        a[row, k] += np.exp(1j * n * phi)
        a[row, j] -= 1.0
    return a


def amplification_spectrum_loop(bundle, n_max):
    out = {}
    n_charts = len(bundle.nerve.charts)
    n_edges = len(bundle.nerve.edges)
    for k in range(1, n_max + 1):
        for n in (k, -k):
            a_mat = mode_matrix_loop(bundle, n)
            svals = np.linalg.svd(a_mat, compute_uv=False)
            s_max = float(svals[0]) if svals.size else 0.0
            rank = int(np.sum(svals > RANK_RCOND * max(1.0, s_max)))
            if rank < n_charts:
                hit = _resonant_cycle(bundle, n)
                if hit is not None:
                    cyc, h = hit
                    raise ResonantModeError(
                        mode=n,
                        loop=[f"{'+' if s > 0 else '-'}{e}" for e, s in cyc],
                        holonomy=float((n * h) % TWO_PI),
                    )
            pinv = np.linalg.pinv(a_mat, rcond=RANK_RCOND)
            out[n] = float(np.max(np.sum(np.abs(pinv), axis=1))) if n_edges else 0.0
    return out


def expand_fixed_grid(sample, n_trunc, width):
    """Expansion on the fixed grid of M = max(4N, 8) samples, whatever the
    degree of the data."""
    return expand_detailed(sample(unit_circle(max(4 * n_trunc, 8))), n_trunc, width)


def conjugated_rotation_fixed_grid(psi, phase, n_trunc, out_width):
    """``psi o R_phase o psi^{-1}`` sampled and expanded on the fixed grid,
    with its :class:`ExpandInfo`."""
    return expand_fixed_grid(
        lambda w: eval_diffeo(psi, np.exp(1j * phase) * apply_inverse(psi, w)),
        n_trunc, out_width)


def invert_fixed_grid(psi, out_width, n_trunc):
    """``invert`` with the inverse expanded on the fixed grid, with the
    :class:`ExpandInfo` of that expansion."""
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
    inv, info = expand_detailed(apply_inverse(psi, unit_circle(max(4 * n_trunc, 8))),
                                n_trunc, out_width)
    res = identity_residual(inv, psi, out_width, n_trunc)
    if not res <= 1e-9:
        # the one failure that carries the inverse it rejects
        err = InversionDivergedError(f"identity residual of psi^-1 o psi is {res:.3e} > 1e-9")
        err.inverse, err.info, err.residual = inv, info, res
        raise err
    return inv, info


def identity_residual(inv, psi, out_width, n_trunc):
    """``max |inv(psi(w)) - w|`` on invert's three radii of the out_width
    annulus, each sampled at ``max(4 n_trunc, 8)`` points."""
    rho = (out_width - majorant_norm(psi.hat, out_width)) * (1.0 - 1e-9)
    radii = np.array([1.0] if rho <= 0 else [np.exp(-rho), 1.0, np.exp(rho)])
    w = (radii[:, None] * unit_circle(max(4 * n_trunc, 8))).ravel()
    return float(np.max(np.abs(eval_diffeo(inv, eval_diffeo(psi, w)) - w)))


def solve_mode_lstsq(bundle, n, b, solvability_tol=None):
    """One mode by its own SVD rank test and ``lstsq`` at that rank.

    The rank r is the number of singular values of conj(A) above
    ``_rank_floor``, the comparison of ``_rank_deficient`` on the matrix
    whose SVD the code takes, so a value that ties the floor is kept or
    dropped as the code keeps or drops it. ``lstsq`` then takes its own SVD
    of A with a cut-off halfway between the r-th and the next singular
    value, away from any tie, so its solution is computed independently of
    the code's."""
    nerve = bundle.nerve
    bvec = np.asarray(b, dtype=complex)
    a_mat = mode_matrix(bundle, n)
    svals = np.linalg.svd(a_mat.conj(), compute_uv=False)
    rank = int(np.sum(svals > _rank_floor(svals)))
    deficient = rank < len(nerve.charts)
    if deficient:
        _raise_if_resonant(bundle, n)
    below = np.append(svals, 0.0)
    rcond = 2.0 if rank == 0 else 0.5 * (below[rank - 1] + below[rank]) / svals[0]
    sol, *_ = np.linalg.lstsq(a_mat, bvec, rcond=rcond)
    residual = float(np.max(np.abs(a_mat @ sol - bvec))) if bvec.size else 0.0
    b_norm = float(np.max(np.abs(bvec))) if bvec.size else 0.0
    amp = float(np.max(np.abs(sol)) / b_norm) if b_norm > 0 else 0.0
    if solvability_tol is not None and residual > solvability_tol:
        raise CoboundaryError(mode=n, residual=residual, norm=b_norm)
    return ModeCochainSolution(
        n=n, a=sol, residual=residual, amplification=amp, has_kernel=deficient
    )


def amplification_spectrum_full(bundle, n_max):
    """One stacked SVD over all 2 n_max modes 1, -1, 2, -2, ..."""
    modes = np.arange(1, n_max + 1).repeat(2) * np.tile([1, -1], n_max)
    if not bundle.nerve.edges:
        return {int(n): 0.0 for n in modes}
    u, s, vt = np.linalg.svd(_mode_tensor(bundle, modes).conj(),
                             full_matrices=False)
    deficient = np.flatnonzero(_rank_deficient(s, len(bundle.nerve.charts)))
    if deficient.size:
        _raise_if_resonant(bundle, int(modes[deficient[0]]))
    large = s > RANK_RCOND * np.max(s, axis=-1, keepdims=True)
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    pinv = np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u, -1, -2))
    norms = np.max(np.sum(np.abs(pinv), axis=-1), axis=-1)
    return dict(zip(modes.tolist(), norms.tolist()))


def majorant_loop(s, sigma_prime, power=0):
    """One weighted sum per series over the terms of its support, added
    left to right in ascending n in an explicit loop."""
    if not (0 < sigma_prime <= s.width):
        raise AnnulusDomainError(f"sigma_prime={sigma_prime} not in (0, {s.width}]")
    pos = s.support + s.truncation
    n_abs = np.abs(s.support)
    with np.errstate(over="ignore"):
        terms = n_abs ** power * np.abs(s.coeffs[pos]) * np.exp(n_abs * sigma_prime)
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def fit_diophantine_loop(spectrum, mu):
    """The power-law fit as a dict comprehension over the spectrum."""
    if mu <= 1:
        raise ValidationError(f"mu must exceed 1, got {mu}")
    if not spectrum:
        raise ValidationError("empty amplification spectrum")
    ratios = {n: a / abs(n) ** (mu - 1.0) for n, a in spectrum.items()}
    argmax = max(ratios, key=lambda n: (ratios[n], -abs(n)))
    c0 = ratios[argmax]
    per_mode = {n: spectrum[n] <= c0 * abs(n) ** (mu - 1.0) * (1 + 1e-12)
                for n in spectrum}
    last = max(abs(n) for n in spectrum)
    bulk = float(np.median(list(ratios.values())))
    superpoly = abs(argmax) == last and bulk > 0 and c0 > 4.0 * bulk
    return DiophantineFit(c0=float(c0), mu=float(mu), argmax_mode=int(argmax),
                          per_mode_pass=per_mode, superpolynomial=bool(superpoly))


def symmetry_defect_full(hat):
    """Max of ``|c_n + conj(c_{-n})|`` over all 2N+1 coefficients."""
    flipped = np.conj(hat.coeffs[::-1])
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(hat.coeffs + flipped))) if hat.coeffs.size else 0.0


def solve_changes_full(system, params, sigma_m, eta_m, report):
    """The change solve on dense (edges, 2N+1) and (charts, 2N+1) blocks."""
    nerve = system.nerve
    bundle = system.bundle()
    n_t = params.n_trunc
    hats = np.array([f.hat.dense(n_t) for f in system.transitions])
    populated = np.any(np.abs(hats) > 0, axis=0)
    populated[n_t] = False
    scale = float(np.max(np.abs(hats[:, populated]))) if populated.any() else 0.0
    coeffs = np.zeros((len(nerve.charts), 2 * n_t + 1), dtype=complex)
    modes = sorted((np.flatnonzero(populated) - n_t).tolist(),
                   key=lambda k: (abs(k), -k))
    cols = np.array(modes, dtype=int) + n_t
    sols, residuals, _, _ = solve_modes(bundle, modes, hats[:, cols].T,
                                        solvability_tol=COBOUNDARY_REL_TOL * scale)
    for col, a in zip(cols, sols):
        coeffs[:, col] = a
    report.worst_mode_residual = max(residuals.tolist(), default=0.0)
    report.modes_solved = len(modes)
    flipped = np.conj(coeffs[:, ::-1])
    report.symmetry_projection = float(np.max(np.abs(coeffs + flipped)))
    _certify(report, "change_reality_symmetry", report.symmetry_projection,
             SYMMETRY_PROJECTION_TOL)
    return {c: CircleDiffeo(0.0, LaurentSeries(row, sigma_m - eta_m))
            for c, row in zip(nerve.charts, 0.5 * (coeffs - flipped))}


def expand_by_degree_loop(sample, degree, n_trunc, width):
    """One map per call, on its own degree-sized grid."""
    k = min(n_trunc, max(1, 2 * degree))
    while k < n_trunc:
        try:
            f, info = expand_detailed(sample(unit_circle(4 * k)), k, width)
            if info.tail_mass == 0.0:
                hat = LaurentSeries(f.hat.dense(n_trunc), width)
                return CircleDiffeo(f.phase, hat), info
        except CircleKamError:
            pass
        k = min(2 * k, n_trunc)
    return expand_detailed(sample(unit_circle(max(4 * n_trunc, 8))), n_trunc, width)


def empirical_sup_norms_horner(hats, sigma_prime, samples):
    """The sampled sup norms by Horner at the points ``e^{-sigma'}``, 1 and
    ``e^{sigma'}`` times ``unit_circle(samples)``."""
    radii = np.array([np.exp(-sigma_prime), 1.0, np.exp(sigma_prime)])
    vals = SeriesRows.of(hats)((radii[:, None] * unit_circle(samples)).ravel())
    return np.max(np.abs(vals), axis=-1, initial=0.0)


def expand_chain_fixed_grid(factors, n_trunc, width):
    """Each row of ``factors`` sampled point by point on the fixed grid of
    ``max(4N, 8)`` points and expanded there: its map and :class:`ExpandInfo`."""
    out = []
    for r in range(len(factors[0][0])):
        w = unit_circle(max(4 * n_trunc, 8))
        for maps, inverse in factors:
            w = apply_inverse(maps[r], w) if inverse else eval_diffeo(maps[r], w)
        out.append(expand_detailed(w, n_trunc, width))
    return out


def renewal_weights(src, maps, dst):
    """The weights ``renew_rows`` takes, weighed by ``_width_sums``."""
    return _width_sums([(src, False), (maps, False), (dst, True)])


def renew_by_edge(edges, src, maps, dst, n_trunc, width):
    """psi_dst^{-1} o f o psi_src edge by edge; an error names its edge."""
    out = []
    for e, a, f, b in zip(edges, src, maps, dst):
        try:
            out.append(expand_by_degree_loop(
                lambda w: apply_inverse(b, eval_diffeo(f, eval_diffeo(a, w))),
                a.hat.degree + f.hat.degree + b.hat.degree, n_trunc, width))
        except CircleKamError as exc:
            raise type(exc)(f"edge {e}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


@st.composite
def sparse_series(draw):
    """A series with truncation N, effective degrees d+ and d- at most N on
    each side (trailing zeros beyond), and a random share of zeros within."""
    n_t = draw(st.integers(0, 40))
    d_pos = draw(st.integers(-1, n_t))
    d_neg = draw(st.integers(0, n_t))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    width = draw(st.floats(0.05, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = (rng.standard_normal(2 * n_t + 1) + 1j * rng.standard_normal(2 * n_t + 1))
    arr *= np.exp(-np.abs(np.arange(-n_t, n_t + 1)) * width)
    arr[rng.random(arr.size) > density] = 0.0
    arr[n_t + d_pos + 1:] = 0.0
    arr[: n_t - d_neg] = 0.0
    return LaurentSeries(arr, width)


def annulus_points(rng, width, count):
    radius = np.exp(width * rng.uniform(-0.999, 0.999, count))
    return radius * np.exp(2j * np.pi * rng.random(count))


def star_bundle(phases):
    """Charts U0..Uk, k = len(phases), and per j an edge U0->Uj "+" of phase
    ``phases[j-1]`` and an edge U0->Uj "-" of phase 0: k loops through U0,
    the shape of ``build_genus2`` with k maps."""
    charts = tuple(f"U{j}" for j in range(len(phases) + 1))
    edges = tuple(Edge("U0", c, label) for c in charts[1:] for label in "+-")
    return UnitaryFlatBundle(Nerve(charts, edges),
                             tuple(p for phi in phases for p in (phi, 0.0)))


def genus2_bundle(phi1, phi2):
    return star_bundle([phi1, phi2])


def forest_bundle(phases):
    """A path-and-star tree on len(phases) + 1 charts (no cycles)."""
    charts = tuple(f"C{i}" for i in range(len(phases) + 1))
    edges = tuple(Edge(charts[i // 2], charts[i + 1], f"t{i}")
                  for i in range(len(phases)))
    return UnitaryFlatBundle(Nerve(charts, edges), tuple(phases))


def one_cycle_bundle(phases):
    """The tree of :func:`forest_bundle` on len(phases) charts plus one edge
    from its last chart back to the first: a nerve with a single loop."""
    charts = tuple(f"C{i}" for i in range(len(phases)))
    edges = tuple(Edge(charts[i // 2], charts[i + 1], f"t{i}")
                  for i in range(len(phases) - 1))
    edges += (Edge(charts[-1], charts[0], "back"),)
    return UnitaryFlatBundle(Nerve(charts, edges), tuple(phases))


def single_chart_bundle(phases):
    """One chart with one loop per phase."""
    edges = tuple(Edge("U0", "U0", f"loop{i}") for i in range(len(phases)))
    return UnitaryFlatBundle(Nerve(("U0",), edges), tuple(phases))


def four_chart_bundle(phases):
    """Four charts on a square with a diagonal and a loop at U1: three
    independent cycles, one of them a loop at one chart."""
    charts = ("U0", "U1", "U2", "U3")
    edges = (Edge("U0", "U1", "a"), Edge("U1", "U2", "b"), Edge("U2", "U3", "c"),
             Edge("U3", "U0", "d"), Edge("U0", "U2", "e"), Edge("U1", "U1", "f"))
    return UnitaryFlatBundle(Nerve(charts, edges), tuple(phases))


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(sparse_series(), st.integers(0, 2**32 - 1))
def test_eval_series_equals_dense_horner(s, seed):
    w = annulus_points(np.random.default_rng(seed), s.width, 33)
    assert np.array_equal(eval_series(s, w), eval_series_dense(s, w))
    assert eval_series(s, w[0]) == complex(eval_series_dense(s, w[0]))


@settings(max_examples=150, deadline=None)
@given(sparse_series(), st.floats(0.0, 3.0), st.sampled_from([1e-12, 0.0]))
def test_decay_check_equals_loop(s, norm_scale, slack):
    # scales below the data's size make indices fail, so worst_index and
    # worst_excess are exercised as well as the passing branch
    norm = norm_scale * float(np.max(np.abs(s.coeffs)) * np.exp(s.width * s.truncation))
    assert decay_check(s, norm, slack) == decay_check_loop(s, norm, slack)


def test_decay_check_equals_loop_on_ties_and_nan():
    # equal excesses at -1 and +1: the lower index is the worst one
    s = LaurentSeries.from_coeffs({-1: 2.0, 1: 2.0, 2: 0.5}, 1.0)
    assert decay_check(s, 0.1) == decay_check_loop(s, 0.1)
    assert decay_check(s, 0.1).worst_index == -1
    nan_norm = decay_check(s, float("nan"))
    ref = decay_check_loop(s, float("nan"))
    assert (nan_norm.passed, nan_norm.worst_index) == (ref.passed, ref.worst_index)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(0, 64), st.integers(0, 2**32 - 1))
def test_coeffs_from_circle_equals_loop(n_t, extra, seed):
    rng = np.random.default_rng(seed)
    m = max(4 * n_t, 1) + extra
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    got = coeffs_from_circle(vals, n_t, 0.7)
    want = coeffs_from_circle_loop(vals, n_t, 0.7)
    assert np.array_equal(got.coeffs, want.coeffs) and got.width == want.width


@settings(max_examples=100, deadline=None)
@given(sparse_series(), st.integers(0, 24), st.integers(0, 40),
       st.floats(0.0, TWO_PI, exclude_max=True))
def test_expand_detailed_equals_two_fft_form(s, n_t, extra, phase):
    # hats narrower and wider than n_t, so the tail band is empty or not
    arr = 1e-3 * s.coeffs
    arr[s.truncation] = 0.0
    hat, _ = symmetrize(LaurentSeries(arr, 1.0))
    m = max(4 * n_t, 8) + extra
    vals = eval_diffeo(CircleDiffeo(phase, hat), unit_circle(m))
    got_map, got_info = expand_detailed(vals, n_t, 0.9)
    want_map, want_info = expand_detailed_two_ffts(vals, n_t, 0.9)
    assert got_map.phase == want_map.phase
    assert np.array_equal(got_map.hat.coeffs, want_map.hat.coeffs)
    assert got_info == want_info


def test_expand_detailed_keeps_sample_count_check():
    with pytest.raises(InsufficientSamplesError):
        expand_detailed(unit_circle(15), 4, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, TWO_PI, exclude_max=True),
       st.floats(0.0, TWO_PI, exclude_max=True), st.integers(1, 96))
def test_amplification_spectrum_equals_loop_on_genus2(phi1, phi2, n_max):
    bundle = genus2_bundle(phi1, phi2)
    try:
        want = amplification_spectrum_loop(bundle, n_max)
    except ResonantModeError as ref:
        with pytest.raises(ResonantModeError) as got:
            amplification_spectrum(bundle, n_max)
        assert (got.value.mode, got.value.loop, got.value.holonomy) == (
            ref.mode, ref.loop, ref.holonomy)
        return
    got = amplification_spectrum(bundle, n_max)
    assert list(got) == list(want)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=5),
       st.integers(1, 64))
def test_amplification_spectrum_equals_loop_on_forests(phases, n_max):
    bundle = forest_bundle(phases)
    got = amplification_spectrum(bundle, n_max)
    want = amplification_spectrum_loop(bundle, n_max)
    assert list(got) == list(want)
    assert got == want


# genus-2 modes lose rank only where both loops resonate: n = lcm(q1, q2)
@pytest.mark.parametrize("p1,q1,p2,q2", [(1, 3, 2, 7), (3, 8, 1, 4), (2, 5, 2, 5),
                                         (1, 2, 5, 9)])
def test_resonance_reported_as_by_loop(p1, q1, p2, q2):
    bundle = genus2_bundle(TWO_PI * p1 / q1, TWO_PI * p2 / q2)
    with pytest.raises(ResonantModeError) as ref:
        amplification_spectrum_loop(bundle, 32)
    with pytest.raises(ResonantModeError) as got:
        amplification_spectrum(bundle, 32)
    assert (got.value.mode, got.value.loop, got.value.holonomy) == (
        ref.value.mode, ref.value.loop, ref.value.holonomy)


# ---------------------------------------------------------------------------
# data-sized forms against the fixed-size forms
# ---------------------------------------------------------------------------


@st.composite
def symmetric_hats(draw):
    """Reality-symmetric hats of size up to 1e-2: random sparse ones, the
    gapped hat on modes +-1 and +-40, and a dense one up to its truncation."""
    kind = draw(st.sampled_from(["sparse", "gapped", "dense"]))
    scale = draw(st.sampled_from([1e-6, 1e-4, 1e-2]))
    if kind == "sparse":
        s = draw(sparse_series())
        arr = s.coeffs / max(1.0, float(np.max(np.abs(s.coeffs))))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n_t = 40 if kind == "gapped" else draw(st.integers(1, 40))
        n = np.arange(-n_t, n_t + 1)
        arr = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
        arr *= np.exp(-np.abs(n))
        if kind == "gapped":
            arr[np.abs(n) != 1] = 0.0
            arr[[0, -1]] = 0.2
    arr = scale * np.asarray(arr)
    arr[arr.size // 2] = 0.0
    hat, _ = symmetrize(LaurentSeries(arr, 1.5))
    return hat


@settings(max_examples=120, deadline=None)
@given(symmetric_hats(), symmetric_hats(), st.sampled_from([64, 128, 256]),
       st.floats(0.0, TWO_PI, exclude_max=True), st.floats(0.0, TWO_PI, exclude_max=True))
def test_degree_sized_expansion_matches_fixed_grid(hat_f, hat_g, n_t, ph_f, ph_g):
    f, g = CircleDiffeo(ph_f, hat_f), CircleDiffeo(ph_g, hat_g)

    def sample(w):
        return eval_diffeo(g, eval_diffeo(f, w))

    got, got_info = expand_by_degree(sample, f.hat.degree + g.hat.degree, n_t, 1.0)
    want, want_info = expand_fixed_grid(sample, n_t, 1.0)
    assert got.hat.truncation == n_t
    # both grids resolve the band, so they differ by round-off and by
    # coefficients that one side zeroes at its noise floor
    tol = 4.0 * max(got_info.noise_floor, want_info.noise_floor)
    assert abs(got.phase - want.phase) <= tol
    assert np.max(np.abs(got.hat.coeffs - want.hat.coeffs)) <= tol
    assert got_info.tail_mass <= want_info.tail_mass + tol


def test_degree_sized_expansion_raises_as_fixed_grid():
    # a map of winding 1 in f(w)/w has no log branch on any grid
    def sample(w):
        return w * w

    with pytest.raises(WindingError):
        expand_fixed_grid(sample, 64, 1.0)
    with pytest.raises(WindingError):
        expand_by_degree(sample, 1, 64, 1.0)


def test_degree_sized_expansion_takes_fixed_grid_when_dense():
    hat, _ = symmetrize(LaurentSeries(1e-3 * np.exp(-0.1 * np.abs(np.arange(-32, 33))),
                                      2.0))
    f = CircleDiffeo(0.4, hat)
    got, got_info = expand_by_degree(lambda w: eval_diffeo(f, w), 32, 32, 1.0)
    want, want_info = expand_fixed_grid(lambda w: eval_diffeo(f, w), 32, 1.0)
    assert got.phase == want.phase and got_info == want_info
    assert np.array_equal(got.hat.coeffs, want.hat.coeffs)


def _phase_gap(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


# a dense hat whose inverse's identity residual is 1.0002e-9 on the fixed
# grid (it fails) and 9.9988e-10 on the degree-sized one (it passes)
_THRESHOLD_HAT = {1: -3.593904348105123e-04+5.377491977751573e-04j,
                  2: 2.977323296488381e-04+2.637963891869924e-04j,
                  3: -1.1418822334870083e-05-1.4049455541123036e-05j,
                  4: -1.5239696169982577e-05-1.6622092702458978e-05j,
                  5: 1.9518349493154966e-06+3.725610661504602e-06j,
                  6: -3.1536316208498003e-07+1.3436810936684772e-07j,
                  7: 1.42565599098094e-07-1.0949435975549055e-08j,
                  8: -6.115181447607444e-09-3.351672602971128e-08j,
                  9: 2.670967844024244e-09+3.628615979704572e-09j,
                  10: 6.386870714127289e-10-1.7455382792496592e-10j,
                  11: -2.3379036264711742e-11-1.139175203449511e-10j,
                  12: -3.945767536093757e-11-1.0179686587132794e-11j,
                  13: 2.830778533062769e-12-5.496452012801485e-12j,
                  14: -1.0583662809789366e-13-5.954837109117857e-13j,
                  15: -7.97850368088395e-14+3.55827285765741e-13j}
_THRESHOLD_HAT.update({-n: -np.conj(c) for n, c in list(_THRESHOLD_HAT.items())})


@settings(max_examples=100, deadline=None)
@given(symmetric_hats(), st.sampled_from([64, 256, 1024]),
       st.floats(0.0, TWO_PI, exclude_max=True))
@example(LaurentSeries.from_coeffs(_THRESHOLD_HAT, 1.5, 19), 64, 0.0)
def test_scenario_builders_match_fixed_grid(hat, n_t, phase):
    # conjugated_rotation and invert expand on a grid sized by psi's degree;
    # the oracle samples max(4N, 8) points. An entry that one side zeroes
    # lies below the oracle's noise floor (give or take round-off in the
    # sampled max), and the DFTs' own round-off stays far below it (0.1
    # floors at worst over 600 draws), so two floors bound the difference.
    psi = CircleDiffeo(0.0, hat)
    want, info = conjugated_rotation_fixed_grid(psi, phase, n_t, 1.0)
    got = conjugated_rotation(psi, phase, n_t, 1.0)
    assert got.hat.truncation == n_t
    assert _phase_gap(got.phase, want.phase) <= 2.0 * info.noise_floor
    assert np.max(np.abs(got.hat.coeffs - want.hat.coeffs)) <= 2.0 * info.noise_floor

    # invert's certificates are the fixed grid's, so it fails where they
    # fail, and only the univalence messages are compared in full. The
    # identity residual is measured on an inverse that differs by round-off:
    # where the reference fails that certificate alone, an invert that
    # returns must meet its own, and the reference residual must lie within
    # the gap the difference opens. At invert's radii |log|z|| <= 0.7 for
    # z = psi(w), so with d = |dphase| + sum_n |dc_n| e^{0.7 |n|} (the
    # coefficient differences bounded by two floors below) the inverses
    # differ by |want(z)| |e^delta - 1| <= (e^0.7 + res) d e^d at every z
    try:
        want, info = invert_fixed_grid(psi, 0.7, n_t)
    except CircleKamError as ref:
        if not hasattr(ref, "residual"):
            with pytest.raises(type(ref)) as raised:
                invert(psi, 0.7, n_t)
            if isinstance(ref, UnivalenceError):
                assert str(raised.value) == str(ref)
            return
        try:
            got = invert(psi, 0.7, n_t)
        except InversionDivergedError:
            return
        want, info, res = ref.inverse, ref.info, ref.residual
        assert identity_residual(got, psi, 0.7, n_t) <= 1e-9
        d = _phase_gap(got.phase, want.phase) + float(np.sum(
            np.abs(got.hat.coeffs - want.hat.coeffs)
            * np.exp(0.7 * np.abs(np.arange(-n_t, n_t + 1)))))
        assert res <= 1e-9 + (math.exp(0.7) + res) * d * math.exp(d)
    else:
        got = invert(psi, 0.7, n_t)
    assert got.hat.truncation == n_t
    assert _phase_gap(got.phase, want.phase) <= 2.0 * info.noise_floor
    assert np.max(np.abs(got.hat.coeffs - want.hat.coeffs)) <= 2.0 * info.noise_floor


@pytest.mark.parametrize("size, width, degree", [
    (0.3, 0.3, 3),    # psi^{-1} leaves psi's annulus
    (0.5, 1.2, 1),    # the log-lift solve does not converge
    (0.8, 1.2, 1),
])
def test_conjugated_rotation_raises_as_fixed_grid(size, width, degree):
    psi = CircleDiffeo(0.0, LaurentSeries.from_coeffs({degree: size, -degree: -size},
                                                      width))
    with pytest.raises(CircleKamError) as want:
        conjugated_rotation_fixed_grid(psi, 2.0, 64, min(1.0, width))
    with pytest.raises(type(want.value)) as got:
        conjugated_rotation(psi, 2.0, 64, min(1.0, width))
    assert str(got.value) == str(want.value)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.sampled_from([5e-5, 2e-3]), st.integers(1, 4),
       st.floats(0.0, TWO_PI, exclude_max=True))
def test_conjugated_rotation_bands_do_not_depend_on_n(caplog, seed, scale, degree, phase):
    # where the grid stops below N, it is the same grid at every larger N,
    # so the band and the phase are the same bits, and beyond it all zeros
    rng = np.random.default_rng(seed)
    c = scale * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
    coeffs = {n: cn for n, cn in zip(range(1, degree + 1), c)}
    coeffs.update({-n: -np.conj(cn) for n, cn in coeffs.items()})
    psi = CircleDiffeo(0.0, LaurentSeries.from_coeffs(coeffs, 1.2))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="circlekam.circle"):
        maps = {n_t: conjugated_rotation(psi, phase, n_t, 1.0) for n_t in (64, 1024, 4096)}
    # the final truncation k of each expansion, read off its debug line
    ks = [r.args[0] for r in caplog.records if r.msg.startswith("expand by degree")]
    assert ks[1] == ks[2] < 1024
    ref = maps[4096]
    assert ref.hat.degree <= ks[2]
    for (n_t, f), k in zip(maps.items(), ks):
        if k < n_t:
            assert f.phase == ref.phase
            assert np.array_equal(f.hat.coeffs, ref.hat.dense(n_t))


def _solve_by_loop(bundle, modes, b, tol):
    return [solve_mode_lstsq(bundle, n, row, tol) for n, row in zip(modes, b)]


@st.composite
def step_systems(draw):
    """A genus-2 or forest bundle, populated modes in (|n|, -n) order, mode
    data of mixed scales, and a solvability tolerance (or none)."""
    rational = st.sampled_from([TWO_PI * p / q for p, q in
                                [(1, 3), (2, 7), (3, 8), (1, 4), (2, 5)]])
    angle = st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), rational)
    if draw(st.booleans()):
        bundle = genus2_bundle(draw(angle), draw(angle))
    else:
        bundle = forest_bundle(draw(st.lists(angle, min_size=1, max_size=4)))
    ks = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True))
    modes = sorted({s * k for k in ks for s in (1, -1)} if draw(st.booleans())
                   else set(ks), key=lambda k: (abs(k), -k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = len(bundle.nerve.edges)
    b = (rng.standard_normal((len(modes), edges))
         + 1j * rng.standard_normal((len(modes), edges)))
    b *= 10.0 ** rng.uniform(-9, 0, (len(modes), 1))
    if draw(st.booleans()):
        # data that are coboundaries up to a small defect
        a = rng.standard_normal((len(modes), len(bundle.nerve.charts)))
        b = (_mode_tensor(bundle, np.array(modes)) @ a[..., None])[..., 0]
        b += 1e-3 * rng.standard_normal(b.shape)
    tol = draw(st.sampled_from([None, 1e-6, 0.1, 1.0]))
    return bundle, modes, b, tol


def _kept_condition(bundle, n):
    """Condition number of mode n's matrix over the singular values that
    :func:`solve_mode_lstsq` keeps."""
    svals = np.linalg.svd(mode_matrix(bundle, n).conj(), compute_uv=False)
    kept = svals[svals > _rank_floor(svals)]
    return kept[0] / kept[-1]


# genus-2 phases (0, 0, 1e-12, 0) at mode 6: the smallest singular value,
# sqrt(6) 1e-12, ties the rank floor RANK_RCOND * s_max
_TIED_RANK = (genus2_bundle(0.0, 1e-12), [6], np.array([[1.0, 1j, -1.0, 0.5]]))

# genus-2 phases (2 pi/3, 0, 2 pi/3, 0): mode 3 is resonant, and the data
# rows are no coboundary at modes 2 and 4, so two modes fail in one call,
# the coboundary failure before the resonance or after it
_TWO_FAILURES = (genus2_bundle(TWO_PI / 3, TWO_PI / 3),
                 np.array([[1.0, 1j, -1.0, 0.5], [1.0, 1j, -1.0, 0.5]]), 1e-6)


@settings(max_examples=150, deadline=None)
@given(step_systems())
@example((*_TIED_RANK, None))
@example((*_TIED_RANK, 1e-6))
@example((_TWO_FAILURES[0], [2, 3], *_TWO_FAILURES[1:]))
@example((_TWO_FAILURES[0], [3, 4], *_TWO_FAILURES[1:]))
def test_stacked_step_solve_matches_lstsq(system):
    bundle, modes, b, tol = system
    try:
        want = _solve_by_loop(bundle, modes, b, tol)
    except (ResonantModeError, CoboundaryError) as ref:
        with pytest.raises(type(ref)) as got:
            solve_modes(bundle, modes, b, tol)
        assert got.value.mode == ref.mode
        if isinstance(ref, ResonantModeError):
            assert (got.value.loop, got.value.holonomy) == (ref.loop, ref.holonomy)
        else:
            assert got.value.norm == ref.norm
            # max|A x - b| carries the round-off of A x: a solution off by
            # |dx| <= u kappa |x| along the near-null direction moves A x by
            # at most s_min |dx| = u s_max |x|, for the code and the reference
            n = ref.mode
            x_ref = solve_mode_lstsq(bundle, n, b[modes.index(n)], None).a
            s_max = np.linalg.norm(mode_matrix(bundle, n), 2)
            slack = 4.0 * np.finfo(float).eps * s_max * float(np.max(np.abs(x_ref)))
            assert abs(got.value.residual - ref.residual) <= 1e-6 * ref.residual + slack
        return
    sol, residual, amplification, kernel = solve_modes(bundle, modes, b, tol)
    assert sol.shape == (len(modes), len(bundle.nerve.charts))
    assert residual.shape == amplification.shape == kernel.shape == (len(modes),)
    for g_a, g_res, g_amp, g_kernel, w, row in zip(sol, residual, amplification, kernel,
                                                   want, b):
        # least-squares solutions agree to about eps * kappa^2 relative to the
        # data (the perturbation bound of the least-squares problem, Golub and
        # Van Loan, Matrix Computations, ch. 5), kappa over the kept singular
        # values
        kappa = _kept_condition(bundle, w.n)
        bound = 1e-14 * (1.0 + kappa) ** 2 * max(float(np.max(np.abs(row))),
                                                 float(np.max(np.abs(w.a))))
        assert g_kernel == w.has_kernel
        assert np.max(np.abs(g_a - w.a)) <= bound
        assert abs(g_res - w.residual) <= 2.0 * np.sqrt(row.size) * bound
        assert abs(g_amp - w.amplification) <= (
            bound / max(float(np.max(np.abs(row))), 1e-300))


@st.composite
def populated_bands(draw):
    """A band ``-k..k``, k up to 1024, with a populated mask of mixed density."""
    k = draw(st.integers(0, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0]))
    return k, rng.random(2 * k + 1) < density


@settings(max_examples=100, deadline=None)
@given(populated_bands())
def test_walk_order_equals_the_sorted_key(data):
    # the integer key of _solve_changes against the Python sort it replaced
    k, populated = data
    want = sorted((np.flatnonzero(populated) - k).tolist(), key=lambda n: (abs(n), -n))
    assert (_walk_order(populated) - k).tolist() == want


def test_stacked_step_solve_validates_shapes():
    bundle = genus2_bundle(1.0, 2.0)
    with pytest.raises(ValidationError):
        solve_modes(bundle, [1, 0], np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        solve_modes(bundle, [1, 2], np.zeros((2, 3)))
    sol, residual, amplification, kernel = solve_modes(bundle, [], np.zeros((0, 4)))
    assert sol.shape == (0, 3)
    assert residual.shape == amplification.shape == kernel.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, TWO_PI, exclude_max=True),
       st.floats(0.0, TWO_PI, exclude_max=True), st.integers(1, 2048))
def test_mirrored_spectrum_equals_full_on_genus2(phi1, phi2, n_max):
    bundle = genus2_bundle(phi1, phi2)
    try:
        want = amplification_spectrum_full(bundle, n_max)
    except ResonantModeError as ref:
        with pytest.raises(ResonantModeError) as got:
            amplification_spectrum(bundle, n_max)
        assert (got.value.mode, got.value.loop, got.value.holonomy) == (
            ref.mode, ref.loop, ref.holonomy)
        return
    got = amplification_spectrum(bundle, n_max)
    assert list(got) == list(want)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=5),
       st.integers(1, 512))
def test_mirrored_spectrum_equals_full_on_forests(phases, n_max):
    bundle = forest_bundle(phases)
    got = amplification_spectrum(bundle, n_max)
    want = amplification_spectrum_full(bundle, n_max)
    assert list(got) == list(want)
    assert got == want


# ---------------------------------------------------------------------------
# the edge-stacked step against its per-edge loops
# ---------------------------------------------------------------------------


@st.composite
def majorant_rows(draw):
    """Series of one truncation (or of a few), each with a sigma' in
    (0, width] and a power 0 or 1."""
    one = draw(st.booleans())
    count = draw(st.integers(1, 8))
    rows = []
    for _ in range(count):
        s = draw(sparse_series())
        if one:
            s = LaurentSeries(s.dense(24), s.width)
        rows.append(s)
    sigmas = [s.width * draw(st.floats(0.01, 1.0)) for s in rows]
    powers = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    return rows, sigmas, powers


@settings(max_examples=150, deadline=None)
@given(majorant_rows())
def test_stacked_majorants_equal_per_row(data):
    hats, sigmas, powers = data
    got = majorants(hats, sigmas, powers)
    want = [majorant_loop(h, sp, p) for h, sp, p in zip(hats, sigmas, powers)]
    assert np.array_equal(got, want)


def test_stacked_majorants_overflow_and_domain_as_per_row():
    big = LaurentSeries.from_coeffs({1024: 1e-300, 1: 0.1}, width=1.0)
    small = LaurentSeries.from_coeffs({1: 0.1}, width=1.0, n_trunc=1024)
    with np.errstate(all="raise"):
        got = majorants([big, small], 1.0, [0, 1])
    assert got[0] == np.inf and got[1] == majorant_loop(small, 1.0, 1)
    with pytest.raises(AnnulusDomainError):
        majorants([small, big], [0.5, 1.5])


@settings(max_examples=80, deadline=None)
@given(sparse_series(), symmetric_hats(), st.sampled_from([64, 1024, 4096]),
       st.floats(0.01, 1.0), st.floats(0.0, TWO_PI, exclude_max=True))
def test_support_sums_do_not_depend_on_truncation(s, hat, n_pad, shrink, phase):
    # a hat and its copy zero-padded to a larger N have one support, so the
    # sums and the rotation number keep every bit (the pairwise sum of a
    # zero-filled 2N+1 block did not)
    sigma = shrink * s.width
    padded = LaurentSeries(s.dense(n_pad), s.width)
    for power in (0, 1):
        got = majorants([s, padded], sigma, power)
        assert got[0] == got[1] == majorants([padded], sigma, power)[0]
    assert majorant_norm(padded, sigma) == majorant_norm(s, sigma)
    assert log_derivative_majorant(padded, sigma) == log_derivative_majorant(s, sigma)
    f = CircleDiffeo(phase, hat)
    g = CircleDiffeo(phase, LaurentSeries(hat.dense(n_pad), hat.width))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RotationConvergenceWarning)
        assert rotation_number(g, 1000) == rotation_number(f, 1000)


@settings(max_examples=150, deadline=None)
@given(majorant_rows())
def test_majorants_within_recursive_sum_bound_of_fsum(data):
    # k nonnegative terms added one by one err by at most (k-1)u/(1-(k-1)u)
    # relative to the exact sum (Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 4), below 2(k-1)u; math.fsum rounds the exact sum once
    hats, sigmas, powers = data
    got = majorants(hats, sigmas, powers)
    unit = 2.0 ** -53
    for value, s, sp, p in zip(got.tolist(), hats, sigmas, powers):
        n_abs = np.abs(s.support)
        terms = n_abs ** p * np.abs(s.coeffs[s.support + s.truncation]) * np.exp(n_abs * sp)
        k = int(np.count_nonzero(terms))
        exact = math.fsum(terms.tolist())
        assert abs(value - exact) <= 2.0 * max(k - 1, 0) * unit * exact


def _c0_systems(bundle):
    return TransitionSystem(bundle.nerve, tuple(rotation(p, 1.0) for p in bundle.phases),
                            1.0)


def _assert_c0_as_full_spectrum(bundle, n_max, mu):
    """The engine's C0, and the mode fit_c0 names, against the dict fit on
    the full spectrum; a resonance raises as the full spectrum raises."""
    params = KamParams(sigma0=1.0, eta0=0.01, mu=mu, n_trunc=n_max)
    try:
        spectrum = amplification_spectrum_full(bundle, n_max)
    except ResonantModeError as ref:
        with pytest.raises(ResonantModeError) as got:
            resolve_c0(_c0_systems(bundle), params)
        assert (got.value.mode, got.value.loop, got.value.holonomy) == (
            ref.mode, ref.loop, ref.holonomy)
        return
    want = fit_diophantine_loop(spectrum, mu)
    assert resolve_c0(_c0_systems(bundle), params).c0 == want.c0
    assert fit_c0(bundle, n_max, mu)[:2] == (want.c0, want.argmax_mode)
    assert fit_diophantine(spectrum, mu) == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([genus2_bundle, single_chart_bundle, star_bundle]),
       st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=2, max_size=16),
       st.integers(1, 1024), st.sampled_from([2.0, 1.5, 2.5, 3.7]))
def test_array_c0_equals_dict_fit_on_genus2(make, phases, n_max, mu):
    """Genus-2 and one-chart nerves up to N = 1024, and star nerves with 2 to
    16 loops up to N = 256."""
    if make is star_bundle:
        bundle, n_max = make(phases), min(n_max, 256)
    else:
        bundle = make(*phases[:2]) if make is genus2_bundle else make(phases[:1])
    _assert_c0_as_full_spectrum(bundle, n_max, mu)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([forest_bundle, one_cycle_bundle]),
       st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=5),
       st.integers(1, 512), st.sampled_from([2.0, 1.5, 2.5, 3.7]))
def test_array_c0_equals_dict_fit_on_forests(make, phases, n_max, mu):
    _assert_c0_as_full_spectrum(make(phases), n_max, mu)


def test_one_matrix_svd_is_the_same_in_any_batch():
    bundle = four_chart_bundle([0.3, 1.1, 2.9, 4.4, 0.01, 5.7])
    modes = np.arange(1, 1025)
    _, pinv, deficient = _pseudo_inverses(bundle, modes)
    rng = np.random.default_rng(7)
    for sub in (modes[:4], modes[4:], np.sort(rng.choice(modes, 37, replace=False)),
                np.array([1024]), np.array([5, 900])):
        _, sub_pinv, sub_deficient = _pseudo_inverses(bundle, sub)
        assert np.array_equal(sub_pinv, pinv[sub - 1])
        assert np.array_equal(sub_deficient, deficient[sub - 1])


@st.composite
def near_resonant_phases(draw, count):
    """Phases drawn at random, or at 2 pi p/q + eps with eps down to 1e-13."""
    out = []
    for _ in range(count):
        if draw(st.booleans()):
            out.append(draw(st.floats(0.0, TWO_PI, exclude_max=True)))
        else:
            q = draw(st.integers(1, 40))
            p = draw(st.integers(0, q - 1))
            eps = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-9, 1e-6, 1e-3]))
            out.append((TWO_PI * p / q + eps) % TWO_PI)
    return out


@st.composite
def bound_nerves(draw):
    """A nerve and a truncation N: up to 2048, or up to 256 on a star nerve
    with 2 to 16 loops, whose full spectrum costs up to 32 edges a mode."""
    kind = draw(st.sampled_from(["genus2", "single", "four", "star"]))
    if kind == "star":
        phases = draw(near_resonant_phases(draw(st.integers(2, 16))))
        return star_bundle(phases), draw(st.integers(1, 256))
    if kind == "genus2":
        bundle = genus2_bundle(*draw(near_resonant_phases(2)))
    elif kind == "single":
        bundle = single_chart_bundle(draw(near_resonant_phases(draw(st.integers(1, 2)))))
    else:
        bundle = four_chart_bundle(draw(near_resonant_phases(6)))
    return bundle, draw(st.integers(1, 2048))


@settings(max_examples=60, deadline=None)
@given(bound_nerves(), st.sampled_from([2.0, 1.5, 3.7]))
def test_pruning_bound_holds_and_proves_rank(nerve, mu):
    bundle, n_max = nerve
    modes = np.arange(1, n_max + 1)
    _, pinv, deficient = _pseudo_inverses(bundle, modes)
    norms = np.max(np.sum(np.abs(pinv), axis=-1), axis=-1)
    bound, full_rank = amplification_bounds(bundle, modes)
    proven = np.isfinite(bound)
    assert np.all(bound[proven & ~deficient] >= norms[proven & ~deficient])
    assert not np.any(full_rank & deficient)
    assert np.all(proven[full_rank])
    _assert_c0_as_full_spectrum(bundle, n_max, mu)


@settings(max_examples=40, deadline=None)
@given(bound_nerves())
def test_bundle_document_round_trip(nerve):
    bundle, _ = nerve
    back = UnitaryFlatBundle.from_json_dict(json.loads(json.dumps(bundle.to_json_dict())))
    assert back == bundle and back.nerve == bundle.nerve
    # the chart indices built once, against the per-edge lookup they replaced
    want = [[back.nerve.charts.index(e.src), back.nerve.charts.index(e.dst)]
            for e in back.nerve.edges]
    assert back.nerve.ends.tolist() == want and not back.nerve.ends.flags.writeable


def test_dict_fit_equals_loop_on_synthetic_spectra():
    for spectrum in ({n: float(abs(n)) for n in range(-16, 17) if n != 0},
                     {n: float(np.exp(abs(n))) for n in range(-64, 65) if n != 0},
                     {3: 2.0, -1: 0.5, 7: 9.0, -7: 9.0, 2: 1.0}):
        for mu in (2.0, 1.3, 2.9):
            assert fit_diophantine(spectrum, mu) == fit_diophantine_loop(spectrum, mu)


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_series(), min_size=1, max_size=6), st.floats(0.0, 3.0),
       st.sampled_from([1e-12, 0.0]))
def test_stacked_decay_audit_equals_per_edge(hats, norm_scale, slack):
    norms = [norm_scale * float(np.max(np.abs(h.coeffs)) * np.exp(h.width * h.truncation))
             for h in hats]
    got = decay_checks(hats, norms, slack)
    want = [decay_check_loop(h, n, slack) for h, n in zip(hats, norms)]
    assert [(r.passed, r.worst_index) for r in got] == [
        (r.passed, r.worst_index) for r in want]
    assert got == want


GENUS2_EDGES = genus2_bundle(0.0, 0.0).nerve.edges


@st.composite
def renewal_inputs(draw):
    """The three factors of each genus-2 edge: chart changes psi_src and
    psi_dst (phase 0) and a transition f, with small reality-symmetric hats
    of mixed support."""
    charts = {c: CircleDiffeo(0.0, draw(symmetric_hats())) for c in ("U0", "U1", "U2")}
    maps = [CircleDiffeo(draw(st.floats(0.0, TWO_PI, exclude_max=True)),
                         draw(symmetric_hats())) for _ in GENUS2_EDGES]
    n_t = draw(st.sampled_from([32, 64, 128]))
    src = [charts[e.src] for e in GENUS2_EDGES]
    dst = [charts[e.dst] for e in GENUS2_EDGES]
    return src, maps, dst, n_t


@settings(max_examples=60, deadline=None)
@given(renewal_inputs())
def test_batched_renewal_matches_per_edge(data):
    src, maps, dst, n_t = data
    want = renew_by_edge(GENUS2_EDGES, src, maps, dst, n_t, 1.0)
    got, infos = renew_rows(src, maps, dst, n_t, 1.0, renewal_weights(src, maps, dst),
                            labels=[f"edge {e}" for e in GENUS2_EDGES])
    for g, info, (w, w_info) in zip(got, infos, want):
        # the shared grid is at least as fine as each edge's own, so the two
        # differ by round-off and by coefficients one side zeroes at its floor
        tol = 4.0 * max(info.noise_floor, w_info.noise_floor)
        assert g.hat.truncation == n_t
        d = abs(g.phase - w.phase) % TWO_PI
        assert min(d, TWO_PI - d) <= tol
        assert np.max(np.abs(g.hat.coeffs - w.hat.coeffs)) <= tol
        assert info.tail_mass <= w_info.tail_mass + tol


@pytest.mark.parametrize("bad_chart", ["U1", "U2"])
def test_batched_renewal_raises_as_per_edge(bad_chart):
    # a chart change too large to invert: its edges fail in the log-lift
    small = CircleDiffeo(0.0, LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, 1.5))
    huge = CircleDiffeo(0.0, LaurentSeries.from_coeffs({1: 0.9, -1: -0.9, 2: 0.5j,
                                                        -2: 0.5j}, 1.5))
    charts = {"U0": small, "U1": small, "U2": small, bad_chart: huge}
    src = [charts[e.src] for e in GENUS2_EDGES]
    dst = [charts[e.dst] for e in GENUS2_EDGES]
    maps = [CircleDiffeo(0.7, LaurentSeries.from_coeffs({1: 1e-4j, -1: 1e-4j}, 1.5))
            for _ in GENUS2_EDGES]
    with pytest.raises(CircleKamError) as ref:
        renew_by_edge(GENUS2_EDGES, src, maps, dst, 64, 1.0)
    with np.errstate(all="ignore"), pytest.raises(CircleKamError) as got:
        renew_rows(src, maps, dst, 64, 1.0, renewal_weights(src, maps, dst),
                   labels=[f"edge {e}" for e in GENUS2_EDGES])
    assert type(got.value) is type(ref.value)
    edge = str(ref.value).split(":")[0]
    assert edge.startswith("edge U0->" + bad_chart)
    assert str(got.value).split(":")[0] == edge


def test_log_lift_rows_stop_at_their_own_sweep(monkeypatch):
    # the rows take 32 sweeps, 2 sweeps, and 50 sweeps plus 2 Newton sweeps
    # (two evaluations each); a finished row keeps its value while the
    # others go on, so each row equals its one-row solve bit for bit
    maps = [
        CircleDiffeo(0.7, LaurentSeries.from_coeffs(
            {1: 0.12 + 0.05j, -1: -0.12 + 0.05j, 3: 0.02j, -3: 0.02j}, 1.0)),
        CircleDiffeo(2.1, LaurentSeries.from_coeffs({1: 1e-9, -1: -1e-9}, 1.0)),
        CircleDiffeo(4.0, LaurentSeries.from_coeffs({1: 0.3, -1: -0.3}, 1.0)),
    ]
    u = unit_circle(256) * np.exp(1j * np.array([0.0, 0.1, 0.2]))[:, None]
    calls = []
    horner = SeriesRows.__call__

    def counted(rows, w):
        calls.append(w.shape)
        return horner(rows, w)

    monkeypatch.setattr(SeriesRows, "__call__", counted)
    alone, sweeps = [], []
    for f, row in zip(maps, u):
        calls.clear()
        alone.append(apply_inverse(f, row))
        sweeps.append(len(calls))
    assert sweeps == [32, 2, 54]
    for got, want in zip(apply_inverses(maps, u), alone):
        assert np.array_equal(got, want)


def test_subnormal_loop_phase_raises_without_warnings():
    # one chart, one loop of phase 1e-310: mode 1 has the subnormal singular
    # value 1e-310, which is dropped at the rank floor, not inverted to inf
    bundle = single_chart_bundle([1e-310])
    calls = (lambda: fit_c0(bundle, 16, 2.0), lambda: amplification_norms(bundle, 16),
             lambda: solve_modes(bundle, [1, 2], [[1.0], [0.5]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ResonantModeError) as info:
                call()
            err = info.value
            assert (err.mode, err.loop, err.holonomy) == (1, ["+U0->U0[loop0]"], 1e-310)


# ---------------------------------------------------------------------------
# support-sized passes of a step against the full-width ones
# ---------------------------------------------------------------------------

SPECIALS = [np.nan, np.inf, -np.inf, complex(np.inf, -np.inf), complex(0.0, np.nan),
            complex(-np.inf, 1.0)]


@st.composite
def defect_hats(draw):
    """Hats with gapped or dense support, made asymmetric within and beyond
    SYMMETRY_TOL by perturbations and by one-sided modes, and with NaN or
    infinite entries, alone or in pairs at n and -n."""
    n_t = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = np.arange(-n_t, n_t + 1)
    arr = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)) * np.exp(-np.abs(n))
    arr[rng.random(n.size) > draw(st.sampled_from([0.05, 0.3, 1.0]))] = 0.0
    arr = 0.5 * (arr - np.conj(arr[::-1]))
    arr[n_t] = 0.0
    eps = draw(st.sampled_from([0.0, 1e-12, 5e-9, SYMMETRY_TOL, 2e-8, 1.0]))
    at = rng.integers(0, n.size, draw(st.integers(0, 3)))
    arr[at] += eps * (rng.standard_normal(at.size) + 1j * rng.standard_normal(at.size))
    if draw(st.booleans()):
        arr[rng.integers(0, n.size)] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        i = int(rng.integers(0, n.size))
        arr[i] = draw(st.sampled_from(SPECIALS))
        if draw(st.booleans()):
            arr[-1 - i] = draw(st.sampled_from(SPECIALS))
    return LaurentSeries(arr, 1.0)


@settings(max_examples=200, deadline=None)
@given(defect_hats())
def test_symmetry_defect_on_support_equals_full_width(hat):
    got, want = symmetry_defect(hat), symmetry_defect_full(hat)
    assert (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()


@st.composite
def change_systems(draw):
    """A system for one change solve and its truncation N. The nerve is
    genus-2, a star or a forest; the transition hats are coboundaries of
    random chart hats, or random, with gapped supports and a one-sided mode
    within SYMMETRY_TOL, truncated below, at or above N, their modes
    reaching beyond N in some draws."""
    rational = st.sampled_from([TWO_PI * p / q for p, q in [(1, 3), (2, 7), (1, 4)]])
    angle = st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), rational)
    kind = draw(st.sampled_from(["genus2", "star", "forest"]))
    if kind == "genus2":
        bundle = genus2_bundle(draw(angle), draw(angle))
    else:
        make = star_bundle if kind == "star" else forest_bundle
        bundle = make(draw(st.lists(angle, min_size=1, max_size=4)))
    n_t = draw(st.integers(1, 40))
    d = draw(st.integers(0, n_t + 8))
    n = np.arange(-d, d + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    scale = draw(st.sampled_from([1e-6, 1e-3]))

    def symmetric():
        a = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
        a *= scale * np.exp(-0.5 * np.abs(n))
        a[rng.random(n.size) > density] = 0.0
        a = 0.5 * (a - np.conj(a[::-1]))
        a[d] = 0.0
        return a

    charts = {c: symmetric() for c in bundle.nerve.charts}
    coboundary = draw(st.booleans())
    transitions = []
    for e, phi in zip(bundle.nerve.edges, bundle.phases):
        b = (np.exp(1j * n * phi) * charts[e.dst] - charts[e.src] if coboundary
             else symmetric())
        if d and draw(st.booleans()):
            b[d + int(rng.integers(1, d + 1))] += 4e-9 * np.exp(1j * rng.uniform(0, TWO_PI))
        t = d + draw(st.integers(0, 12))
        arr = np.zeros(2 * t + 1, dtype=complex)
        arr[t - d : t + d + 1] = b
        transitions.append(CircleDiffeo(phi, LaurentSeries(arr, 1.5)))
    system = TransitionSystem(bundle.nerve, tuple(transitions), 1.0)
    return system, KamParams(sigma0=1.0, n_trunc=n_t, strict_schedule=False)


def _change_solve(solve, system, params):
    """The per-chart changes as bytes, or the error raised, with the report."""
    report = StepReport(m=0, strict=False)
    try:
        psis = solve(system, params, 1.0, 0.05, report)
    except CircleKamError as exc:
        return (type(exc), exc.args), repr(report)
    for psi in psis.values():
        hat = psi.hat
        assert np.array_equal(hat.support, np.flatnonzero(hat.coeffs) - hat.truncation)
    return {c: (psi.phase, psi.hat.width, psi.hat.truncation, psi.hat.coeffs.tobytes())
            for c, psi in psis.items()}, repr(report)


@settings(max_examples=150, deadline=None)
@given(change_systems())
def test_change_solve_on_support_equals_full_width(data):
    system, params = data
    assert _change_solve(_solve_changes, system, params) == _change_solve(
        solve_changes_full, system, params)


@st.composite
def audited_hats(draw):
    """Hats of truncation 0 to 6 at a width from 1e-3 to 200, with moduli
    from 1e-320 to 1e308 and NaN or infinite entries."""
    width = draw(st.floats(1e-3, 200.0))
    n_t = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modulus = 10.0 ** rng.uniform(-320, 308, 2 * n_t + 1)
    arr = modulus * np.exp(1j * rng.uniform(0, TWO_PI, modulus.size))
    arr[rng.random(arr.size) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        arr[rng.integers(0, arr.size)] = draw(st.sampled_from(SPECIALS))
    return LaurentSeries(arr, width)


@settings(max_examples=200, deadline=None)
@given(st.lists(audited_hats(), min_size=1, max_size=5), st.floats(1e-3, 1.0))
def test_decay_audit_in_closed_form_equals_decay_checks(hats, shrink):
    sigma = [h.width * shrink for h in hats]
    entry = majorants(hats, sigma)
    want = sum(not a.passed for a in decay_checks(
        [h.with_width(s) for h, s in zip(hats, sigma)], entry))
    assert _decay_failures(hats, entry) == want


def series_json_loop(s):
    """``LaurentSeries.to_json_dict`` as a walk over all 2N+1 coefficients."""
    entries = []
    n_t = s.truncation
    for i, c in enumerate(s.coeffs):
        if abs(c) < SERIALIZATION_FLOOR:
            continue
        entries.append([i - n_t, float(c.real), float(c.imag)])
    return {"N": n_t, "sigma": float(s.width), "coeffs": entries}


@st.composite
def serialized_series(draw):
    """Series whose coefficients sit at, just below and just above the
    serialization floor, span 1e-320..1e308 (subnormals included), or are
    signed zeros, NaN or infinite."""
    n_t = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modulus = 10.0 ** rng.uniform(-320, 308, 2 * n_t + 1)
    arr = modulus * np.exp(1j * rng.uniform(0, TWO_PI, modulus.size))
    floor = SERIALIZATION_FLOOR
    near = [floor, np.nextafter(floor, 0.0), np.nextafter(floor, 1.0), 1j * floor,
            complex(floor, -floor), complex(-0.0, -0.0), complex(0.0, -0.0)]
    for _ in range(draw(st.integers(0, 6))):
        arr[rng.integers(0, arr.size)] = draw(st.sampled_from(near + SPECIALS))
    arr[rng.random(arr.size) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
    return LaurentSeries(arr, draw(st.floats(1e-3, 200.0)))


@settings(max_examples=200, deadline=None)
@given(serialized_series())
def test_series_json_on_support_equals_full_walk(s):
    got = json.dumps(s.to_json_dict(), sort_keys=True)
    assert got == json.dumps(series_json_loop(s), sort_keys=True)


def test_series_json_at_the_floor():
    floor = SERIALIZATION_FLOOR
    s = LaurentSeries.from_coeffs(
        {-3: np.nextafter(floor, 0.0), -1: complex(floor, 0.0), 1: 1j * floor,
         2: complex(np.nan, 0.0), 3: -0.0}, 1.0, n_trunc=4)
    doc = s.to_json_dict()
    assert [e[0] for e in doc["coeffs"]] == [-1, 1, 2]
    assert json.dumps(doc) == json.dumps(series_json_loop(s))


# ---------------------------------------------------------------------------
# the circle evaluator against Horner, the proven grid start against the
# fixed grid
# ---------------------------------------------------------------------------


@st.composite
def circle_bands(draw):
    """A series of degree d <= 64, sparse or dense, reality-symmetric or
    not, a log-radius rho in {-s, 0, s} inside its annulus and M >= 2d+1
    points."""
    d = draw(st.integers(0, 64))
    width = draw(st.floats(0.05, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = np.arange(-d, d + 1)
    band = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
    band *= np.exp(-np.abs(n) * width * draw(st.floats(0.0, 1.5)))
    if draw(st.booleans()):
        band[rng.random(n.size) < 0.8] = 0.0
    if draw(st.booleans()):
        band = 0.5 * (band - np.conj(band[::-1]))
    s = LaurentSeries(band, width)
    rho = draw(st.sampled_from([-1.0, 0.0, 1.0])) * width * draw(st.floats(0.01, 0.999))
    return s, rho, 2 * s.degree + 1 + draw(st.integers(0, 300))


def _circle_roundoff(s, rho, samples):
    """The round-off budget of ``on_circles`` against Horner at the same
    points, ``u (5 log2 M + 34 d + 5) sum |c_n| e^{|n| |rho|}``.

    The scatter weighs each c_n by ``e^{n rho}`` (2u), and each of the
    log2 M passes of the inverse FFT rounds a twiddle product and a sum
    (under 5u of the weighted sum). Horner runs on the rounded points
    ``e^rho unit_circle(M)``: the angle ``2 pi k / M`` errs by up to 8 pi u
    and the radius by 2u, so a point moves by under 28u |w|, which moves
    the value by at most ``28 u sum |n| |c_n| |w|^n <= 28 d u sum``; its
    passes round a complex product and a sum per coefficient (under 4u
    each) and the reciprocal 1/w (d u more on the negative side)."""
    n = np.arange(-s.degree, s.degree + 1)
    weighted = float(np.sum(np.abs(s.band) * np.exp(np.abs(n) * abs(rho))))
    return 2.0 ** -53 * (5.0 * math.log2(samples) + 34.0 * s.degree + 5.0) * weighted


@settings(max_examples=200, deadline=None)
@given(circle_bands())
def test_circle_evaluator_equals_horner(data):
    s, rho, samples = data
    got = SeriesRows.of([s]).on_circles([rho], samples)
    assert got.shape == (1, 1, samples)
    want = SeriesRows.of([s])((np.exp(rho) * unit_circle(samples))[None])
    assert np.max(np.abs(got[0] - want), initial=0.0) <= _circle_roundoff(s, rho, samples)


@settings(max_examples=100, deadline=None)
@given(st.lists(circle_bands(), min_size=1, max_size=4))
def test_sup_norms_by_fft_equal_horner(data):
    # the report's three circles in one stacked FFT against the Horner form
    # it replaced, on the circles e^{-sigma'}, 1, e^{sigma'}
    hats = [s for s, _, _ in data]
    sigma = min(s.width for s in hats) * 0.7
    samples = max(m for _, _, m in data)
    got = empirical_sup_norms(hats, sigma, samples)
    want = empirical_sup_norms_horner(hats, sigma, samples)
    budget = [_circle_roundoff(s, sigma, samples) for s in hats]
    assert np.all(np.abs(got - want) <= budget)


def test_circle_evaluator_needs_2d_plus_1_points():
    s = LaurentSeries.from_coeffs({5: 1.0, -2: 0.5}, 1.0)
    rows = SeriesRows.of([s])
    assert rows.on_circles([0.0, 0.5], 11).shape == (2, 1, 11)
    with pytest.raises(InsufficientSamplesError):
        rows.on_circles([0.0], 10)


@st.composite
def grid_chains(draw):
    """One or two rows of a chain of 1-3 factors, each forward or inverse,
    with reality-symmetric hats of degree 1-16 on width 1 whose
    log-derivative majorant at the width is up to 0.5, and a truncation N."""
    rows = draw(st.integers(1, 2))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        maps = []
        for _ in range(rows):
            d = draw(st.integers(1, 16))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            n = np.arange(1, d + 1)
            c = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * np.exp(-0.5 * n)
            c[rng.random(d) < 0.5] = 0.0
            c[-1] = c[-1] or 1.0
            coeffs = dict(zip(n.tolist(), c))
            coeffs.update({-k: -np.conj(v) for k, v in coeffs.items()})
            hat = LaurentSeries.from_coeffs(coeffs, 1.0)
            q = draw(st.sampled_from([1e-9, 1e-5, 1e-2, 0.1, 0.5]))
            hat = hat.scale(q / log_derivative_majorant(hat, 1.0))
            maps.append(CircleDiffeo(draw(st.floats(0.0, TWO_PI, exclude_max=True)), hat))
        factors.append((maps, draw(st.booleans())))
    return factors, draw(st.sampled_from([32, 64, 128]))


@settings(max_examples=150, deadline=None)
@given(grid_chains())
@example(([([CircleDiffeo(0.0, LaurentSeries.from_coeffs({1: 0.01, -1: -0.01}, 1.0))],
            True)], 16))
def test_proven_grid_start_never_under_resolves(data):
    # expand_chain starts at the Cauchy bound's k and stops at the first grid
    # whose tail band is clean; the fixed grid of max(4N, 8) points resolves
    # every band the truncation keeps. An entry one side zeroes lies below
    # the oracle's noise floor, give or take the round-off of the sampled
    # max, and the DFTs' own round-off lies far below it, so the two agree
    # within two floors. The one-mode psi is the inverse a start at the
    # largest factor degree aliased to a residual of 1e-3
    factors, n_t = data
    try:
        want = expand_chain_fixed_grid(factors, n_t, 0.5)
    except CircleKamError as ref:
        with np.errstate(all="ignore"), pytest.raises(type(ref)):
            expand_chain(factors, n_t, 0.5)
        return
    got, infos = expand_chain(factors, n_t, 0.5)
    for g, (w, info) in zip(got, want):
        assert g.hat.truncation == n_t
        assert _phase_gap(g.phase, w.phase) <= 2.0 * info.noise_floor
        assert np.max(np.abs(g.hat.coeffs - w.hat.coeffs)) <= 2.0 * info.noise_floor


def test_row_without_a_bound_takes_the_degree_start(caplog):
    # q = 2.7 at the width: the inverse's displacement has no bound there,
    # though the log-lift converges on the unit circle. That row starts at
    # twice its degree, as every row did before the bound, while a bounded
    # row beside it keeps its own bound
    loose = CircleDiffeo(0.3, LaurentSeries.from_coeffs({1: 0.3, -1: -0.3}, 1.5))
    tight = CircleDiffeo(0.3, LaurentSeries.from_coeffs({1: 1e-3, -1: -1e-3}, 1.5))
    factors = [([loose, tight], True)]
    k, s = _cauchy_start(factors, _width_sums(factors))
    assert k[0] == np.inf and 0 < k[1] < np.inf and s[1] > 0
    for maps, start in (([loose], 2), ([loose, tight], max(2, k[1]))):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="circlekam.circle"):
            expand_chain([(maps, True)], 1024, 1.0)
        (line,) = [r for r in caplog.records if r.msg.startswith("expand by degree")]
        k_last, m, attempts, note = line.args
        assert k_last == start * 2 ** (attempts - 1) and m == 4 * k_last
        assert note == ("no bound" if len(maps) == 1 else
                        f"bound k = {int(k[1])}, s = {s[1]:.6g}")


def nesting_error_loop(chain, out_width):
    """``compose_rows``' nesting certificate weighed at the reach, row by
    row and factor by factor from the inside out: the first failing row,
    its factor and the reach that left the factor's width, or None."""
    for r in range(len(chain[0])):
        x = out_width
        for i in reversed(range(len(chain))):
            f = chain[i][r]
            if not x <= f.width:
                return r, i, x
            if i:
                x += majorant_norm(f.hat, x)
    return None


@st.composite
def nesting_chains(draw):
    """One or two rows of 2-3 factors on widths in [0.5, 1.5], whose hats'
    majorants at their widths run up to 0.4, and an output width up to the
    least of those widths: chains that nest, chains that fail, and chains
    that nest by the reach but not at the widths. Half of them have the
    outermost factor's width moved to within 1e-3 of the reach that meets
    it, on either side."""
    rows = draw(st.integers(1, 2))
    chain = []
    for _ in range(draw(st.integers(2, 3))):
        maps = []
        for _ in range(rows):
            width = draw(st.floats(0.5, 1.5))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            d = draw(st.integers(1, 8))
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            coeffs = dict(zip(range(1, d + 1), c))
            coeffs.update({-k: -np.conj(v) for k, v in coeffs.items()})
            hat = LaurentSeries.from_coeffs(coeffs, width, 8)
            hat = hat.scale(draw(st.floats(0.0, 0.4)) / majorant_norm(hat, width))
            maps.append(CircleDiffeo(0.0, hat))
        chain.append(maps)
    least = min(f.width for maps in chain for f in maps)
    out_width = least * draw(st.floats(0.05, 1.0))
    shift = draw(st.sampled_from([None, -1e-3, -1e-9, 0.0, 1e-9, 1e-3]))
    if shift is not None:
        for r, f in enumerate(chain[0]):
            x = out_width
            for maps in chain[:0:-1]:
                x += majorant_norm(maps[r].hat, x) if x <= maps[r].width else np.inf
            if x < np.inf:
                chain[0][r] = CircleDiffeo(0.0, f.hat.with_width(x * (1.0 + shift)))
    return chain, out_width


@settings(max_examples=200, deadline=None)
@given(nesting_chains())
def test_nesting_verdict_equals_the_reach_loop(data):
    # compose_rows skips the weighing at the reach where the majorants at
    # the widths already nest the chain; its verdict and message are those
    # of the loop that always weighs at the reach
    chain, out_width = data
    want = nesting_error_loop(chain, out_width)
    try:
        with np.errstate(all="ignore"):
            compose_rows(chain, out_width, 8)
    except NestingError as exc:
        r, i, x = want
        assert str(exc).startswith(f"factor {i}: ")
        assert f"into width {x:.6g}, outside its domain width {chain[i][r].width:.6g}" in str(exc)
        return
    except CircleKamError:
        pass
    assert want is None
