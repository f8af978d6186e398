"""The array-native numerical core against the per-mode and per-coefficient
loops it replaced, and the one-FFT spectral expansion against the two-FFT
form it replaced.

Each reference below is the loop formulation kept verbatim. The array code
performs the same floating-point operations in the same order on every
nonzero term, so results must match exactly, not within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlekam import (
    CircleDiffeo,
    Edge,
    InsufficientSamplesError,
    LaurentSeries,
    Nerve,
    ResonantModeError,
    UnitaryFlatBundle,
    amplification_spectrum,
)
from circlekam.circle import (
    NOISE_FLOOR_FACTOR,
    ExpandInfo,
    _tracked_log,
    eval_diffeo,
    expand_detailed,
    symmetrize,
    unit_circle,
)
from circlekam.cocycle import RANK_RCOND, TWO_PI, _resonant_cycle
from circlekam.series import DecayReport, coeffs_from_circle, decay_check, eval_series

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
    ok = {}
    passed = True
    worst_index = None
    worst_excess = 0.0
    for n in range(-n_t, n_t + 1):
        if n == 0:
            continue
        bound = norm_sigma * np.exp(-abs(n) * s.width)
        excess = abs(s.coeff(n)) - bound
        good = excess <= slack * max(1.0, norm_sigma)
        ok[n] = bool(good)
        if not good:
            passed = False
            if excess > worst_excess:
                worst_excess = excess
                worst_index = n
    return DecayReport(norm_sigma=float(norm_sigma), per_index_ok=ok,
                       passed=passed, worst_index=worst_index,
                       worst_excess=float(worst_excess))


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
        j = nerve.chart_index(e.src)
        k = nerve.chart_index(e.dst)
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


def genus2_bundle(phi1, phi2):
    nerve = Nerve(
        ("U0", "U1", "U2"),
        (Edge("U0", "U1", "+"), Edge("U0", "U1", "-"),
         Edge("U0", "U2", "+"), Edge("U0", "U2", "-")),
    )
    return UnitaryFlatBundle(nerve, (phi1, 0.0, phi2, 0.0))


def forest_bundle(phases):
    """A path-and-star tree on len(phases) + 1 charts (no cycles)."""
    charts = tuple(f"C{i}" for i in range(len(phases) + 1))
    edges = tuple(Edge(charts[i // 2], charts[i + 1], f"t{i}")
                  for i in range(len(phases)))
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
    assert (nan_norm.passed, nan_norm.worst_index, nan_norm.per_index_ok) == (
        ref.passed, ref.worst_index, ref.per_index_ok)


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
