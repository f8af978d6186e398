import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlekam import (
    AnnulusDomainError,
    CircleDiffeo,
    InsufficientSamplesError,
    LaurentSeries,
    RotationConvergenceWarning,
    SchemaError,
    coeffs_from_circle,
    conjugated_rotation,
    decay_check,
    empirical_sup_norm,
    eval_series,
    log_derivative_majorant,
    majorant_norm,
    rotation_number,
)
from circlekam.circle import symmetry_defect
from circlekam.series import SeriesRows, empirical_sup_norms, majorants

from conftest import random_symmetric_hat, safe_rotation_numbers


def cut(s, k):
    """``s`` truncated at ``k``: its band sliced to ``|n| <= k``."""
    return LaurentSeries.from_band(s.dense(k), s.width, k)


class TestEval:
    def test_zero_series(self):
        s = LaurentSeries.zero(width=1.0, n_trunc=3)
        assert eval_series(s, 0.5 + 0.0j) == 0.0

    def test_monomial_identity(self):
        s = LaurentSeries.from_coeffs({1: 1.0}, width=1.0)
        w = np.exp(1j * np.pi / 2)
        assert abs(eval_series(s, w) - 1j) < 1e-15

    def test_two_term_hand_sum(self):
        # c_{-1} = 2, c_2 = -1 at w = 2: 2/2 - 4 = -3
        s = LaurentSeries.from_coeffs({-1: 2.0, 2: -1.0}, width=1.0)
        assert abs(eval_series(s, 2.0 + 0.0j) - (-3.0)) < 1e-14

    def test_outside_annulus_raises(self):
        s = LaurentSeries.from_coeffs({1: 1.0}, width=0.5)
        with pytest.raises(AnnulusDomainError):
            eval_series(s, 2.0)
        with pytest.raises(AnnulusDomainError):
            eval_series(s, 0.1)

    def test_outside_is_empty_safe_and_names_the_row_annulus(self):
        rows = SeriesRows.of([LaurentSeries.from_coeffs({1: 1.0}, width=0.5),
                              LaurentSeries.from_coeffs({2: 1.0}, width=1.0)])
        assert not rows.outside(np.zeros((2, 0), dtype=complex)).any()
        assert rows.outside(np.array([[0.5], [0.5]])).tolist() == [True, False]
        s = LaurentSeries.from_coeffs({1: 1.0}, width=0.5)
        with pytest.raises(AnnulusDomainError) as info:
            eval_series(s, 2.0)
        assert str(info.value) == str(rows.domain_error(0)) == (
            "evaluation point outside the open annulus (0.606531, 1.64872)")

    def test_vectorized_matches_scalar(self, rng):
        s = random_symmetric_hat(rng, width=1.0, scale=0.3)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi, 16)) * np.exp(
            rng.uniform(-0.5, 0.5, 16)
        )
        vec = eval_series(s, w)
        for wi, vi in zip(w, vec):
            assert abs(eval_series(s, wi) - vi) < 1e-14


class TestMajorant:
    def test_zero(self):
        s = LaurentSeries.zero(width=2.0, n_trunc=5)
        assert majorant_norm(s, 1.0) == 0.0

    def test_single_term_closed_form(self):
        s = LaurentSeries.from_coeffs({1: 0.1}, width=1.0)
        assert abs(majorant_norm(s, 1.0) - 0.1 * np.e) < 1e-15

    def test_out_of_range_raises(self):
        s = LaurentSeries.from_coeffs({1: 0.1}, width=1.0)
        with pytest.raises(AnnulusDomainError):
            majorant_norm(s, 1.5)
        with pytest.raises(AnnulusDomainError):
            majorant_norm(s, 0.0)

    def test_dominates_sampled_sup(self, rng):
        for _ in range(20):
            s = random_symmetric_hat(rng, width=1.0, scale=0.5, max_mode=6)
            sp = rng.uniform(0.1, 0.9)
            assert empirical_sup_norm(s, sp, 256) <= majorant_norm(s, sp) + 1e-12

    def test_monotone_in_width(self, rng):
        s = random_symmetric_hat(rng, width=1.0, scale=0.5)
        grid = np.linspace(0.05, 1.0, 12)
        vals = [majorant_norm(s, sp) for sp in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_large_truncation_stays_finite(self, rng):
        # N * sigma = 1024 > 709: zero coefficients must not make 0 * inf = NaN
        s = random_symmetric_hat(rng, width=1.0, scale=1e-3, max_mode=4, n_trunc=1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            maj = majorant_norm(s, 1.0)
            dmaj = log_derivative_majorant(s, 1.0)
        small = cut(s, 4)
        # the same terms, summed in another order
        assert maj == pytest.approx(majorant_norm(small, 1.0), rel=1e-14)
        assert dmaj == pytest.approx(log_derivative_majorant(small, 1.0), rel=1e-14)

    def test_overflowing_nonzero_coefficient_is_inf(self):
        s = LaurentSeries.from_coeffs({1024: 1e-300, 1: 0.1}, width=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert majorant_norm(s, 1.0) == np.inf
            assert log_derivative_majorant(s, 1.0) == np.inf


@settings(max_examples=50, deadline=None)
@given(
    c1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    c3=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    sp=st.floats(min_value=0.05, max_value=0.75),
)
def test_empirical_below_majorant_property(c1, c3, sp):
    s = LaurentSeries.from_coeffs({1: c1, -2: c3}, width=0.8, n_trunc=3)
    assert empirical_sup_norm(s, sp, 64) <= majorant_norm(s, sp) * (1 + 1e-12) + 1e-12


class TestEmpiricalSup:
    def test_zero(self):
        s = LaurentSeries.zero(width=1.0, n_trunc=2)
        assert empirical_sup_norm(s, 0.5, 32) == 0.0

    def test_monomial_attained_on_outer_circle(self):
        eps = 1e-3
        s = LaurentSeries.from_coeffs({1: eps}, width=1.0)
        sp = 0.7
        # |c1 w| is constant on each circle, max at radius e^{sp}
        assert abs(empirical_sup_norm(s, sp, 64) - eps * np.exp(sp)) < 1e-15

    def test_undersampling_rejected(self):
        s = LaurentSeries.from_coeffs({5: 1.0, -5: -1.0}, width=1.0)
        with pytest.raises(InsufficientSamplesError):
            empirical_sup_norm(s, 0.5, 10)

    def test_sample_rule_follows_effective_degree(self):
        # zeros beyond the degree add nothing to resolve: 2d+1 samples do
        s = LaurentSeries.from_coeffs({1: 1e-3, -2: 2e-3}, width=1.0, n_trunc=5000)
        assert empirical_sup_norm(s, 0.5, 5) == pytest.approx(
            empirical_sup_norm(cut(s, 2), 0.5, 5), rel=1e-15)
        with pytest.raises(InsufficientSamplesError):
            empirical_sup_norm(s, 0.5, 4)

    def test_stacked_sup_norms_are_the_one_row_values(self, rng):
        hats = [random_symmetric_hat(rng, 1.0, 0.1, max_mode=m) for m in (1, 3, 6)]
        got = empirical_sup_norms(hats, 0.4, 64)
        assert np.array_equal(got, [empirical_sup_norm(h, 0.4, 64) for h in hats])


class TestCoeffsFromCircle:
    def test_monomial_orthogonality(self):
        m, n0 = 64, 3
        w = np.exp(2j * np.pi * np.arange(m) / m)
        s = coeffs_from_circle(w**n0, n_trunc=8, width=1.0)
        for n in range(-8, 9):
            want = 1.0 if n == n0 else 0.0
            assert abs(s.coeff(n) - want) < 1e-13

    def test_round_trip(self, rng):
        s = random_symmetric_hat(rng, width=1.0, scale=0.5, max_mode=6, n_trunc=8)
        m = 4 * 8
        w = np.exp(2j * np.pi * np.arange(m) / m)
        back = coeffs_from_circle(eval_series(s, w), n_trunc=8, width=1.0)
        assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-12

    def test_constant_zero(self):
        s = coeffs_from_circle(np.zeros(32), n_trunc=4, width=1.0)
        assert np.all(s.coeffs == 0)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            coeffs_from_circle(np.zeros(16), n_trunc=8, width=1.0)


class TestDecay:
    def test_analytic_map_passes(self):
        # f(w) = exp(0.3 (w + 1/w)) is analytic on every annulus; its sup on
        # the width-1 annulus is bounded by exp(0.3 (e + 1/e)).
        m = 256
        w = np.exp(2j * np.pi * np.arange(m) / m)
        s = coeffs_from_circle(np.exp(0.3 * (w + 1.0 / w)), n_trunc=32, width=1.0)
        bound = float(np.exp(0.3 * (np.e + 1.0 / np.e)))
        assert decay_check(s, bound).passed

    def test_zero_series_vacuous(self):
        rep = decay_check(LaurentSeries.zero(1.0, 4), norm_sigma=0.0)
        assert rep.passed and rep.worst_index is None

    def test_wider_annulus_extraction_decays(self, rng):
        # extracting on a narrower annulus than the series lives on always
        # lands inside the decay envelope of the narrow-width sup bound
        wide = random_symmetric_hat(rng, width=1.2, scale=0.1, max_mode=6)
        m = 64
        w = np.exp(2j * np.pi * np.arange(m) / m)
        narrow = coeffs_from_circle(eval_series(wide, w), n_trunc=8, width=1.0)
        assert decay_check(narrow, majorant_norm(wide, 1.0)).passed

    def test_adversarial_flagged_at_top_index(self):
        n_t, sigma = 8, 1.0
        bad = 2.0 * np.exp(-n_t * sigma)
        s = LaurentSeries.from_coeffs({n_t: bad, -n_t: -bad}, sigma, n_trunc=n_t)
        rep = decay_check(s, norm_sigma=1.0)
        assert not rep.passed
        assert abs(rep.worst_index) == n_t

    def test_only_nonzero_coefficients_are_audited(self):
        # zeros meet any finite, nonnegative bound, even at a tight one
        s = LaurentSeries.from_coeffs({3: 0.5 * np.exp(-3.0), -3: -0.5 * np.exp(-3.0)},
                                      1.0, n_trunc=40)
        rep = decay_check(s, 0.5, slack=0.0)
        assert rep.passed and rep.worst_index is None
        assert not decay_check(s, 0.49, slack=0.0).passed

    @pytest.mark.parametrize("norm", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_norm_that_bounds_nothing_fails(self, norm):
        # a +inf or negative norm once passed or failed with N * width
        for n_t in (1, 4, 800):
            for coeffs in ({}, {1: 1e-9, -1: -1e-9}):
                s = LaurentSeries.from_coeffs(coeffs, 1.0, n_trunc=n_t)
                rep = decay_check(s, norm)
                assert not rep.passed
                assert (rep.worst_index, rep.worst_excess) == (None, 0.0)
        assert decay_check(LaurentSeries.zero(1.0, 0), norm).passed


class TestLogDerivativeMajorant:
    def test_zero(self):
        assert log_derivative_majorant(LaurentSeries.zero(1.0, 3), 0.5) == 0.0

    def test_single_term(self):
        a = 0.3 - 0.4j
        s = LaurentSeries.from_coeffs({1: a}, width=1.0)
        assert abs(log_derivative_majorant(s, 0.6) - abs(a) * np.exp(0.6)) < 1e-15

    def test_dominates_finite_differences(self, rng):
        s = random_symmetric_hat(rng, width=1.0, scale=0.4, max_mode=5)
        sp = 0.6
        bound = log_derivative_majorant(s, sp)
        h = 1e-6
        for _ in range(64):
            zeta = rng.uniform(-sp, sp) + 1j * rng.uniform(0, 2 * np.pi)
            d = (eval_series(s, np.exp(zeta + h)) - eval_series(s, np.exp(zeta - h))) / (2 * h)
            assert abs(d) <= bound * (1 + 1e-6) + 1e-9


class TestSerialization:
    def test_round_trip(self, rng):
        s = random_symmetric_hat(rng, width=0.8, scale=1e-3, max_mode=5)
        doc = json.loads(json.dumps(s.to_json_dict()))
        back = LaurentSeries.from_json_dict(doc)
        assert back.width == s.width
        assert back.truncation == s.truncation
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_repeated_index_rejected(self):
        # the last entry used to win: a run used another map than the one written
        doc = LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, width=1.0).to_json_dict()
        doc["coeffs"].insert(0, [1, 0.7, 0.0])
        with pytest.raises(SchemaError, match="coefficient index 1 appears more than once"):
            LaurentSeries.from_json_dict(json.loads(json.dumps(doc)))

    def test_tiny_coefficients_omitted(self):
        s = LaurentSeries.from_coeffs({1: 1e-301, 2: 1.0, -2: -1.0}, width=1.0)
        doc = s.to_json_dict()
        stored = {entry[0] for entry in doc["coeffs"]}
        assert stored == {2, -2}

    def test_immutable(self):
        s = LaurentSeries.from_coeffs({1: 1.0}, width=1.0)
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0


class TestFromBand:
    def test_band_beyond_the_truncation_raises(self):
        # it held degree 5 at N = 2: coeffs dropped 3 <= |n| <= 5, and its
        # JSON wrote index 5 under "N": 2, which from_json_dict refused
        with pytest.raises(AnnulusDomainError,
                           match="coefficient index 5 exceeds truncation 2"):
            LaurentSeries.from_band(np.arange(1, 12), 1.0, 2)

    def test_zeros_beyond_the_truncation_are_cut(self):
        s = LaurentSeries.from_band(np.array([0, 0, 1, 0, 2, 0, 0]), 1.0, 1)
        assert (s.degree, s.truncation) == (1, 1)

    @pytest.mark.parametrize("n_trunc", [5, 6, 10**12])
    def test_valid_series_survives_json(self, n_trunc):
        s = LaurentSeries.from_band(np.arange(1, 12) * (1 - 0.5j), 1.0, n_trunc)
        back = LaurentSeries.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
        assert (back.truncation, back.width) == (n_trunc, 1.0)
        assert np.array_equal(back.band, s.band)


class TestSupport:
    def test_support_and_degree(self):
        s = LaurentSeries.from_coeffs({-3: 1.0, 2: 0.5, 5: 0.0}, 1.0, n_trunc=8)
        assert s.support.tolist() == [-3, 2]
        assert s.degree == 3
        assert s.support is s.support
        assert not s.support.flags.writeable
        assert LaurentSeries.zero(1.0, 4).degree == 0
        assert LaurentSeries.zero(1.0, 4).support.size == 0
        one_sided = LaurentSeries.from_coeffs({1: 1.0, 7: 2.0}, 1.0, n_trunc=9)
        assert one_sided.degree == 7
        assert eval_series(one_sided, 0.5) == pytest.approx(0.5 + 2.0 * 0.5**7)


class TestRetruncate:
    def test_dense_window_pads_and_cuts(self):
        s = LaurentSeries.from_coeffs({1: 1.0, -3: 2.0j, 5: 0.25}, 1.0)
        for n_t in (0, 2, 5, 9):
            got = s.dense(n_t)
            assert got.shape == (2 * n_t + 1,)
            assert all(got[n + n_t] == s.coeff(n) for n in range(-n_t, n_t + 1))


# a band of degree d <= 40 declared at these truncations, the last far
# beyond what a dense 2N+1 array could hold
TRUNCATIONS = (64, 4096, 10**12)
MAX_BAND_DEGREE = 40


@st.composite
def bands(draw):
    """A band of length 2d+1, d <= 40, with a nonzero coefficient at |n| = d
    (d > 0) and zeros among the others."""
    d = draw(st.integers(0, MAX_BAND_DEGREE))
    part = st.floats(-1e-3, 1e-3, allow_nan=False, allow_subnormal=False)
    coeff = st.one_of(st.just(0j), st.builds(complex, part, part))
    band = np.array(draw(st.lists(coeff, min_size=2 * d + 1, max_size=2 * d + 1)),
                    dtype=complex)
    if d:
        band[draw(st.sampled_from([0, 2 * d]))] = complex(draw(st.floats(1e-6, 1e-3)))
    return band


def _held_bytes(hat):
    return sum(a.nbytes for a in vars(hat).values() if isinstance(a, np.ndarray))


class TestBandStorage:
    @settings(max_examples=30, deadline=None)
    @given(band=bands(), width=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_results_and_storage_do_not_depend_on_the_truncation(self, band, width, seed):
        d = (band.size - 1) // 2
        hats = [LaurentSeries.from_band(band, width, n) for n in (d, *TRUNCATIONS)]
        # a dense array zero-padded to N keeps the same band
        hats += [LaurentSeries(np.pad(band, n - d), width) for n in (d, 64)]
        rng = np.random.default_rng(seed)
        w = np.exp(rng.uniform(-0.99, 0.99, 16) * width + 1j * rng.uniform(0, 2 * np.pi, 16))
        sym = 0.5 * (band - np.conj(band[::-1]))
        sym[d] = 0.0
        sym *= 1e-3 / max(1.0, float(np.sum(np.abs(sym) * np.abs(np.arange(-d, d + 1)))))
        phase = 2 * np.pi * rng.random()

        def results(hat):
            doc = hat.to_json_dict()
            del doc["N"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RotationConvergenceWarning)
                rho = rotation_number(CircleDiffeo(phase, LaurentSeries.from_band(
                    sym, width, hat.truncation)), iters=1000)
            return (hat.support.tobytes(), hat.degree,
                    [hat.dense(k).tobytes() for k in range(d + 1)],
                    majorants([hat, hat], width, [0, 1]).tobytes(),
                    symmetry_defect(hat), SeriesRows.of([hat])(w).tobytes(),
                    eval_series(hat, w).tobytes(), doc, rho)

        want = results(hats[0])
        assert want[1] == d
        for hat in hats[1:]:
            assert results(hat) == want
        held = [_held_bytes(hat) for hat in hats]
        assert held == [held[0]] * len(hats)
        assert all(hat.band.nbytes <= 16 * (2 * d + 1) for hat in hats)
        # the constant: the support index, 8 bytes a nonzero mode, at most
        # 2 * 40 + 1 of them
        assert held[0] <= 16 * (2 * d + 1) + 8 * (2 * MAX_BAND_DEGREE + 1)

    def test_pool_memory_does_not_grow_with_the_truncation(self):
        # 16 genus-2 pairs built by conjugated_rotation hold about the same
        # live memory at N=64 and at N=4096: each hat is its band
        def pool(n_trunc):
            rng = np.random.default_rng([1, 1])
            pairs = []
            for _ in range(16):
                th1, th2 = safe_rotation_numbers(rng, 2)
                psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-5))
                pairs.append(tuple(conjugated_rotation(psi, 2 * np.pi * th, n_trunc, 1.0)
                                   for th in (th1, th2)))
            return pairs

        live = {}
        for n_trunc in (64, 4096):
            pool(n_trunc)   # the shared unit-circle grids are cached once
            tracemalloc.start()
            try:
                held = pool(n_trunc)
                live[n_trunc] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert all(f.hat.truncation == n_trunc for pair in held for f in pair)
        assert max(live.values()) <= 1.2 * min(live.values()), live
