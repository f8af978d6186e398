import cmath
import warnings

import numpy as np
import pytest

from circlekam import (
    CircleDiffeo,
    LaurentSeries,
    NestingError,
    NotACircleMapError,
    RotationConvergenceWarning,
    UnivalenceError,
    ValidationError,
    WindingError,
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
from circlekam import circle
from circlekam.circle import compose_rows

from conftest import (
    GOLDEN,
    circle_defect,
    random_diffeo,
    random_symmetric_hat,
    safe_rotation_numbers,
)

TWO_PI = 2.0 * np.pi


class TestConstruction:
    def test_nonzero_constant_term_rejected(self):
        hat = LaurentSeries.from_coeffs({0: 0.1, 1: 0.1, -1: -0.1}, width=1.0)
        with pytest.raises(NotACircleMapError):
            CircleDiffeo(0.3, hat)

    def test_symmetry_violation_rejected(self):
        hat = LaurentSeries.from_coeffs({1: 1e-3}, width=1.0)  # c_{-1} missing
        with pytest.raises(NotACircleMapError):
            CircleDiffeo(0.3, hat)

    @pytest.mark.parametrize("phase,coeffs", [
        (0.3, {2: np.nan, -2: np.nan}),
        (0.3, {1: np.inf, -1: -np.inf}),
        (np.inf, {}),
    ])
    def test_non_finite_map_rejected_without_warning(self, phase, coeffs):
        # both tests of the hat were false for NaN, and an infinite phase
        # became NaN
        hat = LaurentSeries.from_coeffs(coeffs, 1.0, n_trunc=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotACircleMapError):
                CircleDiffeo(phase, hat)

    def test_phase_reduced_mod_2pi(self):
        f = rotation(TWO_PI + 0.25, width=1.0)
        assert abs(f.phase - 0.25) < 1e-12


class TestExpand:
    def test_rigid_rotation(self):
        phi = 2.1
        w = unit_circle(64)
        f, _ = expand_detailed(np.exp(1j * phi) * w, n_trunc=8, width=1.0)
        assert abs(f.phase - phi) < 1e-12
        assert np.all(f.hat.coeffs == 0)

    def test_single_mode_exponent(self):
        # f = w exp(i phi + eps (w - 1/w)): the exponent is its own expansion
        phi, eps = 0.9, 1e-3
        w = unit_circle(64)
        f, _ = expand_detailed(w * np.exp(1j * phi + eps * (w - 1.0 / w)), n_trunc=8,
                               width=1.0)
        assert abs(f.phase - phi) < 1e-12
        assert abs(f.hat.coeff(1) - eps) < 1e-12
        assert abs(f.hat.coeff(-1) + eps) < 1e-12
        assert all(abs(f.hat.coeff(n)) == 0 for n in (2, 3, -2, -3))

    def test_squaring_map_winds(self):
        w = unit_circle(64)
        with pytest.raises(WindingError):
            expand_detailed(w**2, n_trunc=8, width=1.0)

    def test_off_circle_samples_rejected(self):
        w = unit_circle(64)
        with pytest.raises(NotACircleMapError):
            expand_detailed(w * np.exp(1e-3 * w), n_trunc=8, width=1.0)  # Re exponent != 0

    def test_round_trip_phase_and_hat(self, rng):
        for _ in range(10):
            f = random_diffeo(rng, width=1.0, scale=1e-3)
            g, _ = expand_detailed(eval_diffeo(f, unit_circle(64)), f.hat.truncation, 1.0)
            assert abs(g.phase - f.phase) < 1e-10
            n_t = f.hat.truncation
            for n in range(-n_t, n_t + 1):
                assert abs(g.hat.coeff(n) - f.hat.coeff(n)) < 1e-10


class TestRotationNumber:
    def test_rigid(self):
        f = rotation(TWO_PI * 0.375, width=1.0)
        assert abs(rotation_number(f, 2048) - 0.375) < 1e-12

    def test_iters_floor(self):
        with pytest.raises(ValidationError):
            rotation_number(rotation(1.0, 1.0), iters=10)

    def test_conjugacy_invariance(self, rng):
        from circlekam import conjugated_rotation

        theta = GOLDEN
        for _ in range(3):
            psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 2e-3, max_mode=3))
            f = conjugated_rotation(psi, TWO_PI * theta, n_trunc=32, out_width=1.0)
            assert abs(rotation_number(f) - theta) < 1e-12

    def test_conjugacy_invariance_via_ops(self, rng):
        # same statement, routed through invert and compose themselves;
        # the measured error is 2.2e-16 over 20 seeds
        theta = GOLDEN
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 1e-3, max_mode=3))
        mid = compose(rotation(TWO_PI * theta, 1.2), psi, out_width=1.0)
        f = compose(invert(psi, out_width=0.7), mid, out_width=0.55)
        assert abs(rotation_number(f) - theta) < 1e-13

    def test_default_orbit_exact_on_conjugated_rotations(self, rng):
        # exact theta of ten seeded conjugated rotations at the default length
        from circlekam import conjugated_rotation

        for theta in safe_rotation_numbers(rng, 10):
            psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 2e-3, max_mode=3))
            f = conjugated_rotation(psi, TWO_PI * theta, n_trunc=32, out_width=1.0)
            err = abs(rotation_number(f) - theta)
            assert min(err, 1.0 - err) < 1e-13

    def test_phase_locked_oracle(self):
        # F(x) = x + 1/2 + sin(2 pi x) / 4 pi has the attracting 2-cycle
        # {0, 1/2}, so the rotation number is exactly 1/2
        hat = LaurentSeries.from_coeffs({1: 0.25, -1: -0.25}, width=0.5)
        assert abs(rotation_number(CircleDiffeo(TWO_PI * 0.5, hat)) - 0.5) < 1e-15

    def test_against_long_orbit_oracle(self):
        # independent oracle: raw lift orbit, no extrapolation
        phi, eps = TWO_PI * 0.2, 0.05
        hat = LaurentSeries.from_coeffs({1: eps, -1: -eps}, width=1.0)
        f = CircleDiffeo(phi, hat)

        m = 10**6
        x = 0.0
        for _ in range(m):
            z = cmath.exp(2j * cmath.pi * x)
            imhat = 2.0 * (eps * z).imag  # Im hat on the circle, both modes
            x += (phi + imhat) / TWO_PI
        oracle = (x / m) % 1.0
        assert abs(rotation_number(f, 2**15) - oracle) < 1e-6

    def test_warns_when_spread_large(self):
        # next to the edge of the 1/2 mode-locking tongue the orbit lingers
        # near the ghost of the 2-cycle: 1024 iterates do not settle it
        hat = LaurentSeries.from_coeffs({1: 0.25, -1: -0.25}, width=0.5)
        f = CircleDiffeo(TWO_PI * 0.49, hat)
        with pytest.warns(RotationConvergenceWarning):
            rotation_number(f, 1024)

    def test_strong_golden_map_settles(self):
        # a strong perturbation at golden mean still settles in 1024 iterates
        hat = LaurentSeries.from_coeffs({1: 0.1, -1: -0.1}, width=0.5)
        f = CircleDiffeo(TWO_PI * GOLDEN, hat)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RotationConvergenceWarning)
            rho = rotation_number(f, 1024)
        assert abs(rho - rotation_number(f, 8192)) < 1e-12

    def test_nonfinite_coefficient_rejected(self):
        hat = LaurentSeries.from_coeffs({1: complex("nan"), -1: complex("nan")}, 1.0)
        with pytest.raises(ValidationError):
            rotation_number(CircleDiffeo(1.0, hat))


class TestCompose:
    def test_rotations_add(self):
        f = compose(rotation(1.0, 1.0), rotation(2.0, 1.0), out_width=0.8)
        assert abs(f.phase - 3.0) < 1e-12
        assert np.all(f.hat.coeffs == 0)

    def test_identity_neutral(self, rng):
        f = random_diffeo(rng, width=1.0, scale=1e-3)
        g = compose(f, identity_map(1.0), out_width=0.9)
        assert abs(g.phase - f.phase) < 1e-10
        n_t = f.hat.truncation
        assert all(
            abs(g.hat.coeff(n) - f.hat.coeff(n)) < 1e-10
            for n in range(-n_t, n_t + 1)
        )

    def test_pointwise_oracle(self, rng):
        f = random_diffeo(rng, width=1.0, scale=2e-4)
        g = random_diffeo(rng, width=1.0, scale=2e-4)
        h = compose(g, f, out_width=0.8)
        w = np.exp(1j * rng.uniform(0, TWO_PI, 128))
        direct = eval_diffeo(g, eval_diffeo(f, w))
        assert np.max(np.abs(eval_diffeo(h, w) - direct)) < 1e-9

    def test_nesting_violation(self):
        big = CircleDiffeo(
            0.1, LaurentSeries.from_coeffs({1: 0.3, -1: -0.3}, width=1.0)
        )
        small = rotation(0.2, width=1.0)
        with pytest.raises(NestingError):
            compose(small, big, out_width=0.9)


class TestComposeChain:
    def test_three_factors_pointwise_oracle(self, rng):
        f, g, h = (random_diffeo(rng, width=1.0, scale=2e-4) for _ in range(3))
        (composite,), _ = compose_rows([[h], [g], [f]], 0.8, 64)
        w = np.exp(1j * rng.uniform(0, TWO_PI, 128))
        direct = eval_diffeo(h, eval_diffeo(g, eval_diffeo(f, w)))
        assert np.max(np.abs(eval_diffeo(composite, w) - direct)) < 1e-9

    def test_one_factor_is_rewidthed_not_reexpanded(self, rng):
        f = random_diffeo(rng, width=1.0, scale=2e-4)
        (g,), _ = compose_rows([[f]], 0.8, 64)
        assert (g.phase, g.width) == (f.phase, 0.8)
        assert np.array_equal(g.hat.band, f.hat.band)
        with pytest.raises(NestingError) as info:
            compose_rows([[f]], 1.1, 64)
        assert info.value.inclusion == "inner factors(out_annulus) within domain(factor 0)"

    def test_nesting_failure_names_the_factor(self, monkeypatch):
        # row b: the innermost factor maps the width-0.9 annulus past the
        # middle factor's width 1.0; weighing the middle factor at that reach
        # would raise AnnulusDomainError, so it is not weighed. Nesting needs
        # no samples, so a chain that does not nest samples nothing, not even
        # its row a, which nests
        sampled, expand = [], circle.expand_rows_by_degree

        def counting(*args, **kwargs):
            sampled.append(args)
            return expand(*args, **kwargs)

        monkeypatch.setattr(circle, "expand_rows_by_degree", counting)
        big = CircleDiffeo(0.1, LaurentSeries.from_coeffs({1: 0.3, -1: -0.3}, width=1.0))
        small = CircleDiffeo(0.2, LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, 1.0))
        chain = [[small, small], [small, small], [small, big]]
        with pytest.raises(NestingError) as info:
            compose_rows(chain, 0.9, 32, labels=["chart a", "chart b"])
        assert str(info.value).startswith("chart b: factor 1:")
        assert info.value.inclusion == "inner factors(out_annulus) within domain(factor 1)"
        assert len(sampled) == 0


class TestInvert:
    def test_identity(self):
        inv = invert(identity_map(1.0), out_width=0.8)
        assert min(inv.phase, TWO_PI - inv.phase) < 1e-14
        assert np.all(inv.hat.coeffs == 0)

    def test_rotation_inverse(self):
        inv = invert(rotation(0.7, 1.0), out_width=0.8)
        assert abs(inv.phase - (TWO_PI - 0.7)) < 1e-12

    def test_composition_residual(self, rng):
        hat = LaurentSeries.from_coeffs({1: 0.01, -1: -0.01}, width=1.0)
        psi = CircleDiffeo(0.0, hat)
        inv = invert(psi, out_width=0.8)
        w = np.exp(1j * rng.uniform(0, TWO_PI, 128))
        assert np.max(np.abs(eval_diffeo(inv, eval_diffeo(psi, w)) - w)) < 1e-9

    def test_phases_cancel(self, rng):
        for _ in range(5):
            psi = random_diffeo(rng, width=1.0, scale=1e-5, max_mode=3)
            inv = invert(psi, out_width=0.7)
            s = (inv.phase + psi.phase) % TWO_PI
            assert min(s, TWO_PI - s) < 1e-9

    def test_univalence_gate(self):
        hat = LaurentSeries.from_coeffs({1: 0.2, -1: -0.2}, width=1.0)
        with pytest.raises(UnivalenceError):
            invert(CircleDiffeo(0.0, hat), out_width=0.3)

    def test_apply_inverse_matches(self, rng):
        psi = random_diffeo(rng, width=1.0, scale=1e-3, max_mode=4)
        u = unit_circle(64)
        x = apply_inverse(psi, u)
        assert np.max(np.abs(eval_diffeo(psi, x) - u)) < 1e-13


class TestUnitCircle:
    def test_cached_read_only_and_equal_to_formula(self):
        for m in (1, 8, 96, 4096):
            w = unit_circle(m)
            assert w is unit_circle(m)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0
            assert np.array_equal(w, np.exp(2j * np.pi * np.arange(m) / m))


class TestCirclePreservation:
    def test_unit_circle_invariant(self, rng):
        for _ in range(25):
            f = random_diffeo(rng, width=1.0, scale=1e-3)
            assert circle_defect(f, 1024) <= 1e-10

    def test_larger_hats_still_preserve(self, rng):
        f = random_diffeo(rng, width=1.0, scale=0.05, max_mode=3)
        assert circle_defect(f, 512) <= 1e-10
