import numpy as np
import pytest

from circlekam import (
    Edge,
    LaurentSeries,
    CircleDiffeo,
    Nerve,
    NerveError,
    PathError,
    ResonantModeError,
    TransitionSystem,
    UnitaryFlatBundle,
    ValidationError,
    amplification_spectrum,
    fit_diophantine,
    holonomy,
    identity_map,
    rotation,
    solve_mode,
)

from conftest import GOLDEN, SILVER

TWO_PI = 2.0 * np.pi


def single_loop_bundle(theta):
    nerve = Nerve(("U0",), (Edge("U0", "U0", "loop"),))
    return UnitaryFlatBundle(nerve, (TWO_PI * theta,))


def genus2_bundle(phi1, phi2):
    nerve = Nerve(
        ("U0", "U1", "U2"),
        (
            Edge("U0", "U1", "+"),
            Edge("U0", "U1", "-"),
            Edge("U0", "U2", "+"),
            Edge("U0", "U2", "-"),
        ),
    )
    return UnitaryFlatBundle(nerve, (phi1, 0.0, phi2, 0.0))


class TestNerve:
    def test_disconnected_rejected(self):
        with pytest.raises(NerveError):
            Nerve(("A", "B"), ())

    def test_duplicate_label_rejected(self):
        with pytest.raises(NerveError):
            Nerve(("A",), (Edge("A", "A", "x"), Edge("A", "A", "x")))

    def test_unknown_chart_rejected(self):
        with pytest.raises(NerveError):
            Nerve(("A",), (Edge("A", "B", "x"),))

    def test_fundamental_cycles_of_genus2(self):
        b = genus2_bundle(1.0, 2.0)
        cycles = b.nerve.fundamental_cycles()
        assert len(cycles) == 2
        hols = sorted(holonomy(b, c) for c in cycles)
        # each cycle pairs a plus edge against the matching minus edge
        assert np.allclose(hols, [1.0, 2.0]) or np.allclose(
            hols, [TWO_PI - 2.0, TWO_PI - 1.0]
        )


class TestCocycleCondition:
    def test_empty_triples_vacuous(self):
        UnitaryFlatBundle(genus2_bundle(0.3, 0.4).nerve, (0.3, 0.0, 0.4, 0.0))

    def test_triangle_consistent(self):
        nerve = Nerve(
            ("A", "B", "C"),
            (Edge("A", "B", "e"), Edge("B", "C", "f"), Edge("A", "C", "g")),
            triples=(("A", "B", "C"),),
        )
        UnitaryFlatBundle(nerve, (0.5, 0.7, 1.2))  # 0.5 + 0.7 == 1.2

    def test_triangle_inconsistent(self):
        nerve = Nerve(
            ("A", "B", "C"),
            (Edge("A", "B", "e"), Edge("B", "C", "f"), Edge("A", "C", "g")),
            triples=(("A", "B", "C"),),
        )
        with pytest.raises(ValidationError):
            UnitaryFlatBundle(nerve, (0.5, 0.7, 1.3))


class TestHolonomy:
    def test_empty_loop(self):
        b = single_loop_bundle(GOLDEN)
        assert holonomy(b, []) == 0.0

    def test_self_loop_once(self):
        theta = 0.37
        b = single_loop_bundle(theta)
        e = b.nerve.edges[0]
        assert abs(holonomy(b, [(e, +1)]) - TWO_PI * theta) < 1e-12

    def test_plus_then_minus(self):
        # out along the plus edge, back along the minus edge: the identity
        # edge contributes nothing
        b = genus2_bundle(1.1, 0.6)
        plus, minus = b.nerve.edges[0], b.nerve.edges[1]
        assert abs(holonomy(b, [(plus, +1), (minus, -1)]) - 1.1) < 1e-12

    def test_open_walk_rejected(self):
        b = genus2_bundle(1.1, 0.6)
        plus = b.nerve.edges[0]
        with pytest.raises(PathError):
            holonomy(b, [(plus, +1)])

    def test_broken_walk_rejected(self):
        b = genus2_bundle(1.1, 0.6)
        plus01, plus02 = b.nerve.edges[0], b.nerve.edges[2]
        with pytest.raises(PathError):
            holonomy(b, [(plus01, +1), (plus02, +1)])


class TestSolveMode:
    def test_zero_data(self):
        sol = solve_mode(single_loop_bundle(GOLDEN), 3, [0.0])
        assert np.all(sol.a == 0) and sol.residual == 0.0

    def test_single_chart_closed_form(self):
        theta = GOLDEN
        sol = solve_mode(single_loop_bundle(theta), 1, [1.0])
        want = 1.0 / (np.exp(2j * np.pi * theta) - 1.0)
        assert abs(sol.a[0] - want) < 1e-12
        assert sol.residual < 1e-12

    def test_classical_divisor_reproduced(self):
        theta = SILVER
        b = single_loop_bundle(theta)
        for n in (1, 2, 5, -3, 8):
            sol = solve_mode(b, n, [0.3 - 0.7j])
            want = (0.3 - 0.7j) / (np.exp(2j * np.pi * n * theta) - 1.0)
            assert abs(sol.a[0] - want) < 1e-12 * max(1.0, abs(want))

    def test_genus2_hand_elimination(self):
        # minus edges force a1 = a0 and a2 = a0; the plus rows then demand
        # a0 (t_j^n - 1) = b_j, consistent only for matched data
        phi1, phi2 = TWO_PI * GOLDEN, TWO_PI * SILVER
        n = 2
        t1n = np.exp(1j * n * phi1)
        t2n = np.exp(1j * n * phi2)
        b1 = 0.4 + 0.2j
        b2 = b1 * (t2n - 1.0) / (t1n - 1.0)
        bun = genus2_bundle(phi1, phi2)
        sol = solve_mode(bun, n, {
            bun.nerve.edges[0]: b1,
            bun.nerve.edges[1]: 0.0,
            bun.nerve.edges[2]: b2,
            bun.nerve.edges[3]: 0.0,
        })
        want = b1 / (t1n - 1.0)
        assert np.max(np.abs(sol.a - want)) < 1e-12
        assert sol.residual < 1e-12

    def test_exact_coboundary_recovered(self, rng):
        bun = genus2_bundle(TWO_PI * GOLDEN, TWO_PI * SILVER)
        a_mat_of = lambda n: np.array(
            [
                [-1.0, np.exp(1j * n * TWO_PI * GOLDEN), 0.0],
                [-1.0, 1.0, 0.0],
                [-1.0, 0.0, np.exp(1j * n * TWO_PI * SILVER)],
                [-1.0, 0.0, 1.0],
            ]
        )
        for _ in range(20):
            n = int(rng.integers(1, 64)) * (1 if rng.random() < 0.5 else -1)
            a_star = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = a_mat_of(n) @ a_star
            sol = solve_mode(bun, n, b)
            assert sol.residual <= 1e-10 * np.max(np.abs(b))
            assert np.max(np.abs(sol.a - a_star)) < 1e-9 * max(1.0, np.max(np.abs(a_star)))

    def test_scaling_linearity(self):
        bun = genus2_bundle(TWO_PI * GOLDEN, TWO_PI * SILVER)
        b = np.array([0.3, 0.0, 0.1j, 0.0])
        lam = 2.5 - 1.5j
        a1 = solve_mode(bun, 3, b).a
        a2 = solve_mode(bun, 3, lam * b).a
        assert np.max(np.abs(a2 - lam * a1)) < 1e-12

    def test_rotation_invariant_amplification(self):
        bun = single_loop_bundle(GOLDEN)
        u = np.exp(0.77j)
        s1 = solve_mode(bun, 4, [0.6])
        s2 = solve_mode(bun, 4, [0.6 * u])
        assert abs(s1.amplification - s2.amplification) < 1e-12

    def test_mode_zero_rejected(self):
        with pytest.raises(ValidationError):
            solve_mode(single_loop_bundle(GOLDEN), 0, [1.0])

    def test_tree_gauge_freedom_flagged(self):
        nerve = Nerve(("A", "B"), (Edge("A", "B", "e"),))
        sol = solve_mode(UnitaryFlatBundle(nerve, (0.9,)), 1, [1.0])
        assert sol.has_kernel
        assert sol.residual < 1e-14
        # min-norm representative of a_k e^{i phi} ... = b: hand derivation
        # gives (-b/2, conj(t) b/2), hence amplification 1/2
        assert abs(sol.a[0] + 0.5) < 1e-12
        assert abs(sol.amplification - 0.5) < 1e-12

    def test_resonant_rational_rotation(self):
        with pytest.raises(ResonantModeError) as info:
            solve_mode(single_loop_bundle(0.5), 2, [1.0])
        assert info.value.mode == 2
        assert "loop" in info.value.loop[0]


class TestAmplificationSpectrum:
    def test_golden_closed_form(self):
        theta = GOLDEN
        spectrum = amplification_spectrum(single_loop_bundle(theta), 64)
        for n, a in spectrum.items():
            want = 1.0 / abs(2.0 * np.sin(np.pi * n * theta))
            assert abs(a - want) <= 1e-10 * want

    def test_conjugation_symmetry(self):
        spectrum = amplification_spectrum(genus2_bundle(TWO_PI * GOLDEN, TWO_PI * SILVER), 32)
        for n in range(1, 33):
            assert abs(spectrum[n] - spectrum[-n]) <= 1e-10 * spectrum[n]

    def test_tree_unit_scale(self):
        # min-norm convention: splitting the data across both charts gives 1/2
        nerve = Nerve(("A", "B"), (Edge("A", "B", "e"),))
        spectrum = amplification_spectrum(UnitaryFlatBundle(nerve, (0.3,)), 4)
        for a in spectrum.values():
            assert abs(a - 0.5) < 1e-12

    def test_resonance_identified(self):
        with pytest.raises(ResonantModeError) as info:
            amplification_spectrum(single_loop_bundle(1.0 / 3.0), 8)
        assert abs(info.value.mode) == 3


class TestDiophantineFit:
    def test_exact_power_law(self):
        spectrum = {n: float(abs(n)) for n in range(-16, 17) if n != 0}
        fit = fit_diophantine(spectrum, mu=2.0)
        assert abs(fit.c0 - 1.0) < 1e-12
        assert all(fit.per_mode_pass.values())
        assert not fit.superpolynomial

    def test_golden_matches_brute_force(self):
        theta = GOLDEN
        spectrum = amplification_spectrum(single_loop_bundle(theta), 256)
        fit = fit_diophantine(spectrum, mu=2.0)
        brute = max(
            1.0 / abs(2.0 * np.sin(np.pi * n * theta)) / abs(n)
            for n in range(-256, 257) if n != 0
        )
        assert abs(fit.c0 - brute) <= 1e-10 * brute

    def test_liouville_growth_flagged(self):
        spectrum = {n: float(np.exp(abs(n))) for n in range(-64, 65) if n != 0}
        fit = fit_diophantine(spectrum, mu=2.0)
        assert fit.superpolynomial
        assert abs(fit.argmax_mode) == 64

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), 1.0, 0.5])
    def test_mu_must_be_finite_above_one(self, mu):
        # a NaN mu passed the old mu <= 1 test and fitted C0 = NaN
        with pytest.raises(ValidationError):
            fit_diophantine({1: 1.0, 2: 1.0}, mu)

    def test_power_past_float_range_is_inf(self):
        # 1000^199 overflowed Python's float power with an OverflowError
        fit = fit_diophantine({1: 2.0, 1000: 1.0}, mu=200.0)
        assert fit.c0 == 2.0 and fit.argmax_mode == 1 and all(fit.per_mode_pass.values())


class TestTransitionSystem:
    def test_width_mismatch_rejected(self):
        nerve = Nerve(("U0",), (Edge("U0", "U0", "loop"),))
        with pytest.raises(ValidationError):
            TransitionSystem(nerve, (rotation(0.3, width=0.5),), width=1.0)

    def test_bundle_extraction(self):
        nerve = Nerve(("U0",), (Edge("U0", "U0", "loop"),))
        hat = LaurentSeries.from_coeffs({1: 1e-3, -1: -1e-3}, 1.0)
        sys0 = TransitionSystem(nerve, (CircleDiffeo(0.8, hat),), width=1.0)
        assert abs(sys0.bundle().phases[0] - 0.8) < 1e-15
        assert sys0.max_hat_majorant(1.0) == pytest.approx(2e-3 * np.e)

    def test_transition_count_checked(self):
        nerve = Nerve(("U0",), (Edge("U0", "U0", "loop"),))
        with pytest.raises(ValidationError):
            TransitionSystem(nerve, (), width=1.0)

    def test_identity_edges_allowed(self):
        b = genus2_bundle(0.3, 0.4)
        TransitionSystem(
            b.nerve,
            (rotation(0.3, 1.0), identity_map(1.0), rotation(0.4, 1.0), identity_map(1.0)),
            width=1.0,
        )
