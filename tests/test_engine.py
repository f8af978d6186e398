import dataclasses
import math
import time

import numpy as np
import pytest

from circlekam import (
    CircleDiffeo,
    Conjugacy,
    Edge,
    KamParams,
    LaurentSeries,
    Nerve,
    NestingError,
    ResonantModeError,
    Scenario,
    ScheduleViolationError,
    SchemaError,
    TransitionSystem,
    TruncationError,
    ValidationError,
    alpha_vs_rotation,
    apply_inverse,
    build_genus2,
    build_single_chart,
    conjugated_rotation,
    eval_diffeo,
    extract_simultaneous,
    gate_check,
    kam_step,
    run,
    schedule,
    unit_circle,
)
from circlekam import circle, cocycle, engine
from circlekam.engine import CERTIFICATES, CSV_HEADER, StepReport, _certify, resolve_c0

from circlekam.circle import _width_sums, eval_diffeos

from conftest import GOLDEN, arnold_scenario, random_symmetric_hat, safe_rotation_numbers

TWO_PI = 2.0 * np.pi


def golden_scenario(eps, strict=True, **kw):
    hat = LaurentSeries.from_coeffs({1: eps, -1: -eps}, width=1.0)
    return build_single_chart(GOLDEN, hat, sigma0=1.0, eta0=0.05,
                              strict_schedule=strict, **kw)


class TestParams:
    def test_eta0_window_enforced(self):
        with pytest.raises(ValidationError):
            KamParams(sigma0=1.0, eta0=0.06)  # above (1 - 2^(-1/3))/4
        with pytest.raises(ValidationError):
            KamParams(sigma0=1.0, eta0=0.0)
        KamParams(sigma0=1.0, eta0=0.05)

    def test_c1_formula(self):
        p = KamParams(sigma0=1.0, eta0=0.05, c0=0.5, mu=2.0)
        want = 2.0 * 0.5 * 1.0 * math.gamma(2.0) / (1.0 - math.exp(-1.0)) ** 2
        assert abs(p.c1 - want) < 1e-15

    def test_c1_needs_c0(self):
        p = KamParams(sigma0=1.0, eta0=0.05)
        with pytest.raises(ValidationError):
            _ = p.c1

    @pytest.mark.parametrize("field", ["sigma0", "tol", "c0"])
    def test_infinite_run_constants_rejected(self, field):
        # tol=inf once converged in 0 steps, and c0=inf ran non-strict past
        # every violated certificate
        with pytest.raises(ValidationError) as info:
            KamParams(**{"sigma0": 1.0, "eta0": 0.05, field: math.inf})
        assert "finite" in str(info.value)

    @pytest.mark.parametrize("sigma0,mu", [(1.0, 2.0), (0.14126984126984127, 2.0),
                                           (0.7, 2.5), (40.0, 3.0)])
    def test_default_eta0_is_half_the_bound(self, sigma0, mu):
        limit = min(math.pi, (1.0 - mu ** (-1.0 / (mu + 1.0))) * sigma0 / 4.0)
        assert KamParams.default_eta0(sigma0, mu) == limit / 2.0
        from_doc = KamParams.from_json_dict({"mu": mu}, sigma0=sigma0)
        assert from_doc.eta0 == limit / 2.0
        assert KamParams.eta0_bound(sigma0, mu) == limit
        hat = LaurentSeries.from_coeffs({1: 1e-6, -1: -1e-6}, sigma0)
        built = build_single_chart(GOLDEN, hat, sigma0, mu=mu)
        assert built.params.eta0 == limit / 2.0


    @pytest.mark.parametrize("sigma0", [1.0, 0.14126984126984127, 40.0])
    @pytest.mark.parametrize("mu", [2.0, 2.5])
    def test_every_route_takes_the_field_defaults(self, sigma0, mu):
        # the constructor, a params document that names only mu and both
        # builders all leave eta0, N, tol, max_iter and strict_schedule to
        # the KamParams fields
        direct = KamParams(sigma0, mu=mu)
        assert direct.eta0 == KamParams.default_eta0(sigma0, mu)
        assert KamParams.from_json_dict({"mu": mu}, sigma0=sigma0) == direct
        hat = LaurentSeries.zero(sigma0, 2)
        assert build_single_chart(GOLDEN, hat, sigma0, mu=mu).params == direct
        f = CircleDiffeo(TWO_PI * GOLDEN, hat)
        assert build_genus2(f, f, sigma0, mu=mu).params == direct

    @pytest.mark.parametrize("key,value", [("strict_schedule", None),
                                           ("strict_schedule", "false"),
                                           ("N", 64.7), ("N", True), ("N", "64"),
                                           ("max_iter", 2.9), ("max_iter", False)])
    def test_params_document_types(self, key, value):
        # bool() and int() once ran null as non-strict, "false" as strict,
        # 64.7 as 64 and true as 1
        with pytest.raises(SchemaError) as info:
            KamParams.from_json_dict({key: value}, sigma0=1.0)
        assert key in str(info.value)

    def test_integral_numbers_and_booleans_accepted(self):
        doc = {"N": 64.0, "max_iter": 3, "strict_schedule": False}
        assert KamParams.from_json_dict(doc, sigma0=1.0) == KamParams(
            1.0, n_trunc=64, max_iter=3, strict_schedule=False)

    @pytest.mark.parametrize("sigma0,mu", [(1e-17, 2.0), (710.0, 2.0), (1.0, 200.0),
                                           (1e-3, 120.0)])
    def test_schedule_constants_past_float_range_rejected(self, sigma0, mu):
        # a ZeroDivisionError or OverflowError once escaped from C1 or delta0
        with pytest.raises(ValidationError):
            KamParams(sigma0, mu=mu, c0=1.0)
        if sigma0 == 710.0:
            with pytest.raises(ValidationError):
                KamParams(sigma0, mu=mu)

    def test_far_level_past_float_range_fails_closed(self):
        # eta^(mu+1) underflows to 0 at level 2000: delta is no number to
        # compare against, not a ZeroDivisionError
        p = KamParams(sigma0=1.0, eta0=0.05, c0=0.5, mu=2.0)
        assert not math.isfinite(schedule(p, 2000)[2])


class TestSchedule:
    def test_level_zero_is_entry_gate(self):
        p = KamParams(sigma0=1.0, eta0=0.05, c0=0.5, mu=2.0)
        s0, e0, d0 = schedule(p, 0)
        assert (s0, e0) == (1.0, 0.05)
        want = min(0.05, 0.05**3 / ((1 + math.e) * p.c1 * 2.0))
        assert abs(d0 - want) < 1e-18

    def test_eta_ratio_mu2(self):
        p = KamParams(sigma0=1.0, eta0=0.05, c0=0.5, mu=2.0)
        _, e0, _ = schedule(p, 0)
        _, e1, _ = schedule(p, 1)
        assert abs(e1 / e0 - 2.0 ** (-1.0 / 3.0)) < 1e-14

    def test_width_limit_positive(self):
        p = KamParams(sigma0=1.0, eta0=0.05, c0=0.5, mu=2.0)
        r = p.ratio
        want = 1.0 - 4 * 0.05 / (1 - r)
        assert abs(p.sigma_inf - want) < 1e-14
        assert p.sigma_inf > 0
        for m in range(40):
            s, _, _ = schedule(p, m)
            assert s > p.sigma_inf

    def test_recursions_match_closed_forms(self):
        p = KamParams(sigma0=1.0, eta0=0.05, c0=0.5364620234501586, mu=2.0)
        factor = (1 + math.exp(1.0)) * p.c1
        s_prev, e_prev, d_prev = schedule(p, 0)
        for m in range(1, 14):
            s, e, d = schedule(p, m)
            assert abs(e - p.ratio * e_prev) <= 1e-12 * e
            assert abs(s - (s_prev - 4 * e_prev)) <= 1e-12 * max(1.0, abs(s))
            want_d = factor * d_prev**2 / e_prev ** (p.mu + 1)
            assert abs(d - want_d) <= 1e-12 * want_d
            s_prev, e_prev, d_prev = s, e, d

    def test_width_recursion_is_exact(self):
        # the renewed system's width sigma_m - 4 eta_m is the next schedule
        # width to the last bit, for the default eta0 on thin annuli too
        for sigma0 in np.linspace(0.1, 0.3, 64):
            p = KamParams.from_json_dict({"sigma0": float(sigma0), "C0": 1.0})
            for m in range(6):
                s, e, _ = schedule(p, m)
                assert schedule(p, m + 1)[0] == s - 4.0 * e

    def test_delta_stays_below_both_eta_gates(self):
        # the two closing inequalities that keep the induction alive
        p = KamParams(sigma0=1.0, eta0=0.05, c0=0.5364620234501586, mu=2.0)
        factor = (1 + math.exp(p.sigma0)) * p.c1 * p.mu
        for m in range(1, 30):
            _, e, d = schedule(p, m)
            assert d < e
            assert d < e ** (p.mu + 1) / factor


class TestGate:
    def test_all_linear_margin_is_gate(self):
        sc = golden_scenario(0.0)
        rep = gate_check(sc.system, sc.params)
        assert rep.passed
        edge, maj, margin, ok = rep.per_edge[0]
        assert maj == 0.0 and ok
        assert abs(margin - rep.gate_value) < 1e-18

    def test_violation_names_edge(self):
        sc = golden_scenario(1e-4)
        rep = gate_check(sc.system, sc.params)
        assert not rep.passed
        edge, maj, margin, ok = rep.per_edge[0]
        assert "loop" in edge and not ok and margin < 0
        assert maj == pytest.approx(2e-4 * np.e)

    def test_formula_both_sides_logged(self):
        sc = golden_scenario(1e-4)
        rep = gate_check(sc.system, sc.params)
        # gate = min(eta0, eta0^(mu+1) / ((1+e^sigma0) C1 mu)) with fitted C0
        want = min(0.05, 0.05**3 / ((1 + math.e) * rep.c1 * 2.0))
        assert abs(rep.gate_value - want) < 1e-18
        assert rep.c0_used > 0 and rep.eta0 == 0.05
        assert "c1_constant" in rep.conventions

    def test_fitted_c0_names_its_mode_and_loop(self):
        sc = golden_scenario(1e-4)
        rep = gate_check(sc.system, sc.params)
        spectrum = cocycle.amplification_spectrum(sc.system.bundle(), sc.params.n_trunc)
        fit = cocycle.fit_diophantine(spectrum, sc.params.mu)
        assert rep.c0_used == fit.c0 and rep.c0_mode == fit.argmax_mode
        assert rep.c0_loop == ["+U0->U0[loop]"]
        doc = rep.to_json_dict()
        assert (doc["C0_mode"], doc["C0_loop"]) == (rep.c0_mode, rep.c0_loop)

    def test_given_c0_and_forests_name_no_mode(self):
        sc = golden_scenario(1e-4, c0=2.0)
        rep = gate_check(sc.system, sc.params)
        assert rep.c0_used == 2.0 and (rep.c0_mode, rep.c0_loop) == (None, None)
        nerve = cocycle.Nerve(("A", "B"), (cocycle.Edge("A", "B", "t"),))
        edge_map = CircleDiffeo(0.4, LaurentSeries.zero(1.0, 8))
        tree = cocycle.TransitionSystem(nerve, (edge_map,), 1.0)
        rep = gate_check(tree, KamParams(sigma0=1.0, eta0=0.05, n_trunc=8))
        assert rep.c0_used > 0 and (rep.c0_mode, rep.c0_loop) == (None, None)


    @pytest.mark.parametrize("n_trunc,mode", [(64, 55), (256, 233), (1000, 987)])
    def test_c0_mode_is_a_convergent_denominator_at_the_golden_mean(self, n_trunc, mode):
        # with mu < 2 the ratio A_n / n^(mu-1) grows along the Fibonacci
        # numbers, the convergent denominators of the golden mean
        hat = LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, width=1.0)
        sc = build_single_chart(GOLDEN, hat, 1.0, mu=1.5, n_trunc=n_trunc,
                                strict_schedule=False)
        rep = gate_check(sc.system, sc.params)
        assert rep.c0_mode == mode and rep.c0_mode_convergent is True
        assert rep.to_json_dict()["C0_mode_convergent"] is True
        res = run(sc.system, sc.params)
        assert res.trace.to_json_dict()["C0_mode_convergent"] is True

    @pytest.mark.parametrize("stream,n_trunc,count", [(1, 1024, 16), (4, 64, 8)])
    def test_c0_mode_is_convergent_on_the_seed_1_genus2_pools(self, stream, n_trunc, count):
        # the genus-2 pools of seed 1 (rng stream 1 at N=1024, stream 4 at
        # N=64), built as the benchmark builds them
        rng = np.random.default_rng([1, stream])
        for _ in range(count):
            th1, th2 = safe_rotation_numbers(rng, 2)
            psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-5))
            sc = build_genus2(conjugated_rotation(psi, TWO_PI * th1, n_trunc, 1.0),
                              conjugated_rotation(psi, TWO_PI * th2, n_trunc, 1.0),
                              1.0, eta0=0.05, n_trunc=n_trunc, strict_schedule=False)
            rep = gate_check(sc.system, sc.params)
            assert rep.c0_mode_convergent is True, (rep.c0_mode, rep.c0_loop)

    def test_convergent_flag_is_null_without_a_fitted_mode(self):
        sc = golden_scenario(1e-4, c0=2.0)
        assert gate_check(sc.system, sc.params).to_json_dict()["C0_mode_convergent"] is None
        nerve = cocycle.Nerve(("A", "B"), (cocycle.Edge("A", "B", "t"),))
        tree = cocycle.TransitionSystem(
            nerve, (CircleDiffeo(0.4, LaurentSeries.zero(1.0, 8)),), 1.0)
        rep = gate_check(tree, KamParams(sigma0=1.0, eta0=0.05, n_trunc=8))
        assert rep.c0_mode_convergent is None
        trace = run(tree, KamParams(sigma0=1.0, eta0=0.05, n_trunc=8)).trace
        assert trace.gate.c0_mode_convergent is None
        assert trace.to_json_dict()["C0_mode_convergent"] is None

    def test_convergent_denominators(self):
        fib = [q for q in range(1, 100) if cocycle.is_convergent_denominator(q, GOLDEN, 1000)]
        assert fib == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        pell = [q for q in range(1, 100)
                if cocycle.is_convergent_denominator(q, math.sqrt(2.0) - 1.0, 1000)]
        assert pell == [1, 2, 5, 12, 29, 70]
        # rho and rho + 1 have the same convergents; 1/4 has q = 1, 4 only
        assert cocycle.is_convergent_denominator(12, math.sqrt(2.0), 100)
        assert [q for q in range(1, 9) if cocycle.is_convergent_denominator(q, 0.25, 8)] == [1, 4]
        # a denominator beyond q_max is not taken; rho = 0 has q = 1 only
        assert not cocycle.is_convergent_denominator(89, GOLDEN, 88)
        assert cocycle.is_convergent_denominator(1, 0.0, 10)
        assert not cocycle.is_convergent_denominator(2, 0.0, 10)


class TestKamStep:
    def test_all_linear_fixed_point(self):
        sc = golden_scenario(0.0)
        params = resolve_c0(sc.system, sc.params)
        new, psis, rep = kam_step(sc.system, 0, params)
        assert np.all(psis["U0"].hat.coeffs == 0)
        assert np.all(new.transitions[0].hat.coeffs == 0)
        assert abs(new.transitions[0].phase - sc.system.transitions[0].phase) < 1e-14
        assert all(c.passed for c in rep.certificates.values())

    def test_renewal_matches_pointwise_oracle(self):
        sc = golden_scenario(5e-7)  # inside the gate
        params = resolve_c0(sc.system, sc.params)
        new, psis, rep = kam_step(sc.system, 0, params)
        f0 = sc.system.transitions[0]
        psi = psis["U0"]
        w = unit_circle(512)
        oracle = apply_inverse(psi, eval_diffeo(f0, eval_diffeo(psi, w)))
        assert np.max(np.abs(eval_diffeo(new.transitions[0], w) - oracle)) < 1e-12

    def test_phase_invariance_in_gate(self):
        sc = golden_scenario(5e-7)
        params = resolve_c0(sc.system, sc.params)
        new, _, rep = kam_step(sc.system, 0, params)
        assert rep.phase_drift <= 1e-12
        d = abs(new.transitions[0].phase - sc.system.transitions[0].phase) % TWO_PI
        assert min(d, TWO_PI - d) <= 1e-12

    def test_contraction_bound_holds(self):
        sc = golden_scenario(5e-7)
        params = resolve_c0(sc.system, sc.params)
        sigma0, eta0, _ = schedule(params, 0)
        norm0 = sc.system.max_hat_majorant(sigma0)
        new, _, _ = kam_step(sc.system, 0, params)
        norm1 = new.max_hat_majorant(sigma0 - 4 * eta0)
        bound = (1 + math.exp(1.0)) * params.c1 * norm0**2 / eta0**3
        assert norm1 <= bound

    def test_unfitted_params_raise(self):
        # the step takes the C0 the run fitted once; it never fits its own
        sc = golden_scenario(5e-7)
        assert sc.params.c0 is None
        with pytest.raises(ValidationError, match="c0 is unset"):
            kam_step(sc.system, 0, sc.params)

    def test_hat_wider_than_the_system_audited_at_the_working_width(self):
        # the audit once took the majorant at sigma_m with the decay rate of
        # the hat's own width, and aborted the wide twin at step 0
        hat = LaurentSeries.from_coeffs({3: 1e-7j, -3: 1e-7j}, width=1.0)
        doc = build_single_chart(GOLDEN, hat, 1.0, eta0=0.05, n_trunc=16).to_json_dict()
        narrow = Scenario.from_json_dict(doc)
        doc["edges"][0]["hat"]["sigma"] = 1.5
        wide = Scenario.from_json_dict(doc)
        assert wide.system.transitions[0].width == 1.5
        want, got = (run(sc.system, sc.params) for sc in (narrow, wide))
        assert want.converged and want.steps == 1 and wide.params.strict_schedule
        assert got.converged and got.steps == want.steps
        assert got.conjugation_residual == want.conjugation_residual

    @staticmethod
    def _step_systems():
        """A genus-2, a single-chart and a four-chart system (a star from U0
        plus an edge U2 -> U3) inside the gate, and a step-0 document whose
        transition hat is wider than the system width."""
        rng = np.random.default_rng(31)
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-7))
        th = safe_rotation_numbers(rng, 3)
        turned = [conjugated_rotation(psi, TWO_PI * t, 16, 1.0) for t in th]
        genus2 = build_genus2(*turned[:2], 1.0, eta0=0.05, n_trunc=16,
                              strict_schedule=False)
        charts = ("U0", "U1", "U2", "U3")
        edges = (Edge("U0", "U1", "+"), Edge("U0", "U1", "-"), Edge("U0", "U2", "+"),
                 Edge("U0", "U3", "+"), Edge("U2", "U3", "x"))
        maps = [*turned, conjugated_rotation(psi, 0.0, 16, 1.0), turned[0]]
        star = Scenario("star", TransitionSystem(Nerve(charts, edges), maps, 1.0),
                        KamParams(1.0, eta0=0.05, n_trunc=16, strict_schedule=False))
        doc = golden_scenario(5e-7, strict=False).to_json_dict()
        doc["edges"][0]["hat"]["sigma"] = 1.5
        wide = Scenario.from_json_dict(doc)
        assert wide.system.transitions[0].width == 1.5 > wide.system.width
        return [genus2, golden_scenario(5e-7, strict=False), star, wide]

    def test_renewal_weights_are_the_width_sums(self, monkeypatch):
        # the step hands the renewal the weights its certificate blocks took:
        # bit for bit the ones _width_sums weighs for the same three factors
        real = engine.renew_rows
        seen = []

        def renew_rows(src, maps, dst, n_trunc, width, weights, labels=None):
            seen.append(([(src, False), (maps, False), (dst, True)], weights))
            return real(src, maps, dst, n_trunc, width, weights, labels)

        monkeypatch.setattr(engine, "renew_rows", renew_rows)
        for sc in self._step_systems():
            seen.clear()
            kam_step(sc.system, 0, resolve_c0(sc.system, sc.params))
            ((factors, got),) = seen
            want = _width_sums(factors)
            assert [w.shape for w in got] == [w.shape for w in want]
            assert [w.tobytes() for w in got] == [w.tobytes() for w in want], sc.name

    def test_a_step_weighs_three_times_and_the_renewal_never(self, monkeypatch):
        # the entry block, the change block and the contraction claim; the
        # renewal reads the weights of the first two
        calls = []
        real = engine.majorants

        def majorants(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (engine, cocycle, circle):
            monkeypatch.setattr(module, "majorants", majorants)
        real_renew, in_renewal = engine.renew_rows, []

        def renew_rows(*args, **kwargs):
            before = len(calls)
            out = real_renew(*args, **kwargs)
            in_renewal.append(len(calls) - before)
            return out

        monkeypatch.setattr(engine, "renew_rows", renew_rows)
        for sc in self._step_systems():
            params = resolve_c0(sc.system, sc.params)
            calls.clear()
            kam_step(sc.system, 0, params)
            assert len(calls) == 3 and in_renewal[-1] == 0, sc.name

    def test_strict_gate_abort(self):
        sc = golden_scenario(1e-4, strict=True)
        params = resolve_c0(sc.system, sc.params)
        with pytest.raises(ScheduleViolationError) as info:
            kam_step(sc.system, 0, params)
        assert info.value.certificate == "hat_norm_below_delta"


class TestRun:
    def test_all_linear_immediate(self):
        sc = golden_scenario(0.0)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps == 0
        assert len(res.trace.rows) == 1
        assert np.all(res.conjugacy.charts["U0"].hat.coeffs == 0)
        assert res.conjugation_residual < 1e-12

    def test_flagship_converges(self):
        sc = golden_scenario(1e-4, strict=False)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps <= 20
        assert res.conjugation_residual <= 1e-8
        # delta decays super-linearly along the trace while norms are nonzero
        norms = [r.max_hat_norm for r in res.trace.rows if r.max_hat_norm > 0]
        assert all(b < a**1.5 for a, b in zip(norms, norms[1:]))

    def test_gate_failure_aborts_strict(self):
        sc = golden_scenario(1e-4, strict=True)
        with pytest.raises(ScheduleViolationError) as info:
            run(sc.system, sc.params)
        assert info.value.certificate == "initial_norm_gate"

    def test_resonant_rotation_fails_at_mode(self):
        hat = LaurentSeries.from_coeffs({3: 1e-5, -3: -1e-5}, width=1.0)
        sc = build_single_chart(1.0 / 3.0, hat, sigma0=1.0, eta0=0.05,
                                strict_schedule=False)
        with pytest.raises(ResonantModeError) as info:
            run(sc.system, sc.params)
        assert abs(info.value.mode) == 3
        assert hasattr(info.value, "trace")

    def test_in_gate_strict_run_clean(self, rng):
        from circlekam import majorant_norm

        for theta in safe_rotation_numbers(rng, 3):
            hat = random_symmetric_hat(rng, 1.0, 1e-8)
            sc = build_single_chart(theta, hat, sigma0=1.0, eta0=0.05)
            gate0 = gate_check(sc.system, sc.params)
            scale = 0.3 * gate0.gate_value / majorant_norm(hat, 1.0)
            sc = build_single_chart(theta, hat.scale(scale), sigma0=1.0, eta0=0.05)
            gate = gate_check(sc.system, sc.params)
            assert gate.passed
            res = run(sc.system, sc.params)
            assert res.converged
            assert res.trace.violations == []

    def test_thin_annulus_default_eta0_reaches_step_two(self):
        # at this sigma0 a closed-form sigma_2 rounded 1 ulp above the
        # renewed width and the run died with AnnulusDomainError
        sigma0 = 0.14126984126984127
        coeffs = {}
        for n in range(1, 9):
            c = 1e-5 * np.exp(-1.05 * sigma0 * n) * np.exp(1j * n)
            coeffs[n], coeffs[-n] = c, -np.conj(c)
        hat = LaurentSeries.from_coeffs(coeffs, sigma0, n_trunc=32)
        sc = build_single_chart(GOLDEN, hat, sigma0, n_trunc=32,
                                strict_schedule=False)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps == 2
        assert res.conjugation_residual <= 1e-10

    def test_step_zero_takes_changes_without_nesting_check(self):
        # at m = 0 the conjugacy is the identity; composing it with the
        # first changes used to demand that psi map the sigma_1-annulus into
        # the sigma_0-annulus, which this non-strict run breaks at step 0
        hat = LaurentSeries.from_coeffs({1: 0.03, -1: -0.03}, 0.2)
        sc = build_single_chart(GOLDEN, hat, 0.2, n_trunc=32, strict_schedule=False)
        res = run(sc.system, sc.params)
        assert (0, "annulus_nesting") in res.trace.violations
        assert res.converged and res.steps == 3
        assert res.conjugation_residual <= 1e-11

    def test_collapsed_chain_matches_the_chain_pointwise(self, monkeypatch):
        # the oracle: every step's changes, applied innermost first at each
        # point, against the chart the run collapsed them into
        chain = []
        real = engine.kam_step

        def kam_step(*args, **kwargs):
            out = real(*args, **kwargs)
            chain.append(out[1])
            return out

        monkeypatch.setattr(engine, "kam_step", kam_step)
        sc = arnold_scenario(0.1)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps == len(chain) >= 3
        u = unit_circle(256)
        z = u[None]
        for psis in reversed(chain):
            z = eval_diffeos([psis["U0"]], z)
        chart = res.conjugacy.charts["U0"]
        assert chart.width == res.conjugacy.final_width == res.trace.rows[-1].sigma
        assert np.max(np.abs(eval_diffeo(chart, u) - z[0])) <= 1e-12

    @pytest.mark.parametrize("eps", [0.25, 0.3, 0.4])
    def test_arnold_family_converges_past_the_step_composition(self, eps):
        # composed after each step at the next schedule width, these runs
        # failed annulus nesting against psi_0 narrowed to sigma_1
        sc = arnold_scenario(eps)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps >= 4
        assert res.conjugation_residual <= 1e-11

    def test_chain_nesting_failure_is_a_nesting_error(self):
        # the reach leaves factor 1's domain; weighing factor 1 at that reach
        # would raise AnnulusDomainError instead
        sc = arnold_scenario(0.5)
        with pytest.raises(NestingError) as info:
            run(sc.system, sc.params)
        assert str(info.value).startswith("chart U0: factor 1:")
        assert info.value.inclusion == "inner factors(out_annulus) within domain(factor 1)"
        assert len(info.value.trace.rows) >= 4   # the steps, then the final row

    def test_chain_nesting_failure_at_huge_truncation_is_a_nesting_error(self):
        # nesting is decided before the collapse samples; sampled first, the
        # grid doubled towards 4N points until an allocation failed
        sc = arnold_scenario(0.5, n_trunc=10**12, c0=3.0)
        t0 = time.perf_counter()
        with pytest.raises(NestingError) as info:
            run(sc.system, sc.params)
        assert time.perf_counter() - t0 < 5.0
        assert str(info.value).startswith("chart U0: factor 1:")
        assert info.value.inclusion == "inner factors(out_annulus) within domain(factor 1)"

    def test_genus2_large_truncation_certificates_finite(self, rng):
        # N * sigma0 = 1024: majorants of sparse hats must stay finite
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-5))
        th1, th2 = safe_rotation_numbers(rng, 2)
        f1 = conjugated_rotation(psi, TWO_PI * th1, 1024, 1.0)
        f2 = conjugated_rotation(psi, TWO_PI * th2, 1024, 1.0)
        sc = build_genus2(f1, f2, 1.0, eta0=0.05, n_trunc=1024,
                          strict_schedule=False)
        params = resolve_c0(sc.system, sc.params)
        system = sc.system
        for m in range(2):
            system, _, rep = kam_step(system, m, params)
            for rec in rep.certificates.values():
                assert math.isfinite(rec.lhs) and math.isfinite(rec.rhs), rec
            assert "coefficient_decay" not in rep.violations
        res = run(sc.system, sc.params)
        assert res.converged
        assert all(math.isfinite(r.max_hat_norm) for r in res.trace.rows)

    def test_hat_beyond_truncation_rejected(self):
        # the step gathers modes |n| <= N only: a coefficient at |n| = 100
        # under N = 64 was dropped, and the run reported converged with a
        # conjugation residual of 2e-9, above tol
        hat = LaurentSeries.from_coeffs({100: 1e-9, -100: -1e-9}, width=1.0)
        sc = build_single_chart(GOLDEN, hat, 1.0, eta0=0.05, n_trunc=64,
                                strict_schedule=False)
        with pytest.raises(ValidationError) as info:
            run(sc.system, sc.params)
        assert "|n| = 100" in str(info.value) and "N = 64" in str(info.value)
        assert info.value.trace.rows == []
        with pytest.raises(ValidationError):
            kam_step(sc.system, 0, resolve_c0(sc.system, sc.params))

    def test_zero_padded_hat_beyond_truncation_runs(self):
        # truncation 5000, degree 1: only zeros lie beyond N = 64; the
        # report-only sup norm asked for 2 * 5000 + 1 samples and aborted
        hat = LaurentSeries.from_coeffs({1: 1e-8, -1: -1e-8}, width=1.0, n_trunc=5000)
        sc = build_single_chart(GOLDEN, hat, 1.0, eta0=0.05, n_trunc=64,
                                strict_schedule=False)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps >= 1
        assert res.conjugation_residual <= 1e-10

    def test_trace_json_carries_phase_wall_times(self):
        # a 2-step run, and a 4-step one whose chain collapses after 4 steps
        for sc in (golden_scenario(1e-4, strict=False), arnold_scenario(0.1)):
            res = run(sc.system, sc.params)
            rows = res.trace.to_json_dict()["rows"]
            assert len(rows) == len(res.trace.rows) >= 2
            timing = ("wall_ms", "phase_ms")
            for row, report in zip(rows, res.trace.rows):
                # past the wall times, a row is its StepReport's fields by
                # value, the certificates in ledger form
                expected = {k: getattr(report, k) for k in row if k not in timing}
                expected["certificates"] = report.ledger()
                assert {k: v for k, v in row.items() if k not in timing} == expected
            for row in rows[:-1]:
                phases = row["phase_ms"]
                assert set(phases) == {"gate", "solve", "certificates", "renewal", "compose"}
                assert all(math.isfinite(v) and v >= 0.0 for v in phases.values())
                assert sum(phases.values()) <= row["wall_ms"] * (1 + 1e-9)
            assert rows[-1]["phase_ms"] == {}   # the converged row runs no step
        assert res.steps >= 3
        # the chain is collapsed once, after the last step, and timed there
        assert [row["phase_ms"]["compose"] for row in rows[:-2]] == [0.0] * (res.steps - 1)
        assert rows[-2]["phase_ms"]["compose"] > 0.0

    def test_trace_accounts_for_the_whole_run(self):
        # a genus-2 pair: the entry (C0 fit and entry gate) and the final
        # residual are timed next to the step rows, and all the phases fit
        # in the wall time of run
        rng = np.random.default_rng(7)
        th1, th2 = safe_rotation_numbers(rng, 2)
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-5))
        sc = build_genus2(conjugated_rotation(psi, TWO_PI * th1, 256, 1.0),
                          conjugated_rotation(psi, TWO_PI * th2, 256, 1.0),
                          1.0, eta0=0.05, n_trunc=256, strict_schedule=False)
        t0 = time.perf_counter()
        res = run(sc.system, sc.params)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        doc = res.trace.to_json_dict()
        assert res.converged and res.steps >= 2
        phases = doc["run_phase_ms"]
        assert set(phases) == {"entry", "residual"}
        assert all(math.isfinite(v) and v >= 0.0 for v in phases.values())
        steps = [v for row in doc["rows"] for v in row["phase_ms"].values()]
        assert len(steps) == 5 * res.steps and all(v >= 0.0 for v in steps)
        assert sum(phases.values()) + sum(steps) <= wall_ms

    def test_trace_rows_carry_grid_sizes(self, caplog):
        # M of the last attempt of each step's renewal, and of the collapse
        # on the last step row; 0 where none ran. The debug line of each
        # expansion gives the same M and the bound that started its grid
        sc = arnold_scenario(0.1)
        with caplog.at_level("DEBUG", logger="circlekam.circle"):
            res = run(sc.system, sc.params)
        lines = [r for r in caplog.records if r.msg.startswith("expand by degree")]
        grids = [row.grid_points for row in res.trace.rows]
        assert res.steps >= 3 and len(lines) == res.steps + 1
        assert [g["renewal"] for g in grids[:-1]] == [r.args[1] for r in lines[:-1]]
        assert [g["compose"] for g in grids] == [0] * (res.steps - 1) + [
            lines[-1].args[1], 0]
        assert grids[-1] == {"renewal": 0, "compose": 0}
        assert all(r.args[3].startswith("bound k = ") for r in lines)
        assert all(r.getMessage().endswith(f"({r.args[3]})") for r in lines)

    def test_trace_json_keys_are_pinned(self):
        # trace.json is read by tools outside the package: its keys and their
        # order change only by addition, on purpose
        sc = golden_scenario(1e-4, strict=False)
        doc = run(sc.system, sc.params).trace.to_json_dict()
        assert list(doc) == ["conventions", "initial_norm_gate", "rows", "violations",
                             "C0", "C0_mode", "C0_loop", "C0_mode_convergent",
                             "run_phase_ms"]
        for row in doc["rows"]:
            assert list(row) == [
                "m", "sigma", "eta", "delta", "max_hat_norm", "worst_mode_residual",
                "tail_mass", "certificates", "phase_drift", "symmetry_projection",
                "modes_solved", "max_hat_empirical", "grid_points", "wall_ms",
                "phase_ms"]

    def test_trace_csv_shape(self):
        sc = golden_scenario(1e-4, strict=False)
        res = run(sc.system, sc.params)
        lines = res.trace.to_csv().strip().split("\n")
        assert lines[0] == CSV_HEADER == (
            "m,sigma,eta,delta,max_hat_norm,worst_mode_residual,tail_mass,wall_ms")
        assert len(lines) == len(res.trace.rows) + 1
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_conjugacy_serialization_round_trip(self):
        sc = golden_scenario(1e-4, strict=False)
        res = run(sc.system, sc.params)
        doc = res.conjugacy.to_json_dict()
        back = Conjugacy.from_json_dict(doc)
        assert back.final_width == res.conjugacy.final_width
        assert back.residual(sc.system) <= 1e-8

    def test_chart_keys_are_the_cocycle_charts(self):
        # an extra chart was carried along unchecked, a missing one raised
        # KeyError in the residual
        sc = golden_scenario(1e-4, strict=False)
        doc = run(sc.system, sc.params).conjugacy.to_json_dict()
        extra = dict(doc, charts={**doc["charts"], "U9": doc["charts"]["U0"]})
        for broken in (extra, dict(doc, charts={})):
            with pytest.raises(SchemaError, match="not its linear cocycle.s"):
                Conjugacy.from_json_dict(broken)

    def test_truncation_sets_only_the_cost(self):
        # a genus-2 pair at N=1024, and the same hats zero-padded to N=4096,
        # run with the C0 of N=1024: N may change the cost, never a result
        rng = np.random.default_rng(1)
        th1, th2 = safe_rotation_numbers(rng, 2)
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-5))
        sc = build_genus2(conjugated_rotation(psi, TWO_PI * th1, 1024, 1.0),
                          conjugated_rotation(psi, TWO_PI * th2, 1024, 1.0),
                          1.0, eta0=0.05, n_trunc=1024, strict_schedule=False)
        params = resolve_c0(sc.system, sc.params)
        padded = TransitionSystem(
            sc.system.nerve,
            tuple(CircleDiffeo(f.phase, LaurentSeries(f.hat.dense(4096), f.hat.width))
                  for f in sc.system.transitions),
            sc.system.width)
        small = run(sc.system, params)
        large = run(padded, dataclasses.replace(params, n_trunc=4096))
        assert small.converged and small.steps >= 1
        assert large.steps == small.steps
        assert large.conjugation_residual == small.conjugation_residual
        for c, phi in small.conjugacy.charts.items():
            other = large.conjugacy.charts[c]
            assert other.hat.truncation == 4096
            assert other.phase == phi.phase
            assert np.array_equal(other.hat.dense(64), phi.hat.dense(64))
        assert large.conjugacy.linear_cocycle.phases == small.conjugacy.linear_cocycle.phases

        def lhs(result):
            entry = [result.trace.entry.certificates]
            return [(m, name, rec.lhs) for m, certs in enumerate(
                entry + [r.certificates for r in result.trace.rows])
                for name, rec in certs.items()]

        assert lhs(large) == lhs(small)

    def test_hat_truncation_is_never_materialized(self, monkeypatch):
        # a genus-2 pair at N=1024 and the same hats declared at N=10^12: a
        # hat costs its band, and no library path reads the dense coeffs
        # (2 * 10^12 + 1 entries, which no machine can allocate)
        rng = np.random.default_rng(1)
        th1, th2 = safe_rotation_numbers(rng, 2)
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-5))
        sc = build_genus2(conjugated_rotation(psi, TWO_PI * th1, 1024, 1.0),
                          conjugated_rotation(psi, TWO_PI * th2, 1024, 1.0),
                          1.0, eta0=0.05, n_trunc=1024, strict_schedule=False)
        huge = dataclasses.replace(sc, system=TransitionSystem(
            sc.system.nerve,
            tuple(CircleDiffeo(f.phase, LaurentSeries.from_band(f.hat.band, f.hat.width, 10**12))
                  for f in sc.system.transitions),
            sc.system.width))
        assert all(f.hat.truncation == 10**12 for f in huge.system.transitions)

        def dense_read(hat):
            raise AssertionError("a library path read LaurentSeries.coeffs")

        monkeypatch.setattr(LaurentSeries, "coeffs", property(dense_read))

        def outputs(scenario):
            res = run(scenario.system, scenario.params)
            trace = res.trace.to_json_dict()
            del trace["run_phase_ms"]
            for row in trace["rows"]:
                del row["wall_ms"], row["phase_ms"]
            sim = extract_simultaneous(res.conjugacy, scenario)
            return (res.steps, res.converged, res.conjugation_residual, trace,
                    res.gate.to_json_dict(), res.conjugacy.to_json_dict(),
                    gate_check(scenario.system, scenario.params).to_json_dict(),
                    sim.to_json_dict(), alpha_vs_rotation(scenario.system, iters=1000))

        want = outputs(sc)
        assert want[1] and want[0] >= 1
        assert outputs(huge) == want

    @pytest.mark.parametrize("samples", [0, -5])
    def test_residual_needs_a_sample(self, samples):
        # no sample point checked nothing: a residual of 0
        sc = golden_scenario(1e-4, strict=False)
        res = run(sc.system, sc.params)
        with pytest.raises(ValidationError):
            res.conjugacy.residual(sc.system, samples=samples)


class TestAlphaVsRotation:
    def test_rigid_rotation_agrees(self):
        sc = golden_scenario(0.0)
        rows = alpha_vs_rotation(sc.system, iters=4096)
        assert abs(rows[0]["difference_mod_2pi"]) < 1e-9

    def test_perturbed_difference_logged(self):
        hat = LaurentSeries.from_coeffs({1: 0.02, -1: -0.02}, width=1.0)
        sc = build_single_chart(GOLDEN, hat, sigma0=1.0, eta0=0.05)
        rows = alpha_vs_rotation(sc.system, iters=32768)
        assert np.isfinite(rows[0]["difference_mod_2pi"])
        assert rows[0]["phase"] == pytest.approx(TWO_PI * GOLDEN)


class TestCertificateLedger:
    """Every certificate is one row checked by one comparison that fails
    closed on a non-finite side and records its binding lhs and rhs."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("lhs,rhs", [(math.nan, 1.0), (1e-3, math.nan),
                                         (math.inf, 1.0), (-math.inf, 1.0),
                                         (1e-3, math.inf), (1e-3, -math.inf),
                                         (math.nan, math.nan)])
    def test_non_finite_side_fails(self, lhs, rhs, strict):
        # a row compared with <= and a row compared with <
        for name in ("phase_invariance", "annulus_nesting"):
            report = StepReport(m=3, strict=strict)
            if strict:
                with pytest.raises(ScheduleViolationError) as info:
                    _certify(report, name, lhs, rhs)
                err = info.value
                assert (err.certificate, err.step) == (name, 3)
                assert err.lhs == lhs or math.isnan(lhs) and math.isnan(err.lhs)
            else:
                _certify(report, name, lhs, rhs)
            assert report.violations == [name]
            assert not report.certificates[name].passed

    def test_finite_sides_compare(self):
        assert (CERTIFICATES["phase_invariance"][1], CERTIFICATES["annulus_nesting"][1]) == (
            "<=", "<")
        report = StepReport(m=0, strict=True)
        _certify(report, "phase_invariance", 1.0, 1.0)
        with pytest.raises(ScheduleViolationError, match="!< "):
            _certify(report, "annulus_nesting", 1.0, 1.0)
        assert report.certificates["phase_invariance"].passed

    def test_every_row_records_finite_binding_sides_on_a_pass(self):
        sc = golden_scenario(5e-7)
        params = resolve_c0(sc.system, sc.params)
        _, _, rep = kam_step(sc.system, 0, params)
        assert set(rep.certificates) == set(CERTIFICATES) - {"initial_norm_gate"}
        for rec in rep.certificates.values():
            assert rec.passed and math.isfinite(rec.lhs) and math.isfinite(rec.rhs), rec
        # the power law and nesting record their binding values, not 0 = 0
        assert rep.certificates["change_norm_power_law"].lhs > 0
        assert rep.certificates["annulus_nesting"].lhs > 0

    @staticmethod
    def _renewal_with(monkeypatch, phase=None, tail_mass=None):
        real = engine.renew_rows

        def renew_rows(*args, **kwargs):
            maps, infos = real(*args, **kwargs)
            if phase is not None:
                # set after the constructor, which rejects a non-finite phase
                for f in maps:
                    object.__setattr__(f, "phase", phase)
            if tail_mass is not None:
                infos = [dataclasses.replace(i, tail_mass=tail_mass) for i in infos]
            return maps, infos

        monkeypatch.setattr(engine, "renew_rows", renew_rows)

    @pytest.mark.parametrize("name,change", [("phase_invariance", {"phase": math.nan}),
                                             ("tail_budget", {"tail_mass": math.nan})])
    def test_nan_renewal_fails_closed(self, monkeypatch, name, change):
        self._renewal_with(monkeypatch, **change)
        sc = golden_scenario(5e-7, strict=False)
        params = resolve_c0(sc.system, sc.params)
        _, _, rep = kam_step(sc.system, 0, params)
        assert name in rep.violations and not rep.certificates[name].passed
        raised = TruncationError if name == "tail_budget" else ScheduleViolationError
        with pytest.raises(raised) as info:
            kam_step(sc.system, 0, dataclasses.replace(params, strict_schedule=True))
        assert info.value.certificate == name and info.value.step == 0

    def test_level_majorant_reuses_the_contraction_claim(self, monkeypatch):
        sc = golden_scenario(1e-4, strict=False)
        real = engine.majorants
        calls = []

        def majorants(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "majorants", majorants)
        monkeypatch.setattr(cocycle, "majorants", majorants)
        res = run(sc.system, sc.params)
        in_run = len(calls)
        assert res.steps >= 2
        # the same pieces one by one, the level majorant recomputed at every
        # level: bit for bit the trace's, at one call more per level, level 0
        # (read off the entry gate in the run) included
        calls.clear()
        params = resolve_c0(sc.system, sc.params)
        gate_check(sc.system, params)
        system = sc.system
        for m, row in enumerate(res.trace.rows):
            assert system.max_hat_majorant(schedule(params, m)[0]) == row.max_hat_norm
            if m < res.steps:
                system, _, _ = kam_step(system, m, params)
        assert in_run == len(calls) - res.steps - 1

    def test_trace_json_rows_carry_the_ledger(self):
        sc = golden_scenario(1e-4, strict=False)
        res = run(sc.system, sc.params)
        rows = res.trace.to_json_dict()["rows"]
        for row in rows[:-1]:
            assert set(row["certificates"]) == set(CERTIFICATES) - {"initial_norm_gate"}
            for cert in row["certificates"].values():
                assert set(cert) == {"lhs", "rhs", "passed"}
                assert math.isfinite(cert["lhs"]) and math.isfinite(cert["rhs"])
        assert rows[-1]["certificates"] == {}
        failed = {(row["m"], name) for row in rows
                  for name, cert in row["certificates"].items() if not cert["passed"]}
        assert failed == set(res.trace.violations)

    def test_trace_rows_carry_the_rest_of_the_step_ledger(self):
        # phase drift, symmetry projection, modes solved and the sampled sup
        # norm, as kam_step reports them for the same levels; 0 on the row
        # without a step
        keys = ("phase_drift", "symmetry_projection", "modes_solved",
                "max_hat_empirical")
        sc = golden_scenario(1e-4, strict=False)
        res = run(sc.system, sc.params)
        rows = res.trace.to_json_dict()["rows"]
        params = resolve_c0(sc.system, sc.params)
        system = sc.system
        for m, row in enumerate(rows[:-1]):
            system, _, rep = kam_step(system, m, params)
            assert {k: row[k] for k in keys} == {k: getattr(rep, k) for k in keys}
            assert row["modes_solved"] > 0 and row["max_hat_empirical"] > 0
        assert {k: rows[-1][k] for k in keys} == dict.fromkeys(keys, 0)
        assert list(rows[0])[-2:] == ["wall_ms", "phase_ms"]

    def test_trace_json_records_the_entry_gate(self):
        # a non-strict run past the entry gate says so in trace.json, next to
        # the rows and violations it leaves as they were
        for eps, passed in ((1e-4, False), (1e-7, True)):
            sc = golden_scenario(eps, strict=False)
            res = run(sc.system, sc.params)
            doc = res.trace.to_json_dict()
            assert doc["initial_norm_gate"] == {
                "lhs": doc["rows"][0]["max_hat_norm"],
                "rhs": res.gate.gate_value,
                "passed": passed,
            }
            assert "initial_norm_gate" not in {c for _, c in res.trace.violations}
        # a strict run that the gate aborts carries the record on its trace
        sc = golden_scenario(1e-4)
        with pytest.raises(ScheduleViolationError) as info:
            run(sc.system, sc.params)
        assert info.value.trace.to_json_dict()["initial_norm_gate"]["passed"] is False

    def test_trace_json_carries_c0_as_the_gate_report(self):
        # a fitted C0 with its mode and loop, on a run and on a strict run
        # that the gate aborts; a given C0 names no mode
        sc = golden_scenario(1e-4, strict=False)
        res = run(sc.system, sc.params)
        doc = res.trace.to_json_dict()
        assert (doc["C0"], doc["C0_mode"], doc["C0_loop"]) == (
            res.params.c0, res.gate.c0_mode, res.gate.c0_loop)
        assert doc["C0_loop"] == ["+U0->U0[loop]"]
        sc = golden_scenario(1e-4)
        with pytest.raises(ScheduleViolationError) as info:
            run(sc.system, sc.params)
        aborted = info.value.trace.to_json_dict()
        assert [aborted[k] for k in ("C0", "C0_mode", "C0_loop")] == [
            doc[k] for k in ("C0", "C0_mode", "C0_loop")]
        sc = golden_scenario(1e-4, strict=False, c0=2.0)
        doc = run(sc.system, sc.params).trace.to_json_dict()
        assert (doc["C0"], doc["C0_mode"], doc["C0_loop"]) == (2.0, None, None)
