import json

import numpy as np
import pytest

from circlekam import (
    CircleDiffeo,
    CoboundaryError,
    Conjugacy,
    ExtractionError,
    LaurentSeries,
    NotACircleMapError,
    ResonantModeError,
    Scenario,
    SchemaError,
    ValidationError,
    build_genus2,
    build_single_chart,
    conjugated_rotation,
    eval_diffeo,
    extract_simultaneous,
    rotation,
    rotation_number,
    run,
    unit_circle,
)

from conftest import GOLDEN, SILVER, random_symmetric_hat

TWO_PI = 2.0 * np.pi


def consistent_genus2(rng=None, scale=3e-5, strict=False):
    """Pair conjugated from one common change of coordinates: the coboundary
    condition then holds at every level of the iteration."""
    coeffs = {1: scale * (1 + 0.7j), -1: -scale * (1 - 0.7j),
              2: 0.4j * scale, -2: 0.4j * scale}
    psi = CircleDiffeo(0.0, LaurentSeries.from_coeffs(coeffs, width=1.2))
    f1 = conjugated_rotation(psi, TWO_PI * GOLDEN, n_trunc=64, out_width=1.0)
    f2 = conjugated_rotation(psi, TWO_PI * SILVER, n_trunc=64, out_width=1.0)
    return build_genus2(f1, f2, sigma0=1.0, eta0=0.05, strict_schedule=strict), psi


class TestSingleChartBuilder:
    def test_zero_hat_converges_immediately(self):
        sc = build_single_chart(GOLDEN, LaurentSeries.zero(1.0, 4), 1.0, eta0=0.05)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps == 0

    def test_asymmetric_hat_rejected(self):
        bad = LaurentSeries.from_coeffs({1: 1e-3}, width=1.0)
        with pytest.raises(NotACircleMapError):
            build_single_chart(GOLDEN, bad, 1.0)

    def test_narrow_hat_rejected(self):
        hat = LaurentSeries.from_coeffs({1: 1e-3, -1: -1e-3}, width=0.5)
        with pytest.raises(ValidationError):
            build_single_chart(GOLDEN, hat, sigma0=1.0)

    def test_resonant_scenario_loads_then_fails(self):
        hat = LaurentSeries.from_coeffs({2: 1e-5j, -2: 1e-5j}, width=1.0)
        sc = build_single_chart(0.5, hat, 1.0, eta0=0.05, strict_schedule=False)
        doc = json.loads(json.dumps(sc.to_json_dict()))
        sc2 = Scenario.from_json_dict(doc)  # loading succeeds
        with pytest.raises(ResonantModeError) as info:
            run(sc2.system, sc2.params)
        assert abs(info.value.mode) == 2


class TestGenus2Builder:
    def test_nerve_shape(self):
        sc = build_genus2(rotation(1.0, 1.0), rotation(2.0, 1.0), 1.0)
        nerve = sc.system.nerve
        assert nerve.charts == ("U0", "U1", "U2")
        assert len(nerve.edges) == 4
        assert {e.label for e in nerve.edges} == {"+", "-"}
        assert nerve.triples == ()
        minus = [f for e, f in zip(nerve.edges, sc.system.transitions)
                 if e.label == "-"]
        assert all(t.hat.support.size == 0 and t.phase == 0.0 for t in minus)

    def test_rotations_converge_immediately(self):
        sc = build_genus2(rotation(TWO_PI * GOLDEN, 1.0),
                          rotation(TWO_PI * SILVER, 1.0), 1.0, eta0=0.05)
        res = run(sc.system, sc.params)
        assert res.converged and res.steps == 0
        sim = extract_simultaneous(res.conjugacy, sc)
        assert sim.rotations == pytest.approx((TWO_PI * GOLDEN, TWO_PI * SILVER))
        assert np.all(sim.psi0.hat.coeffs == 0)

    def test_consistent_pair_converges(self):
        sc, psi = consistent_genus2()
        res = run(sc.system, sc.params)
        assert res.converged
        sim = extract_simultaneous(res.conjugacy, sc)
        assert sim.residuals["U1"] <= 1e-8
        assert sim.residuals["U2"] <= 1e-8

    def test_inconsistent_pair_fails_honestly(self):
        hat = LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, width=1.0)
        f1 = CircleDiffeo(TWO_PI * GOLDEN, hat)
        f2 = CircleDiffeo(TWO_PI * SILVER, hat)  # same hats: modes clash
        sc = build_genus2(f1, f2, 1.0, eta0=0.05, strict_schedule=False)
        with pytest.raises(CoboundaryError) as info:
            run(sc.system, sc.params)
        assert abs(info.value.mode) == 1


class TestConjugatedRotation:
    def test_rotation_number_preserved(self, rng):
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 1e-3))
        f = conjugated_rotation(psi, TWO_PI * GOLDEN, n_trunc=32, out_width=1.0)
        assert abs(rotation_number(f) - GOLDEN) < 1e-12

    def test_pointwise_conjugation(self, rng):
        psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 1e-3))
        f = conjugated_rotation(psi, 1.1, n_trunc=32, out_width=1.0)
        w = unit_circle(64)
        lhs = eval_diffeo(f, eval_diffeo(psi, w))
        rhs = eval_diffeo(psi, np.exp(1.1j) * w)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


class TestSerialization:
    def test_round_trip_identical_traces(self, tmp_path):
        sc, _ = consistent_genus2()
        path = tmp_path / "scenario.json"
        sc.save(path)
        sc2 = Scenario.load(path)
        r1 = run(sc.system, sc.params)
        r2 = run(sc2.system, sc2.params)

        def untimed(trace):
            return [{k: v for k, v in r.to_json_dict().items()
                     if k not in ("wall_ms", "phase_ms")} for r in trace.rows]

        assert untimed(r1.trace) == untimed(r2.trace)
        assert r1.conjugation_residual == r2.conjugation_residual

    def test_bad_schema_rejected(self):
        with pytest.raises(SchemaError):
            Scenario.from_json_dict({"schema": 2})

    def test_missing_fields_rejected(self):
        with pytest.raises(SchemaError):
            Scenario.from_json_dict({"schema": 1, "name": "x"})

    def test_params_defaults_applied(self):
        sc = build_single_chart(GOLDEN, LaurentSeries.zero(1.0, 2), 1.0)
        doc = sc.to_json_dict()
        del doc["params"]
        sc2 = Scenario.from_json_dict(doc)
        assert sc2.params.n_trunc == 64
        assert sc2.params.tol == 1e-10
        assert sc2.params.max_iter == 40
        assert sc2.params.mu == 2.0
        assert sc2.params.strict_schedule is True

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SchemaError):
            Scenario.load(tmp_path / "missing.json")


class TestExtraction:
    def test_requires_genus2_shape(self):
        sc = build_single_chart(GOLDEN, LaurentSeries.zero(1.0, 2), 1.0)
        res = run(sc.system, sc.params)
        with pytest.raises(ValidationError):
            extract_simultaneous(res.conjugacy, sc)

    def test_conjugacy_over_another_nerve_rejected(self):
        # a plus edge the conjugacy lacks raised ValueError from the lookup
        # of its phase
        sc, _ = consistent_genus2()
        res = run(sc.system, sc.params)
        doc = res.conjugacy.to_json_dict()
        dropped = doc["linear_cocycle"]["edges"].pop(2)
        assert (dropped["to"], dropped["label"]) == ("U2", "+")
        with pytest.raises(ValidationError, match="conjugacy edges differ from the system.s at 2"):
            extract_simultaneous(Conjugacy.from_json_dict(doc), sc)

    def test_non_finite_residual_fails_closed(self):
        # an overflowing chart coefficient makes the chart evaluate to NaN;
        # max(worst, nan) kept the old worst, so the residual read as round-off
        sc, _ = consistent_genus2()
        res = run(sc.system, sc.params)
        doc = res.conjugacy.to_json_dict()
        doc["charts"]["U1"]["hat"]["coeffs"] += [[40, 1e308, 0.0], [-40, -1e308, 0.0]]
        conj = Conjugacy.from_json_dict(doc)
        with np.errstate(all="ignore"):
            assert not conj.residual(sc.system) <= 1.0
            with pytest.raises(ExtractionError):
                extract_simultaneous(conj, sc)

    def test_rotations_match_rotation_numbers(self):
        sc, _ = consistent_genus2()
        res = run(sc.system, sc.params)
        sim = extract_simultaneous(res.conjugacy, sc)
        for phi, e in zip(sim.rotations, ("U1", "U2")):
            f0 = next(
                f for ed, f in zip(sc.system.nerve.edges, sc.system.transitions)
                if ed.dst == e and ed.label == "+"
            )
            rho = rotation_number(f0)
            d = abs(phi - TWO_PI * rho) % TWO_PI
            assert min(d, TWO_PI - d) < 1e-11  # measured 6.2e-14
