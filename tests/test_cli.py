import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from circlekam import (
    CircleDiffeo,
    CoboundaryError,
    ConvergenceViolationError,
    LaurentSeries,
    NestingError,
    ResonantModeError,
    ScheduleViolationError,
    SchemaError,
    TruncationError,
    ValidationError,
    build_genus2,
    build_single_chart,
    conjugated_rotation,
)
import circlekam
from circlekam import engine
from circlekam.cli import _diagnose, build_parser, main

from conftest import GOLDEN, SILVER, arnold_scenario

TWO_PI = 2.0 * np.pi


@pytest.fixture
def linear_scenario(tmp_path):
    sc = build_single_chart(GOLDEN, LaurentSeries.zero(1.0, 4), 1.0, eta0=0.05)
    path = tmp_path / "linear.json"
    sc.save(path)
    return path


@pytest.fixture
def flagship_scenario(tmp_path):
    hat = LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, width=1.0)
    sc = build_single_chart(GOLDEN, hat, 1.0, eta0=0.05)
    path = tmp_path / "flagship.json"
    sc.save(path)
    return path


@pytest.fixture
def resonant_scenario(tmp_path):
    hat = LaurentSeries.from_coeffs({3: 1e-5, -3: -1e-5}, width=1.0)
    sc = build_single_chart(1.0 / 3.0, hat, 1.0, eta0=0.05, strict_schedule=False)
    path = tmp_path / "resonant.json"
    sc.save(path)
    return path


def read_stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestRun:
    def test_linear_scenario_single_row(self, linear_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(linear_scenario), "--out", str(out)])
        assert code == 0
        doc = read_stdout_json(capsys)
        assert doc["outcome"] == "converged" and doc["steps"] == 0
        csv_lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 2  # header plus the single converged row
        assert (out / "conjugacy.json").exists()
        assert (out / "diagnostics.json").exists()

    def test_flagship_no_strict(self, flagship_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(flagship_scenario), "--out", str(out), "--no-strict"])
        assert code == 0
        doc = read_stdout_json(capsys)
        assert doc["converged"] and doc["conjugation_residual"] <= 1e-8

    def test_flagship_strict_exits_3(self, flagship_scenario, tmp_path, capsys):
        code = main(["run", str(flagship_scenario), "--out", str(tmp_path / "o")])
        assert code == 3
        doc = read_stdout_json(capsys)
        assert doc["outcome"] == "schedule_violation"
        assert doc["failed_certificate"] == "initial_norm_gate"

    def test_resonant_exits_3_with_mode_and_loop(self, resonant_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(resonant_scenario), "--out", str(out)])
        assert code == 3
        doc = read_stdout_json(capsys)
        assert doc["outcome"] == "resonant_mode"
        assert abs(doc["mode"]) == 3
        assert doc["loop"]
        disk = json.loads((out / "diagnostics.json").read_text())
        assert disk == doc

    def test_non_convergence_exits_3(self, tmp_path, capsys):
        hat = LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, width=1.0)
        sc = build_single_chart(GOLDEN, hat, 1.0, eta0=0.05, max_iter=1,
                                strict_schedule=False)
        path = tmp_path / "short.json"
        sc.save(path)
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out)])
        assert code == 3
        doc = read_stdout_json(capsys)
        assert doc["outcome"] == "non_convergence" and not doc["converged"]
        assert (out / "trace.csv").exists()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
        assert read_stdout_json(capsys)["outcome"] == "validation_error"

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


class TestChainCollapse:
    def test_arnold_chain_converges_and_verifies(self, tmp_path, capsys):
        # composed after each step, this run failed annulus nesting (exit 3)
        path = tmp_path / "arnold.json"
        arnold_scenario(0.3).save(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["converged"] is True and report["conjugation_residual"] <= 1e-11
        assert main(["verify", str(out / "conjugacy.json"), str(path)]) == 0
        assert strict_json(capsys.readouterr().out)["outcome"] == "verified"

    def test_chain_nesting_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "arnold.json"
        arnold_scenario(0.5).save(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "certificate_failure"
        assert report["message"].startswith("chart U0: factor 1:")
        assert strict_json((out / "diagnostics.json").read_text()) == report

    def test_chain_nesting_failure_at_huge_truncation_exits_3(self, tmp_path, capsys):
        # sampled before its nesting was decided, this run ended in
        # MemoryError (exit 2) after the grid doubled towards 4N points
        path = tmp_path / "arnold_huge.json"
        arnold_scenario(0.5, n_trunc=10**12, c0=3.0).save(path)
        t0 = time.perf_counter()
        assert main(["run", str(path), "--no-strict", "--out", str(tmp_path / "out")]) == 3
        assert time.perf_counter() - t0 < 5.0
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "certificate_failure"
        assert report["inclusion"] == "inner factors(out_annulus) within domain(factor 1)"
        assert report["message"].startswith("chart U0: factor 1:")

    def test_repeated_coefficient_index_exits_2(self, flagship_scenario, tmp_path, capsys):
        # the last entry used to win: the run converged on c_1 = 1e-4 and
        # dropped the 0.7 written first
        doc = json.loads(flagship_scenario.read_text())
        doc["edges"][0]["hat"]["coeffs"] = [[1, 0.7, 0], [1, 1e-4, 0], [-1, -1e-4, 0]]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--no-strict", "--out", str(out)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert "coefficient index 1" in report["message"]
        assert not (out / "conjugacy.json").exists()


class TestVerify:
    def test_run_then_verify(self, flagship_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(flagship_scenario), "--out", str(out), "--no-strict"]) == 0
        capsys.readouterr()
        code = main(["verify", str(out / "conjugacy.json"), str(flagship_scenario)])
        assert code == 0
        assert read_stdout_json(capsys)["outcome"] == "verified"

    def test_wrong_conjugacy_fails(self, flagship_scenario, linear_scenario,
                                   tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(linear_scenario), "--out", str(out)]) == 0
        capsys.readouterr()
        # identity conjugacy cannot linearize the perturbed scenario
        code = main(["verify", str(out / "conjugacy.json"), str(flagship_scenario),
                     "--tol", "1e-10"])
        assert code == 3
        assert read_stdout_json(capsys)["outcome"] == "verification_failed"


class TestGate:
    def test_gate_fail_exits_3(self, flagship_scenario, capsys):
        assert main(["gate", str(flagship_scenario)]) == 3
        doc = read_stdout_json(capsys)
        assert doc["passed"] is False and doc["gate_value"] > 0

    def test_gate_pass_exits_0(self, linear_scenario, capsys):
        assert main(["gate", str(linear_scenario)]) == 0
        assert read_stdout_json(capsys)["passed"] is True

    def test_reports_the_mode_and_loop_of_c0(self, pair_scenario, capsys):
        assert main(["gate", str(pair_scenario)]) == 0
        doc = read_stdout_json(capsys)
        assert doc["C0_mode"] == 1
        assert doc["C0_loop"] == ["+U0->U1[-]", "-U0->U1[+]"]

    def test_reports_whether_the_c0_mode_is_convergent(self, pair_scenario, capsys):
        assert main(["gate", str(pair_scenario)]) == 0
        doc = read_stdout_json(capsys)
        assert doc["C0_mode"] == 1 and doc["C0_mode_convergent"] is True

    def test_debug_log_goes_to_stderr_only(self, pair_scenario, capsys):
        assert main(["gate", str(pair_scenario)]) == 0
        quiet = capsys.readouterr()
        assert main(["--log-level", "debug", "gate", str(pair_scenario)]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out and quiet.err == ""
        assert "DEBUG circlekam.engine: C0 fit: factored 3 of 64 modes" in loud.err


class TestRotnum:
    def test_reports_each_edge(self, flagship_scenario, capsys):
        assert main(["rotnum", str(flagship_scenario), "--iters", "4096"]) == 0
        doc = read_stdout_json(capsys)
        assert len(doc["edges"]) == 1
        row = doc["edges"][0]
        assert abs(row["phase"] - TWO_PI * GOLDEN) < 1e-12



def _break_eta0(doc):
    doc["params"]["eta0"] = "x"


def _break_phase(doc):
    doc["edges"][0]["phase"] = None


def _break_edges(doc):
    doc["edges"] = "abc"


def _break_coefficient(doc):
    doc["edges"][0]["hat"]["coeffs"][0][1] = float("nan")


def _null_strict_schedule(doc):
    doc["params"]["strict_schedule"] = None


def _text_strict_schedule(doc):
    doc["params"]["strict_schedule"] = "false"


def _fractional_truncation(doc):
    doc["params"]["N"] = 64.7


def _boolean_truncation(doc):
    doc["params"]["N"] = True


def _fractional_max_iter(doc):
    doc["params"]["max_iter"] = 2.9


class TestMalformedScenario:
    @pytest.mark.parametrize("command", ["run", "rotnum"])
    @pytest.mark.parametrize("breaker", [_break_eta0, _break_phase, _break_edges,
                                         _break_coefficient, _null_strict_schedule,
                                         _text_strict_schedule, _fractional_truncation,
                                         _boolean_truncation, _fractional_max_iter])
    def test_exits_2_with_report(self, flagship_scenario, tmp_path, capsys,
                                 command, breaker):
        doc = json.loads(flagship_scenario.read_text())
        breaker(doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert read_stdout_json(capsys)["outcome"] == "validation_error"


def _null_cocycle_phase(doc):
    doc["linear_cocycle"]["edges"][0]["phase"] = None


def _nan_cocycle_phase(doc):
    doc["linear_cocycle"]["edges"][0]["phase"] = float("nan")


def _inf_chart_phase(doc):
    next(iter(doc["charts"].values()))["phase"] = float("inf")


def _text_chart_phase(doc):
    next(iter(doc["charts"].values()))["phase"] = "x"


def _nan_chart_coefficient(doc):
    next(iter(doc["charts"].values()))["hat"]["coeffs"][0][1] = float("nan")


def _list_charts(doc):
    doc["charts"] = ["U0"]


def _missing_width(doc):
    del doc["final_width"]


def _boolean_cocycle_phase(doc):
    doc["linear_cocycle"]["edges"][0]["phase"] = True


def _boolean_chart_phase(doc):
    next(iter(doc["charts"].values()))["phase"] = True


def _boolean_width(doc):
    doc["final_width"] = True


def _drop_cocycle_edge(doc):
    doc["linear_cocycle"]["edges"].pop()


def _append_cocycle_edge(doc):
    doc["linear_cocycle"]["edges"].append(
        {"from": "U0", "to": "U1", "label": "extra", "phase": 0.0})


def _swap_cocycle_edges(doc):
    edges = doc["linear_cocycle"]["edges"]
    edges[0], edges[2] = edges[2], edges[0]


def _rename_chart(doc):
    # the linear cocycle and the charts alike: the document is consistent,
    # and only its nerve differs from the scenario's
    cocycle = doc["linear_cocycle"]
    cocycle["charts"] = ["V2" if c == "U2" else c for c in cocycle["charts"]]
    for e in cocycle["edges"]:
        e["to"] = "V2" if e["to"] == "U2" else e["to"]
    doc["charts"]["V2"] = doc["charts"].pop("U2")


class TestMalformedConjugacy:
    @pytest.mark.parametrize("breaker", [_null_cocycle_phase, _nan_cocycle_phase,
                                         _inf_chart_phase, _text_chart_phase,
                                         _nan_chart_coefficient, _list_charts,
                                         _missing_width, _boolean_cocycle_phase,
                                         _boolean_chart_phase, _boolean_width])
    def test_verify_exits_2_with_report(self, flagship_scenario, tmp_path, capsys,
                                        breaker):
        out = tmp_path / "out"
        assert main(["run", str(flagship_scenario), "--out", str(out), "--no-strict"]) == 0
        capsys.readouterr()
        doc = json.loads((out / "conjugacy.json").read_text())
        breaker(doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), str(flagship_scenario)]) == 2
        assert read_stdout_json(capsys)["outcome"] == "validation_error"

    @pytest.mark.parametrize("breaker, differs", [
        (_drop_cocycle_edge, "edges differ from the system's at 3"),
        (_append_cocycle_edge, "edges differ from the system's at 4"),
        (_swap_cocycle_edges, "edges differ from the system's at 0"),
        (_rename_chart, "charts differ from the system's at 2")])
    def test_verify_over_another_nerve_exits_2(self, genus2_run, tmp_path, capsys,
                                               breaker, differs):
        # a dropped or appended edge raised a traceback, and swapped edges
        # paired each edge with another's phase and exited 3; the report
        # names the first part of the nerve that differs
        scenario, out, _ = genus2_run
        doc = json.loads((out / "conjugacy.json").read_text())
        breaker(doc)
        path = tmp_path / "other_nerve.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), str(scenario)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"] == f"conjugacy {differs}"

class TestDioph:
    def test_golden_spectrum_closed_form(self, flagship_scenario, capsys):
        assert main(["dioph", str(flagship_scenario), "--modes", "64", "--mu", "2"]) == 0
        doc = read_stdout_json(capsys)
        assert doc["C0"] > 0 and not doc["superpolynomial"]
        for n_str, a in doc["spectrum"].items():
            n = int(n_str)
            want = 1.0 / abs(2.0 * np.sin(np.pi * n * GOLDEN))
            assert abs(a - want) <= 1e-10 * want

    def test_zero_modes_exit_2(self, flagship_scenario, capsys):
        # 0 once counted as unset and ran the default N
        assert main(["dioph", str(flagship_scenario), "--modes", "0"]) == 2
        assert read_stdout_json(capsys)["outcome"] == "validation_error"

    def test_resonant_spectrum_exits_3(self, resonant_scenario, capsys):
        assert main(["dioph", str(resonant_scenario), "--modes", "8"]) == 3
        assert read_stdout_json(capsys)["outcome"] == "resonant_mode"


class TestFailClosed:
    def test_verify_exits_3_on_non_finite_residual(self, tmp_path, capsys):
        psi = CircleDiffeo(0.0, LaurentSeries.from_coeffs(
            {1: 3e-5 * (1 + 0.7j), -1: -3e-5 * (1 - 0.7j)}, width=1.2))
        sc = build_genus2(conjugated_rotation(psi, TWO_PI * GOLDEN, 64, 1.0),
                          conjugated_rotation(psi, TWO_PI * SILVER, 64, 1.0),
                          1.0, eta0=0.05, strict_schedule=False)
        scenario = tmp_path / "pair.json"
        sc.save(scenario)
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        doc = json.loads((out / "conjugacy.json").read_text())
        doc["charts"]["U1"]["hat"]["coeffs"] += [[40, 1e308, 0.0], [-40, -1e308, 0.0]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = main(["verify", str(broken), str(scenario)])
        assert code == 3
        assert read_stdout_json(capsys)["outcome"] == "verification_failed"

    def test_hat_beyond_truncation_exits_2(self, tmp_path, capsys):
        hat = LaurentSeries.from_coeffs({100: 1e-9, -100: -1e-9}, width=1.0)
        sc = build_single_chart(GOLDEN, hat, 1.0, eta0=0.05, n_trunc=64,
                                strict_schedule=False)
        path = tmp_path / "beyond.json"
        sc.save(path)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert read_stdout_json(capsys)["outcome"] == "validation_error"


class TestGenus2Cli:
    def test_coboundary_failure_diagnosed(self, tmp_path, capsys):
        hat = LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, width=1.0)
        sc = build_genus2(
            CircleDiffeo(TWO_PI * GOLDEN, hat),
            CircleDiffeo(TWO_PI * SILVER, hat),
            1.0, eta0=0.05, strict_schedule=False,
        )
        path = tmp_path / "bad_pair.json"
        sc.save(path)
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        doc = read_stdout_json(capsys)
        assert doc["outcome"] == "coboundary_failure"
        assert abs(doc["mode"]) == 1


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, rejecting the NaN / Infinity tokens Python would accept."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def genus2_run(tmp_path, capsys):
    """A converged non-strict genus-2 run: (scenario path, out dir, stdout)."""
    psi = CircleDiffeo(0.0, LaurentSeries.from_coeffs(
        {1: 3e-5 * (1 + 0.7j), -1: -3e-5 * (1 - 0.7j)}, width=1.2))
    sc = build_genus2(conjugated_rotation(psi, TWO_PI * GOLDEN, 64, 1.0),
                      conjugated_rotation(psi, TWO_PI * SILVER, 64, 1.0),
                      1.0, eta0=0.05, strict_schedule=False)
    scenario = tmp_path / "pair.json"
    sc.save(scenario)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    return scenario, out, capsys.readouterr().out


@pytest.fixture
def pair_scenario(tmp_path):
    """A genus-2 N=64 scenario file with a hat of size 1e-9 (strict)."""
    psi = CircleDiffeo(0.0, LaurentSeries.from_coeffs(
        {1: 1e-9 * (1 + 0.7j), -1: -1e-9 * (1 - 0.7j)}, width=1.2))
    sc = build_genus2(conjugated_rotation(psi, TWO_PI * GOLDEN, 64, 1.0),
                      conjugated_rotation(psi, TWO_PI * SILVER, 64, 1.0),
                      1.0, eta0=0.05)
    path = tmp_path / "pair.json"
    sc.save(path)
    return path


# sigma0 and mu of each case; every width of the scenario is set to sigma0
FLOAT_RANGE = {
    "sigma0=1e-17": (1e-17, 2.0),         # 1 - e^-sigma0 rounds to 0 in C1
    "sigma0=710": (710.0, 2.0),           # e^sigma0 overflows in delta0
    "mu=200": (1.0, 200.0),               # Gamma(mu) overflows in C1
    "sigma0=1e-3,mu=120": (1e-3, 120.0),  # (1 - e^-sigma0)^mu underflows to 0
}


class TestScheduleFloatRange:
    """Schedule constants past float range reject the params or fail a
    certificate closed; each case below ended in a traceback."""

    @pytest.mark.parametrize("command", ["run", "gate"])
    @pytest.mark.parametrize("case", list(FLOAT_RANGE))
    def test_exits_2_or_3_with_strict_json(self, pair_scenario, tmp_path, capsys,
                                           command, case):
        sigma0, mu = FLOAT_RANGE[case]
        doc = json.loads(pair_scenario.read_text())
        doc["width"] = sigma0
        for edge in doc["edges"]:
            edge["hat"]["sigma"] = sigma0
        # the default eta0 of the new sigma0 and mu keeps the params admissible
        del doc["params"]["eta0"]
        doc["params"].update(sigma0=sigma0, mu=mu)
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) in (2, 3)
        strict_json(capsys.readouterr().out)


# edits of the genus-2 pair file that once ran silently, as (path, value):
# a hat truncation or coefficient index cut to an integer by int(), and
# real-valued fields given a JSON boolean, which float() read as 1.0; and an
# integer past float range, on which float() raised an uncaught OverflowError
MALFORMED_NUMBERS = {
    "hat N=64.7": (("edges", 0, "hat", "N"), 64.7),
    "hat N=true": (("edges", 0, "hat", "N"), True),
    "index=-2.5": (("edges", 0, "hat", "coeffs", 0, 0), -2.5),
    "tol=true": (("params", "tol"), True),
    "tol=10**400": (("params", "tol"), 10**400),
    # the JSON token Infinity, once accepted: the run converged in 0 steps
    "tol=Infinity": (("params", "tol"), math.inf),
    "C0=true": (("params", "C0"), True),
    # once accepted: the --no-strict run converged in 1 step
    "C0=Infinity": (("params", "C0"), math.inf),
    "width=true": (("width",), True),
    "phase=true": (("edges", 0, "phase"), True),
}


class TestMalformedNumbers:
    @pytest.mark.parametrize("case", list(MALFORMED_NUMBERS))
    def test_run_exits_2_with_report(self, pair_scenario, tmp_path, capsys, case):
        doc = json.loads(pair_scenario.read_text())
        path, value = MALFORMED_NUMBERS[case]
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["run", str(broken), "--no-strict", "--out", str(tmp_path / "out")]) == 2
        assert read_stdout_json(capsys)["outcome"] == "validation_error"


class TestArguments:
    def test_verify_samples_default_is_the_engine_constant(self):
        # one source for the count, as --iters reads ROTATION_ITERS
        args = build_parser().parse_args(["verify", "conjugacy.json", "scenario.json"])
        assert args.samples == engine.VERIFY_SAMPLES

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_without_samples_exits_2(self, genus2_run, capsys, samples):
        # no sample points checked nothing and reported "verified"
        scenario, out, _ = genus2_run
        assert main(["verify", str(out / "conjugacy.json"), str(scenario),
                     f"--samples={samples}"]) == 2
        assert strict_json(capsys.readouterr().out)["outcome"] == "validation_error"

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1"])
    def test_verify_tol_outside_the_open_interval_exits_2(self, tmp_path, capsys, tol):
        # inf verified any finite residual; nan and -1 failed as verification
        missing = str(tmp_path / "missing.json")
        assert main(["verify", missing, missing, f"--tol={tol}"]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"].startswith("--tol"), report["message"]

    def test_verify_default_tol_verifies(self, genus2_run, capsys):
        scenario, out, _ = genus2_run
        assert main(["verify", str(out / "conjugacy.json"), str(scenario)]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "verified" and report["tol"] == 1e-8

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_dioph_non_finite_mu_exits_2(self, pair_scenario, capsys, mu):
        assert main(["dioph", str(pair_scenario), "--mu", mu]) == 2
        assert strict_json(capsys.readouterr().out)["outcome"] == "validation_error"

    @pytest.mark.parametrize("outputs", ["trace", ["trace", "conjugacy", "diagnostic"],
                                         [None], {"trace": True}])
    def test_outputs_must_name_known_files(self, pair_scenario, tmp_path, capsys,
                                           outputs):
        # a string was split into characters and wrote no file; an unknown
        # name was dropped silently
        doc = json.loads(pair_scenario.read_text())
        doc["outputs"] = outputs
        path = tmp_path / "outputs.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error" and "outputs" in report["message"]

    def test_run_diagnostics_name_the_mode_of_c0(self, genus2_run):
        scenario, out, stdout = genus2_run
        diag = strict_json((out / "diagnostics.json").read_text())
        assert diag == strict_json(stdout)
        assert diag["C0_mode"] == 1 and diag["C0_loop"] == ["+U0->U1[-]", "-U0->U1[+]"]

    def test_run_trace_carries_the_c0_of_the_diagnostics(self, genus2_run):
        scenario, out, stdout = genus2_run
        trace = strict_json((out / "trace.json").read_text())
        diag = strict_json(stdout)
        assert {k: trace[k] for k in ("C0", "C0_mode", "C0_loop")} == {
            k: diag[k] for k in ("C0", "C0_mode", "C0_loop")}

    def test_run_reports_whether_the_c0_mode_is_convergent(self, genus2_run):
        # mode 1 is q_0 = 1 of every rotation number: a convergent denominator
        scenario, out, stdout = genus2_run
        trace = strict_json((out / "trace.json").read_text())
        diag = strict_json(stdout)
        assert diag["C0_mode"] == 1 and diag["C0_mode_convergent"] is True
        assert trace["C0_mode_convergent"] == diag["C0_mode_convergent"]
        assert strict_json((out / "diagnostics.json").read_text()) == diag

    def test_unknown_log_level_exits_2(self, pair_scenario, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "loud", "gate", str(pair_scenario)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("below", [None, "sub"])
    def test_run_out_naming_a_file_exits_2(self, pair_scenario, tmp_path, capsys,
                                           below):
        # the run went through, then writing its files raised a traceback
        taken = tmp_path / "gate.json"
        taken.write_text("{}")
        out = taken if below is None else taken / below
        assert main(["run", str(pair_scenario), "--out", str(out)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error" and str(out) in report["message"]
        assert taken.read_text() == "{}"

    def test_listed_outputs_are_written(self, pair_scenario, tmp_path, capsys):
        doc = json.loads(pair_scenario.read_text())
        doc["outputs"] = ["conjugacy"]
        path = tmp_path / "outputs.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["conjugacy.json"]


class TestStrictJson:
    def test_non_finite_residual_prints_null(self, genus2_run, tmp_path, capsys):
        scenario, out, _ = genus2_run
        doc = json.loads((out / "conjugacy.json").read_text())
        doc["charts"]["U1"]["hat"]["coeffs"] += [[40, 1e308, 0.0], [-40, -1e308, 0.0]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            assert main(["verify", str(broken), str(scenario)]) == 3
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "verification_failed"
        assert report["residual"] is None

    def test_run_files_are_strict_json(self, genus2_run):
        _, out, stdout = genus2_run
        strict_json(stdout)
        for name in ("trace.json", "conjugacy.json", "diagnostics.json"):
            strict_json((out / name).read_text())
        rows = strict_json((out / "trace.json").read_text())["rows"]
        assert all("certificates" in row for row in rows)


def _undecodable(path, case):
    """The document at ``path`` with one more key whose value no UTF-8 JSON
    decoder reads: a latin-1 byte inside a string, nesting past the recursion
    limit, or an integer past the digit limit of ``int``."""
    head = json.dumps(json.loads(path.read_text()))[:-1].encode() + b', "note": '
    return head + {
        "latin1": b'"caf\xe9"',
        "deep": b"[" * 10**5 + b"]" * 10**5,
        "bigint": b"1" * 5000,
    }[case] + b"}"


# each command with the argument that reads the broken file
READ_POSITIONS = {
    "run": ("scenario", ["run", "{scenario}", "--out", "{out}"]),
    "gate": ("scenario", ["gate", "{scenario}"]),
    "rotnum": ("scenario", ["rotnum", "{scenario}"]),
    "dioph": ("scenario", ["dioph", "{scenario}"]),
    "verify-scenario": ("scenario", ["verify", "{conjugacy}", "{scenario}"]),
    "verify-conjugacy": ("conjugacy", ["verify", "{conjugacy}", "{scenario}"]),
}


# every file a converged run writes by default
RUN_FILES = ["trace.csv", "trace.json", "conjugacy.json", "diagnostics.json"]


class TestDocumentBoundary:
    """Every document crosses one UTF-8 reader and every output one writer:
    a file that cannot be decoded, or a path that cannot be written, ends in
    exit 2 with strict JSON naming it. Each case below ended in a traceback."""

    @pytest.mark.parametrize("case", ["latin1", "deep", "bigint"])
    @pytest.mark.parametrize("position", list(READ_POSITIONS))
    def test_undecodable_document_exits_2(self, genus2_run, tmp_path, capsys,
                                          position, case):
        scenario, out, _ = genus2_run
        conjugacy = out / "conjugacy.json"
        what, argv = READ_POSITIONS[position]
        bad = tmp_path / "bad.json"
        bad.write_bytes(_undecodable(scenario if what == "scenario" else conjugacy, case))
        names = {"scenario": scenario, "conjugacy": conjugacy, what: bad,
                 "out": tmp_path / "run_out"}
        assert main([a.format(**names) for a in argv]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"].startswith(f"cannot read {what} {bad}"), report["message"]
        if position == "run":
            assert strict_json((names["out"] / "diagnostics.json").read_text()) == report

    @pytest.mark.parametrize("name", RUN_FILES)
    def test_unwritable_output_exits_2(self, linear_scenario, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["run", str(linear_scenario), "--out", str(out)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"].startswith(f"cannot write {out / name}"), report["message"]

    @pytest.mark.parametrize("name", RUN_FILES)
    def test_unwritable_output_leaves_no_other_file(self, linear_scenario, tmp_path,
                                                     capsys, name):
        # the files before the occupied one stayed behind
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["run", str(linear_scenario), "--out", str(out)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["message"].startswith(f"cannot write {out / name}"), report["message"]
        assert [p.name for p in out.iterdir()] == [name]

    def test_failed_write_removes_the_files_before_it(self, linear_scenario, tmp_path,
                                                      capsys, monkeypatch):
        # a write that fails past the path check (a full disk, say)
        write_text = Path.write_text

        def failing(path, *args, **kwargs):
            if path.name == "conjugacy.json":
                raise OSError(28, "No space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        out = tmp_path / "out"
        assert main(["run", str(linear_scenario), "--out", str(out)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["message"].startswith(f"cannot write {out / 'conjugacy.json'}")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("strict", [True, False], ids=["aborted", "max_iter"])
    def test_failed_run_with_a_trace_leaves_no_trace_file(self, tmp_path, capsys, strict):
        # an aborted run (schedule violation) and one out of steps both exit 3
        # with a trace; an occupied diagnostics.json left the trace files behind
        hat = LaurentSeries.from_coeffs({1: 1e-4, -1: -1e-4}, width=1.0)
        path = tmp_path / "failing.json"
        build_single_chart(GOLDEN, hat, 1.0, eta0=0.05, max_iter=1,
                           strict_schedule=strict).save(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(tmp_path / "free")]) == 3
        capsys.readouterr()
        assert {"trace.csv", "trace.json"} <= {p.name for p in (tmp_path / "free").iterdir()}
        (out / "diagnostics.json").mkdir(parents=True)
        assert main(["run", str(path), "--out", str(out)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"].startswith(f"cannot write {out / 'diagnostics.json'}")
        assert [p.name for p in out.iterdir()] == ["diagnostics.json"]

    def test_unwritable_diagnostics_of_an_unread_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "diagnostics.json").mkdir(parents=True)
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"].startswith(f"cannot write {out / 'diagnostics.json'}")

    def test_save_to_a_directory_raises(self, tmp_path):
        sc = build_single_chart(GOLDEN, LaurentSeries.zero(1.0, 4), 1.0, eta0=0.05)
        with pytest.raises(ValidationError, match=re.escape(f"cannot write {tmp_path}")):
            sc.save(tmp_path)


class TestFinalWidth:
    """A conjugacy's final width lies in (0, least chart hat width]; -1 and 0
    were verified with exit 0."""

    def _verify(self, genus2_run, tmp_path, width):
        scenario, out, _ = genus2_run
        doc = json.loads((out / "conjugacy.json").read_text())
        least = min(chart["hat"]["sigma"] for chart in doc["charts"].values())
        doc["final_width"] = width(least)
        path = tmp_path / "width.json"
        path.write_text(json.dumps(doc))
        return main(["verify", str(path), str(scenario)])

    @pytest.mark.parametrize("width", [lambda least: -1.0, lambda least: 0.0,
                                       lambda least: math.nextafter(least, math.inf)],
                             ids=["-1", "0", "least+ulp"])
    def test_out_of_range_exits_2(self, genus2_run, tmp_path, capsys, width):
        assert self._verify(genus2_run, tmp_path, width) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"].startswith("final_width"), report["message"]

    def test_least_chart_width_verifies(self, genus2_run, tmp_path, capsys):
        assert self._verify(genus2_run, tmp_path, lambda least: least) == 0
        assert strict_json(capsys.readouterr().out)["outcome"] == "verified"


class TestEdgelessNerve:
    """A nerve without edges has no mode to fit C0: gate and run said "c0
    must be finite and positive, got 0.0" about a C0 no one gave."""

    @pytest.fixture
    def edgeless(self, linear_scenario, tmp_path):
        doc = json.loads(linear_scenario.read_text())
        doc["edges"] = []
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", ["gate", "run"])
    def test_gate_and_run_exit_2(self, edgeless, tmp_path, capsys, command):
        argv = [command, str(edgeless)] + ["--out", str(tmp_path / "out")] * (command == "run")
        assert main(argv) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["outcome"] == "validation_error"
        assert report["message"].startswith("the nerve has no edges"), report["message"]

    def test_rotnum_and_dioph_keep_their_output(self, edgeless, capsys):
        assert main(["rotnum", str(edgeless)]) == 0
        assert strict_json(capsys.readouterr().out) == {"edges": []}
        assert main(["dioph", str(edgeless), "--modes", "4"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["C0"] == 0.0 and doc["argmax_mode"] == 1
        assert doc["spectrum"] == {str(n): 0.0 for n in range(-4, 5) if n}


# error, its outcome and the report keys besides outcome and message that
# its report must keep
DIAGNOSED = [
    (TruncationError("tail_budget"), "truncation_error", set()),
    (ConvergenceViolationError(), "convergence_violation", {"failed_certificate"}),
    (ScheduleViolationError("annulus_nesting"), "schedule_violation",
     {"failed_certificate"}),
    (NestingError("chart U0 does not fit", "U0"), "certificate_failure", set()),
    (ResonantModeError(3, loop=[("loop", 1)], holonomy=0.0), "resonant_mode",
     {"mode", "loop"}),
    (CoboundaryError(1, residual=1.0, norm=1.0), "coboundary_failure", {"mode"}),
]


class TestDiagnose:
    @pytest.mark.parametrize("exc,outcome,keys", DIAGNOSED,
                             ids=[type(exc).__name__ for exc, _, _ in DIAGNOSED])
    def test_outcome_exit_code_and_keys(self, exc, outcome, keys):
        diag, code = _diagnose(exc)
        assert code == 3
        assert diag["outcome"] == outcome and diag["message"] == str(exc)
        assert keys | {"outcome", "message"} <= set(diag)
        json.dumps(diag, allow_nan=False)

    def test_validation_error_exits_2(self):
        diag, code = _diagnose(SchemaError("bad document"))
        assert code == 2 and diag == {"outcome": "validation_error",
                                      "message": "bad document"}

    def test_tail_budget_abort_names_step_and_margin(self, monkeypatch, tmp_path, capsys):
        real = engine.renew_rows

        def renew_rows(*args, **kwargs):
            maps, infos = real(*args, **kwargs)
            return maps, [dataclasses.replace(i, tail_mass=1.0) for i in infos]

        monkeypatch.setattr(engine, "renew_rows", renew_rows)
        hat = LaurentSeries.from_coeffs({1: 5e-7, -1: -5e-7}, width=1.0)
        path = tmp_path / "in_gate.json"
        build_single_chart(GOLDEN, hat, 1.0, eta0=0.05).save(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        doc = strict_json(capsys.readouterr().out)
        assert doc["outcome"] == "truncation_error"
        assert doc["failed_certificate"] == "tail_budget" and doc["step"] == 0
        assert doc["margin"] < 0
        assert strict_json((out / "diagnostics.json").read_text()) == doc


def test_cli_path_does_not_import_numpy_ma(pair_scenario, tmp_path):
    """run, verify, rotnum and gate on a genus-2 file, in one fresh
    interpreter, never load numpy.ma: numpy's set routines (unique,
    union1d, ...) import it on first call, about 2 MB of memory and import
    time in every command."""
    out = tmp_path / "out"
    script = f"""
import contextlib, io, json, sys
from circlekam.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["run", {str(pair_scenario)!r}, "--no-strict", "--out", {str(out)!r}]),
             main(["verify", {str(out / "conjugacy.json")!r}, {str(pair_scenario)!r}]),
             main(["rotnum", {str(pair_scenario)!r}]),
             main(["gate", {str(pair_scenario)!r}])]
print(json.dumps({{"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}}))
"""
    src = str(Path(circlekam.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "numpy.ma": False}
