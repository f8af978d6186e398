"""Command-line harness.

Subcommands: ``run`` (full pipeline), ``gate`` (entry gate report),
``rotnum`` (per-edge rotation numbers), ``dioph`` (amplification spectrum and
power-law fit), ``verify`` (conjugacy residual check). Exit codes: 0 success,
2 validation error, 3 convergence or certificate failure. Every command
prints a machine-readable JSON report to stdout; ``run`` also writes trace
CSV/JSON, conjugacy JSON, and diagnostics JSON next to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine
from .circle import ROTATION_ITERS
from .cocycle import amplification_spectrum, fit_diophantine
from .errors import (
    CertificateError,
    CircleKamError,
    CoboundaryError,
    ConvergenceViolationError,
    ResonantModeError,
    ScheduleViolationError,
    TruncationError,
)
from .scenarios import Scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAILURE = 3


def _diagnose(exc: Exception) -> tuple[dict, int]:
    if isinstance(exc, ResonantModeError):
        return (
            {
                "outcome": "resonant_mode",
                "mode": exc.mode,
                "loop": exc.loop,
                "message": str(exc),
            },
            EXIT_FAILURE,
        )
    if isinstance(exc, CoboundaryError):
        return (
            {"outcome": "coboundary_failure", "mode": exc.mode, "message": str(exc)},
            EXIT_FAILURE,
        )
    if isinstance(exc, ConvergenceViolationError):
        return (
            {
                "outcome": "convergence_violation",
                "failed_certificate": exc.certificate,
                "message": str(exc),
            },
            EXIT_FAILURE,
        )
    if isinstance(exc, ScheduleViolationError):
        return (
            {
                "outcome": "schedule_violation",
                "failed_certificate": exc.certificate,
                "message": str(exc),
            },
            EXIT_FAILURE,
        )
    if isinstance(exc, TruncationError):
        return ({"outcome": "truncation_error", "message": str(exc)}, EXIT_FAILURE)
    if isinstance(exc, CertificateError):
        return ({"outcome": "certificate_failure", "message": str(exc)}, EXIT_FAILURE)
    return ({"outcome": "validation_error", "message": str(exc)}, EXIT_VALIDATION)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_scenario(path: str) -> Scenario:
    return Scenario.load(path)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _cmd_run(args) -> int:
    out_dir = Path(args.out)
    try:
        scenario = _load_scenario(args.scenario)
        if args.no_strict:
            scenario = scenario.with_strict(False)
        result = engine.run(scenario.system, scenario.params)
    except CircleKamError as exc:
        diag, code = _diagnose(exc)
        trace = getattr(exc, "trace", None)
        if trace is not None:
            _write(out_dir / "trace.csv", trace.to_csv())
            _write(out_dir / "trace.json",
                   json.dumps(trace.to_json_dict(), indent=2, sort_keys=True))
        _write(out_dir / "diagnostics.json",
               json.dumps(diag, indent=2, sort_keys=True))
        _emit(diag)
        return code

    outputs = scenario.outputs
    if "trace" in outputs:
        _write(out_dir / "trace.csv", result.trace.to_csv())
        _write(out_dir / "trace.json",
               json.dumps(result.trace.to_json_dict(), indent=2, sort_keys=True))
    if "conjugacy" in outputs:
        _write(out_dir / "conjugacy.json",
               json.dumps(result.conjugacy.to_json_dict(), indent=2,
                          sort_keys=True))
    diag = {
        "outcome": result.outcome if result.converged else "non_convergence",
        "converged": result.converged,
        "steps": result.steps,
        "conjugation_residual": result.conjugation_residual,
        "gate_passed": result.gate.passed,
        "C0": result.params.c0,
        "message": (
            f"converged in {result.steps} steps" if result.converged
            else f"tolerance not reached within {result.params.max_iter} steps"
        ),
        "conventions": dict(engine.CONVENTIONS),
    }
    if "diagnostics" in outputs:
        _write(out_dir / "diagnostics.json",
               json.dumps(diag, indent=2, sort_keys=True))
    _emit(diag)
    return EXIT_OK if result.converged else EXIT_FAILURE


def _cmd_gate(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        report = engine.gate_check(scenario.system, scenario.params)
    except CircleKamError as exc:
        diag, code = _diagnose(exc)
        _emit(diag)
        return code
    _emit(report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_rotnum(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        rows = engine.alpha_vs_rotation(scenario.system, iters=args.iters)
    except CircleKamError as exc:
        diag, code = _diagnose(exc)
        _emit(diag)
        return code
    _emit({"edges": rows})
    return EXIT_OK


def _cmd_dioph(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        n_max = args.modes or scenario.params.n_trunc
        mu = args.mu if args.mu is not None else scenario.params.mu
        spectrum = amplification_spectrum(scenario.system.bundle(), n_max)
        fit = fit_diophantine(spectrum, mu)
    except CircleKamError as exc:
        diag, code = _diagnose(exc)
        _emit(diag)
        return code
    doc = fit.to_json_dict()
    doc["spectrum"] = {str(n): a for n, a in sorted(spectrum.items())}
    doc["conventions"] = dict(engine.CONVENTIONS)
    _emit(doc)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        doc = json.loads(Path(args.conjugacy).read_text())
        conj = engine.Conjugacy.from_json_dict(doc)
        residual = conj.residual(scenario.system, samples=args.samples)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        _emit({"outcome": "validation_error", "message": str(exc)})
        return EXIT_VALIDATION
    except CircleKamError as exc:
        diag, code = _diagnose(exc)
        _emit(diag)
        return code
    ok = residual <= args.tol
    _emit(
        {
            "outcome": "verified" if ok else "verification_failed",
            "residual": residual,
            "tol": args.tol,
        }
    )
    return EXIT_OK if ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlekam",
        description="KAM linearization of circle-diffeomorphism cocycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full linearization pipeline")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--no-strict", action="store_true",
                       help="log certificate failures instead of aborting")
    p_run.set_defaults(fn=_cmd_run)

    p_gate = sub.add_parser("gate", help="entry-gate report only")
    p_gate.add_argument("scenario")
    p_gate.set_defaults(fn=_cmd_gate)

    p_rot = sub.add_parser("rotnum", help="per-edge rotation numbers")
    p_rot.add_argument("scenario")
    p_rot.add_argument("--iters", type=int, default=ROTATION_ITERS)
    p_rot.set_defaults(fn=_cmd_rotnum)

    p_dioph = sub.add_parser("dioph", help="amplification spectrum and C0 fit")
    p_dioph.add_argument("scenario")
    p_dioph.add_argument("--modes", type=int, default=None)
    p_dioph.add_argument("--mu", type=float, default=None)
    p_dioph.set_defaults(fn=_cmd_dioph)

    p_verify = sub.add_parser("verify", help="check a conjugacy against a scenario")
    p_verify.add_argument("conjugacy")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--samples", type=int, default=128)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
