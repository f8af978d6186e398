"""Command-line harness.

Subcommands: ``run`` (full pipeline), ``gate`` (entry gate report),
``rotnum`` (per-edge rotation numbers), ``dioph`` (amplification spectrum and
power-law fit), ``verify`` (conjugacy residual check). Exit codes: 0 success,
2 validation error, 3 convergence or certificate failure. Every command
prints a machine-readable JSON report to stdout; ``run`` also writes trace
CSV/JSON, conjugacy JSON, and diagnostics JSON next to ``--out``. Documents
pass one reader and one strict writer (:mod:`circlekam.scenarios`): an
undecodable file, an unwritable output and a size too large for memory are
validation errors; a non-finite number is written as ``null``. One handler in
:func:`main` reports an error (``run`` writes its files in its own) from the
``outcome`` and ``fields`` of its class. ``--log-level`` sends the library's
log records to stderr (default WARNING); stdout is the same at every level.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from pathlib import Path

from . import engine
from .circle import ROTATION_ITERS
from .cocycle import amplification_spectrum, fit_diophantine
from .errors import CertificateError, CircleKamError, ValidationError
from .scenarios import Scenario, dumps, read_document, write_document

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAILURE = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _diagnose(exc: CircleKamError | MemoryError) -> tuple[dict, int]:
    """The report and exit code of a library error: its class's ``outcome``
    and ``fields``, and exit 3 for certificate failures, 2 otherwise. A
    failed allocation is an input too large for memory, a validation error
    whose message carries the size that could not be allocated."""
    if isinstance(exc, MemoryError):
        exc = ValidationError(f"input too large for memory: {exc}")
    diag = {key: getattr(exc, attr) for key, attr in exc.fields.items()}
    diag.update(outcome=exc.outcome, message=str(exc))
    return diag, EXIT_FAILURE if isinstance(exc, CertificateError) else EXIT_VALIDATION


def _cmd_run(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use --out {out_dir} as a directory: {exc}") from exc
    try:
        scenario = Scenario.load(args.scenario)
        if args.no_strict:
            scenario = scenario.with_strict(False)
        result = engine.run(scenario.system, scenario.params)
    except (CircleKamError, MemoryError) as exc:
        diag, code = _diagnose(exc)
        trace = getattr(exc, "trace", None)
        if trace is not None:
            write_document(out_dir / "trace.csv", trace.to_csv())
            write_document(out_dir / "trace.json", trace.to_json_dict())
        write_document(out_dir / "diagnostics.json", diag)
        print(dumps(diag))
        return code

    if "trace" in scenario.outputs:
        write_document(out_dir / "trace.csv", result.trace.to_csv())
        write_document(out_dir / "trace.json", result.trace.to_json_dict())
    if "conjugacy" in scenario.outputs:
        write_document(out_dir / "conjugacy.json", result.conjugacy.to_json_dict())
    diag = {
        "outcome": result.outcome if result.converged else "non_convergence",
        "converged": result.converged,
        "steps": result.steps,
        "conjugation_residual": result.conjugation_residual,
        "gate_passed": result.gate.passed,
        **engine.GateReport.c0_record(result.gate),
        "message": (
            f"converged in {result.steps} steps" if result.converged
            else f"tolerance not reached within {result.params.max_iter} steps"
        ),
        "conventions": dict(engine.CONVENTIONS),
    }
    if "diagnostics" in scenario.outputs:
        write_document(out_dir / "diagnostics.json", diag)
    print(dumps(diag))
    return EXIT_OK if result.converged else EXIT_FAILURE


def _cmd_gate(args) -> int:
    scenario = Scenario.load(args.scenario)
    report = engine.gate_check(scenario.system, scenario.params)
    print(dumps(report.to_json_dict()))
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_rotnum(args) -> int:
    scenario = Scenario.load(args.scenario)
    print(dumps({"edges": engine.alpha_vs_rotation(scenario.system, iters=args.iters)}))
    return EXIT_OK


def _cmd_dioph(args) -> int:
    scenario = Scenario.load(args.scenario)
    n_max = args.modes if args.modes is not None else scenario.params.n_trunc
    mu = args.mu if args.mu is not None else scenario.params.mu
    spectrum = amplification_spectrum(scenario.system.bundle(), n_max)
    doc = fit_diophantine(spectrum, mu).to_json_dict()
    doc["spectrum"] = {str(n): a for n, a in sorted(spectrum.items())}
    doc["conventions"] = dict(engine.CONVENTIONS)
    print(dumps(doc))
    return EXIT_OK


def _cmd_verify(args) -> int:
    scenario = Scenario.load(args.scenario)
    conj = engine.Conjugacy.from_json_dict(read_document(args.conjugacy, "conjugacy"))
    residual = conj.residual(scenario.system, samples=args.samples)
    ok = residual <= args.tol
    print(dumps({
        "outcome": "verified" if ok else "verification_failed",
        "residual": residual,
        "tol": args.tol,
    }))
    return EXIT_OK if ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlekam",
        description="KAM linearization of circle-diffeomorphism cocycles",
    )
    parser.add_argument("--log-level", type=str.upper, choices=LOG_LEVELS,
                        default="WARNING", help="level of the log written to stderr")
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
    p_verify.add_argument("--samples", type=int, default=engine.VERIFY_SAMPLES)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """The package's log records at ``level`` and above go to stderr while
    a command runs."""
    pkg = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = pkg.level
    pkg.addHandler(handler)
    pkg.setLevel(level)
    try:
        yield
    finally:
        pkg.removeHandler(handler)
        pkg.setLevel(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.fn(args)
        except (CircleKamError, MemoryError) as exc:
            diag, code = _diagnose(exc)
            print(dumps(diag))
            return code


if __name__ == "__main__":
    sys.exit(main())
