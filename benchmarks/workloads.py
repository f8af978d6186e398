"""Seeded workloads of the circlekam benchmark.

A workload turns a seed into a pool of scenarios through the library's
public builders (``build``), runs one operation ("op") on one pool item
(``op``), and checks the op's output (``check``) outside the timed region.
The benchmark cycles through the pool in a closed loop, one caller, until
its time is up.

The generators below restate the helpers of the test suite
(``random_symmetric_hat``, ``safe_rotation_numbers`` and the criterion-7
``_in_gate_scenarios``) so that the benchmark's inputs do not change when a
test changes. Library functions are called through the package namespace
(``ck.run``), where the tracer in ``spans.py`` rebinds them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import circlekam as ck
from circlekam import CircleDiffeo, LaurentSeries, Scenario, cli

TWO_PI = 2.0 * np.pi

# Tolerance of the extract_simultaneous residuals, as in acceptance
# criterion 6 (the collapse tolerance is extract_simultaneous's default).
SIMULTANEOUS_TOL = 1e-8

# Seconds after which one CLI subprocess counts as hung and is killed.
CLI_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Outcome:
    """Verdict on one op.

    ``passed`` means the op completed and passed every check. ``wrong`` means
    the program reported success (converged, exit 0) and a check still
    failed: an incorrect output rather than an honest failure. ``residual``
    is the worst verified residual of a completed op, else nan.
    """

    passed: bool
    wrong: bool = False
    residual: float = math.nan
    reason: str = ""


def _fail(reason: str, wrong: bool = False) -> Outcome:
    return Outcome(passed=False, wrong=wrong, reason=reason)


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def random_symmetric_hat(rng, width, scale, max_mode=4, n_trunc=None):
    """Random hat obeying the reality symmetry c_{-n} = -conj(c_n), with
    geometric mode decay."""
    coeffs = {}
    for n in range(1, max_mode + 1):
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        c *= rng.random() * 2.0 ** (1 - n)
        coeffs[n] = c
        coeffs[-n] = -np.conj(c)
    return LaurentSeries.from_coeffs(coeffs, width, n_trunc=n_trunc)


def safe_rotation_numbers(rng, count, n_max=96, min_divisor=0.02):
    """Rotation numbers whose divisors |2 sin(pi n theta)| stay above
    ``min_divisor`` for all modes up to ``n_max`` (rejection sampling)."""
    out = []
    n = np.arange(1, n_max + 1)
    while len(out) < count:
        theta = 0.05 + 0.9 * rng.random()
        if np.min(np.abs(2.0 * np.sin(np.pi * n * theta))) >= min_divisor:
            out.append(theta)
    return out


def genus2_pair(rng, n_trunc, name):
    """Non-strict genus-2 scenario (sigma0=1, eta0=0.05) whose two maps share
    one random 4-mode conjugator of scale 5e-5, as in acceptance criterion 6."""
    th1, th2 = safe_rotation_numbers(rng, 2)
    psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 5e-5))
    f1 = ck.conjugated_rotation(psi, TWO_PI * th1, n_trunc, 1.0)
    f2 = ck.conjugated_rotation(psi, TWO_PI * th2, n_trunc, 1.0)
    return ck.build_genus2(f1, f2, 1.0, eta0=0.05, n_trunc=n_trunc,
                           strict_schedule=False, name=name)


def thin_annulus_map(rng, theta, sigma0, n_trunc=512):
    """Single-chart map whose hat is dense up to ``n_trunc``, with
    |c_n| = 1e-5 e^{-1.05 sigma0 |n|}: analytic only slightly beyond the
    sigma0-annulus. ``eta0`` is left to its default."""
    n = np.arange(1, n_trunc + 1)
    c = 1e-5 * np.exp(-1.05 * sigma0 * n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n.size))
    coeffs = {}
    for k, cn in zip(n.tolist(), c):
        coeffs[k] = cn
        coeffs[-k] = -np.conj(cn)
    hat = LaurentSeries.from_coeffs(coeffs, sigma0, n_trunc=n_trunc)
    return ck.build_single_chart(theta, hat, sigma0, n_trunc=n_trunc,
                                 strict_schedule=False,
                                 name=f"thin_annulus_{sigma0:.6f}")


def in_gate_scenarios(rng, count):
    """The acceptance criterion-7 generator: four in five single-chart maps,
    one in five genus-2 pairs, each scaled to 0.3 of its entry gate; N=64,
    sigma0=1, eta0=0.05, strict schedule."""
    scenarios = []
    thetas = safe_rotation_numbers(rng, count + count // 2)
    i = 0
    while len(scenarios) < count:
        if len(scenarios) % 5 != 4:
            theta = thetas[i]
            i += 1
            hat = random_symmetric_hat(rng, 1.0, 1e-6)
            sc = ck.build_single_chart(theta, hat, 1.0, eta0=0.05)
            gate = ck.gate_check(sc.system, sc.params)
            s = 0.3 * gate.gate_value / ck.majorant_norm(hat, 1.0)
            scenarios.append(ck.build_single_chart(theta, hat.scale(s), 1.0, eta0=0.05))
        else:
            th1, th2 = thetas[i], thetas[i + 1]
            i += 2
            psi = CircleDiffeo(0.0, random_symmetric_hat(rng, 1.2, 1e-7))
            f1 = ck.conjugated_rotation(psi, TWO_PI * th1, 32, 1.0)
            f2 = ck.conjugated_rotation(psi, TWO_PI * th2, 32, 1.0)
            sc = ck.build_genus2(f1, f2, 1.0, eta0=0.05)
            gate = ck.gate_check(sc.system, sc.params)
            m = sc.system.max_hat_majorant(1.0)
            if m >= 0.3 * gate.gate_value:
                s = 0.3 * gate.gate_value / m
                psi = CircleDiffeo(0.0, psi.hat.scale(s))
                f1 = ck.conjugated_rotation(psi, TWO_PI * th1, 32, 1.0)
                f2 = ck.conjugated_rotation(psi, TWO_PI * th2, 32, 1.0)
                sc = ck.build_genus2(f1, f2, 1.0, eta0=0.05)
            scenarios.append(sc)
    return scenarios


def scenario_bytes(sc: Scenario) -> bytes:
    return json.dumps(sc.to_json_dict(), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# library ops: run() (+ extract_simultaneous on genus-2 scenarios)
# ---------------------------------------------------------------------------


def _is_genus2(sc: Scenario) -> bool:
    return len(sc.system.nerve.charts) == 3


def library_op(sc: Scenario):
    """``(RunResult, SimultaneousResult or None)``, or the exception raised:
    any exception is a failed op, not the end of the benchmark."""
    try:
        result = ck.run(sc.system, sc.params)
        if result.converged and _is_genus2(sc):
            return result, ck.extract_simultaneous(result.conjugacy, sc)
        return result, None
    except Exception as exc:
        return exc


def library_check(sc: Scenario, out) -> Outcome:
    if isinstance(out, Exception):
        return _fail(f"{type(out).__name__}: {out}")
    result, sim = out
    if not result.converged:
        return _fail(f"not converged ({result.outcome})")
    residual = result.conjugation_residual
    if not residual <= sc.params.tol:
        return _fail(f"conjugation_residual {residual:.3e} > {sc.params.tol:.0e}",
                     wrong=True)
    if sim is not None:
        worst = max(sim.residuals.values())
        if not worst <= SIMULTANEOUS_TOL:
            return _fail(f"extract_simultaneous residual {worst:.3e} > "
                         f"{SIMULTANEOUS_TOL:.0e}", wrong=True)
        residual = max(residual, worst)
    return Outcome(passed=True, residual=residual)


# ---------------------------------------------------------------------------
# CLI ops: run -> verify -> rotnum on a scenario file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    scenario: Path
    out_dir: Path
    edges: int
    tol: float


def _subprocess_call(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "circlekam.cli", *argv],
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _in_process_call(argv, env):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:
            # what the interpreter does with an uncaught exception: exit 1
            print(f"{type(exc).__name__}: {exc}")
            code = 1
    return code, buf.getvalue()


def cli_op(item: CliItem, env, in_process=False):
    """Returns the (command, exit code, stdout) of each step that ran; the
    chain stops at the first nonzero exit."""
    call = _in_process_call if in_process else _subprocess_call
    conj = item.out_dir / "conjugacy.json"
    steps = (
        ("run", ["run", str(item.scenario), "--out", str(item.out_dir)]),
        ("verify", ["verify", str(conj), str(item.scenario)]),
        ("rotnum", ["rotnum", str(item.scenario)]),
    )
    done = []
    for name, argv in steps:
        try:
            code, stdout = call(argv, env)
        except subprocess.TimeoutExpired:
            done.append((name, None, ""))
            break
        done.append((name, code, stdout))
        if code != 0:
            break
    return done


def cli_check(item: CliItem, out) -> Outcome:
    docs = {}
    for name, code, stdout in out:
        if code is None:
            return _fail(f"{name} timed out after {CLI_TIMEOUT_S:.0f} s")
        if code != 0:
            return _fail(f"{name} exited {code}: {stdout.strip()[:200]}")
        try:
            docs[name] = json.loads(stdout)
        except json.JSONDecodeError:
            return _fail(f"{name} printed no JSON report", wrong=True)
    run_doc, verify_doc, rot_doc = docs["run"], docs["verify"], docs["rotnum"]
    residual = run_doc.get("conjugation_residual")
    if run_doc.get("converged") is not True or not isinstance(residual, float):
        return _fail("run exited 0 without a converged report", wrong=True)
    if not residual <= item.tol:
        return _fail(f"conjugation_residual {residual:.3e} > {item.tol:.0e}",
                     wrong=True)
    if verify_doc.get("outcome") != "verified":
        return _fail(f"verify outcome {verify_doc.get('outcome')!r}", wrong=True)
    rows = rot_doc.get("edges")
    if not isinstance(rows, list) or len(rows) != item.edges:
        return _fail(f"rotnum printed {len(rows or [])} rows for {item.edges} edges",
                     wrong=True)
    return Outcome(passed=True, residual=max(residual, float(verify_doc["residual"])))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def build_genus2_n1024(seed, work_dir):
    rng = _rng(seed, 1)
    return [genus2_pair(rng, 1024, f"genus2_n1024_{i}") for i in range(16)]


def build_thin_annulus(seed, work_dir):
    # sigma0 runs once through a fixed grid over [0.1, 0.3] in seeded order,
    # so every seed meets the same sigma0 values; the hats, rotation numbers
    # and the order come from the seed
    rng = _rng(seed, 2)
    sigmas = rng.permutation(np.linspace(0.1, 0.3, 64))
    thetas = safe_rotation_numbers(rng, sigmas.size)
    return [thin_annulus_map(rng, th, float(s0)) for th, s0 in zip(thetas, sigmas)]


def build_in_gate_sweep(seed, work_dir):
    return in_gate_scenarios(_rng(seed, 3), 100)


def build_cli_session(seed, work_dir):
    rng = _rng(seed, 4)
    items = []
    for i in range(8):
        sc = genus2_pair(rng, 64, f"cli_session_{i}")
        path = work_dir / f"scenario_{i}.json"
        sc.save(path)
        items.append(CliItem(path, work_dir / f"out_{i}", len(sc.system.nerve.edges),
                             sc.params.tol))
    return items


def pool_bytes(workload: str, pool) -> list:
    """Canonical bytes of each scenario, compared across set-ups."""
    if workload == "cli_session":
        return [item.scenario.read_bytes() for item in pool]
    return [scenario_bytes(sc) for sc in pool]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str              # one line, as in BENCHMARK.json
    build: object         # (seed, work_dir) -> pool
    cli: bool = False


# The op of each workload is described in README.md. BENCHMARK.json lists
# only workloads on which no op fails, so it leaves out thin_annulus, where
# defect (a) of README.md fails about one op in six, and in_gate_sweep, whose
# short ops read too unsteady on a host whose speed drifts (README.md gives
# the spreads). Both still run by name.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "genus2_n1024",
            "sparse genus-2 hats at N=1024: cost driven by N through eval_series, "
            "a 2048-mode spectrum and the sup-norm report",
            build_genus2_n1024,
        ),
        Workload(
            "thin_annulus",
            "dense hats analytic only on a thin annulus at N=512: N is large "
            "because the data needs it",
            build_thin_annulus,
        ),
        Workload(
            "in_gate_sweep",
            "many small strict runs at N=64: fixed per-run costs dominate and "
            "every certificate must pass",
            build_in_gate_sweep,
        ),
        Workload(
            "cli_session",
            "the CLI as a user runs it: interpreter and numpy import, JSON I/O "
            "and rotation_number on a genus-2 file",
            build_cli_session,
            cli=True,
        ),
    )
}
