#!/usr/bin/env python3
"""circlekam benchmark: time to a certified conjugacy, end to end and by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S
    python3 benchmarks/run.py --smoke

Run it from the repository root; it imports circlekam from ``src/`` there and
exits 2 when that is missing. One invocation runs one workload (see
``workloads.py``) in one process with one caller in a closed loop:

1. set-up: the seed becomes the workload's scenario pool through the public
   builders, ``SETUP_REPEATS`` times; every build must give byte-identical
   scenario JSON, and ``setup_s`` is the median build time;
2. one untimed warm-up op, then ops cycle through the pool until ``--seconds``
   have passed; each op is timed alone and checked after its timer stops.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1`` the
first half of the time runs untraced and the second half under the
outside-in tracer (``spans.py``), and the per-layer metrics are reported,
each per op; the spans are written to ``.bench_out/`` when the run ends.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An op fails if it raises, does not
converge, exits with an unexpected code or fails a check; ``correct`` is false
if an op reported success and failed a check, or if two set-ups of one seed
differ. ``--workload all`` runs every workload in its own process and prints
one table; ``--smoke`` runs every workload briefly with all checks on and
checks the harness itself.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and its children, set before numpy
# loads, so that the numbers measure the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11
IMPORT_REPEATS = 5

# name -> unit; these are the end_to_end metrics of BENCHMARK.json
END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
}
# printed with the end-to-end metrics but kept out of BENCHMARK.json:
# failed_share is 0 on the workloads there (the result line carries it as
# `failed`), and op_tail_s is infinite while more than ten ops of a run fail
REPORTED_ONLY = {"op_tail_s": "s", "failed_share": "ratio"}

# name -> unit; these are the per_layer metrics of BENCHMARK.json, per op
PER_LAYER = {
    "series.eval_series.calls": "count",
    "series.eval_series.self_s": "s",
    "series.eval_series.terms": "count",
    "series.eval_series.nonzero_share": "ratio",
    "series.empirical_sup_norm.calls": "count",
    "series.empirical_sup_norm.self_s": "s",
    "series.majorant_norm.calls": "count",
    "series.majorant_norm.self_s": "s",
    "series.majorant_norm.nonfinite": "count",
    "series.log_derivative_majorant.calls": "count",
    "series.log_derivative_majorant.nonfinite": "count",
    "series.decay_check.calls": "count",
    "series.decay_check.self_s": "s",
    "series.coeffs_from_circle.calls": "count",
    "series.coeffs_from_circle.self_s": "s",
    "series.LaurentSeries.coeff.calls": "count",
    "circle.expand_detailed.calls": "count",
    "circle.expand_detailed.self_s": "s",
    "circle.compose.calls": "count",
    "circle.compose.self_s": "s",
    "circle.eval_diffeo.calls": "count",
    "circle.eval_diffeo.self_s": "s",
    "circle.apply_inverse.calls": "count",
    "circle.apply_inverse.self_s": "s",
    "circle.apply_inverse.points": "count",
    "circle.rotation_number.calls": "count",
    "circle.rotation_number.self_s": "s",
    "cocycle.amplification_spectrum.calls": "count",
    "cocycle.amplification_spectrum.self_s": "s",
    "cocycle.amplification_spectrum.modes": "count",
    "cocycle.mode_matrix.calls": "count",
    "cocycle.solve_mode.calls": "count",
    "cocycle.solve_mode.self_s": "s",
    "cocycle.fit_diophantine.self_s": "s",
    "engine.run.self_s": "s",
    "engine.kam_step.calls": "count",
    "engine.kam_step.self_s": "s",
    "engine.gate_check.self_s": "s",
    "engine.Conjugacy.residual.self_s": "s",
    "engine.resolve_c0.calls": "count",
    "engine.schedule.calls": "count",
    "engine.schedule.self_s": "s",
    "engine.steps": "count",
    "engine.modes_solved_share": "ratio",
    "engine.nonfinite_certificates": "count",
    "engine.certificate_violations": "count",
    "scenarios.conjugated_rotation.calls": "count",
    "scenarios.conjugated_rotation.self_s": "s",
    "scenarios.extract_simultaneous.self_s": "s",
    "scenarios.Scenario.load.self_s": "s",
    "cli.import_s": "s",
    "cli.run.wall_s": "s",
    "cli.verify.wall_s": "s",
    "cli.rotnum.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}
# measured over one traced build of the pool instead of per op
SETUP_LAYERS = ("scenarios.conjugated_rotation",)


def _import_library():
    """Import circlekam from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import circlekam
    except ImportError as exc:
        print(f"benchmark: cannot import circlekam from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(circlekam.__file__).resolve().parent != SRC / "circlekam":
        print(f"benchmark: circlekam resolved to {circlekam.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("circlekam/*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def _ranked(samples):
    """Op times with every failed op ranked above every passed one."""
    return sorted(dt if oc.passed else math.inf for dt, oc in samples)


def op_p50(samples):
    return statistics.median(_ranked(samples))


def op_tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or (None, None) with ten samples or fewer."""
    ranked = _ranked(samples)
    n = len(ranked)
    if n <= 10:
        return None, None
    return ranked[n - 11], 100.0 * (n - 10) / n


def _finite(x):
    return x if x is not None and math.isfinite(x) else None


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def set_up(workload, seed, work_dir):
    """Build the pool SETUP_REPEATS times. Returns the build times, the last
    pool, whether every build gave the same scenario bytes, and their sha256."""
    import workloads

    times, first, pool = [], None, None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = workload.build(seed, work_dir)
        times.append(time.perf_counter() - t0)
        blobs = workloads.pool_bytes(workload.name, pool)
        first = first if first is not None else blobs
        if blobs != first:
            return times, pool, False, None
    digest = hashlib.sha256(b"".join(first)).hexdigest()
    return times, pool, True, digest


def _op_functions(workload, in_process):
    import workloads

    if workload.cli:
        env = child_env()
        return (lambda item: workloads.cli_op(item, env, in_process=in_process),
                workloads.cli_check)
    return workloads.library_op, workloads.library_check


def closed_loop(call, check, pool, seconds, tracer=None):
    """Ops over the pool, one at a time, until ``seconds`` have passed.
    Returns [(op seconds, Outcome)]; checks run outside the op timer."""
    samples = []
    start = time.perf_counter()
    i = 0
    while True:
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        out = call(item)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        samples.append((dt, check(item, out)))
        i += 1
        if time.perf_counter() - start >= seconds:
            return samples


def _import_seconds():
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import circlekam"], env=child_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(workload, samples, setup_times):
    passed = [(dt, oc) for dt, oc in samples if oc.passed]
    usage = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    residuals = [oc.residual for _, oc in passed]
    tail, _ = op_tail(samples)
    metrics = {
        "op_p50_s": _finite(op_p50(samples)),
        "ops_per_s": len(passed) / sum(dt for dt, _ in samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "residual_digits": -math.log10(max(residuals)) if residuals else None,
        "op_tail_s": _finite(tail),
        "failed_share": (len(samples) - len(passed)) / len(samples),
    }
    return metrics


def per_layer(ops_tracer, setup_tracer, traced, untraced, import_s):
    n = len(traced)
    calls, self_s, wall, top = ops_tracer.totals(set(range(n)))
    s_calls, s_self, _, _ = setup_tracer.totals({None})
    counts = ops_tracer.counts
    out = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in SETUP_LAYERS:
            out[name] = {"calls": s_calls, "self_s": s_self}[stat][layer]
        elif stat == "calls":
            # spanned callables count spans, count-only ones count calls
            out[name] = (calls[layer] + counts[name]) / n
        elif stat == "self_s":
            out[name] = self_s[layer] / n
        elif stat == "wall_s":
            out[name] = wall[layer] / n
        else:
            out[name] = counts[name] / n
    terms = counts["series.eval_series.terms"]
    out["series.eval_series.nonzero_share"] = (
        counts["series.eval_series.nonzero"] / terms if terms else 0.0)
    slots = counts["engine.mode_slots"]
    out["engine.modes_solved_share"] = counts["engine.modes_solved"] / slots if slots else 0.0
    runs = counts["engine.runs"]
    out["engine.steps"] = counts["engine.steps"] / runs if runs else 0.0
    out["cli.import_s"] = import_s
    out["trace.coverage"] = top / sum(dt for dt, _ in traced)
    # both halves cycle the pool from the same start, so failed ops enter
    # at their measured time here
    out["trace.overhead"] = (statistics.median(dt for dt, _ in traced)
                             / statistics.median(dt for dt, _ in untraced))
    return out


def _write_spans(path, env, tracer, setup_tracer, samples):
    doc = {
        "env": env,
        "fields": ["name", "start", "end", "parent", "op"],
        "setup_spans": setup_tracer.spans,
        "spans": tracer.spans,
        "ops": [{"seconds": dt, "passed": oc.passed, "reason": oc.reason}
                for dt, oc in samples],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def run_one(name, seed, seconds, traced):
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work_dir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, pool, identical, digest = set_up(workload, seed, work_dir)
        print(f"scenarios {len(pool)} sha256 {digest}")
        if not identical:
            print("set-ups of one seed gave different scenario JSON")
        call, check = _op_functions(workload, in_process=traced and workload.cli)
        call(pool[0])  # warm-up, not counted

        if not traced:
            samples = closed_loop(call, check, pool, seconds)
            metrics = end_to_end(workload, samples, setup_times)
            units = {**END_TO_END, **REPORTED_ONLY}
            for key, value in metrics.items():
                print(f"metric {key} {value} {units[key]}")
            pct = op_tail(samples)[1]
            print(f"ops {len(samples)}; op_tail_s "
                  + (f"at p{pct:.1f}" if pct else "needs more than ten ops"))
            reported = {k: metrics[k] for k in END_TO_END}
            report_units = END_TO_END
        else:
            untraced = closed_loop(call, check, pool, seconds / 2.0)
            setup_tracer = spans.Tracer()
            setup_tracer.install()
            try:
                workload.build(seed, work_dir)
            finally:
                setup_tracer.uninstall()
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_samples = closed_loop(call, check, pool, seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            import_s = _import_seconds() if workload.cli else 0.0
            reported = per_layer(tracer, setup_tracer, traced_samples, untraced, import_s)
            report_units = PER_LAYER
            samples = untraced + traced_samples
            for key in PER_LAYER:
                print(f"layer {key} {reported[key]} {PER_LAYER[key]}")
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            _write_spans(spans_path, env, tracer, setup_tracer, traced_samples)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = {}
    for _, oc in samples:
        if not oc.passed:
            kind = oc.reason.split(":", 1)[0]
            failures[kind] = failures.get(kind, 0) + 1
    print("failures " + json.dumps(failures, sort_keys=True))
    wrong = [oc.reason for _, oc in samples if oc.wrong]
    for reason in wrong[:5]:
        print(f"incorrect output: {reason}")
    correct = identical and not wrong
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": sum(not oc.passed for _, oc in samples),
        "metrics": {k: {"value": reported[k], "unit": report_units[k]}
                    for k in report_units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload / smoke
# ---------------------------------------------------------------------------


def _child(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result, proc.stderr


def run_all(seed, seconds, trace):
    import workloads

    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        code, lines, result, stderr = _child(name, seed, seconds, trace)
        if code != 0 or result is None:
            status = 1
            print(f"{name}: exit {code}\n{stderr[-2000:]}")
            continue
        shown = [ln for ln in lines if ln.startswith(("metric ", "layer ", "ops ",
                                                      "failures "))]
        rows.append((name, result, shown))
    for name, result, shown in rows:
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for ln in shown:
            print("   " + ln)
        status |= 0 if result["correct"] else 1
    return status


def smoke():
    """Each workload briefly, traced and untraced, with every check on."""
    import circlekam.series
    import spans
    import workloads

    problems = []
    original = circlekam.series.eval_series
    tracer = spans.Tracer()
    try:
        tracer.install()
    except (AttributeError, KeyError) as exc:
        problems.append(f"a traced name no longer resolves in circlekam: {exc!r}")
    finally:
        tracer.uninstall()
    if circlekam.series.eval_series is not original:
        problems.append("uninstall did not restore the traced functions")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layers = [m["name"] for m in bench["per_layer"]]
    if declared_e2e != list(END_TO_END):
        problems.append("end_to_end metrics differ from BENCHMARK.json")
    if declared_layers != list(PER_LAYER):
        problems.append("per_layer metrics differ from BENCHMARK.json")
    if not {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.py lacks")
    for name in workloads.WORKLOADS:
        digests = []
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            code, lines, result, stderr = _child(name, 1, 1, trace)
            label = f"{name} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}: {stderr[-500:]}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result}")
            if list(result["metrics"]) != list(expected):
                problems.append(f"{label}: metric names differ")
            digests += [ln for ln in lines if ln.startswith("scenarios ")]
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
        if len(set(digests)) != 1:
            problems.append(f"{name}: scenario JSON differs between processes: {digests}")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    _import_library()
    sys.exit(main())
