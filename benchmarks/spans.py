"""Outside-in tracing of the circlekam layers.

The tracer wraps public functions of each module from outside the program:
a wrapped function is rebound in every ``circlekam`` module that holds it,
because ``engine``, ``circle`` and the package namespace bind names with
``from .series import eval_series``-style imports, and listed methods are
patched on their classes. ``uninstall`` restores the originals.

Every wrapped call records a span (name, start, end, parent span, op id).
Spans stay in memory until the run ends. Hot, tiny callables are counted
only, without a span, so they add little overhead. Hooks read work counts
off arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

# module -> functions given a span
SPANNED_FUNCTIONS = {
    "series": ("eval_series", "majorant_norm", "log_derivative_majorant",
               "empirical_sup_norm", "decay_check", "coeffs_from_circle"),
    "circle": ("eval_diffeo", "expand_detailed", "compose", "apply_inverse",
               "rotation_number"),
    "cocycle": ("amplification_spectrum", "solve_mode", "fit_diophantine"),
    "engine": ("run", "kam_step", "gate_check", "resolve_c0", "schedule"),
    "scenarios": ("conjugated_rotation", "extract_simultaneous"),
    "cli": ("main",),
}
# (module, class) -> methods given a span
SPANNED_METHODS = {
    ("engine", "Conjugacy"): ("residual",),
    ("scenarios", "Scenario"): ("load",),
}
# callables that are only counted: called tens of thousands of times per run
COUNTED = {
    ("series", "LaurentSeries"): ("coeff",),
    ("cocycle", None): ("mode_matrix",),
}


def _span_name(name, args):
    # cli.main(argv) is named after its subcommand: cli.run, cli.verify, ...
    if name == "cli.main" and args and args[0]:
        return f"cli.{args[0][0]}"
    return name


# -- work counts read at the boundaries --------------------------------------


def _eval_series(counts, args, out):
    s, w = args[0], args[1]
    points = np.size(w)
    counts["series.eval_series.terms"] += s.coeffs.size * points
    counts["series.eval_series.nonzero"] += np.count_nonzero(s.coeffs) * points


def _nonfinite(key):
    def hook(counts, args, out):
        if not math.isfinite(out):
            counts[key] += 1
    return hook


def _apply_inverse(counts, args, out):
    counts["circle.apply_inverse.points"] += np.size(args[1])


def _amplification_spectrum(counts, args, out):
    counts["cocycle.amplification_spectrum.modes"] += len(out)


def _kam_step(counts, args, out):
    report, params = out[2], args[2]
    counts["engine.modes_solved"] += report.modes_solved
    counts["engine.mode_slots"] += 2 * params.n_trunc
    counts["engine.certificate_violations"] += len(report.violations)
    counts["engine.nonfinite_certificates"] += sum(
        not (math.isfinite(rec.lhs) and math.isfinite(rec.rhs))
        for rec in report.certificates.values()
    )


def _run(counts, args, out):
    counts["engine.steps"] += out.steps
    counts["engine.runs"] += 1


HOOKS = {
    "series.eval_series": _eval_series,
    "series.majorant_norm": _nonfinite("series.majorant_norm.nonfinite"),
    "series.log_derivative_majorant": _nonfinite("series.log_derivative_majorant.nonfinite"),
    "circle.apply_inverse": _apply_inverse,
    "cocycle.amplification_spectrum": _amplification_spectrum,
    "engine.kam_step": _kam_step,
    "engine.run": _run,
}


class Tracer:
    """Span and count recorder. ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op)
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (_span_name(name, args), t0, t1, parent, self.op)
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_function(self, modname, fname, make):
        """Wrap ``circlekam.<modname>.<fname>`` and rebind it wherever a
        circlekam module holds the same object."""
        original = getattr(importlib.import_module(f"circlekam.{modname}"), fname)
        wrapped = make(f"{modname}.{fname}", original)
        for mod in circlekam_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def _rebind_method(self, modname, clsname, meth, make):
        cls = getattr(importlib.import_module(f"circlekam.{modname}"), clsname)
        raw = cls.__dict__[meth]
        name = f"{modname}.{clsname}.{meth}"
        if isinstance(raw, classmethod):
            self._patch(cls, meth, classmethod(make(name, raw.__func__)))
        else:
            self._patch(cls, meth, make(name, raw))

    def install(self):
        """Wrap every listed callable; raises if one no longer resolves in
        circlekam, so that a rename cannot silently drop a layer."""
        for modname, names in SPANNED_FUNCTIONS.items():
            for fname in names:
                self._rebind_function(modname, fname, self._spanned)
        for (modname, clsname), names in SPANNED_METHODS.items():
            for meth in names:
                self._rebind_method(modname, clsname, meth, self._spanned)
        for (modname, clsname), names in COUNTED.items():
            for name in names:
                if clsname is None:
                    self._rebind_function(modname, name, self._counted)
                else:
                    self._rebind_method(modname, clsname, name, self._counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def totals(self, ops):
        """Per span name: calls, self seconds and wall seconds, plus the
        seconds covered by top-level spans, over the spans of ``ops``."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wall = defaultdict(float)
        top = 0.0
        for (name, t0, t1, parent, op), s in zip(self.spans, self.self_times()):
            if op not in ops:
                continue
            calls[name] += 1
            self_s[name] += s
            wall[name] += t1 - t0
            if parent < 0:
                top += t1 - t0
        return calls, self_s, wall, top


def circlekam_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "circlekam" or n.startswith("circlekam."))]
