"""Hypothesis fuzzing of the CLI, in process.

Every command, on any document or argument, must end in exit 0, 2 or 3 and
print strict JSON: never a traceback, never a bare NaN or Infinity token.
The documents are a valid genus-2 N=64 scenario and the conjugacy a
converged run of it writes, each with one node replaced by a value from a
fixed hostile list; the seeded examples are documents and arguments that
once crashed a command or passed a malformed value silently.

No value above 1e3 lands in an integer position (``N``, ``max_iter``,
``--iters``, ``--modes``): a huge ``N`` allocates arrays of length 2N+1.
Sizes too large for memory are tested on their own, only at 10^12, which
numpy refuses to allocate at once.
"""

import contextlib
import copy
import io
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlekam import CircleDiffeo, LaurentSeries, build_genus2, conjugated_rotation
from circlekam.cli import main

from conftest import GOLDEN, SILVER

TWO_PI = 2.0 * np.pi

HOSTILE = [None, True, "x", [], {}, math.nan, math.inf, -math.inf, -1, 0, 0.5, 64.7]
DELETE = "<delete>"   # an edit value that removes the node
COMMANDS = ("run", "gate", "rotnum", "dioph", "verify")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _paths(node, prefix=()):
    """Every node of a JSON document below the root, as key/index paths."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _edited(doc, edits):
    """A copy of ``doc`` with each (path, value) edit applied; an integer
    path picks a node by its index among all paths, and a callable value
    maps the node's old value to its new one."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    for path, value in edits:
        if isinstance(path, int):
            path = paths[path % len(paths)]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    return doc


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """The scenario and conjugacy documents, and the files a command reads."""
    work = tmp_path_factory.mktemp("fuzz")
    psi = CircleDiffeo(0.0, LaurentSeries.from_coeffs(
        {1: 3e-5 * (1 + 0.7j), -1: -3e-5 * (1 - 0.7j)}, width=1.2))
    sc = build_genus2(conjugated_rotation(psi, TWO_PI * GOLDEN, 64, 1.0),
                      conjugated_rotation(psi, TWO_PI * SILVER, 64, 1.0),
                      1.0, eta0=0.05, strict_schedule=False)
    scenario = work / "pair.json"
    sc.save(scenario)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(scenario), "--out", str(work / "base")]) == 0
    conjugacy = work / "conjugacy.json"
    conjugacy.write_text((work / "base" / "conjugacy.json").read_text())
    return SimpleNamespace(
        work=work, scenario_path=scenario, conjugacy_path=conjugacy,
        scenario=json.loads(scenario.read_text()),
        conjugacy=json.loads(conjugacy.read_text()))


def _check(argv):
    """Run the CLI; the exit code must be 0, 2 or 3 and stdout strict JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), np.errstate(all="ignore"):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3), (argv, out.getvalue())
    json.loads(out.getvalue(), parse_constant=_reject_constant)


def _widths(value, drop_eta0=True):
    """Every width of the genus-2 scenario set to ``value``."""
    edits = [(("width",), value), (("params", "sigma0"), value)]
    edits += [(("edges", i, "hat", "sigma"), value) for i in range(4)]
    return edits + [(("params", "eta0"), DELETE)] * drop_eta0


one_edit = st.tuples(st.integers(0, 10**6), st.sampled_from(HOSTILE)).map(lambda e: [e])


@settings(max_examples=60, deadline=None)
@given(edits=one_edit, command=st.sampled_from(COMMANDS))
# params of the wrong type, once converted with bool() and int()
@example(edits=[(("params", "strict_schedule"), None)], command="run")
@example(edits=[(("params", "strict_schedule"), "false")], command="rotnum")
@example(edits=[(("params", "N"), 64.7)], command="run")
@example(edits=[(("params", "N"), True)], command="rotnum")
@example(edits=[(("params", "max_iter"), 2.9)], command="run")
# hat truncations and indices cut by int(), numbers given as booleans, an
# integer past float range, an infinite tol or C0
@example(edits=[(("edges", 0, "hat", "N"), 64.7)], command="run")
@example(edits=[(("edges", 0, "hat", "N"), True)], command="run")
@example(edits=[(("edges", 0, "hat", "coeffs", 0, 0), -2.5)], command="run")
@example(edits=[(("params", "tol"), True)], command="run")
@example(edits=[(("params", "tol"), 10**400)], command="run")
@example(edits=[(("params", "tol"), math.inf)], command="run")
@example(edits=[(("params", "C0"), math.inf)], command="run")
@example(edits=[(("params", "C0"), True)], command="gate")
@example(edits=[(("width",), True)], command="run")
@example(edits=[(("edges", 0, "phase"), True)], command="run")
# schedule constants past float range
@example(edits=_widths(1e-17), command="run")
@example(edits=_widths(1e-17), command="gate")
@example(edits=_widths(710.0, drop_eta0=False), command="run")
@example(edits=_widths(710.0, drop_eta0=False), command="gate")
@example(edits=[(("params", "mu"), 200.0), (("params", "eta0"), DELETE)], command="run")
@example(edits=[(("params", "mu"), 200.0), (("params", "eta0"), DELETE)], command="gate")
@example(edits=_widths(1e-3) + [(("params", "mu"), 120.0)], command="run")
@example(edits=_widths(1e-3) + [(("params", "mu"), 120.0)], command="gate")
# outputs that are not a list of known names
@example(edits=[(("outputs",), "trace")], command="run")
@example(edits=[(("outputs",), ["trace", "conjugacy", "diagnostic"])], command="run")
# the malformed documents of the earlier baseline
@example(edits=[(("params", "eta0"), "x")], command="run")
@example(edits=[(("edges", 0, "phase"), None)], command="rotnum")
@example(edits=[(("edges",), "abc")], command="run")
@example(edits=[(("edges", 0, "hat", "coeffs", 0, 1), math.nan)], command="run")
def test_scenario_documents(docs, edits, command):
    path = docs.work / "scenario.json"
    path.write_text(json.dumps(_edited(docs.scenario, edits)))
    argv = {
        "run": ["run", path, "--out", docs.work / "out"],
        "gate": ["gate", path],
        "rotnum": ["rotnum", path, "--iters", 1000],
        "dioph": ["dioph", path],
        "verify": ["verify", docs.conjugacy_path, path],
    }[command]
    _check(argv)


@settings(max_examples=30, deadline=None)
@given(edits=one_edit)
# the malformed conjugacy documents of the earlier baseline
@example(edits=[(("linear_cocycle", "edges", 0, "phase"), None)])
@example(edits=[(("linear_cocycle", "edges", 0, "phase"), math.nan)])
@example(edits=[(("charts", "U0", "phase"), math.inf)])
@example(edits=[(("charts", "U0", "phase"), "x")])
@example(edits=[(("charts", "U0", "hat", "coeffs", 0, 1), math.nan)])
@example(edits=[(("charts",), ["U0"])])
@example(edits=[(("final_width",), DELETE)])
@example(edits=[(("final_width",), True)])
@example(edits=[(("linear_cocycle", "edges", 0, "phase"), True)])
@example(edits=[(("charts", "U0", "phase"), True)])
# the +-1e308 chart: a non-finite residual
@example(edits=[(("charts", "U1", "hat", "coeffs"), [[40, 1e308, 0.0], [-40, -1e308, 0.0]])])
def test_conjugacy_documents(docs, edits):
    path = docs.work / "conjugacy_edited.json"
    path.write_text(json.dumps(_edited(docs.conjugacy, edits)))
    _check(["verify", path, docs.scenario_path])


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(("verify", "rotnum", "dioph")),
       samples=st.sampled_from([-5, 0, 1, 7, 128]),
       tol=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-8"]),
       iters=st.sampled_from([-1, 0, 999, 1000]),
       modes=st.sampled_from([-1, 0, 1, 64, 1000]),
       mu=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "2", "64.7"]))
@example(command="verify", samples=0, tol="1e-8", iters=1000, modes=0, mu="2")
@example(command="verify", samples=-5, tol="1e-8", iters=1000, modes=0, mu="2")
@example(command="dioph", samples=128, tol="1e-8", iters=1000, modes=0, mu="nan")
@example(command="dioph", samples=128, tol="1e-8", iters=1000, modes=0, mu="inf")
def test_arguments(docs, command, samples, tol, iters, modes, mu):
    # the --flag=value form, so that argparse reads "-inf" as a value
    _check({
        "verify": ["verify", docs.conjugacy_path, docs.scenario_path,
                   f"--samples={samples}", f"--tol={tol}"],
        "rotnum": ["rotnum", docs.scenario_path, f"--iters={iters}"],
        "dioph": ["dioph", docs.scenario_path, f"--modes={modes}", f"--mu={mu}"],
    }[command])


HUGE = 10**12
# a hat of truncation HUGE costs its band: only a coefficient at |n| = HUGE
# makes the band itself too large for memory
HUGE_HAT = [(("edges", 0, "hat", "N"), HUGE),
            (("edges", 0, "hat", "coeffs"), lambda c: c + [[HUGE, 1e-30, 0.0]])]


@pytest.mark.parametrize("edit,argv", [
    (HUGE_HAT, ["run", "{scenario}", "--out", "{out}"]),
    (HUGE_HAT, ["gate", "{scenario}"]),
    (HUGE_HAT, ["rotnum", "{scenario}"]),
    (HUGE_HAT, ["verify", "{conjugacy}", "{scenario}"]),
    ([(("params", "N"), HUGE)], ["run", "{scenario}", "--out", "{out}"]),
    ([(("params", "N"), HUGE)], ["gate", "{scenario}"]),
    (None, ["dioph", "{scenario}", f"--modes={HUGE}"]),
    (None, ["verify", "{conjugacy}", "{scenario}", f"--samples={HUGE}"]),
    (None, ["rotnum", "{scenario}", f"--iters={HUGE}"]),
])
def test_sizes_beyond_memory(docs, edit, argv):
    """A size no machine can allocate ends in exit 2 with strict JSON, an
    outcome validation_error and the refused size in the message, never in
    a traceback; ``run`` writes its diagnostics file too."""
    path = docs.work / "huge.json"
    path.write_text(json.dumps(_edited(docs.scenario, edit or [])))
    out_dir = docs.work / "out_huge"
    names = {"scenario": path, "conjugacy": docs.conjugacy_path, "out": out_dir}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(**names) for a in argv])
    doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert code == 2, doc
    assert doc["outcome"] == "validation_error"
    assert doc["message"].startswith("input too large for memory")
    assert re.search(r"\d{12}", doc["message"]), doc["message"]
    if argv[0] == "run":
        assert json.loads((out_dir / "diagnostics.json").read_text()) == doc
