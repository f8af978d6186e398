"""The benchmark tracer (``benchmarks/spans.py``) wraps circlekam callables
by name and raises when one no longer resolves: a deleted or renamed name
fails here, and not only in the benchmark's smoke run."""

import importlib
import sys
from pathlib import Path

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
sys.path.insert(0, BENCHMARKS)
try:
    import spans
finally:
    sys.path.remove(BENCHMARKS)


def _listed():
    """(owner, attribute) of every callable the tracer wraps or counts."""
    for modname, names in spans.SPANNED_FUNCTIONS.items():
        mod = importlib.import_module(f"circlekam.{modname}")
        yield from ((mod, name) for name in names)
    for table in (spans.SPANNED_METHODS, spans.COUNTED):
        for (modname, clsname), names in table.items():
            mod = importlib.import_module(f"circlekam.{modname}")
            owner = mod if clsname is None else getattr(mod, clsname)
            yield from ((owner, name) for name in names)


def test_every_listed_name_resolves_and_is_restored():
    listed = list(_listed())
    missing = [f"{owner.__name__}.{name}" for owner, name in listed if name not in vars(owner)]
    assert not missing

    def snapshot():
        state = {(owner, name): vars(owner)[name] for owner, name in listed}
        state.update({(mod, attr): value for mod in spans.circlekam_modules()
                      for attr, value in vars(mod).items()})
        return state

    before = snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = snapshot()
    finally:
        tracer.uninstall()
    after = snapshot()
    assert all(during[key] is not before[key] for key in listed)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
