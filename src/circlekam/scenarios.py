"""Scenario ingestion and the two built-in scenario families.

A scenario is one self-contained JSON document: nerve combinatorics, per-edge
transition maps, and iteration parameters. The single-chart family puts one
self-loop on one chart (classical linearization of a single circle map); the
genus-2 suspension family puts three charts with doubled overlaps to chart 0,
the plus copies carrying the two maps and the minus copies the identity, so
that a converged run collapses to a single common conjugator and linearizes
both maps at once.

Documents cross one reader and one strict writer: :func:`read_document` reads
UTF-8 JSON (RFC 8259), :func:`write_document` and :meth:`Scenario.save` write
:func:`dumps`; a failure raises :class:`SchemaError` or :class:`ValidationError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circle import (
    CircleDiffeo,
    apply_inverses,
    eval_diffeos,
    identity_map,
    unit_circle,
)
# builds the genus-2 pairs; it lives in circle beside invert, whose row
# sampling it shares
from .circle import conjugated_rotation
from .cocycle import Edge, Nerve, TransitionSystem
from .engine import Conjugacy, KamParams
from .errors import ExtractionError, SchemaError, ValidationError
from .series import LaurentSeries, _real

TWO_PI = 2.0 * np.pi

# What ``circlekam run`` can write, and writes when a scenario does not list
# its outputs.
OUTPUTS = ("trace", "conjugacy", "diagnostics")

# Unit-circle samples of the extraction residuals, and the largest chart
# collapse residual :func:`extract_simultaneous` accepts.
SIMULTANEOUS_SAMPLES = 128
COLLAPSE_TOL = 1e-8


def _finite(obj):
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def dumps(doc: dict) -> str:
    """Strict JSON: a NaN or infinite float is written as null."""
    return json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)


def read_document(path, what: str):
    """The JSON document in the UTF-8 file ``path``; ``ValueError`` covers bytes
    that are not UTF-8, malformed JSON and an integer past ``int``'s digit limit."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from exc


def write_document(path, doc: dict | str) -> None:
    """Write a string, or a dict as :func:`dumps` does; a bad path raises ValidationError."""
    try:
        Path(path).write_text(doc if isinstance(doc, str) else dumps(doc), encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    name: str
    system: TransitionSystem
    params: KamParams
    outputs: tuple = OUTPUTS

    def to_json_dict(self) -> dict:
        maps = self.system.transitions
        return {
            "schema": 1,
            "name": self.name,
            "width": float(self.system.width),
            **self.system.nerve.to_json_dict(f.to_json_dict() for f in maps),
            "params": self.params.to_json_dict(),
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scenario":
        """Parse and validate a scenario document.

        Every type or value failure of the document, including non-finite
        widths, phases and hat coefficients, raises :class:`SchemaError`.
        """
        if not isinstance(doc, dict) or doc.get("schema") != 1:
            schema = doc.get("schema") if isinstance(doc, dict) else doc
            raise SchemaError(f"unsupported scenario schema {schema!r}")
        try:
            width = _real(doc["width"])
            transitions = tuple(CircleDiffeo.from_json_dict(ed) for ed in doc["edges"])
            nerve = Nerve.from_json_dict(doc)
            params = KamParams.from_json_dict(doc.get("params", {}), sigma0=width)
            outputs = doc.get("outputs", list(OUTPUTS))
            if not (isinstance(outputs, list)
                    and all(isinstance(o, str) and o in OUTPUTS for o in outputs)):
                raise SchemaError(f"outputs must be a list of names from {list(OUTPUTS)}, "
                                  f"got {outputs!r}")
        except KeyError as exc:
            raise SchemaError(f"scenario document missing field {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"bad scenario document: {exc}") from exc
        system = TransitionSystem(nerve, transitions, width)
        if abs(params.sigma0 - width) > 1e-12:
            raise ValidationError(
                f"params sigma0 {params.sigma0} disagrees with system width {width}"
            )
        return cls(name=str(doc.get("name", "scenario")), system=system,
                   params=params, outputs=tuple(outputs))

    def save(self, path) -> None:
        write_document(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_json_dict(read_document(path, "scenario"))

    def with_strict(self, strict: bool) -> "Scenario":
        return replace(self, params=replace(self.params, strict_schedule=strict))


def build_single_chart(
    theta: float,
    hat: LaurentSeries,
    sigma0: float,
    *,
    name: str = "single_chart",
    **params,
) -> Scenario:
    """One chart, one self-loop of phase ``2 pi theta`` carrying ``hat``:
    classical linearization of a single circle diffeomorphism. ``params``
    are any :class:`KamParams` fields but ``sigma0``."""
    if hat.width < sigma0:
        raise ValidationError(
            f"hat width {hat.width:.6g} is below the requested sigma0 {sigma0:.6g}"
        )
    loop = CircleDiffeo(TWO_PI * theta, hat.with_width(sigma0))
    nerve = Nerve(("U0",), (Edge("U0", "U0", "loop"),), ())
    system = TransitionSystem(nerve, (loop,), sigma0)
    return Scenario(name=name, system=system, params=KamParams(sigma0, **params))


def build_genus2(
    f1: CircleDiffeo,
    f2: CircleDiffeo,
    sigma0: float,
    *,
    name: str = "genus2",
    **params,
) -> Scenario:
    """Genus-2 suspension nerve: charts U0, U1, U2; doubled overlaps between
    U0 and each U_j, the plus copy carrying f_j and the minus copy the
    identity; the triple overlap is empty. ``params`` are any
    :class:`KamParams` fields but ``sigma0``."""
    maps = []
    for f in (f1, f2):
        if f.width < sigma0:
            raise ValidationError(
                f"transition width {f.width:.6g} below sigma0 {sigma0:.6g}"
            )
        maps.append(CircleDiffeo(f.phase, f.hat.with_width(sigma0)))
    nerve = Nerve(
        ("U0", "U1", "U2"),
        (
            Edge("U0", "U1", "+"),
            Edge("U0", "U1", "-"),
            Edge("U0", "U2", "+"),
            Edge("U0", "U2", "-"),
        ),
        (),
    )
    system = TransitionSystem(
        nerve,
        (maps[0], identity_map(sigma0), maps[1], identity_map(sigma0)),
        sigma0,
    )
    return Scenario(name=name, system=system, params=KamParams(sigma0, **params))


@dataclass(frozen=True)
class SimultaneousResult:
    """Common conjugator extracted from a converged genus-2 run."""

    psi0: CircleDiffeo
    rotations: tuple            # limit phases of the two plus edges
    residuals: dict             # per chart linearization residual + collapse

    def to_json_dict(self) -> dict:
        return {
            "psi0": self.psi0.to_json_dict(),
            "rotations": [float(r) for r in self.rotations],
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


def extract_simultaneous(conj: Conjugacy, scenario: Scenario) -> SimultaneousResult:
    """Collapse a genus-2 conjugacy to the single common conjugator psi0.

    The minus edges carry identities, so the converged coordinate changes of
    all three charts must agree; their disagreement is the collapse residual
    and exceeding :data:`COLLAPSE_TOL` raises. The returned residuals certify
    ``psi0^{-1} o f_j o psi0 = rotation`` on :data:`SIMULTANEOUS_SAMPLES`
    unit-circle points. A NaN or infinite collapse or linearization residual
    raises too, and so does a conjugacy over another nerve than the
    scenario's (:meth:`Conjugacy.check_nerve`).
    """
    conj.check_nerve(scenario.system)
    nerve = scenario.system.nerve
    if len(nerve.charts) != 3:
        raise ValidationError("not a genus-2 scenario: expected three charts")
    base = nerve.charts[0]
    plus_edges = {}
    for e in nerve.edges:
        if e.src == base and e.label == "+":
            plus_edges[e.dst] = e
    if len(plus_edges) != 2:
        raise ValidationError("not a genus-2 scenario: expected two plus edges")

    u = unit_circle(SIMULTANEOUS_SAMPLES)
    psi0 = conj.charts[base]
    vals = eval_diffeos([conj.charts[c] for c in nerve.charts], u)
    collapse = float(np.max(np.abs(vals[1:] - vals[0]), initial=0.0))
    if not collapse <= COLLAPSE_TOL:
        raise ExtractionError(
            f"chart collapse residual {collapse:.3e} exceeds {COLLAPSE_TOL:.0e}; "
            "minus-edge relation does not hold"
        )

    plus = [plus_edges[c] for c in nerve.charts[1:]]
    rotations = [float(conj.linear_cocycle.phase_of(e)) for e in plus]
    images = eval_diffeos([scenario.system.transition_of(e) for e in plus],
                          np.broadcast_to(vals[0], (len(plus), u.size)))
    lhs = apply_inverses([psi0] * len(plus), images)
    gaps = np.max(np.abs(lhs - np.exp(1j * np.array(rotations))[:, None] * u), axis=-1)
    if not np.all(np.isfinite(gaps)):
        raise ExtractionError("linearization residual is not finite")
    residuals = {"collapse": collapse}
    residuals.update(zip(nerve.charts[1:], gaps.tolist()))
    return SimultaneousResult(
        psi0=psi0, rotations=tuple(rotations), residuals=residuals
    )
