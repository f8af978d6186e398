"""Covering nerves, unitary flat bundles of phases, and the per-mode
coboundary solver with its small-divisor amplification.

The mode-n equation system on a nerve is ``e^{i n phi_e} a_k - a_j = b_e``
over one unknown per chart, one equation per oriented edge ``j -> k``. Its
solvability and the growth of its solutions with n are the numerical face of
the arithmetic condition on the bundle: a loop whose n-twisted holonomy is
trivial makes the mode resonant, and the operator norm of the solution map is
the amplification ``A_n`` that the iteration schedule has to dominate with a
power law ``C0 |n|^(mu-1)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .circle import CircleDiffeo
from .errors import (
    NerveError,
    PathError,
    ResonantModeError,
    CoboundaryError,
    ValidationError,
)
from .series import _real, majorants

TWO_PI = 2.0 * np.pi

# Relative floor under which a mode system counts as rank deficient. Matrix
# entries are unimodular, so the absolute scale max(1, s_max) is the right
# reference even for 1x1 systems.
RANK_RCOND = 1e-12

# Round-off margin of the pruning bound, in units of u (C + E) for C charts
# and E edges, u the unit round-off. Forming ``G_n`` from the floating mode
# entries and factoring it as L D L^H perturb it by at most about
# (C + E + 2) u tr G_n in the 2-norm (Higham, "Accuracy and Stability of
# Numerical Algorithms", 2nd ed., Thm 10.3); the SVD that computes ``A_n``
# is off by a small multiple of u s_max / s_min relative. 4096 covers both by
# three orders of magnitude.
PRUNE_MARGIN_ULPS = 4096


@dataclass(frozen=True)
class Edge:
    """Oriented labeled edge of the nerve; the transition maps src to dst."""

    src: str
    dst: str
    label: str

    def __str__(self):
        return f"{self.src}->{self.dst}[{self.label}]"


@dataclass(frozen=True)
class Nerve:
    """Covering nerve: chart ids, oriented multi-edges, and the chart triples
    with nonempty triple overlap; ``ends`` holds each edge's (src, dst) chart
    indices, read-only. It alone reads and writes its document form."""

    charts: tuple
    edges: tuple
    triples: tuple = ()
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        charts = tuple(self.charts)
        edges = tuple(self.edges)
        triples = tuple(tuple(t) for t in self.triples)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "triples", triples)
        if len(set(charts)) != len(charts) or not charts:
            raise NerveError("chart ids must be nonempty and unique")
        seen = set()
        for e in edges:
            if e.src not in charts or e.dst not in charts:
                raise NerveError(f"edge {e} references unknown chart")
            key = (e.src, e.dst, e.label)
            if key in seen:
                raise NerveError(f"duplicate edge label {e}")
            seen.add(key)
        for t in triples:
            if len(t) != 3 or any(c not in charts for c in t):
                raise NerveError(f"bad triple {t}")
        if len(self._spanning_tree()) != len(charts):
            raise NerveError("underlying nerve graph is disconnected")
        index = {c: i for i, c in enumerate(charts)}
        ends = np.array([(index[e.src], index[e.dst]) for e in edges], dtype=int)
        ends = ends.reshape(len(edges), 2)
        ends.setflags(write=False)
        object.__setattr__(self, "ends", ends)

    def to_json_dict(self, per_edge) -> dict:
        """The document form, each edge's own fields (a dict from ``per_edge``) added."""
        return {
            "charts": list(self.charts),
            "edges": [{"from": e.src, "to": e.dst, "label": e.label, **own}
                      for e, own in zip(self.edges, per_edge)],
            "triples": [list(t) for t in self.triples],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Nerve":
        """The nerve of a :meth:`to_json_dict` document; no ``triples`` is none."""
        edges = [Edge(e["from"], e["to"], e["label"]) for e in doc["edges"]]
        return cls(doc["charts"], edges, doc.get("triples", ()))

    def _spanning_tree(self) -> dict:
        """Breadth-first spanning tree from the first chart, over edges taken
        either way: each reached chart -> (parent, edge, sign of the step
        parent -> chart), the root -> None. A chart it lacks is not
        connected to the root."""
        adj: dict = {c: [] for c in self.charts}
        for e in self.edges:
            adj[e.src].append((e.dst, e, +1))
            adj[e.dst].append((e.src, e, -1))
        parent: dict = {self.charts[0]: None}
        queue = [self.charts[0]]
        for v in queue:   # the queue grows as the walk goes
            for nxt, e, sign in adj[v]:
                if nxt not in parent:
                    parent[nxt] = (v, e, sign)
                    queue.append(nxt)
        return parent

    def fundamental_cycles(self) -> list:
        """One closed walk per non-tree edge, as lists of (edge, sign) steps."""
        parent = self._spanning_tree()
        tree_edges = {step[1] for step in parent.values() if step is not None}

        def path_to_root(v):
            steps = []
            while parent[v] is not None:
                up, e, sign = parent[v]
                steps.append((e, -sign))  # traverse child -> parent
                v = up
            return steps

        cycles = []
        for e in self.edges:
            if e in tree_edges:
                continue
            down_src = path_to_root(e.src)  # src -> root
            down_dst = path_to_root(e.dst)  # dst -> root
            while down_src and down_dst and down_src[-1][0] is down_dst[-1][0]:
                down_src.pop()
                down_dst.pop()
            # closed walk based at src: e, then dst -> lca, then lca -> src
            back_up = [(ed, -sg) for ed, sg in reversed(down_src)]
            cycles.append([(e, +1)] + down_dst + back_up)
        return cycles


@dataclass(frozen=True)
class UnitaryFlatBundle:
    """Per-edge unit multipliers ``t_e = e^{i phi_e}`` stored as phases,
    satisfying the 1-cocycle condition on every listed triple."""

    nerve: Nerve
    phases: tuple

    def __post_init__(self):
        phases = tuple(float(p) % TWO_PI for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if len(phases) != len(self.nerve.edges):
            raise ValidationError("one phase per edge required")
        self._check_cocycle()

    def _check_cocycle(self, tol: float = 1e-10):
        by_pair: dict = {}
        for e, p in zip(self.nerve.edges, self.phases):
            by_pair.setdefault((e.src, e.dst), []).append(p)
        for (i, j, k) in self.nerve.triples:
            for p_ji in by_pair.get((i, j), []):
                for p_kj in by_pair.get((j, k), []):
                    for p_ki in by_pair.get((i, k), []):
                        defect = (p_kj + p_ji - p_ki) % TWO_PI
                        defect = min(defect, TWO_PI - defect)
                        if defect > tol:
                            raise ValidationError(
                                f"cocycle condition fails on triple {(i, j, k)}: "
                                f"defect {defect:.3e}"
                            )

    def phase_of(self, edge: Edge) -> float:
        return self.phases[self.nerve.edges.index(edge)]

    def to_json_dict(self) -> dict:
        return self.nerve.to_json_dict({"phase": p} for p in self.phases)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "UnitaryFlatBundle":
        return cls(Nerve.from_json_dict(doc),
                   tuple(_real(e["phase"]) for e in doc["edges"]))


@dataclass(frozen=True)
class TransitionSystem:
    """One circle diffeomorphism per nerve edge at a common working width."""

    nerve: Nerve
    transitions: tuple
    width: float
    _bundle: UnitaryFlatBundle = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        transitions = tuple(self.transitions)
        object.__setattr__(self, "transitions", transitions)
        if len(transitions) != len(self.nerve.edges):
            raise ValidationError("one transition per edge required")
        for e, f in zip(self.nerve.edges, transitions):
            if f.width < self.width - 1e-12:
                raise ValidationError(
                    f"transition on {e} has width {f.width:.6g} below the "
                    f"system width {self.width:.6g}"
                )
        bundle = UnitaryFlatBundle(self.nerve, tuple(f.phase for f in transitions))
        object.__setattr__(self, "_bundle", bundle)  # built once; checks the cocycle

    def bundle(self) -> UnitaryFlatBundle:
        return self._bundle

    def transition_of(self, edge: Edge) -> CircleDiffeo:
        return self.transitions[self.nerve.edges.index(edge)]

    def max_hat_majorant(self, sigma_prime: float) -> float:
        """Largest transition-hat majorant at ``sigma_prime`` (0 without
        edges); a NaN majorant gives NaN, so a comparison with it fails."""
        hats = [f.hat for f in self.transitions]
        return float(np.max(majorants(hats, sigma_prime), initial=0.0))


def holonomy(bundle: UnitaryFlatBundle, loop: Sequence) -> float:
    """Signed sum of edge phases along a closed walk, mod 2 pi.

    ``loop`` is a sequence of (edge, sign) steps; sign +1 traverses the edge
    src -> dst, sign -1 the reverse.
    """
    if len(loop) == 0:
        return 0.0
    first_edge, first_sign = loop[0]
    at = first_edge.src if first_sign > 0 else first_edge.dst
    start = at
    total = 0.0
    for edge, sign in loop:
        head = edge.src if sign > 0 else edge.dst
        tail = edge.dst if sign > 0 else edge.src
        if head != at:
            raise PathError(f"walk breaks at {at}: next step {edge} starts at {head}")
        total += sign * bundle.phase_of(edge)
        at = tail
    if at != start:
        raise PathError(f"walk is not closed: ends at {at}, started at {start}")
    return float(total % TWO_PI)


def _mode_tensor(bundle: UnitaryFlatBundle, modes: np.ndarray) -> np.ndarray:
    """Stacked mode matrices, shape (len(modes), edges, charts): row e of
    matrix i is ``e^{i n phi_e}`` at chart dst(e) minus 1 at chart src(e)."""
    nerve = bundle.nerve
    rows = np.arange(len(nerve.edges))
    src, dst = nerve.ends.T
    phases = np.array(bundle.phases, dtype=float)
    a = np.zeros((len(modes), rows.size, len(nerve.charts)), dtype=complex)
    a[:, rows, dst] += np.exp(1j * (modes[:, None] * phases[None, :]))
    a[:, rows, src] -= 1.0
    return a


def mode_matrix(bundle: UnitaryFlatBundle, n: int) -> np.ndarray:
    return _mode_tensor(bundle, np.array([n]))[0]


def _rank_floor(svals: np.ndarray) -> np.ndarray:
    """``RANK_RCOND * max(1, s_max)`` per stacked spectrum (descending
    singular values on the last axis)."""
    return RANK_RCOND * np.maximum(1.0, svals[..., :1])


def _rank_deficient(svals: np.ndarray, n_charts: int) -> np.ndarray:
    """Per stacked spectrum: fewer than ``n_charts`` values above
    :func:`_rank_floor`."""
    return np.sum(svals > _rank_floor(svals), axis=-1) < n_charts


@dataclass(frozen=True)
class ModeCochainSolution:
    """Solution of the mode-n coboundary system."""

    n: int
    a: np.ndarray                 # per chart, aligned with nerve.charts
    residual: float               # inf-norm of equation defects
    amplification: float          # max_j |a_j| / max_e |b_e|
    has_kernel: bool = False      # gauge freedom (min-norm representative)


def _resonant_cycle(bundle: UnitaryFlatBundle, n: int):
    """Cycle minimizing |e^{i n holonomy} - 1|, or None if the nerve is a forest."""
    cycles = bundle.nerve.fundamental_cycles()
    if not cycles:
        return None
    best = None
    best_gap = np.inf
    for cyc in cycles:
        h = holonomy(bundle, cyc)
        gap = abs(np.exp(1j * n * h) - 1.0)
        if gap < best_gap:
            best_gap = gap
            best = (cyc, h)
    return best


def _loop_names(loop: Sequence) -> list:
    """A closed walk as ``["+U0->U1[+]", "-U0->U1[-]", ...]``, one signed
    edge per step."""
    return [f"{'+' if s > 0 else '-'}{e}" for e, s in loop]


def closest_loop(bundle: UnitaryFlatBundle, n: int):
    """The fundamental cycle closest to resonance at mode n, as
    :func:`_loop_names`, and its rotation number (holonomy / 2 pi mod 1);
    None if the nerve is a forest."""
    hit = _resonant_cycle(bundle, n)
    return None if hit is None else (_loop_names(hit[0]), (hit[1] / TWO_PI) % 1.0)


def is_convergent_denominator(q: int, rho: float, q_max: int) -> bool:
    """Whether q is a convergent denominator ``q_k <= q_max`` of rho mod 1,
    ``q_{k+1} = a_{k+1} q_k + q_{k-1}``, ``q_{-1} = 0``, ``q_0 = 1`` (Khinchin,
    *Continued Fractions*, ch. 1); a quotient beyond ``q_max`` ends the walk."""
    x, q_prev, q_k = rho % 1.0, 0, 1
    while q_k < q and x * (q_max + 1) > 1.0:
        a, x = divmod(1.0 / x, 1.0)
        q_prev, q_k = q_k, int(a) * q_k + q_prev
    return q_k == q <= q_max


def _raise_if_resonant(bundle: UnitaryFlatBundle, n: int) -> None:
    """Raise for a rank-deficient mode n unless the nerve is a forest, where
    rank deficiency is plain gauge freedom."""
    hit = _resonant_cycle(bundle, n)
    if hit is not None:
        cyc, h = hit
        raise ResonantModeError(
            mode=n,
            loop=_loop_names(cyc),
            holonomy=float((n * h) % TWO_PI),
        )


def _pseudo_inverses(bundle: UnitaryFlatBundle, modes: np.ndarray):
    """Mode matrices of ``modes`` stacked as (len(modes), edges, charts),
    their pseudo-inverses and per-mode rank-deficiency flags, from one
    stacked SVD.

    conj(A) has the singular values of A; its SVD is the one
    ``numpy.linalg.pinv`` factors, and the pseudo-inverse is formed exactly
    as pinv forms it, except that it drops the singular values at or below
    :func:`_rank_floor` rather than ``RANK_RCOND * s_max``, so a subnormal
    one is not inverted to inf. The two floors drop different values only
    on a one-chart nerve, whose one singular value then lies at or below
    ``RANK_RCOND``: the mode is rank deficient.
    """
    a = _mode_tensor(bundle, modes)
    u, s, vt = np.linalg.svd(a.conj(), full_matrices=False)
    large = s > _rank_floor(s)
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    pinv = np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u, -1, -2))
    return a, pinv, _rank_deficient(s, len(bundle.nerve.charts))


def solve_modes(
    bundle: UnitaryFlatBundle,
    modes: Sequence[int],
    b,
    solvability_tol: float | None = None,
) -> tuple:
    """Minimum 2-norm least-squares solutions of
    ``e^{i n phi_e} a_k - a_j = b_e`` for every listed mode at once; row i of
    ``b`` (shape (len(modes), edges)) holds the data of ``modes[i]``.
    Returns arrays: the solutions (len(modes), charts) and per mode the
    defect inf-norm, the amplification ``max_j |a_j| / max_e |b_e|`` and the kernel flag.

    Rank deficiency means the n-twisted parallel transport is globally
    consistent: on a nerve with cycles that is a resonance (some loop has
    ``N^{tensor n}`` trivial) and raises; on a forest it is plain gauge
    freedom and the min-norm representative is returned flagged. With
    ``solvability_tol`` set, a residual above that absolute value raises the
    coboundary-condition failure for that mode; callers scale it to the data
    (the engine uses a fraction of the largest mode norm of the step).
    Modes are checked in the order given, and the first that is resonant or
    fails solvability raises.
    """
    modes = np.asarray(modes, dtype=int)
    if np.any(modes == 0):
        raise ValidationError("mode n must be nonzero")
    n_edges = len(bundle.nerve.edges)
    bmat = np.asarray(b, dtype=complex)
    if bmat.shape != (modes.size, n_edges):
        raise ValidationError(
            f"b must have one row per mode and one entry per edge "
            f"({modes.size}, {n_edges}), got {bmat.shape}"
        )
    a, pinv, deficient = _pseudo_inverses(bundle, modes)
    sol = (pinv @ bmat[..., None])[..., 0]
    residual = np.max(np.abs((a @ sol[..., None])[..., 0] - bmat), axis=-1,
                      initial=0.0)
    b_norm = np.max(np.abs(bmat), axis=-1, initial=0.0)
    amp = np.divide(np.max(np.abs(sol), axis=-1, initial=0.0), b_norm,
                    where=b_norm > 0, out=np.zeros(modes.size))
    # a connected nerve has cycles when it has more edges than a spanning tree
    fails = deficient & (n_edges >= len(bundle.nerve.charts))
    if solvability_tol is not None:
        fails |= residual > solvability_tol
    if fails.any():
        i = int(np.argmax(fails))
        if deficient[i]:
            _raise_if_resonant(bundle, int(modes[i]))
        raise CoboundaryError(mode=int(modes[i]), residual=float(residual[i]),
                              norm=float(b_norm[i]))
    return sol, residual, amp, deficient


def solve_mode(
    bundle: UnitaryFlatBundle,
    n: int,
    b,
    solvability_tol: float | None = None,
) -> ModeCochainSolution:
    """The one-mode case of :func:`solve_modes`; ``b`` is one entry per edge,
    as a sequence or as a mapping from edges."""
    nerve = bundle.nerve
    if isinstance(b, Mapping):
        bvec = np.array([complex(b[e]) for e in nerve.edges])
    else:
        bvec = np.asarray(b, dtype=complex)
        if bvec.shape != (len(nerve.edges),):
            raise ValidationError(
                f"b must have one entry per edge ({len(nerve.edges)}), got {bvec.shape}"
            )
    sol, residual, amp, kernel = solve_modes(bundle, [n], bvec[None, :], solvability_tol)
    return ModeCochainSolution(int(n), sol[0], float(residual[0]), float(amp[0]), bool(kernel[0]))


def _exact_norms(bundle: UnitaryFlatBundle, modes: np.ndarray) -> np.ndarray:
    """:func:`amplification_norms` of the listed positive modes, from one
    stacked SVD; raises on the first resonant one."""
    _, pinv, deficient = _pseudo_inverses(bundle, modes)
    first = np.flatnonzero(deficient)
    if first.size:
        # whether a rank drop is resonant depends on the nerve, not on n
        _raise_if_resonant(bundle, int(modes[first[0]]))
    return np.max(np.sum(np.abs(pinv), axis=-1), axis=-1)


def amplification_norms(bundle: UnitaryFlatBundle, n_max: int) -> np.ndarray:
    """Per-mode operator norm (inf to inf) of the min-norm solution map for
    n = 1..n_max as one array; mode -n has the same norm. Raises on the
    first resonant mode.

    The mode matrices of n = 1..n_max are built as one stacked array, and one
    batched SVD gives both the rank test and the pseudo-inverses. Mode -n is
    not factored: its matrix is the complex conjugate of that of n, whose
    pseudo-inverse is the conjugate one, so the two norms are equal.
    """
    if n_max < 1:
        raise ValidationError("n_max must be positive")
    return _exact_norms(bundle, np.arange(1, n_max + 1))


def amplification_spectrum(bundle: UnitaryFlatBundle, n_max: int) -> dict:
    """:func:`amplification_norms` keyed by mode 1, -1, 2, -2, ..., so the
    fundamental resonance is the one reported."""
    norms = amplification_norms(bundle, n_max)
    modes = np.arange(1, n_max + 1).repeat(2) * np.tile([1, -1], n_max)
    return dict(zip(modes.tolist(), norms.repeat(2).tolist()))


def _gram(bundle: UnitaryFlatBundle, modes: np.ndarray) -> np.ndarray:
    """``G_n = A_n^H A_n`` of ``modes`` stacked as (len(modes), charts,
    charts), in closed form: the connection Laplacian of the nerve twisted by
    n (Bandeira, Singer and Spielman, SIAM J. Matrix Anal. Appl. 34, 2013).
    Each edge adds 1 to the diagonal at its two charts and ``-e^{i n phi}``
    off it, or ``|e^{i n phi} - 1|^2`` to the diagonal if it is a loop. The
    entries ``e^{i n phi_e}`` are the floats :func:`_mode_tensor` builds."""
    nerve = bundle.nerve
    x = np.exp(1j * (modes[:, None] * np.array(bundle.phases)[None, :]))
    g = np.zeros((len(modes), len(nerve.charts), len(nerve.charts)), dtype=complex)
    for (j, k), xe in zip(nerve.ends.tolist(), x.T):
        if j == k:
            g[:, j, j] += np.abs(xe - 1.0) ** 2
        else:
            g[:, j, j] += 1.0
            g[:, k, k] += 1.0
            g[:, j, k] -= xe
            g[:, k, j] -= xe.conj()
    return g


def amplification_bounds(bundle: UnitaryFlatBundle, modes) -> tuple:
    """Proven upper bounds on the norms ``A_n`` of ``modes``, and per mode
    whether the bound also proves the mode system full rank.

    ``A_n <= sqrt(E) / s_min(A_n)``, and ``s_min^2`` is the least eigenvalue
    of ``G_n``, which by the arithmetic-geometric mean inequality on the
    other C - 1 eigenvalues is at least ``det G_n / (tr G_n / (C-1))^(C-1)``
    (``det G_n`` on one chart). The determinant is the product of the
    pivots of an L D L^H elimination without pivoting; a mode with a pivot
    that is not positive gets no bound. With ``m = PRUNE_MARGIN_ULPS u
    (C + E)``, det is taken as ``(1 - m) det``, tr as ``(1 + m) tr`` and
    ``m tr`` is subtracted from the eigenvalue bound. A mode is proven full
    rank when the resulting lower bound on ``s_min`` clears the rank floor
    ``RANK_RCOND * max(1, s_max)``, with ``s_max <= sqrt(tr)``. Modes
    without a proof get an infinite bound.
    """
    modes = np.asarray(modes, dtype=int)
    n_charts, n_edges = len(bundle.nerve.charts), len(bundle.nerve.edges)
    g = _gram(bundle, modes)
    tr = np.trace(g, axis1=-2, axis2=-1).real
    pivots = np.empty(g.shape[:-1])
    with np.errstate(all="ignore"):
        for k in range(n_charts):
            pivots[:, k] = g[:, k, k].real
            column = g[:, k + 1:, k] / pivots[:, k, None]
            g[:, k + 1:, k + 1:] -= column[:, :, None] * g[:, None, k, k + 1:]
        margin = PRUNE_MARGIN_ULPS * np.finfo(float).eps * (n_charts + n_edges)
        tr_hi = tr * (1.0 + margin)
        lam_lo = (np.prod(pivots, axis=-1) * (1.0 - margin)
                  / (tr_hi / max(n_charts - 1, 1)) ** (n_charts - 1)
                  - margin * tr_hi)
        s_lo = np.sqrt(np.where(np.all(pivots > 0, axis=-1) & (lam_lo > 0), lam_lo, 0.0))
        bound = np.divide(math.sqrt(n_edges), s_lo, where=s_lo > 0,
                          out=np.full(modes.size, np.inf))
    full_rank = s_lo > RANK_RCOND * np.maximum(1.0, np.sqrt(tr_hi))
    return bound, full_rank


def power_or_inf(x: float, p: float) -> float:
    """``x ** p`` in Python floats, inf where the power overflows."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=8)
def _mode_powers(n_max: int, exponent: float) -> np.ndarray:
    """``n ** exponent`` for n = 1..n_max, read-only. Each entry is Python's
    float power: numpy's vectorised power differs from it in the last bit
    for some non-integer exponents."""
    out = np.array([power_or_inf(n, exponent) for n in range(1, n_max + 1)])
    out.setflags(write=False)
    return out


def diophantine_ratios(modes, amplifications, mu: float) -> np.ndarray:
    """``A_n / |n|^(mu-1)`` per mode: the smallest C0 of the power law
    ``A_n <= C0 |n|^(mu-1)`` is their maximum."""
    if not 1 < mu < np.inf:
        raise ValidationError(f"mu must be finite and exceed 1, got {mu}")
    n_abs = np.abs(np.asarray(modes, dtype=int))
    if np.any(n_abs == 0):
        raise ValidationError("mode n must be nonzero")
    powers = _mode_powers(int(np.max(n_abs, initial=1)), mu - 1.0)
    return np.asarray(amplifications, dtype=float) / powers[n_abs - 1]


def fit_c0(bundle: UnitaryFlatBundle, n_max: int, mu: float) -> tuple:
    """``(C0, mode, factored)``: the largest ``A_n / n^(mu-1)`` over
    n = 1..n_max, the least mode that attains it, and how many modes were
    factored to find it.

    C0 is bit for bit the maximum of :func:`diophantine_ratios` over
    :func:`amplification_norms`, and a resonant nerve raises the same
    error. :func:`amplification_bounds` bounds every mode; the seed is the
    mode with the largest bound ratio among those the bound proves full
    rank, or mode 1 if it proves none. The seed's exact ratio is the running
    maximum: every mode whose bound ratio lies below it and which the bound
    proves full rank is pruned, and one stacked SVD factors the rest, the
    seed among them. A pruned mode can neither set C0 nor be the first
    resonant mode, and the seed is full rank or mode 1, so factoring it
    first reports no other resonance. On a forest the bound proves no mode
    full rank, and every mode is factored. The bound runs over all n_max
    modes, once per run: a proven C0 has to cover every mode, not only
    the populated ones. A nerve without edges raises: no mode bounds C0.
    """
    if not bundle.nerve.edges:
        raise ValidationError("the nerve has no edges: no mode bounds C0; give C0 in params")
    if n_max < 1 or not 1 < mu < np.inf:
        raise ValidationError(f"need n_max >= 1 and 1 < mu < inf, got {n_max}, {mu}")
    modes = np.arange(1, n_max + 1)
    powers = _mode_powers(n_max, mu - 1.0)
    bound, full_rank = amplification_bounds(bundle, modes)
    bound_ratios = bound / powers
    seed = modes[[np.argmax(np.where(full_rank, bound_ratios, -np.inf))]]
    running = (_exact_norms(bundle, seed) / powers[seed - 1])[0]
    modes = modes[~(full_rank & (bound_ratios < running))]
    ratios = _exact_norms(bundle, modes) / powers[modes - 1]
    best = int(np.argmax(ratios))
    return float(ratios[best]), int(modes[best]), int(modes.size)


@dataclass(frozen=True)
class DiophantineFit:
    """Power-law fit ``A_n <= C0 |n|^(mu-1)`` over a measured spectrum."""

    c0: float
    mu: float
    argmax_mode: int
    per_mode_pass: dict = field(default_factory=dict)
    superpolynomial: bool = False

    def to_json_dict(self) -> dict:
        return {
            "C0": self.c0,
            "mu": self.mu,
            "argmax_mode": self.argmax_mode,
            "superpolynomial": self.superpolynomial,
            "all_pass": all(self.per_mode_pass.values()),
        }


def fit_diophantine(spectrum: Mapping[int, float], mu: float) -> DiophantineFit:
    """Smallest C0 with ``A_n <= C0 |n|^(mu-1)`` across the spectrum.

    Every mode passes with equality at the argmax (the largest ratio, the
    lowest |n| among ties) by construction; the flag marks spectra whose
    ratio ``A_n / |n|^(mu-1)`` peaks at the last mode and dwarfs the bulk,
    the signature of super-polynomial (Liouville-like) growth that no power
    law of this exponent captures. C0 is the maximum of
    :func:`diophantine_ratios`, as the engine fits it.
    """
    if not spectrum:
        raise ValidationError("empty amplification spectrum")
    modes = np.fromiter(spectrum.keys(), dtype=int, count=len(spectrum))
    amps = np.fromiter(spectrum.values(), dtype=float, count=len(spectrum))
    ratios = diophantine_ratios(modes, amps, mu)
    n_abs = np.abs(modes)
    best = int(np.argmax(ratios))
    ties = np.flatnonzero(ratios == ratios[best])
    if ties.size:
        best = int(ties[np.argmin(n_abs[ties])])
    c0 = float(ratios[best])
    powers = _mode_powers(int(np.max(n_abs)), mu - 1.0)[n_abs - 1]
    per_mode = amps <= c0 * powers * (1 + 1e-12)
    bulk = float(np.median(ratios))
    superpoly = n_abs[best] == np.max(n_abs) and bulk > 0 and c0 > 4.0 * bulk
    return DiophantineFit(
        c0=c0,
        mu=float(mu),
        argmax_mode=int(modes[best]),
        per_mode_pass=dict(zip(modes.tolist(), per_mode.tolist())),
        superpolynomial=bool(superpoly),
    )
