"""Truncated Laurent series on annuli ``{e^{-sigma} < |w| < e^{sigma}}``.

A :class:`LaurentSeries` of truncation N stores its band of coefficients
``c_n``, ``|n| <= degree <= N``, and the log-radius ``width`` of its annulus.
The weighted coefficient sum ``sum |c_n| e^{|n| sigma'}`` is an exact upper
bound for the sup of the series on the closed ``sigma'``-annulus, and it is
the norm every schedule comparison in the iteration engine uses; pointwise
sampling only ever appears in diagnostic reports.

Coefficient extraction from unit-circle samples is a plain DFT. Aliasing and
truncation are quantified through the geometric decay that any function
analytic on a wider annulus must exhibit (``decay_check``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import AnnulusDomainError, InsufficientSamplesError, SchemaError

# Coefficients smaller than this are dropped when serializing.
SERIALIZATION_FLOOR = 1e-300


def _integral(value) -> int:
    """A JSON number with an integral value; a boolean is not one."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise TypeError(f"expected an integral number, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite JSON number, int or float; a boolean is not one, nor is
    Infinity, -Infinity or NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:   # an int beyond float range
        raise ValueError(f"{value} is out of float range") from exc
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


@dataclass(frozen=True, init=False)
class LaurentSeries:
    """Finitely truncated two-sided power series on an annulus, held as its
    band: the coefficients ``|n| <= degree`` and the truncation N, so a
    series costs what its nonzero modes cost, whatever N.

    Parameters
    ----------
    coeffs:
        Dense array of length ``2N+1``; entry ``i`` is the coefficient of
        ``w^(i-N)``. Only its band is kept: the :attr:`coeffs` view rebuilds
        the array at O(N) cost per access, and no library path reads it. Use
        :meth:`from_coeffs` to build from a sparse mapping, :meth:`from_band`
        from a band.
    width:
        Log-radius ``sigma > 0`` of the annulus of validity.
    """

    band: np.ndarray   # read-only; the coefficient of w^n at index degree + n
    width: float
    truncation: int    # N: the series vanishes beyond |n| = N
    # read-only ascending mode indices n with a nonzero coefficient
    support: np.ndarray = field(repr=False, compare=False)

    def __init__(self, coeffs: np.ndarray, width: float):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size % 2 != 1:
            raise AnnulusDomainError("coefficient array must have odd length")
        self._hold(arr, width, (arr.size - 1) // 2)

    def _hold(self, band: np.ndarray, width: float, n_trunc: int) -> None:
        """Keep ``band`` (length 2k+1, ``w^n`` at index ``k + n``) cut to its
        degree d, as a read-only copy of 2d+1 entries, with its support."""
        if not (width > 0):
            raise AnnulusDomainError(f"width must be positive, got {width}")
        k = (band.shape[-1] - 1) // 2
        support = np.flatnonzero(band) - k
        d = int(np.max(np.abs(support), initial=0))
        if d > n_trunc:
            raise AnnulusDomainError(f"coefficient index {d} exceeds truncation {n_trunc}")
        band = band[k - d : k + d + 1].copy()
        for arr in (band, support):
            arr.setflags(write=False)
        self.__dict__.update(band=band, width=width, truncation=int(n_trunc), support=support)

    @classmethod
    def from_coeffs(
        cls, coeffs: Mapping[int, complex], width: float, n_trunc: int | None = None
    ) -> "LaurentSeries":
        """The series of truncation ``n_trunc`` (default: the largest |n|)
        with the coefficients ``{n: c_n}``, from a band of 2 max|n| + 1."""
        k = max((abs(int(n)) for n in coeffs), default=0)
        n_trunc = k if n_trunc is None else n_trunc
        if k > n_trunc:
            raise AnnulusDomainError(f"coefficient index {k} exceeds truncation {n_trunc}")
        band = np.zeros(2 * k + 1, dtype=complex)
        for n, c in coeffs.items():
            band[int(n) + k] = complex(c)
        return cls.from_band(band, width, n_trunc)

    @classmethod
    def from_band(cls, band: np.ndarray, width: float, n_trunc: int) -> "LaurentSeries":
        """The series of truncation ``n_trunc`` whose coefficients ``|n| <= k``
        are ``band`` (length 2k+1, ``w^n`` at index ``k + n``) and zero
        beyond: the band is kept cut to its degree, with no 2N+1 array. A
        nonzero coefficient beyond ``n_trunc`` raises, as in :meth:`from_coeffs`."""
        series = cls.__new__(cls)
        series._hold(np.asarray(band, dtype=complex), width, n_trunc)
        return series

    @classmethod
    def zero(cls, width: float, n_trunc: int = 0) -> "LaurentSeries":
        return cls.from_band(np.zeros(1, dtype=complex), width, n_trunc)

    @property
    def coeffs(self) -> np.ndarray:
        """The dense read-only coefficients ``|n| <= N`` (``w^n`` at index
        ``N + n``), built on each access at O(N) cost; no library path reads
        them (tests, demos and benchmarks do)."""
        out = self.dense(self.truncation)
        out.setflags(write=False)
        return out

    @cached_property
    def rows(self) -> "SeriesRows":
        """This series as the one row of a :class:`SeriesRows`, built once
        (the coefficients are read-only)."""
        return SeriesRows(self.band[None], [self.width], self.support)

    @cached_property
    def degree(self) -> int:
        """Effective degree: the largest |n| with a nonzero coefficient
        (0 for a constant or zero series)."""
        return (self.band.size - 1) // 2

    def coeff(self, n: int) -> complex:
        """Coefficient of ``w^n`` (zero beyond the degree)."""
        if abs(n) > self.degree:
            return 0.0 + 0.0j
        return complex(self.band[n + self.degree])

    def dense(self, n_trunc: int) -> np.ndarray:
        """Coefficients of ``w^n`` for ``|n| <= n_trunc`` at index
        ``n + n_trunc``, zero-padded or cut from this series."""
        out = np.zeros(2 * n_trunc + 1, dtype=complex)
        k, d = min(n_trunc, self.degree), self.degree
        out[n_trunc - k : n_trunc + k + 1] = self.band[d - k : d + k + 1]
        return out

    def with_width(self, width: float) -> "LaurentSeries":
        """The same coefficients and truncation on another annulus."""
        return LaurentSeries.from_band(self.band, width, self.truncation)

    def scale(self, factor: complex) -> "LaurentSeries":
        return LaurentSeries.from_band(self.band * factor, self.width, self.truncation)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """``N``, ``sigma`` and one ``[n, re, im]`` entry per coefficient of
        the support whose modulus is not below :data:`SERIALIZATION_FLOOR`
        (a NaN is kept), in ascending n."""
        n = self.support
        c = self.band[self.degree + n]
        keep = ~(np.abs(c) < SERIALIZATION_FLOOR)
        entries = [list(e) for e in zip(n[keep].tolist(), c.real[keep].tolist(),
                                        c.imag[keep].tolist())]
        return {"N": self.truncation, "sigma": float(self.width), "coeffs": entries}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LaurentSeries":
        try:
            n_t = _integral(doc["N"])
            width = _real(doc["sigma"])
            coeffs = {}
            for entry in doc["coeffs"]:
                if len(entry) != 3:
                    raise SchemaError(f"bad coefficient entry {entry!r}")
                n, re, im = entry
                n = _integral(n)
                if n in coeffs:
                    raise SchemaError(f"coefficient index {n} appears more than once")
                coeffs[n] = complex(_real(re), _real(im))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad Laurent series document: {exc}") from exc
        return cls.from_coeffs(coeffs, width, n_trunc=n_t)


class SeriesRows:
    """Laurent series stacked as the rows of one dense block.

    Entry ``K + n`` of row r of ``coeffs`` (shape (R, 2K+1)) is the
    coefficient of ``w^n`` of series r, and ``widths[r]`` its width. ``hi``
    is the largest n >= 0 and ``-lo`` the smallest n < 0 at which some row
    is nonzero (``hi = -1``, ``lo = 0`` when there is none), so Horner passes
    start at the highest nonzero coefficient of the block; ``degree`` is the
    block's effective degree, the larger of the two.
    """

    def __init__(self, coeffs: np.ndarray, widths, support: np.ndarray | None = None):
        """``support`` holds the ascending mode indices at which some row is
        nonzero; it is read off ``coeffs`` when not given."""
        self.coeffs = coeffs
        self.widths = np.asarray(widths, dtype=float)
        # radii of the annulus bounds per row
        self.inner, self.outer = np.exp(-self.widths), np.exp(self.widths)
        if support is None:
            center = (coeffs.shape[-1] - 1) // 2
            support = np.flatnonzero(np.any(coeffs != 0, axis=0)) - center
        self.hi = int(support[-1]) if support.size and support[-1] >= 0 else -1
        self.lo = int(-support[0]) if support.size and support[0] < 0 else 0
        self.degree = max(self.hi, self.lo)

    @classmethod
    def of(cls, hats: Sequence[LaurentSeries]) -> "SeriesRows":
        """One row per series; a single series is used in place, several are
        cut or zero-padded to the largest effective degree among them."""
        if len(hats) == 1:
            return hats[0].rows
        k = max((s.degree for s in hats), default=0)
        return cls(np.array([s.dense(k) for s in hats]).reshape(-1, 2 * k + 1),
                   [s.width for s in hats])

    def outside(self, w: np.ndarray) -> np.ndarray:
        """Per row: some point of ``w[r]`` lies outside the open annulus
        ``(e^{-width}, e^{width})`` of the row (a NaN point is not, nor is
        an empty set of points)."""
        r = np.abs(w)
        return ((np.fmin.reduce(r, axis=-1, initial=np.inf) <= self.inner)
                | (np.fmax.reduce(r, axis=-1, initial=0.0) >= self.outer))

    def domain_error(self, r: int) -> AnnulusDomainError:
        """The error of row r having a point :meth:`outside` its annulus."""
        return AnnulusDomainError(
            f"evaluation point outside the open annulus ({self.inner[r]:.6g}, "
            f"{self.outer[r]:.6g})")

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Row r evaluated at the points ``w[r]`` (``w`` of shape (R, M)), or
        every row at the shared points ``w`` of shape (M,), or a single row at
        the point ``w`` of shape (), by two Horner passes (n >= 0 in w, n < 0
        in 1/w).

        Coefficients above a row's own degree are zeros, which keep the
        accumulator at exactly 0, so each row equals its own pass over all
        of its coefficients.
        """
        center = (self.coeffs.shape[-1] - 1) // 2
        band = self.coeffs[:, center - self.lo : center + self.hi + 1]
        # c_-lo, ..., c_hi as scalars for one row (numpy adds a scalar faster
        # than a broadcast column), else as (R, 1) columns
        cols = band[0] if len(band) == 1 else band.T[:, :, None]
        acc = np.zeros(band.shape[:1] + w.shape[-1:] if w.ndim else (), dtype=complex)
        # c_hi down to c_0 in w, then c_-lo up to c_-1 in 1/w
        acc = _horner(acc, cols[: self.lo - 1 if self.lo else None : -1], w)
        if self.lo:
            u = 1.0 / w
            acc = acc + _horner(np.zeros(acc.shape, dtype=complex), cols[: self.lo], u) * u
        return acc

    def on_circles(self, rhos, samples: int) -> np.ndarray:
        """Row r at the M = ``samples`` equispaced points ``e^{rho + 2 pi i
        k / M}``, k = 0..M-1, of each circle ``|w| = e^rho`` of ``rhos``, as
        an array (len(rhos), R, M), by one inverse FFT of the whole block.

        On that circle ``sum_n c_n w^n = sum_n c_n e^{n rho} e^{2 pi i n k /
        M}``, and ``e^{2 pi i n k / M}`` depends on n mod M only. So the
        weighted coefficients ``c_n e^{n rho}`` are scattered to index
        ``n mod M`` and transformed unscaled (``norm="forward"``). The indices
        of the band ``|n| <= d`` are distinct when ``M >= 2d+1``, d the block's
        effective degree; fewer samples raise
        :class:`InsufficientSamplesError`. The FFT's round-off is
        ``O(u log2 M)`` times ``sum |c_n| e^{|n| |rho|}``, against ``O(u d)``
        for the Horner passes of :meth:`__call__`.
        """
        if samples < 2 * self.degree + 1:
            raise InsufficientSamplesError(
                f"need at least 2d+1={2 * self.degree + 1} samples for effective "
                f"degree d={self.degree}, got {samples}")
        center = (self.coeffs.shape[-1] - 1) // 2
        n = np.arange(-self.lo, self.hi + 1)
        band = self.coeffs[:, center - self.lo : center + self.hi + 1]
        rhos = np.asarray(rhos, dtype=float)
        spectrum = np.zeros((rhos.size, band.shape[0], samples), dtype=complex)
        spectrum[:, :, n % samples] = band * np.exp(np.multiply.outer(rhos, n))[:, None]
        return np.fft.ifft(spectrum, norm="forward")


def _horner(acc, cols, w):
    """``acc <- acc * w + c`` for c in ``cols``: in place on arrays; at a
    scalar point in numpy's scalar arithmetic, which differs from its array
    loops in the last bit."""
    if acc.ndim:
        for c in cols:
            acc *= w
            acc += c
        return acc
    for c in cols:
        acc = acc * w + c
    return acc


def eval_series(s: LaurentSeries, w: complex | np.ndarray) -> complex | np.ndarray:
    """Evaluate ``sum c_n w^n``: the one-row case of :class:`SeriesRows`.

    The Horner passes start at the highest nonzero coefficient on each side,
    read off the cached support, so the cost follows the effective degree of
    the series, not its truncation N; the result equals the pass over all
    2N+1 coefficients.
    """
    wa = np.asarray(w, dtype=complex)
    rows = s.rows
    if rows.outside(wa.reshape(1, -1))[0]:
        raise rows.domain_error(0)
    if wa.ndim == 0:
        return complex(rows(wa))
    return rows(wa.reshape(1, -1)).reshape(wa.shape)


def majorants(hats: Sequence[LaurentSeries], sigmas, power=0) -> np.ndarray:
    """Weighted coefficient sums ``sum |n|^power |c_n| e^{|n| sigma'}`` of
    every hat at its ``sigma'`` (``sigmas`` and ``power`` broadcast over the
    hats), each one sum over the hat's own support, left to right in
    ascending n.

    Only nonzero coefficients are weighted, so a large ``N sigma'`` cannot
    turn ``0 * e^{|n| sigma'} = 0 * inf`` into NaN; a nonzero coefficient
    whose weight overflows gives an honest inf. A row's sum depends on its
    support alone, so it has the bits of :func:`majorant_norm` and does not
    change when the hat is zero-padded to another N.
    """
    count = len(hats)
    sig, pw = _per_hat(sigmas, count, float), _per_hat(power, count, int)
    for s, sp in zip(hats, sig.tolist()):
        if not (0 < sp <= s.width):
            raise AnnulusDomainError(f"sigma_prime={sp} not in (0, {s.width}]")
    if not count:
        return np.zeros(0)
    row = np.arange(count).repeat([s.support.size for s in hats])
    n_abs = np.abs(np.concatenate([s.support for s in hats]))
    # the support is where the band is nonzero, in ascending n
    bands = np.concatenate([s.band for s in hats])
    terms = np.abs(bands[bands != 0])
    if pw.any():
        terms = n_abs ** pw[row] * terms
    with np.errstate(over="ignore"):
        terms = terms * np.exp(n_abs * sig[row])
    # bincount adds the weights one by one in order
    return np.bincount(row, weights=terms, minlength=count)


def _per_hat(values, count: int, dtype) -> np.ndarray:
    """``values`` as an array of ``count`` entries, broadcast from a scalar
    or checked for its length."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim == 0:
        return np.full(count, arr)
    return arr if arr.shape == (count,) else np.broadcast_to(arr, (count,))


def majorant_norm(s: LaurentSeries, sigma_prime: float) -> float:
    """Weighted coefficient sum ``sum |c_n| e^{|n| sigma'}``.

    This dominates the sup of the series on the ``sigma'``-annulus, hence is
    the certified one-sided norm used in every schedule comparison. The
    one-row case of :func:`majorants`.
    """
    return float(majorants([s], sigma_prime)[0])


@lru_cache(maxsize=32)
def unit_circle(samples: int) -> np.ndarray:
    """Equispaced points ``e^{2 pi i k / M}``, k = 0..M-1.

    One read-only array per M is computed once and shared by every caller.
    """
    points = np.exp(2j * np.pi * np.arange(samples) / samples)
    points.setflags(write=False)
    return points


def empirical_sup_norms(hats: Sequence[LaurentSeries], sigma_prime: float,
                        samples: int) -> np.ndarray:
    """Per hat: max of ``|eval|`` over ``samples`` equispaced points of each
    of the circles ``|w| = e^{-sigma'}, 1, e^{sigma'}``, all hats and circles
    in one inverse FFT (:meth:`SeriesRows.on_circles`).

    A lower bound for the true sup-norm; by the maximum principle the sup on
    the closed sub-annulus is attained on its boundary, so bounded sampling
    error is the only gap. Reports pair it with :func:`majorant_norm`.
    ``samples`` must be at least ``2d+1`` for the largest effective degree d
    among the hats (the degree, not the truncation: zero coefficients add
    nothing to resolve). With that many points each circle's values are the
    exact inverse DFT of its weighted band, with no aliasing; what separates
    them from Horner at the same points is round-off, ``O(u log2 M)`` times
    the majorant at ``sigma'`` for the FFT against ``O(u d)`` for Horner.
    """
    for s in hats:
        if not (0 < sigma_prime < s.width):
            raise AnnulusDomainError(
                f"sigma_prime={sigma_prime} not in (0, {s.width})"
            )
    if not hats:
        return np.zeros(0)
    vals = SeriesRows.of(hats).on_circles([-sigma_prime, 0.0, sigma_prime], samples)
    return np.max(np.abs(vals), axis=(0, 2), initial=0.0)


def empirical_sup_norm(s: LaurentSeries, sigma_prime: float, samples: int) -> float:
    """The one-row case of :func:`empirical_sup_norms`: a sampled lower bound
    for the sup of ``s`` on the closed ``sigma'``-annulus, from ``samples``
    points on each boundary circle and the unit circle; ``samples`` must be
    at least ``2d+1`` for the effective degree d of ``s``."""
    return float(empirical_sup_norms([s], sigma_prime, samples)[0])


def coeffs_from_circle(
    fvals: Sequence[complex] | np.ndarray, n_trunc: int, width: float
) -> LaurentSeries:
    """Laurent coefficients ``|n| <= n_trunc`` from equispaced unit-circle samples.

    The sample at index k is taken at ``w = e^{2 pi i k / M}``. Demands
    ``M >= 4 n_trunc`` so the band ``|n| <= N`` is at least 2x oversampled;
    with geometric coefficient decay that pushes aliasing into round-off.
    ``width`` is the annulus of validity the caller certifies for the result.
    """
    spectrum = circle_spectrum(fvals, n_trunc)
    return LaurentSeries(band_coeffs(spectrum, n_trunc), width)


def circle_spectrum(fvals: Sequence[complex] | np.ndarray, n_trunc: int) -> np.ndarray:
    """Normalised DFT ``fft(f) / M`` of M equispaced unit-circle samples,
    along the last axis so that rows of samples stack: entry k is the
    coefficient of ``w^k`` (k < M/2) or ``w^(k-M)`` up to aliasing. Raises
    unless ``M >= 4 n_trunc``, as :func:`coeffs_from_circle`."""
    vals = np.asarray(fvals, dtype=complex)
    m = vals.shape[-1] if vals.ndim else 0
    if m < 4 * n_trunc or m < 1:
        raise InsufficientSamplesError(
            f"need at least 4N={4 * n_trunc} samples, got {m}"
        )
    return np.fft.fft(vals) / m


def band_coeffs(spectrum: np.ndarray, n_trunc: int) -> np.ndarray:
    """Coefficients ``|n| <= n_trunc`` of a :func:`circle_spectrum`, in the
    dense order of :class:`LaurentSeries` (per row of a stacked one)."""
    return spectrum[..., np.arange(-n_trunc, n_trunc + 1) % spectrum.shape[-1]]


@dataclass(frozen=True)
class DecayReport:
    """Outcome of a coefficient-decay audit against a sup-norm bound: the
    verdict, and the lowest index of largest positive excess over the bound
    with that excess (None and 0.0 when no index has one)."""

    norm_sigma: float
    passed: bool = True
    worst_index: int | None = None
    worst_excess: float = 0.0


def decay_checks(
    hats: Sequence[LaurentSeries], norms, slack: float = 1e-12
) -> list:
    """Check ``|c_n| <= norm e^{-|n| width}`` at the nonzero coefficients,
    n != 0, of every hat against its norm bound, one array pass per hat;
    one :class:`DecayReport` per hat.

    A norm must be a certified sup-norm bound for the underlying function
    at the series' own width; any analytic function obeys this decay
    (Cauchy estimates on the bounding circles), so a violation flags either
    a bad norm bound or a non-analytic artifact. A zero coefficient meets
    any finite, nonnegative bound; a NaN, infinite or negative norm bounds
    nothing and fails every hat of truncation 1 or more.
    """
    out = []
    norms = np.broadcast_to(np.asarray(norms, dtype=float), (len(hats),)).tolist()
    for s, bound in zip(hats, norms):
        if not 0.0 <= bound < np.inf:
            out.append(DecayReport(bound, passed=s.truncation == 0))
            continue
        n = s.support[s.support != 0]
        c = s.band[n + s.degree]
        # hypot is the modulus Python's abs(complex) computes; numpy's
        # complex absolute may differ from it in the last bit
        excess = np.hypot(c.real, c.imag) - bound * np.exp(-np.abs(n) * s.width)
        good = excess <= slack * max(bound, 1.0)
        # the worst index is the lowest failing n of largest positive
        # excess; a NaN excess fails but is never the worst
        over = np.flatnonzero(~good & (excess > 0.0))
        worst = over[np.argmax(excess[over])] if over.size else None
        out.append(DecayReport(bound, bool(np.all(good)),
                               None if worst is None else int(n[worst]),
                               0.0 if worst is None else float(excess[worst])))
    return out


def decay_check(
    s: LaurentSeries, norm_sigma: float, slack: float = 1e-12
) -> DecayReport:
    """Check ``|c_n| <= norm_sigma e^{-|n| width}`` index by index: the
    one-row case of :func:`decay_checks`."""
    return decay_checks([s], norm_sigma, slack)[0]


def log_derivative_majorant(s: LaurentSeries, sigma_prime: float) -> float:
    """Upper bound ``sum |n| |c_n| e^{|n| sigma'}`` for
    ``sup |d/dzeta s(e^zeta)|`` on the strip ``|Re zeta| < sigma'``; the
    one-row, power-1 case of :func:`majorants`."""
    return float(majorants([s], sigma_prime, 1)[0])
