"""Truncated Laurent series on annuli ``{e^{-sigma} < |w| < e^{sigma}}``.

A :class:`LaurentSeries` stores coefficients ``c_n`` for ``|n| <= N`` together
with the log-radius ``width`` of the annulus on which it is taken to be valid.
The weighted coefficient sum ``sum |c_n| e^{|n| sigma'}`` is an exact upper
bound for the sup of the series on the closed ``sigma'``-annulus, and it is
the norm every schedule comparison in the iteration engine uses; pointwise
sampling only ever appears in diagnostic reports.

Coefficient extraction from unit-circle samples is a plain DFT. Aliasing and
truncation are quantified through the geometric decay that any function
analytic on a wider annulus must exhibit (``decay_check``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import AnnulusDomainError, InsufficientSamplesError, SchemaError

# Coefficients smaller than this are dropped when serializing.
SERIALIZATION_FLOOR = 1e-300


def _coeff_array(coeffs: Mapping[int, complex], n_trunc: int) -> np.ndarray:
    arr = np.zeros(2 * n_trunc + 1, dtype=complex)
    for n, c in coeffs.items():
        n = int(n)
        if abs(n) > n_trunc:
            raise AnnulusDomainError(
                f"coefficient index {n} exceeds truncation {n_trunc}"
            )
        arr[n + n_trunc] = complex(c)
    return arr


@dataclass(frozen=True)
class LaurentSeries:
    """Finitely truncated two-sided power series on an annulus.

    Parameters
    ----------
    coeffs:
        Dense array of length ``2N+1``; entry ``i`` is the coefficient of
        ``w^(i-N)``. Use :meth:`from_coeffs` to build from a sparse mapping.
    width:
        Log-radius ``sigma > 0`` of the annulus of validity.
    """

    coeffs: np.ndarray
    width: float

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size % 2 != 1:
            raise AnnulusDomainError("coefficient array must have odd length")
        if not (self.width > 0):
            raise AnnulusDomainError(f"width must be positive, got {self.width}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_coeffs(
        cls, coeffs: Mapping[int, complex], width: float, n_trunc: int | None = None
    ) -> "LaurentSeries":
        if n_trunc is None:
            n_trunc = max((abs(int(n)) for n in coeffs), default=0)
        return cls(_coeff_array(coeffs, n_trunc), width)

    @classmethod
    def zero(cls, width: float, n_trunc: int = 0) -> "LaurentSeries":
        return cls(np.zeros(2 * n_trunc + 1, dtype=complex), width)

    @property
    def truncation(self) -> int:
        return (self.coeffs.size - 1) // 2

    @cached_property
    def support(self) -> np.ndarray:
        """Ascending mode indices n with a nonzero coefficient, computed once
        per series (the coefficients are read-only)."""
        nonzero = np.flatnonzero(self.coeffs) - self.truncation
        nonzero.setflags(write=False)
        return nonzero

    @property
    def degree(self) -> int:
        """Effective degree: the largest |n| with a nonzero coefficient
        (0 for a constant or zero series)."""
        return int(np.max(np.abs(self.support), initial=0))

    def coeff(self, n: int) -> complex:
        """Coefficient of ``w^n`` (zero beyond the truncation)."""
        if abs(n) > self.truncation:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.truncation])

    def dense(self, n_trunc: int) -> np.ndarray:
        """Coefficients of ``w^n`` for ``|n| <= n_trunc`` at index
        ``n + n_trunc``, zero-padded or cut from this series."""
        out = np.zeros(2 * n_trunc + 1, dtype=complex)
        k = min(n_trunc, self.truncation)
        n_t = self.truncation
        out[n_trunc - k : n_trunc + k + 1] = self.coeffs[n_t - k : n_t + k + 1]
        return out

    def indices(self) -> np.ndarray:
        n_t = self.truncation
        return np.arange(-n_t, n_t + 1)

    def with_width(self, width: float) -> "LaurentSeries":
        return LaurentSeries(self.coeffs, width)

    def retruncate(self, n_trunc: int) -> tuple["LaurentSeries", float]:
        """Drop coefficients beyond ``n_trunc``.

        Returns the truncated series and the discarded mass
        ``sum_{|n|>n_trunc} |c_n|`` (sup-norm bound of the discarded tail on
        the unit circle).
        """
        old = self.truncation
        if n_trunc >= old:
            return self, 0.0
        lo = old - n_trunc
        hi = old + n_trunc + 1
        discarded = float(np.sum(np.abs(self.coeffs[:lo])) + np.sum(np.abs(self.coeffs[hi:])))
        return LaurentSeries(self.coeffs[lo:hi], self.width), discarded

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        n_t = max(self.truncation, other.truncation)
        arr = np.zeros(2 * n_t + 1, dtype=complex)
        s = n_t - self.truncation
        arr[s : s + self.coeffs.size] += self.coeffs
        o = n_t - other.truncation
        arr[o : o + other.coeffs.size] += other.coeffs
        return LaurentSeries(arr, min(self.width, other.width))

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(-self.coeffs, self.width)

    def scale(self, factor: complex) -> "LaurentSeries":
        return LaurentSeries(self.coeffs * factor, self.width)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        n_t = self.truncation
        for i, c in enumerate(self.coeffs):
            if abs(c) < SERIALIZATION_FLOOR:
                continue
            entries.append([i - n_t, float(c.real), float(c.imag)])
        return {"N": n_t, "sigma": float(self.width), "coeffs": entries}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LaurentSeries":
        try:
            n_t = int(doc["N"])
            width = float(doc["sigma"])
            entries = doc["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad Laurent series document: {exc}") from exc
        coeffs = {}
        for entry in entries:
            if len(entry) != 3:
                raise SchemaError(f"bad coefficient entry {entry!r}")
            n, re, im = entry
            coeffs[int(n)] = complex(float(re), float(im))
        return cls.from_coeffs(coeffs, width, n_trunc=n_t)


def eval_series(s: LaurentSeries, w: complex | np.ndarray) -> complex | np.ndarray:
    """Evaluate ``sum c_n w^n`` by two Horner passes (n >= 0 in w, n < 0 in 1/w).

    Each pass starts at the highest nonzero coefficient on its side, read off
    the cached support, so the cost follows the effective degree of the
    series, not its truncation N.
    Leading zeros would keep the Horner accumulator at exactly 0, hence the
    result equals the pass over all 2N+1 coefficients.
    """
    wa = np.asarray(w, dtype=complex)
    r = np.abs(wa)
    lo, hi = np.exp(-s.width), np.exp(s.width)
    if np.any(r <= lo) or np.any(r >= hi):
        raise AnnulusDomainError(
            f"evaluation point outside the open annulus ({lo:.6g}, {hi:.6g})"
        )
    n_t = s.truncation
    sup = s.support
    hi = int(sup[-1]) if sup.size and sup[-1] >= 0 else -1
    lo = int(-sup[0]) if sup.size and sup[0] < 0 else 0
    pos = s.coeffs[n_t : n_t + hi + 1]     # c_0, c_1, ..., c_hi
    neg = s.coeffs[n_t - lo : n_t][::-1]   # c_{-1}, c_{-2}, ..., c_{-lo}
    acc = np.zeros_like(wa)
    for c in pos[::-1]:
        acc = acc * wa + c
    if neg.size:
        u = 1.0 / wa
        acc_neg = np.zeros_like(wa)
        for c in neg[::-1]:
            acc_neg = acc_neg * u + c
        acc = acc + acc_neg * u
    if np.isscalar(w) or np.asarray(w).ndim == 0:
        return complex(acc)
    return acc


def _weighted_sum(s: LaurentSeries, sigma_prime: float, power: int) -> float:
    """``sum |n|^power |c_n| e^{|n| sigma'}`` over the nonzero coefficients.

    Zero coefficients are skipped rather than multiplied, so a large
    ``N sigma'`` cannot turn ``0 * e^{|n| sigma'} = 0 * inf`` into NaN; a
    nonzero coefficient whose weight overflows gives an honest inf.
    """
    # the zero-filled full-length array keeps the summation order, hence the
    # bits, of the sum over all 2N+1 coefficients
    pos = s.support + s.truncation
    n_abs = np.abs(s.support)
    terms = np.zeros(s.coeffs.size)
    with np.errstate(over="ignore"):
        terms[pos] = (n_abs ** power * np.abs(s.coeffs[pos])
                      * np.exp(n_abs * sigma_prime))
    return float(np.sum(terms))


def majorant_norm(s: LaurentSeries, sigma_prime: float) -> float:
    """Weighted coefficient sum ``sum |c_n| e^{|n| sigma'}``.

    This dominates the sup of the series on the ``sigma'``-annulus, hence is
    the certified one-sided norm used in every schedule comparison.
    """
    if not (0 < sigma_prime <= s.width):
        raise AnnulusDomainError(
            f"sigma_prime={sigma_prime} not in (0, {s.width}]"
        )
    return _weighted_sum(s, sigma_prime, 0)


def empirical_sup_norm(s: LaurentSeries, sigma_prime: float, samples: int) -> float:
    """Max of ``|eval|`` over equispaced points of the circles
    ``|w| = e^{-sigma'}, 1, e^{sigma'}``.

    A lower bound for the true sup-norm; by the maximum principle the sup on
    the closed sub-annulus is attained on its boundary, so bounded sampling
    error is the only gap. Reports pair it with :func:`majorant_norm`.
    """
    if not (0 < sigma_prime < s.width):
        raise AnnulusDomainError(
            f"sigma_prime={sigma_prime} not in (0, {s.width})"
        )
    if samples < 2 * s.truncation + 1:
        raise InsufficientSamplesError(
            f"need at least 2N+1={2 * s.truncation + 1} samples, got {samples}"
        )
    theta = 2.0 * np.pi * np.arange(samples) / samples
    unit = np.exp(1j * theta)
    best = 0.0
    for radius in (np.exp(-sigma_prime), 1.0, np.exp(sigma_prime)):
        vals = eval_series(s, radius * unit)
        best = max(best, float(np.max(np.abs(vals))))
    return best


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
    """Normalised DFT ``fft(f) / M`` of M equispaced unit-circle samples:
    entry k is the coefficient of ``w^k`` (k < M/2) or ``w^(k-M)`` up to
    aliasing. Raises unless ``M >= 4 n_trunc``, as :func:`coeffs_from_circle`."""
    vals = np.asarray(fvals, dtype=complex)
    m = vals.size
    if m < 4 * n_trunc or m < 1:
        raise InsufficientSamplesError(
            f"need at least 4N={4 * n_trunc} samples, got {m}"
        )
    return np.fft.fft(vals) / m


def band_coeffs(spectrum: np.ndarray, n_trunc: int) -> np.ndarray:
    """Coefficients ``|n| <= n_trunc`` of a :func:`circle_spectrum`, in the
    dense order of :class:`LaurentSeries`."""
    return spectrum[np.arange(-n_trunc, n_trunc + 1) % spectrum.size]


@dataclass(frozen=True)
class DecayReport:
    """Outcome of a coefficient-decay audit against a sup-norm bound."""

    norm_sigma: float
    per_index_ok: dict = field(default_factory=dict)
    passed: bool = True
    worst_index: int | None = None
    worst_excess: float = 0.0

    def tail_mass(self, s: LaurentSeries, sigma_prime: float) -> float:
        """Bound for the sup on the ``sigma'``-annulus of the discarded tail
        ``|n| > N``, from the geometric decay model: each missing coefficient
        contributes at most ``norm_sigma e^{-|n|(sigma - sigma')}``."""
        if not (0 < sigma_prime < s.width):
            raise AnnulusDomainError(
                f"tail estimate needs 0 < sigma_prime < width, got {sigma_prime}"
            )
        gap = s.width - sigma_prime
        n_t = s.truncation
        # 2 * sum_{n > N} e^{-n*gap} = 2 e^{-(N+1) gap} / (1 - e^{-gap})
        return float(
            self.norm_sigma * 2.0 * np.exp(-(n_t + 1) * gap) / (1.0 - np.exp(-gap))
        )


def decay_check(
    s: LaurentSeries, norm_sigma: float, slack: float = 1e-12
) -> DecayReport:
    """Check ``|c_n| <= norm_sigma e^{-|n| width}`` index by index.

    ``norm_sigma`` must be a certified sup-norm bound for the underlying
    function at the series' own width; any analytic function obeys this decay
    (Cauchy estimates on the bounding circles), so a violation flags either a
    bad norm bound or a non-analytic artifact.
    """
    n = s.indices()
    keep = n != 0
    n = n[keep]
    c = s.coeffs[keep]
    # hypot is the modulus Python's abs(complex) computes; numpy's complex
    # absolute may differ from it in the last bit
    excess = np.hypot(c.real, c.imag) - norm_sigma * np.exp(-np.abs(n) * s.width)
    good = excess <= slack * max(1.0, norm_sigma)
    # the worst index is the lowest failing n of largest positive excess;
    # a NaN excess fails but is never the worst
    bad = np.flatnonzero(~good & (excess > 0.0))
    worst = bad[np.argmax(excess[bad])] if bad.size else None
    return DecayReport(
        norm_sigma=float(norm_sigma),
        per_index_ok=dict(zip(n.tolist(), good.tolist())),
        passed=bool(np.all(good)),
        worst_index=None if worst is None else int(n[worst]),
        worst_excess=0.0 if worst is None else float(excess[worst]),
    )


def log_derivative_majorant(s: LaurentSeries, sigma_prime: float) -> float:
    """Upper bound ``sum |n| |c_n| e^{|n| sigma'}`` for
    ``sup |d/dzeta s(e^zeta)|`` on the strip ``|Re zeta| < sigma'``."""
    if not (0 < sigma_prime <= s.width):
        raise AnnulusDomainError(
            f"sigma_prime={sigma_prime} not in (0, {s.width}]"
        )
    return _weighted_sum(s, sigma_prime, 1)
