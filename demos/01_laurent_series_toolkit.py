"""Laurent series on annuli: evaluation, certified norms, and decay audits.

Every object downstream is built from these series, so this walkthrough
shows the two norms the package lives on: the weighted coefficient sum
(an upper bound for the sup on the annulus, used in every certificate) and
the sampled sup (a lower bound, used only in reports).
"""

import numpy as np

from circlekam import (
    LaurentSeries,
    coeffs_from_circle,
    decay_check,
    empirical_sup_norm,
    eval_series,
    log_derivative_majorant,
    majorant_norm,
)

print("== a small two-sided series on the annulus e^-1 < |w| < e ==")
s = LaurentSeries.from_coeffs({1: 0.2, -1: -0.2, 3: 0.01, -3: -0.01}, width=1.0)
print(f"truncation N = {s.truncation}, width sigma = {s.width}")
print(f"value at w = 0.9 + 0.1i: {eval_series(s, 0.9 + 0.1j):.6f}")

print("\n== certified upper norm vs sampled lower norm ==")
for sp in (0.25, 0.5, 0.75):
    upper = majorant_norm(s, sp)
    lower = empirical_sup_norm(s, sp, 512)
    print(f"sigma' = {sp:.2f}:  sampled {lower:.6f}  <=  certified {upper:.6f}")

print("\n== coefficients from unit-circle samples (plain DFT) ==")
m = 64
w = np.exp(2j * np.pi * np.arange(m) / m)
recovered = coeffs_from_circle(eval_series(s, w), n_trunc=8, width=1.0)
err = max(abs(recovered.coeff(n) - s.coeff(n)) for n in range(-8, 9))
print(f"round-trip error through {m} samples: {err:.2e}")

print("\n== decay audit: analytic functions decay geometrically ==")
f_vals = np.exp(0.3 * (w + 1.0 / w))  # entire in w and 1/w
series = coeffs_from_circle(f_vals, n_trunc=12, width=1.0)
bound = float(np.exp(0.3 * (np.e + 1.0 / np.e)))  # sup bound on the annulus
rep = decay_check(series, bound)
print(f"all indices within the decay envelope: {rep.passed}")
print(f"largest excess over the envelope: {rep.worst_excess:.2e}")

print("\n== derivative control on a strip ==")
print(f"log-lift derivative bound at sigma' = 0.5: "
      f"{log_derivative_majorant(s, 0.5):.6f}")
