"""Analytic circle diffeomorphisms: expansion, rotation numbers,
composition, inversion.

Maps are stored multiplicatively as w -> w exp(i phase + hat(w)) with a
reality-symmetric hat, which is exactly the class of maps preserving the
unit circle. Everything is driven by unit-circle sampling plus branch-
tracked logarithms.
"""

import numpy as np

from circlekam import (
    CircleDiffeo,
    LaurentSeries,
    compose,
    eval_diffeo,
    expand_detailed,
    invert,
    rotation,
    rotation_number,
    unit_circle,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

print("== build a perturbed rotation and inspect it ==")
eps = 0.02
hat = LaurentSeries.from_coeffs({1: eps, -1: -eps}, width=1.0)
f = CircleDiffeo(2.0 * np.pi * GOLDEN, hat)
print(f"phase = {f.phase:.6f}, hat modes at +-1 of size {eps}")
defect = np.max(np.abs(np.abs(eval_diffeo(f, unit_circle(1024))) - 1.0))
print(f"unit circle preserved to {defect:.2e}")

print("\n== expansion from samples recovers the data ==")
g, info = expand_detailed(eval_diffeo(f, unit_circle(64)), n_trunc=8, width=1.0)
print(f"phase error {abs(g.phase - f.phase):.2e}, "
      f"c1 error {abs(g.hat.coeff(1) - eps):.2e}, "
      f"discarded tail {info.tail_mass:.2e}")

print("\n== rotation number: weighted Birkhoff average of the lift orbit ==")
rho = rotation_number(f)
print(f"rho(f) = {rho:.10f}  (phase / 2 pi = {GOLDEN:.10f})")
print(f"offset created by the perturbation: {abs(rho - GOLDEN):.2e}")

print("\n== composition and inversion ==")
r = rotation(0.4, width=1.0)
h = compose(f, r, out_width=0.8)
print(f"compose(f, R): phase {h.phase:.6f} = {f.phase:.6f} + 0.4 (mod 2 pi)")
f_inv = invert(f, out_width=0.7)
w = unit_circle(128)
resid = np.max(np.abs(eval_diffeo(f_inv, eval_diffeo(f, w)) - w))
print(f"f^-1 o f = id on the circle to {resid:.2e}")
print(f"phases cancel: {(f.phase + f_inv.phase) % (2 * np.pi):.2e}")
