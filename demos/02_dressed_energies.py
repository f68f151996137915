"""Dressed energies: classical orbit average versus the grid oracle.

The dressed part of each level is the average of its adiabatic curve over
the classical oscillator orbit.  At large quantum numbers this average
depends only on the dimensionless couplings, and it converges onto the
brute-force solution of the one-dimensional problem as n grows.
"""

import numpy as np

from triladder import ModelParams, h0_level_fd, wkb_levels

print("dressed levels at g1 = g2 = 0.5 (bare: 0, 11, 24):")
template = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)
print("  ", np.round(wkb_levels(template.with_couplings(0.5, 0.5)), 4))

print("\norbit average vs grid solution at matched couplings:")
for n in (100, 400, 1000):
    p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.5, n)
    worst = max(abs(wkb_levels(p, n)[j - 1] - h0_level_fd(p, j, n)) for j in (1, 2, 3))
    print(f"  n = {n:5d}: worst |average - grid| = {worst:.2e}")

print("\nthe disagreement falls roughly like 1/n; at n = 1e8 the average is,")
print("for practical purposes, the exact dressed energy")
