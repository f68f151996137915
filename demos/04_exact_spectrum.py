"""Exact windowed spectrum: periodic pattern and level tracking.

Diagonalizing one parity sector of the full Hamiltonian on a Fock window
around n0 = 1e8 shows the repeating three-curve pattern, and eigenvector
overlap tracks each dressed level through the coupling sweep even where the
energy ordering changes.
"""

import numpy as np

from triladder import ModelParams, build_hamiltonian, eigen_near, track_levels

n0 = 10**8
template = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, n0)

h = build_hamiltonian(template.with_couplings(0.5, 0.5), n0, 400, "even")
print(f"even sector at g1 = g2 = 0.5: dimension {h.dim}, "
      f"bands {h.bands.shape[0] - 1} below the diagonal")

vals, _ = eigen_near(h, 12.0, 9)   # energies are measured from n0
print("central eigenvalues minus n0:", np.round(np.sort(vals), 6))
print("(three per two-quantum period)")

which = [(1, n0 + 1), (2, n0), (3, n0 + 1)]
tracked = track_levels(template, (0.0, 0.0), (0.9, 0.27), 19, n0, 400, which)
print("\ntracked dressed levels along g2 = 0.3 g1:")
print("   g1      level1    level2    level3")
rungs = np.array([1.0, 0.0, 1.0])   # n - n0 of each tracked label
for row in range(0, 19, 3):
    g1 = tracked.gs[row, 0]
    dressed = tracked.energies[row] - rungs
    print(f"  {g1:.2f}   {dressed[0]:8.4f}  {dressed[1]:8.4f}  {dressed[2]:8.4f}")
print(f"energy-order changes along the way: {len(tracked.relabelings)}")
