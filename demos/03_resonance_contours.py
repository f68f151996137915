"""Resonance contours in the coupling plane.

A transition exchanges energy with the oscillator when its dressed energy
matches an odd number of quanta.  The contours of those conditions organize
the whole coupling plane: the lowest orders terminate at the origin (the
bare gaps are 11 and 13 quanta), higher orders march outward.
"""

import numpy as np

from triladder import ModelParams, contour_arc_crossing, resonance_contour

template = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)
angles = np.linspace(0.0, np.pi / 2.0, 61)

# one scan of the ray fan serves all five quantum exchanges
contours = {}
for c in resonance_contour(template, (1, 2), (13, 15, 17, 19, 21),
                           angles=angles, scan_points=110):
    contours[c.delta_n] = c.points
    radii = np.linalg.norm(c.points, axis=1)
    print(f"lower-pair contour, {c.delta_n} quanta: {len(c.points)} points, "
          f"radius {radii.min():.3f}..{radii.max():.3f}")

point, resid = contour_arc_crossing(template, (1, 2), 11, 1e-3)
print(f"\nthe 11-quantum contour passes within 1e-3 of the origin: "
      f"g = ({point[0]:.2e}, {point[1]:.2e}), residual {resid:.1e}")
point, resid = contour_arc_crossing(template, (2, 3), 13, 1e-3)
print(f"the upper-pair 13-quantum contour as well: "
      f"g = ({point[0]:.2e}, {point[1]:.2e}), residual {resid:.1e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5.5, 4.5))
    for dn, pts in contours.items():
        ax.plot(pts[:, 0], pts[:, 1], ".", ms=3, label=f"{dn}")
    ax.set_xlabel("g1")
    ax.set_ylabel("g2")
    ax.legend(title="quanta", fontsize=8)
    fig.tight_layout()
    fig.savefig("resonance_contours.png", dpi=120)
    print("wrote resonance_contours.png")
except ImportError:
    print("matplotlib not available; skipped the figure")
