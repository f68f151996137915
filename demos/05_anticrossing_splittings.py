"""Level splittings at anticrossings: two-state estimate versus exact gaps.

At every odd-quantum resonance the two product states hybridize; twice the
rotated-frame coupling element between them estimates the splitting.  Along
a line where the lower coupling dominates the estimate tracks the exact gap
to within about 15 percent.  Pushing into the region where upper-level
resonances interfere brings a third level close to the pair: the gap scan
then shows a foreign minimum far below the two-state value beside the
pair's own gap, which the estimate still follows.
"""

from triladder import ModelParams, compare_splittings

template = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)

print("benign line g2 = 0.3 g1:")
print("  quanta   g1*      estimate     exact gap    ratio")
for r in compare_splittings(template, 0.3, [13, 17, 21, 25], g1_max=1.1):
    print(f"    {r.delta_n:2d}   {r.g_star[0]:.4f}   {r.de_pt:.4e}  "
          f"{r.de_exact:.4e}   {r.ratio:.3f}")

print("\ninterference line g2 = 0.1 g1, 23 quanta (doubled resonance):")
for r in compare_splittings(template, 0.1, [23], g1_max=1.0):
    deep = [m for m in r.minima if m[2] < 0.1]
    deepest = min(m[2] for m in r.minima)
    print(f"  estimate {r.de_pt:.3e}, own gap {r.de_exact:.3e} at g1 = {r.g_star[0]:.4f} "
          f"(ratio {r.ratio:.1f}), deepest minimum {deepest:.3e} "
          f"(ratio {r.de_pt / deepest:.1f})")
    for g1, g2, gap in deep:
        print(f"    minimum at g1 = {g1:.4f}: gap {gap:.3e}")
