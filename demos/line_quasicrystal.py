"""
A one-dimensional quasicrystal from the ring Z[sqrt(2)]
=======================================================

Points are the ring elements a + b*sqrt(2) that land in [-R, R] while their
conjugates a - b*sqrt(2) land in the window [-9/10, 11/10].  The script walks
through the checks that make this a well-behaved aperiodic point set.
"""

from fractions import Fraction

from apercut import (
    Box,
    Scheme,
    check_window_regular,
    complexity_table,
    delone_report,
    generate_model_set,
    patch_catalog,
    period_search,
    separation,
)
from apercut.heisenberg import GroupKind
from apercut.quadratic import RingSpec

scheme = Scheme(GroupKind.euclidean(1), RingSpec(2))
window = Box(((Fraction(-9, 10), Fraction(11, 10)),))

# the window must be "regular": no lattice conjugate sits exactly on its
# boundary, and no nontrivial translation maps it onto itself
reg = check_window_regular(scheme, window)
print("window boundary clear:", reg.boundary_clear)
print("window regular:", reg.window_regular)

ms = generate_model_set(scheme, window, Box(((-100, 100),)))
print("points in [-100, 100]:", len(ms.points))

# Delone: a positive minimum gap, certified exactly
sep = separation(ms)
print("exact squared separation:", sep.separation_sq)

# the classical three-gap phenomenon: successive differences take at most
# three distinct values
vals = [p.coords[0] for p in ms.points]
gaps = sorted({vals[i + 1] - vals[i] for i in range(len(vals) - 1)})
print("distinct gaps:", [str(g) for g in gaps])

# finite local complexity: few patch types, and the catalog does not change
# when the sampled region doubles
ms2 = generate_model_set(scheme, window, Box(((-200, 200),)))
for k in (1, 2, 3, 4, 5):
    small = patch_catalog(ms, k)
    big = patch_catalog(ms2, k)
    print(f"radius-{k} patch classes: {small.class_count} "
          f"(unchanged at double region: {small.keys() == big.keys()})")

for cat in complexity_table(ms, [1, 2, 3, 4, 5]):
    print(f"K={cat.radius}: {cat.class_count} classes, "
          f"{cat.center_count} centres")

# aperiodicity: no translation of gauge norm up to 5 preserves the sample
per = period_search(ms, 5, 5)
print("period candidates tested:", per.candidates_tested)
print("surviving periods:", per.nontrivial_periods)

print(delone_report(ms, grid_step=Fraction(1, 4), erosion=Fraction(3)))
