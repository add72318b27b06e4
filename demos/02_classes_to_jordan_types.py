#!/usr/bin/env python3
"""From signed cycle types to unipotent Jordan types and back.

Conjugacy classes of the B/C/D Weyl groups are pairs of partitions (positive
and negative cycle lengths).  phi_classical sends a class to a Jordan type;
psi_classical picks, among all classes with that image, the unique one whose
fixed space on the reflection module is smallest.
"""

from weyl2uni import Partition
from weyl2uni.weyl import (
    GroupKind,
    JordanType,
    SignedCycleType,
    enumerate_classes,
    fixed_space_dim,
    fixed_space_dim_from_matrix,
    is_split_class,
    phi_classical,
    psi_classical,
)

print("== one fiber in C_3, spelled out ==")
g = GroupKind("C", 3)
target = Partition([2, 2, 1, 1])
print(f"classes of C_3 mapping to Jordan type {target.text()}:")
for w in enumerate_classes(g):
    j = phi_classical(w, g)
    if j.parts == target:
        print(f"  {w.text():22} fixed-space dim {fixed_space_dim(w)}")
section = psi_classical(JordanType(target, -1), g)
print(f"the section picks: {section.text()}")

print()
print("== the matrix oracle agrees with the closed form ==")
w = SignedCycleType(Partition([2, 1]), Partition([3]))
g6 = GroupKind("B", 6)
print(f"class {w.text()} in B_6:")
print(f"  positive-cycle count: {fixed_space_dim(w)}")
print(f"  nullity of (M - I):   {fixed_space_dim_from_matrix(w, g6)}")

print()
print("== series D and the fused classes ==")
gd = GroupKind("D", 4)
for w in enumerate_classes(gd):
    if is_split_class(w, gd):
        j = phi_classical(w, gd)
        print(f"  {w.text():18} -> very even Jordan type {j.text()} (fused pair, flagged)")
