#!/usr/bin/env python3
"""The exceptional lookup tables and their bad-characteristic variants.

Each table line is one fiber: the classes listed first to last, then the
unipotent class they share.  The first label always has strictly maximal
diagram rank, i.e. strictly minimal fixed-space dimension, which is why the
section can simply read off the head of the line.
"""

from weyl2uni.exceptional import load_table

print("== F4 in good characteristic ==")
f4 = load_table("F4")
for line in f4.lines[:5]:
    labels = ", ".join(str(l) for l in line.labels)
    print(f"  [{labels}] -> {line.name}")
print("  ...")

print()
print("== ranks mechanize the first-is-minimal inspection ==")
line = next(l for l in f4.lines if l.name == "A_1+Ã_1")
for label in line.labels:
    print(f"  {str(label):10} rank {label.rank}  fixed-space dim {f4.fixed_space_dim(label)}")

print()
print("== lookups ==")
print(f"  phi(F4, A_3)        = {f4.phi('A_3')}")
print(f"  psi(F4, C_3(a_1))   = {f4.psi('C_3(a_1)')}")
e8 = load_table("E8")
print(f"  phi(E8, E_8(a_8))   = {e8.phi('E_8(a_8)')}")
print(f"  psi(E8, 2A_4)       = {e8.psi('2A_4')}")
print(f"  aliases work too    : phi(G2, tA_1) = {load_table('G2').phi('tA_1')}")

print()
print("== characteristic 2 reshapes a few F4 fibers ==")
f4p2 = load_table("F4", "p2")
good_lines = {(tuple(str(l) for l in line.labels), line.name) for line in f4.lines}
for line in f4p2.lines:
    key = (tuple(str(l) for l in line.labels), line.name)
    if key not in good_lines:
        labels = ", ".join(str(l) for l in line.labels)
        print(f"  new line: [{labels}] -> {line.name}")
