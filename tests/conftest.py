"""Shared brute-force oracles, deliberately independent of the library paths.

The fiber oracle splits the multiset position-blind: it tries every count of
every value for the r side (including counts the library prunes a priori)
and keeps what the family predicates admit.  The signed-permutation oracle
expands a cycle type to a concrete permutation of [1, nu] commuting with the
flip i -> nu+1-i and reads the cycle data straight off it.

``uses_by_function`` is the ``ast`` scan shared by the allowlist tests of the
trusted constructors.  ``route_twos`` seeds the routing mutations of the
B/D sweep tests.  ``parse_first`` is the exceptional table lookup that
parses or normalizes every string and scans the lines, with no index, and
``outcome`` compares its value or error with the library's.
"""

import ast
from collections import Counter
from itertools import product

from weyl2uni import DomainError, Partition, UnknownLabel, is_member, type_bd
from weyl2uni.exceptional import CarterLabel, normalize_name
from weyl2uni.weyl import GroupKind, SignedCycleType


def brute_fiber(c: Partition, r_family, p_family) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (r, p) multiset split of c with r in r_family and p in p_family."""
    values = sorted(set(c.parts))
    counts = [c.parts.count(v) for v in values]
    out = set()
    for combo in product(*(range(q + 1) for q in counts)):
        r_parts, p_parts = [], []
        for v, take, q in zip(values, combo, counts):
            r_parts += [v] * take
            p_parts += [v] * (q - take)
        r, p = Partition(r_parts), Partition(p_parts)
        if is_member(r, r_family) and is_member(p, p_family):
            out.add((r.parts, p.parts))
    return out


def value_counts(c: Partition) -> Counter:
    return Counter(c.parts)


def signed_permutation(w: SignedCycleType, g: GroupKind) -> dict[int, int]:
    """One permutation of [1, nu] commuting with i -> nu+1-i of cycle type w.

    Coordinates 1..n map to positions 1..n, coordinate -i to nu+1-i; each
    cycle is laid out on consecutive coordinates with the sign flip (for
    negative cycles) on the wrap-around step.
    """
    n, nu = g.rank, g.nu

    def pos(i: int) -> int:  # signed coordinate to position in [1, nu]
        return i if i > 0 else nu + 1 + i

    perm = {}
    offset = 0
    for d, negative in [(d, False) for d in w.positive] + [(d, True) for d in w.negative]:
        coords = list(range(offset + 1, offset + d + 1))
        for a, b in zip(coords, coords[1:]):
            perm[pos(a)] = pos(b)
            perm[pos(-a)] = pos(-b)
        last, first = coords[-1], coords[0]
        if negative:
            perm[pos(last)] = pos(-first)
            perm[pos(-last)] = pos(first)
        else:
            perm[pos(last)] = pos(first)
            perm[pos(-last)] = pos(-first)
        offset += d
    if nu % 2:  # the middle point is forced fixed
        mid = n + 1
        perm[mid] = mid
    assert sorted(perm) == sorted(perm.values()) == list(range(1, nu + 1))
    flip = {i: nu + 1 - i for i in range(1, nu + 1)}
    assert all(perm[flip[i]] == flip[perm[i]] for i in range(1, nu + 1))
    return perm


def permutation_cycles(perm: dict[int, int]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    cycles = []
    for start in sorted(perm):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        cycles.append(tuple(cyc))
    return cycles


def cycle_split_by_flip(w: SignedCycleType, g: GroupKind) -> tuple[list[int], list[int]]:
    """(sizes of flip-invariant cycles, sizes of the rest) read off a matrix."""
    nu = g.nu
    perm = signed_permutation(w, g)
    invariant, rest = [], []
    for cyc in permutation_cycles(perm):
        mirrored = {nu + 1 - i for i in cyc}
        (invariant if mirrored == set(cyc) else rest).append(len(cyc))
    return sorted(invariant, reverse=True), sorted(rest, reverse=True)


def uses_by_function(tree, name):
    """Names of the functions whose own bodies mention ``name``; "<module>" outside any."""
    found = set()

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute) and child.attr == name
                or isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Constant) and child.value == name
            ):
                found.add(fn)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
            elif isinstance(child, ast.Lambda):
                walk(child, "<lambda>")
            else:
                walk(child, fn)

    walk(tree, "<module>")
    return found


def route_twos(monkeypatch, m_of_q) -> None:
    """Mutate the B/D routing: each run (2, q) sends ``m_of_q(q)`` copies to r.

    Wraps ``type_bd._route_choices``.  An even run leaves the one bit the
    routing carries along as it is, so every other run keeps its choice, as
    under a mutation of rule 1 alone.
    """
    original = type_bd._route_choices

    def mutated(runs):
        return tuple([m_of_q(q) if e == 2 else m for (e, q), m in zip(runs, original(runs))])

    monkeypatch.setattr(type_bd, "_route_choices", mutated)


def parse_first(table, kind, arg):
    """The lookup as it reads when every string is parsed or normalized before the index."""
    if kind == "psi":
        name = normalize_name(arg)
        for line in table.lines:
            if line.name == name:
                return line.labels[0]
        raise UnknownLabel(
            f"no unipotent class {arg!r} in the {table.group} table ({table.characteristic})"
        )
    if kind == "fixed_space_dim":
        label = arg if isinstance(arg, CarterLabel) else CarterLabel.parse(arg)
        if label.rank > table.weyl_rank:
            raise DomainError(f"label {label.raw} has rank {label.rank} above the Weyl rank")
        return table.weyl_rank - label.rank
    raw = arg.raw if isinstance(arg, CarterLabel) else CarterLabel.parse(arg).raw
    for line in table.lines:
        if any(lab.raw == raw for lab in line.labels):
            return line.name
    raise UnknownLabel(f"no class {raw!r} in the {table.group} table ({table.characteristic})")


def outcome(lookup, *args):
    """The value returned, or the type and message of the exception raised."""
    try:
        return "value", lookup(*args)
    except Exception as exc:  # every exception type is compared, not only DomainError
        return type(exc), str(exc)
