"""Which weyl2uni calls the traced run records, and the counts taken beside them.

Every span name is ``<module>.<function>``, one per layer boundary listed in
WORKLOADS.md.  The counts are taken at the same boundaries by hooks that run
outside the spans:

* ``is_member.<tag>``: membership tests by family tag.
* ``iter_partitions.yielded`` and ``members``: partitions yielded, and those
  of them that the next ``is_member`` test on the same object accepted.
* ``<module>.candidates`` and ``<module>.yielded``: fiber candidates implied
  by the multiplicities of the input, and splits ``iter_fiber`` yielded.
"""

from __future__ import annotations

from collections import Counter

from weyl2uni import exceptional, partitions, type_bd, type_c, verify, weyl

from tracer import Tracer


def candidates_c(c) -> int:
    """Choices iter_fiber makes in type C: an even count of each even value to p."""
    n = 1
    for value, q in Counter(c.parts).items():
        if value % 2 == 0:
            n *= q // 2 + 1
    return n


def candidates_bd(c) -> int:
    """Choices in types B/D: 0-2 copies of an odd value to r, an even count of an even value to p."""
    n = 1
    for value, q in Counter(c.parts).items():
        if value % 2:
            n *= sum(1 for m in (0, 1, 2) if m <= q and (q - m) % 2 == 0)
        else:
            n *= q // 2 + 1
    return n


def install(tr: Tracer) -> None:
    """Wrap every traced call; undo with ``tr.uninstall()``."""
    counts = tr.counts
    last = {"yielded": None}

    def count_tag(c, f):
        counts["is_member." + (f if isinstance(f, str) else f.tag)] += 1

    def count_member(out, c, f):
        if c is last["yielded"]:
            last["yielded"] = None
            if out:
                counts["members"] += 1

    def count_partition(item):
        counts["iter_partitions.yielded"] += 1
        last["yielded"] = item

    def fn(module, attr, **hooks):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tr.replace_function(module, attr, tr.wrap(name, getattr(module, attr), **hooks))

    def gen(module, attr, **hooks):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tr.replace_function(module, attr, tr.wrap_generator(name, getattr(module, attr), **hooks))

    # partitions
    tr.replace_method(partitions.Partition, "__init__",
                      tr.wrap("partitions.partition", partitions.Partition.__init__))
    fn(partitions, "is_member", before=count_tag, after=count_member)
    gen(partitions, "iter_partitions", per_item=count_partition)

    # the two split engines
    for module, candidates in ((type_c, candidates_c), (type_bd, candidates_bd)):
        key = module.__name__.rsplit(".", 1)[-1]

        def count_candidates(c, _key=key, _candidates=candidates):
            counts[_key + ".candidates"] += _candidates(c)

        def count_yield(item, _key=key):
            counts[_key + ".yielded"] += 1

        for attr in ("canonical_split", "minimal_split", "fiber"):
            fn(module, attr)
        gen(module, "iter_fiber", before=count_candidates, per_item=count_yield)
    fn(type_bd, "blocks_from_halves")
    fn(type_bd, "halves_from_blocks")

    # weyl
    for attr in ("psi_classical", "phi_classical", "decode_class",
                 "fixed_space_dim_from_matrix", "enumerate_classes"):
        fn(weyl, attr)

    # verify
    for attr in ("check_classical", "check_bridge", "check_exceptional"):
        fn(verify, attr)

    # exceptional
    fn(exceptional, "load_table")
    fn(exceptional, "verify_table")
    parse = exceptional.CarterLabel.__dict__["parse"].__func__
    tr.replace_method(exceptional.CarterLabel, "parse",
                      classmethod(tr.wrap("exceptional.label_parse", parse)))
    for attr in ("phi", "psi", "fixed_space_dim"):
        tr.replace_method(exceptional.MapTable, attr,
                          tr.wrap("exceptional.lookup", getattr(exceptional.MapTable, attr)))

