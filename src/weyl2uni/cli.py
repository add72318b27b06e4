"""Command-line surface: phi, psi, fiber, encode, mc, table, verify.

Classical classes are written ``pos=<partition>;neg=<partition>`` and
partitions as comma-separated parts with ``-`` for empty; classical ``phi``
prints valid ``--jordan`` input and ``psi`` valid ``--class`` input.
Exceptional labels accept the ASCII aliases ("tA_1", "A~_1", straight quotes
for primes).  Domain errors exit 1 with a message naming the violated
invariant; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .exceptional import GROUPS, load_table
from .partitions import ContradictionError, DomainError, Partition
from .weyl import (
    SERIES,
    SIDES,
    TOTAL_PARITY,
    GroupKind,
    JordanType,
    SignedCycleType,
    _check_class,
    encode_class,
    fixed_space_dim,
    phi_classical,
    psi_classical,
)


def _print_json(value) -> None:
    import json  # here, not at module level: ``import weyl2uni.cli`` stays free of json

    print(json.dumps(value, ensure_ascii=False))


def _emit(args, text_value: str, json_value) -> None:
    if args.format == "json":
        _print_json(json_value)
    else:
        print(text_value)


_CHAR_TAGS = {"good": "good", "0": "good", "2": "p2", "3": "p3", "p2": "p2", "p3": "p3"}


def _group_for(series: str, nu: int) -> GroupKind:
    if nu % 2 != TOTAL_PARITY[series]:
        raise DomainError(f"series {series} needs an {'odd' if TOTAL_PARITY[series] else 'even'} total, got {nu}")
    return GroupKind(series, nu // 2)


def _parse_jordan(series: str, text: str, nu_flag: int | None) -> tuple[JordanType, GroupKind]:
    parts = Partition.from_text(text)
    if nu_flag is not None and nu_flag != parts.size:
        raise DomainError(f"--nu {nu_flag} contradicts the block total {parts.size}")
    g = _group_for(series, parts.size)
    return JordanType(parts, g.epsilon), g


def _need(args, parser, *names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        parser.error(f"missing required flag(s): {', '.join('--' + n for n in missing)}")


def _cmd_phi(args, parser) -> int:
    if args.group:
        _need(args, parser, "label")
        table = load_table(args.group, _CHAR_TAGS[args.p])
        name = table.phi(args.label)
        _emit(args, name, {"group": args.group, "characteristic": args.p, "name": name})
        return 0
    _need(args, parser, "series", "class")
    w = SignedCycleType.from_text(getattr(args, "class"))
    g = GroupKind(args.series, w.rank)
    j = phi_classical(w, g)
    _emit(args, j.text(), {"series": args.series, "class": w.to_json(g), "jordan": j.parts.to_json()})
    return 0


def _cmd_psi(args, parser) -> int:
    if args.group:
        _need(args, parser, "name")
        table = load_table(args.group, _CHAR_TAGS[args.p])
        label = table.psi(args.name)
        _emit(args, str(label), {"group": args.group, "characteristic": args.p, "label": str(label)})
        return 0
    _need(args, parser, "series", "jordan")
    j, g = _parse_jordan(args.series, args.jordan, args.nu)
    w = psi_classical(j, g)
    _emit(args, w.text(), {"series": args.series, "jordan": j.parts.to_json(), "class": w.to_json(g)})
    return 0


def _cmd_fiber(args, parser) -> int:
    _need(args, parser, "series", "jordan")
    j, g = _parse_jordan(args.series, args.jordan, args.nu)
    splits = SIDES[g.series].fiber(j.parts)
    if args.format == "json":
        _print_json([s.to_json() for s in splits])
    else:
        for s in splits:
            print(s.text())
    return 0


def _cmd_encode(args, parser) -> int:
    _need(args, parser, "series", "class")
    w = SignedCycleType.from_text(getattr(args, "class"))
    g = GroupKind(args.series, w.rank)
    x = encode_class(w, g)
    if g.series == "C":
        _emit(args, x.text(), x.to_json())
    else:  # the halves form: the negative cycle lengths stand in for r
        _emit(args, f"p'={w.negative.text()};p={x.p.text()};k={g.kappa}",
              {"pprime": w.negative.to_json(), "p": x.p.to_json(), "kappa": g.kappa})
    return 0


def _cmd_mc(args, parser) -> int:
    if args.group:
        _need(args, parser, "label")
        table = load_table(args.group, _CHAR_TAGS[args.p])
        value = table.fixed_space_dim(args.label)
        _emit(args, str(value), {"group": args.group, "label": args.label, "mc": value})
        return 0
    _need(args, parser, "series", "class")
    w = SignedCycleType.from_text(getattr(args, "class"))
    g = GroupKind(args.series, w.rank)
    _check_class(w, g)  # the same class check as phi and encode
    value = fixed_space_dim(w)
    _emit(args, str(value), {"series": args.series, "class": w.to_json(g), "mc": value})
    return 0


def _cmd_table(args, parser) -> int:
    _need(args, parser, "group")
    table = load_table(args.group, _CHAR_TAGS[args.p])
    if args.format == "json":
        payload = {
            "group": table.group,
            "characteristic": table.characteristic,
            "weyl_rank": table.weyl_rank,
            "lines": [
                {"labels": [str(lab) for lab in line.labels], "name": line.name}
                for line in table.lines
            ],
        }
        _print_json(payload)
    else:
        for line in table.lines:
            labels = ",".join(str(lab) for lab in line.labels)
            print(f"{table.group}\t{table.characteristic}\t{labels}\t{line.name}")
    return 0


def _cmd_verify(args, parser) -> int:
    from . import verify  # here, not at module level: the other commands never compile it

    if args.all or not args.series:
        series = verify.ALL_SERIES
    else:
        series = tuple(dict.fromkeys(args.series))
    caps = {cap: value for cap in ("max_nu", "max_rank") if (value := getattr(args, cap)) is not None}
    cfg = verify.SweepConfig(series=series, **caps)
    report = verify.run_all(cfg)
    if args.format == "json" or not report.passed:
        _print_json(report.to_json())
    if args.format != "json" and report.passed:
        print(report.text())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl2uni",
        description="Weyl-group conjugacy classes vs unipotent classes: the map, its section, fibers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, classical=True, exc=True, jordan=False, table_format=False):
        if classical:
            p.add_argument("--series", choices=SERIES, help="classical series")
            if jordan:
                p.add_argument("--jordan", help='Jordan blocks, e.g. "3,1,1"')
                p.add_argument("--nu", type=int, help="optional total size cross-check")
            else:
                p.add_argument("--class", help='class text, e.g. "pos=2;neg=-"')
        if exc:
            p.add_argument("--group", choices=GROUPS, help="exceptional group")
            p.add_argument("--p", choices=sorted(_CHAR_TAGS), default="good",
                           help="characteristic: good (default), 2/p2, or 3/p3")
        if table_format:
            p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        else:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p_phi = sub.add_parser("phi", help="class to unipotent class")
    add_common(p_phi)
    p_phi.add_argument("--label", help="Carter label (exceptional)")
    p_phi.set_defaults(func=_cmd_phi)

    p_psi = sub.add_parser("psi", help="unipotent class to its section class")
    add_common(p_psi, jordan=True)
    p_psi.add_argument("--name", help="unipotent class name (exceptional)")
    p_psi.set_defaults(func=_cmd_psi)

    p_fib = sub.add_parser("fiber", help="all splits over a Jordan type")
    add_common(p_fib, exc=False, jordan=True)
    p_fib.set_defaults(func=_cmd_fiber)

    p_enc = sub.add_parser("encode", help="partition-pair form of a class")
    add_common(p_enc, exc=False)
    p_enc.set_defaults(func=_cmd_encode)

    p_mc = sub.add_parser("mc", help="fixed-space dimension of a class")
    add_common(p_mc)
    p_mc.add_argument("--label", help="Carter label (exceptional)")
    p_mc.set_defaults(func=_cmd_mc)

    p_tab = sub.add_parser("table", help="dump one exceptional table")
    add_common(p_tab, classical=False, table_format=True)
    p_tab.set_defaults(func=_cmd_table)

    p_ver = sub.add_parser("verify", help="run the verification sweeps")
    p_ver.add_argument("--all", action="store_true", help="every series and group")
    p_ver.add_argument("--series", nargs="*", choices=SERIES + GROUPS,
                       help="restrict to these series/groups")
    p_ver.add_argument("--max-nu", type=int, dest="max_nu")
    p_ver.add_argument("--max-rank", type=int, dest="max_rank")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (DomainError, ContradictionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
