"""Batch driver: construction printouts and the verification suites.

Exit codes: 0 all checks pass, 1 an exact identity failed, 2 usage error,
3 the kernel raised an error (one JSON line on stderr names it).
Reports carry no timestamps, so a fixed configuration always produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import NuGrassError
from .atlas import get_atlas, transition_symbolic, verify_cocycle
from .action import BasePoint, verify_action_axioms, verify_action_gluing, verify_transitivity
from .nulie import h_report
from .reports import Report, dumps


def parse_index(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse an index like  {1,2}|{3}  (use {} or an empty side for the
    empty set; a lone unicode empty-set sign is accepted too)."""
    if "|" not in text:
        raise ValueError(f"expected I|R syntax, got {text!r}")
    parts = text.split("|")
    if len(parts) != 2:
        raise ValueError(f"expected exactly one divider in {text!r}")

    def side(s: str) -> tuple[int, ...]:
        s = s.strip().strip("{}").replace("∅", "").strip()
        if not s:
            return ()
        return tuple(int(tok) for tok in s.split(","))

    return side(parts[0]), side(parts[1])


def _add_dims(p: argparse.ArgumentParser):
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)


def _add_sampling(p: argparse.ArgumentParser, default_r: int = 2):
    p.add_argument("-r", type=int, default=default_r, help="odd probe dimension")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)


def _check_dims(parser, args):
    if not (0 <= args.k <= args.m and 0 <= args.l <= args.n):
        parser.error(f"need 0 <= k <= m and 0 <= l <= n, got {args.k}|{args.l}({args.m}|{args.n})")
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be at least 1")
    if getattr(args, "r", 0) < 0:
        parser.error("-r must be non-negative")


def _write_out(args, payload: str) -> None:
    """Write payload to --out, if given; an unwritable file is a usage error."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"nugrass: error: cannot write --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            raise SystemExit(2) from None


def _emit(report: Report, args) -> int:
    payload = report.to_json() + "\n"
    _write_out(args, payload)
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(payload)
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_atlas(parser, args) -> int:
    _check_dims(parser, args)
    atlas = get_atlas(args.k, args.l, args.m, args.n)
    if args.format == "json":
        data = {
            "k": args.k, "l": args.l, "m": args.m, "n": args.n,
            "alpha": atlas.charts[0].alpha,
            "beta": atlas.charts[0].beta,
            "charts": [
                {
                    "I": list(c.index.I),
                    "R": list(c.index.R),
                    "standard": c.index.standard,
                    "label": c.label_tokens(),
                }
                for c in atlas.charts
            ],
        }
        print(dumps(data))
    else:
        a, b = atlas.charts[0].alpha, atlas.charts[0].beta
        print(f"nu-Grassmannian {args.k}|{args.l}({args.m}|{args.n}): "
              f"{len(atlas.charts)} charts, each of dimension {a}|{b}")
        for c in atlas.charts:
            kind = "standard" if c.index.standard else "non-standard"
            print(f"\nchart {c.index}  ({kind})")
            print(c.pretty_label())
    return 0


def cmd_transition(parser, args) -> int:
    _check_dims(parser, args)
    atlas = get_atlas(args.k, args.l, args.m, args.n)
    try:
        src = atlas.chart(*parse_index(args.src))
        dst = atlas.chart(*parse_index(args.dst))
    except (ValueError, KeyError) as exc:
        parser.error(f"bad chart index: {exc}")
    t = transition_symbolic(src, dst)
    if args.format == "json":
        data = {
            "from": str(src.index),
            "to": str(dst.index),
            "assignments": {name: t.assignments[name].to_dict() for name in dst.coords},
        }
        print(dumps(data))
    else:
        print(f"pasting map {src.index} -> {dst.index} (target coordinates in "
              f"source functions):")
        for name in dst.coords:
            print(f"  {name} -> {t.assignments[name]!r}")
    return 0


def cmd_verify_cocycle(parser, args) -> int:
    _check_dims(parser, args)
    if args.r < 1:
        parser.error("the cocycle suite needs -r >= 1")
    if args.audit_nu_triples < 0:
        parser.error("--audit-nu-triples must be non-negative")
    rep = verify_cocycle(args.k, args.l, args.m, args.n, r=args.r,
                         samples=args.samples, seed=args.seed,
                         audit_nu_triples=args.audit_nu_triples)
    return _emit(rep, args)


def cmd_verify_action(parser, args) -> int:
    _check_dims(parser, args)
    if args.r < 1:
        parser.error("the action suite needs -r >= 1")
    glue = verify_action_gluing(args.k, args.l, args.m, args.n, r=args.r,
                                samples=args.samples, seed=args.seed)
    axioms = verify_action_axioms(args.k, args.l, args.m, args.n, r=args.r,
                                  samples=args.samples, seed=args.seed)
    merged = Report(suite="action", config=glue.config,
                    results=glue.results + axioms.results,
                    notes=glue.notes + axioms.notes)
    return _emit(merged, args)


def cmd_transitivity(parser, args) -> int:
    _check_dims(parser, args)
    base = None
    if args.base1 or args.base2:
        try:
            p1 = json.loads(args.base1) if args.base1 else []
            p2 = json.loads(args.base2) if args.base2 else []
            base = BasePoint(p1, p2, m=args.m, n=args.n)
        except (ValueError, TypeError, ArithmeticError) as exc:
            parser.error(f"bad base point: {exc}")
    try:
        rep = verify_transitivity(args.k, args.l, args.m, args.n, r=args.r,
                                  count=args.samples, seed=args.seed, base=base)
    except ValueError as exc:  # the base point does not fit the atlas
        parser.error(f"bad base point: {exc}")
    return _emit(rep, args)


def cmd_nulie(parser, args) -> int:
    _check_dims(parser, args)
    data = h_report(args.k, args.l, args.m, args.n)
    payload = dumps(data) + "\n"
    _write_out(args, payload)
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        print(f"nu-commutant of gl({args.m}|{args.n}) acting on "
              f"{args.k}|{args.l}({args.m}|{args.n}):")
        print(f"  dim even = {data['dim_even']}, dim odd = {data['dim_odd']}")
        for Y in data["basis_even"]:
            print(f"  even basis: {Y}")
        for Y in data["basis_odd"]:
            print(f"  odd basis: {Y}")
        print(f"  defect residual: {data['defect_residual']}")
        print(f"  bracket closed: {data['bracket_closed']}, "
              f"Jacobi exact: {data['jacobi_exact']}")
        print(f"  bracket-compatibility sign: {data['sign_s']}")
    ok = (
        data["defect_residual"] == "0"
        and data["bracket_closed"]
        and data["jacobi_exact"]
        and data["rho_morphism_ok"]
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nugrass",
        description="Exact nu-Grassmannian kernel: atlas construction and "
                    "verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atlas", help="list charts, dimensions and labels")
    _add_dims(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("transition", help="print one symbolic pasting map")
    _add_dims(p)
    p.add_argument("--from", dest="src", required=True,
                   help='source index, e.g. "{}|{1}"')
    p.add_argument("--to", dest="dst", required=True,
                   help='destination index, e.g. "{}|{2}"')
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("verify-cocycle", help="identity, pair and triple pasting checks")
    _add_dims(p)
    _add_sampling(p)
    p.add_argument("--audit-nu-triples", type=int, default=0,
                   help="additionally sample this many non-gating cycles "
                        "through non-standard charts")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify_cocycle)

    p = sub.add_parser("verify-action", help="gluing square and action axioms")
    _add_dims(p)
    _add_sampling(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify_action)

    p = sub.add_parser("transitivity", help="construct and post-check witnesses")
    _add_dims(p)
    _add_sampling(p, default_r=4)
    p.add_argument("--base1", help="JSON rows of the even base block")
    p.add_argument("--base2", help="JSON rows of the odd base block")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_transitivity)

    p = sub.add_parser("nulie", help="compute the nu-commutant subalgebra")
    _add_dims(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_nulie)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        code = args.func(parser, args)
    except NuGrassError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    print(f"[{args.command}: {time.time() - t0:.2f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
