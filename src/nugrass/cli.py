"""Batch driver: construction printouts and the verification suites.

Each subcommand is one row of build_parser's table.  main checks the
arguments of every subcommand once, in _check_dims, and every handler
prints through _emit.

Exit codes: 0 all checks pass, 1 an exact identity failed, 2 usage error,
3 the program raised an error, the kernel's or any other (one JSON line on
stderr names it), 141 the reader closed stdout early (the status a shell
reports for a writer that SIGPIPE killed).
Reports carry no timestamps, so a fixed configuration always produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import RankDeficient
from .atlas import get_atlas, transition_symbolic, verify_cocycle
from .action import BasePoint, verify_action_axioms, verify_action_gluing, verify_transitivity
from .nulie import h_report
from .reports import Report, dumps
from .superalgebra import from_flat

# The Lambda_r product kernel is generated code with 3**r products, so each
# step of r triples it; a process that builds the r = 10 kernel already peaks
# above 300 MB.
MAX_R = 10


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


def _check_dims(parser, args):
    if not (0 <= args.k <= args.m and 0 <= args.l <= args.n):
        parser.error(f"need 0 <= k <= m and 0 <= l <= n, got {args.k}|{args.l}({args.m}|{args.n})")
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be at least 1")
    r = getattr(args, "r", 0)
    if r < 0:
        parser.error("-r must be non-negative")
    if args.r_suite and r < 1:
        parser.error(f"the {args.r_suite} suite needs -r >= 1")
    if r > MAX_R:
        parser.error(f"-r must be at most {MAX_R}")
    if getattr(args, "audit_nu_triples", 0) < 0:
        parser.error("--audit-nu-triples must be non-negative")


def _emit(args, payload, text, ok=True) -> int:
    """Write the JSON payload to --out, if given, print the payload
    (--format json) or the text, and return 1 if not ok, else 0.

    payload and text are callables returning a string without its final
    newline, so only the forms that are written get built.  An unwritable
    --out is a usage error and prints nothing to stdout.
    """
    out = getattr(args, "out", None)
    data = payload() + "\n" if args.format == "json" or out else None
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"nugrass: error: cannot write --out {out}: {exc.strerror or exc}",
                  file=sys.stderr)
            raise SystemExit(2) from None
    sys.stdout.write(data if args.format == "json" else text() + "\n")
    return 0 if ok else 1


def cmd_atlas(parser, args) -> int:
    atlas = get_atlas(args.k, args.l, args.m, args.n)
    a, b = atlas.charts[0].alpha, atlas.charts[0].beta

    def payload():
        return dumps({
            "k": args.k, "l": args.l, "m": args.m, "n": args.n,
            "alpha": a,
            "beta": b,
            "charts": [
                {
                    "I": list(c.index.I),
                    "R": list(c.index.R),
                    "standard": c.index.standard,
                    "label": c.label_tokens(),
                }
                for c in atlas.charts
            ],
        })

    def text():
        head = (f"nu-Grassmannian {args.k}|{args.l}({args.m}|{args.n}): "
                f"{len(atlas.charts)} charts, each of dimension {a}|{b}")
        return head + "".join(
            f"\n\nchart {c.index}  ({'standard' if c.index.standard else 'non-standard'})"
            f"\n{c.pretty_label()}" for c in atlas.charts)

    return _emit(args, payload, text)


def _chart(parser, atlas, text: str):
    """The chart an --from/--to index names, or a usage error."""
    try:
        return atlas.chart(*parse_index(text))
    except ValueError as exc:
        parser.error(f"bad chart index: {exc}")
    except KeyError:
        parser.error(f"bad chart index: no chart {text} in "
                     f"{atlas.k}|{atlas.l}({atlas.m}|{atlas.n})")


def _exact_rows(text: str | None):
    """JSON rows of a base block; a float literal would bring a binary
    fraction into the exact verifier, and a boolean would pass as 0 or 1,
    so both are refused."""
    def refuse(literal):
        raise ValueError(f"{literal} is a JSON float; write it as a string such as \"1/10\"")
    rows = json.loads(text or "[]", parse_float=refuse)
    for row in rows if isinstance(rows, list) else ():
        for entry in row if isinstance(row, list) else ():
            if isinstance(entry, bool):
                raise ValueError(f"{json.dumps(entry)} is a JSON boolean, not a number")
    return rows


def cmd_transition(parser, args) -> int:
    atlas = get_atlas(args.k, args.l, args.m, args.n)
    src = _chart(parser, atlas, args.src)
    dst = _chart(parser, atlas, args.dst)
    # the canonical SuperFunction of each value, the one use of sympy here
    assignments = {name: from_flat(v.ctx, v.num, v.den)
                   for name, v in transition_symbolic(src, dst).values.items()}

    def payload():
        return dumps({
            "from": str(src.index),
            "to": str(dst.index),
            "assignments": {name: assignments[name].to_dict() for name in dst.coords},
        })

    def text():
        head = f"pasting map {src.index} -> {dst.index} (target coordinates in source functions):"
        return "\n".join([head] + [f"  {name} -> {assignments[name]!r}" for name in dst.coords])

    return _emit(args, payload, text)


def cmd_verify_cocycle(parser, args) -> int:
    rep = verify_cocycle(args.k, args.l, args.m, args.n, r=args.r,
                         samples=args.samples, seed=args.seed,
                         audit_nu_triples=args.audit_nu_triples)
    return _emit(args, rep.to_json, rep.summary, rep.ok)


def cmd_verify_action(parser, args) -> int:
    glue = verify_action_gluing(args.k, args.l, args.m, args.n, r=args.r,
                                samples=args.samples, seed=args.seed)
    axioms = verify_action_axioms(args.k, args.l, args.m, args.n, r=args.r,
                                  samples=args.samples, seed=args.seed)
    merged = Report(suite="action", config=glue.config,
                    results=glue.results + axioms.results,
                    notes=glue.notes + axioms.notes)
    return _emit(args, merged.to_json, merged.summary, merged.ok)


def cmd_transitivity(parser, args) -> int:
    base = None
    if args.base1 or args.base2:
        try:
            base = BasePoint(_exact_rows(args.base1), _exact_rows(args.base2), m=args.m, n=args.n)
        except ZeroDivisionError:
            parser.error("bad base point: an entry has a zero denominator")
        except (ValueError, TypeError, ArithmeticError, RankDeficient) as exc:
            parser.error(f"bad base point: {exc}")
    try:
        rep = verify_transitivity(args.k, args.l, args.m, args.n, r=args.r,
                                  count=args.samples, seed=args.seed, base=base)
    except ValueError as exc:  # the base point does not fit the atlas
        parser.error(f"bad base point: {exc}")
    return _emit(args, rep.to_json, rep.summary, rep.ok)


def cmd_nulie(parser, args) -> int:
    data = h_report(args.k, args.l, args.m, args.n)
    ok = data["defect_residual"] == "0" and all(
        data[key] for key in ("bracket_closed", "jacobi_exact", "rho_morphism_ok"))
    return _emit(args, lambda: dumps(data), lambda: "\n".join([
        f"nu-commutant of gl({args.m}|{args.n}) acting on {args.k}|{args.l}({args.m}|{args.n}):",
        f"  dim even = {data['dim_even']}, dim odd = {data['dim_odd']}",
        *(f"  even basis: {Y}" for Y in data["basis_even"]),
        *(f"  odd basis: {Y}" for Y in data["basis_odd"]),
        f"  defect residual: {data['defect_residual']}",
        f"  bracket closed: {data['bracket_closed']}, Jacobi exact: {data['jacobi_exact']}",
        f"  bracket-compatibility sign: {data['sign_s']}",
    ]), ok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nugrass",
        description="Exact nu-Grassmannian kernel: atlas construction and "
                    "verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every subcommand takes the dims and --format.  A row gives its name,
    # handler and help; for a sampled suite, the default -r and the suite
    # name that _check_dims gives when -r >= 1 is needed; whether it writes
    # --out; and its own options.
    table = (
        ("atlas", cmd_atlas, "list charts, dimensions and labels", None, False, {}),
        ("transition", cmd_transition, "print one symbolic pasting map", None, False, {
            "--from": dict(dest="src", required=True, help='source index, e.g. "{}|{1}"'),
            "--to": dict(dest="dst", required=True, help='destination index, e.g. "{}|{2}"')}),
        ("verify-cocycle", cmd_verify_cocycle, "identity, pair and triple pasting checks",
         (2, "cocycle"), True, {"--audit-nu-triples": dict(
             type=int, default=0, help="additionally sample this many non-gating cycles "
                                       "through non-standard charts")}),
        ("verify-action", cmd_verify_action, "gluing square and action axioms",
         (2, "action"), True, {}),
        ("transitivity", cmd_transitivity, "construct and post-check witnesses", (4, None), True, {
            "--base1": dict(help="JSON rows of the even base block"),
            "--base2": dict(help="JSON rows of the odd base block")}),
        ("nulie", cmd_nulie, "compute the nu-commutant subalgebra", None, True, {}),
    )
    for name, func, help_, sampled, out, extras in table:
        p = sub.add_parser(name, help=help_)
        for dim in "klmn":
            p.add_argument(f"-{dim}", type=int, required=True)
        if sampled:
            p.add_argument("-r", type=int, default=sampled[0], help="odd probe dimension")
            p.add_argument("--samples", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
        for flag, kwargs in extras.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        if out:
            p.add_argument("--out", help="write the JSON report here")
        p.set_defaults(func=func, r_suite=sampled and sampled[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_dims(parser, args)
    t0 = time.time()
    try:
        code = args.func(parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's final flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # a crash must not read as exit 1, a failed identity
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    print(f"[{args.command}: {time.time() - t0:.2f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
