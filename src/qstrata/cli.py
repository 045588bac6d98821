"""Command-line frontend.

Exit codes: 0 success, 1 usage error, 2 domain error (invalid index,
bad signature, out-of-catalogue stratum, ...), 3 when `audit` finds
pairing/oracle mismatches.  Output is JSON with --json, otherwise an
aligned table; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from functools import cache

from .classes import (
    QdInput,
    audit,
    logan_class,
    qd_class,
    qg_class,
    solve_qg_coefficients,
    weierstrass_class,
)
from .errors import DomainError
from .levelgraphs import DualGraph, enumerate_level_graphs, eval_pnk, grc_admissible, validate_twisted
from .picard import DivisorClass, format_rational, pair
from .strata import Signature, multidegree, quad_components
from .testcurves import TestCurveSpec, curve_functional


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError("expected a comma-separated integer list, got %r" % text)


def _complex_list(text: str) -> list[complex]:
    try:
        values = [complex(x) for x in text.split(",") if x.strip() != ""]
        if all(map(cmath.isfinite, values)):
            return values
    except ValueError:
        pass
    raise UsageError("expected a comma-separated list of finite complex numbers, got %r" % text)


# built on the first main() call, not at import, and reused by later calls
@cache
def _build_parser() -> _Parser:
    p = _Parser(prog="qstrata", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def with_json(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        return sp

    sp = with_json(sub.add_parser("class", help="print a divisor class"))
    sp.add_argument("which", choices=list(_CLASS_KINDS))
    sp.add_argument("--g", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=str)

    sp = with_json(sub.add_parser("curve", help="print a test-curve functional"))
    sp.add_argument("--curve", required=True, help="FAMILY:i:s, e.g. A:1:2")
    sp.add_argument("--g", type=int, required=True)

    sp = with_json(sub.add_parser("pair", help="pair a test curve with a class"))
    sp.add_argument("--curve", required=True, help="FAMILY:i:s, e.g. A:1:2")
    sp.add_argument("--class", dest="klass", required=True,
                    help="qg:G | qd:G:N:d1,... | logan:G:N:d1,... | weierstrass | JSON file")

    sp = with_json(sub.add_parser("audit", help="pairing-vs-oracle audit at genus g"))
    sp.add_argument("--g", type=int, required=True)

    sp = with_json(sub.add_parser("solve", help="solve the coefficient system at genus g"))
    sp.add_argument("--g", type=int, required=True)

    sp = with_json(sub.add_parser("classify-stratum", help="component count of a quadratic stratum"))
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--mu", type=str, required=True)

    sp = with_json(sub.add_parser("multidegree", help="degree of the tuple-to-Picard map"))
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--d", type=str, required=True)

    sp = with_json(sub.add_parser("levelgraphs", help="enumerate/evaluate level graphs"))
    sp.add_argument("--input", required=True, help="dual-graph JSON file")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="list level graphs only")
    mode.add_argument("--admissible", action="store_true",
                      help="evaluate residue admissibility per level graph")

    sp = with_json(sub.add_parser("pnk", help="evaluate the root-sum product polynomial"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--R", type=str, required=True, help="comma-separated residues")
    sp.add_argument("--budget", type=int, default=4096)

    return p


def _need(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError("--%s is required here" % name)


# The class-spec grammar shared by `class KIND --g G --n N --d D` and
# `pair --class KIND:G:N:D`: each kind's fields, in order, and its builder.
# The lambdas look the builders up at call time, so a rebound module name
# is honoured.
_CLASS_KINDS = {
    "qg": (("g",), lambda g: qg_class(g)),
    "qd": (("g", "n", "d"), lambda g, n, d: qd_class(QdInput(g, n, tuple(d)))),
    "logan": (("g", "n", "d"), lambda g, n, d: logan_class(g, n, d)),
    "weierstrass": ((), lambda: weierstrass_class()),
}


def _class_field(name: str, value):
    if name == "d":
        return _int_list(value)
    try:
        return int(value)
    except ValueError:
        raise UsageError("class field %s must be an integer, got %r" % (name, value))


def _class_from_args(args) -> DivisorClass:
    names, build = _CLASS_KINDS[args.which]
    _need(args, names)
    return build(*(_class_field(name, getattr(args, name)) for name in names))


def _class_from_spec(text: str) -> DivisorClass:
    kind, *fields = text.split(":")
    if kind in _CLASS_KINDS and len(fields) == len(_CLASS_KINDS[kind][0]):
        names, build = _CLASS_KINDS[kind]
        return build(*map(_class_field, names, fields))
    if os.path.exists(_path(text)):
        return _read_json_file(text, "class file", DivisorClass.from_json)
    raise UsageError("cannot parse class spec %r" % text)


def _path(text: str) -> str:
    """The path as pathlib prints it on POSIX: "" and "." parts dropped, a
    root of exactly two slashes kept, "." when nothing is left."""
    root = "//" if text[:2] == "//" and text[2:3] != "/" else "/" * text.startswith("/")
    return root + "/".join(p for p in text.split("/") if p not in ("", ".")) or "."


def _read_json_file(text: str, what: str, parse):
    """parse(the text of the file at _path(text)); unreadable, malformed or too deeply nested is exit 1."""
    path = _path(text)
    try:
        with open(path) as f:
            return parse(f.read())
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError("cannot read %s %s: %s" % (what, path, exc))


def _class_table(d) -> str:
    kind = "functional" if hasattr(d, "pair") else "class"
    lines = ["%s on Mbar_{%d,%d}" % (kind, d.g, d.n)]
    lines.append("  lambda  %s" % format_rational(d.lam))
    for j, c in enumerate(d.psi, start=1):
        lines.append("  psi_%-3d %s" % (j, format_rational(c)))
    lines.append("  delta_0 %s" % format_rational(d.delta0))
    label = list(map(str, range(d.n + 1))).__getitem__
    lines += ["  %-20s %s" % ("delta_{%d:{%s}}" % (i, ",".join(map(label, S))), c)
              for i, S, c in d.orbits._rendered()]
    return "\n".join(lines)


def _emit(args, jsonable, table) -> None:
    """Print json.dumps(jsonable()) with --json, else table(), building only
    that rendering; an integer too long for str() is a domain error."""
    try:
        text = json.dumps(jsonable(), check_circular=False) if args.json else table()
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise DomainError("the result has an integer of over %d digits" % sys.get_int_max_str_digits())
    print(text)


def _parse_curve(text: str):
    try:
        family, i, s = text.split(":")
        return family.upper(), int(i), int(s)
    except ValueError:
        raise UsageError("--curve must look like A:1:2, got %r" % text)


def _run(args) -> int:
    if args.command == "class":
        cls = _class_from_args(args)
        _emit(args, cls.to_jsonable, lambda: _class_table(cls))
        return 0

    if args.command == "curve":
        family, i, s = _parse_curve(args.curve)
        f = curve_functional(TestCurveSpec(family, args.g, i, s))
        _emit(args, f.to_jsonable, lambda: _class_table(f))
        return 0

    if args.command == "pair":
        family, i, s = _parse_curve(args.curve)
        cls = _class_from_spec(args.klass)
        if cls.n != 2 * cls.g - 2:
            raise UsageError("test curves live on Mbar_{g,2g-2}; class has n=%d" % cls.n)
        spec = TestCurveSpec(family, cls.g, i, s)
        value = pair(curve_functional(spec), cls)
        _emit(
            args,
            lambda: {"curve": {"family": family, "i": i, "s": s}, "g": cls.g,
                     "pairing": format_rational(value)},
            lambda: "%s . class = %s" % (spec, format_rational(value)),
        )
        return 0

    if args.command == "audit":
        report = audit(args.g)
        _emit(args, report.to_jsonable, report.table)
        return 0 if report.all_match else 3

    if args.command == "solve":
        sol = solve_qg_coefficients(args.g)
        _emit(args, sol.to_jsonable, sol.table)
        return 0

    if args.command == "classify-stratum":
        mu = _int_list(args.mu)
        expected = args.k * (2 * args.g - 2)
        if sum(mu) != expected:
            try:
                message = "--mu sums to %d but k(2g-2) = %d for --g %d" % (sum(mu), expected, args.g)
            except ValueError:  # past the interpreter's int-to-str digit limit
                message = "--mu does not sum to k(2g-2) for these --g and --k"
            raise UsageError(message)
        out = quad_components(Signature(args.k, args.g, tuple(mu)))
        _emit(args, lambda: {"count": out.count, "kind": out.kind, "notes": out.notes},
              lambda: "count %d  kind %s\n%s" % (out.count, out.kind, out.notes))
        return 0

    if args.command == "multidegree":
        value = multidegree(args.g, _int_list(args.d))
        _emit(args, lambda: {"g": args.g, "multidegree": value}, lambda: str(value))
        return 0

    if args.command == "levelgraphs":
        graph, residues = _read_json_file(args.input, "dual graph", DualGraph.from_json)
        rel = validate_twisted(graph)
        graphs = enumerate_level_graphs(rel)
        rows = []
        for lg in graphs:
            row = {"levels": list(lg.levels)}
            if not args.list:
                verdict = grc_admissible(lg, residues)
                row["status"] = verdict.status
                row["conditions"] = list(verdict.conditions)
                if verdict.reason:
                    row["reason"] = verdict.reason
            rows.append(row)
        if args.admissible:
            rows = [r for r in rows if r["status"] == "admissible"]

        def table():
            lines = ["%d level graph(s)" % len(rows)]
            for row in rows:
                desc = "levels " + ",".join(map(str, row["levels"]))
                if "status" in row:
                    desc += "  " + row["status"] + "".join("\n    " + c for c in row["conditions"])
                lines.append(desc)
            return "\n".join(lines)

        _emit(args, lambda: {"k": graph.k, "count": len(rows), "graphs": rows}, table)
        return 0

    if args.command == "pnk":
        value = eval_pnk(_complex_list(args.R), args.k, budget=args.budget)
        if not cmath.isfinite(value):
            raise DomainError("P_{n,k} at these residues is not a finite float: %r" % value)
        _emit(args, lambda: {"k": args.k, "value": {"re": value.real, "im": value.imag}},
              lambda: "%.12g%+.12gj" % (value.real, value.imag))
        return 0

    raise UsageError("unknown command")


_LIST_FLAGS = ("--mu", "--d", "--R")


def _merge_list_flags(argv):
    """Join `--mu -1,-1,6` into `--mu=-1,-1,6` so argparse does not read
    a leading minus sign as an option."""
    out = []
    skip = False
    for pos, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _LIST_FLAGS and pos + 1 < len(argv):
            out.append("%s=%s" % (tok, argv[pos + 1]))
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_list_flags(list(argv)))
        return _run(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except DomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
