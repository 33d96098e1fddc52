"""Command-line interface and output emitters.

Subcommands:

* ``classify``      full classification for one index (text/json/csv/latex)
* ``check``         condition, type, class and obstruction report for one quintuple
* ``expand``        concrete members of a serialized series up to a bound
* ``verify``        brute-force oracle cross-check of the classifier
* ``obstructions``  metric obstruction survey over a classification window

Exit codes: 0 success, 1 verification mismatch or failed condition check,
2 malformed arguments.  Diagnostics go to stderr prefixed with ``ERROR:``.

``main`` builds its parser on the first call and reuses it for every later
call in the process; parsing keeps no state in it.  That first build fixes
the subcommand handlers and argument types the parser holds, so replacing
``_cmd_check`` or ``_positive`` here later changes nothing.  The subcommands
themselves look up ``classify_index`` and the other collaborators in this
module's globals at call time, so replacing one of those takes effect on the
next call.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from .classify import _reduce, classify_index, expand_classification
from .conditions import (
    detect_class,
    detect_types,
    is_solid,
    is_valid,
    quasismooth_divisibility,
    quasismooth_monomial,
)
from .core import Classification, Quintuple
from .obstructions import obstruction_report
from .oracle import brute_force
from .series import Series, contains, expand


class _Parser(argparse.ArgumentParser):
    """argparse with machine-parsable errors and a stable exit code."""

    def error(self, message: str) -> None:
        print(f"ERROR: {message}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------- rendering

def _term(coef: int, var: str) -> str:
    return var if coef == 1 else f"{coef}{var}"


def _linear(const: int, *terms: tuple[int, str]) -> str:
    """Render const plus coefficient*variable terms, e.g. 36x+13 or 5(x+y)+15."""
    live = [(c, v) for c, v in terms if c]
    if len(live) == 2 and live[0][0] == live[1][0]:
        c = live[0][0]
        joint = f"({live[0][1]}+{live[1][1]})"
        parts = [joint if c == 1 else f"{c}{joint}"]
    else:
        parts = [_term(c, v) for c, v in live]
    if const or not parts:
        parts.append(str(const))
    return "+".join(parts)


def _series_exprs(s: Series) -> tuple[str, str]:
    """The "(w0,w1,w2,w3)" weights and the degree of a series in x (and y)."""
    base = s.base.astuple()
    exprs = [_linear(base[i], *((step[i], name) for name, step in zip("xy", s.steps))) for i in range(5)]
    return f"({','.join(exprs[:4])})", exprs[4]


def _series_text(s: Series) -> str:
    steps = " ".join(f"+ {n}*({','.join(map(str, step))})" for n, step in zip("xy", s.steps))
    return f"{s.base} {steps}"


# ---------------------------------------------------------------- formats

def _emit_text(c: Classification, bound: int | None) -> str:
    out: list[str] = [f"index {c.index}"]
    for label, group in (
        ("two-parameter series", c.two_param),
        ("one-parameter series", c.one_param),
    ):
        out.append(f"{label} ({len(group)}):")
        for s in group:
            weights, degree = _series_exprs(s)
            out.append(f"  {weights}  d = {degree}    [{_series_text(s)}]")
    out.append(f"sporadic ({len(c.sporadic)}):")
    out.extend(f"  {q}" for q in c.sporadic)
    out.append("parameters non-negative, tuple ordered")
    if bound is not None:
        members = expand_classification(c, bound)
        out.append(f"members with a3 <= {bound} ({len(members)}):")
        out.extend(f"  {q}" for q in members)
    return "\n".join(out) + "\n"


def _json_block(items: list[str], pad: str, brackets: str) -> str:
    """A JSON array or object laid out as ``json.dumps(indent=2)`` does.

    ``items`` are the rendered entries, ``pad`` the indent of the line that
    opens the block; nested entries arrive already indented for their depth.
    """
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _json_ints(values: tuple[int, ...], pad: str) -> str:
    return _json_block([str(v) for v in values], pad, "[]")


def _json_series_template(n_steps: int) -> str:
    """A %-format string for one series with ``n_steps`` steps, as it sits in
    a top-level list at depth two: five base ints, five ints per step, the tag."""
    pad = " " * 6
    ints = ("%d",) * 5
    return _json_block([
        '"base": ' + _json_ints(ints, pad),
        '"steps": ' + _json_block([_json_ints(ints, pad + "  ")] * n_steps, pad, "[]"),
        '"class": "%s"',  # the tags need no JSON escapes
    ], " " * 4, "{}")


_SERIES_JSON = {n: _json_series_template(n) for n in (1, 2)}


def _json_series(s: Series) -> str:
    """One series as it sits in a top-level list, at depth two."""
    return _SERIES_JSON[len(s.steps)] % (*s.base, *sum(s.steps, ()), s.origin)


def _emit_json(c: Classification) -> str:
    """The JSON wire format, laid out as ``json.dumps(payload, indent=2)`` plus a newline.

    The payload holds, in this key order, the index, the two- and
    one-parameter series as ``Series.to_dict`` gives them, and the sporadic
    quintuples as lists.  Its shape is fixed, so the text is joined directly
    instead of going through the pure-Python encoder that ``indent``
    selects; the tests build the payload and compare with ``json.dumps``.
    """
    return _json_block([
        f'"index": {c.index}',
        '"two_parameter_series": ' + _json_block([_json_series(s) for s in c.two_param], "  ", "[]"),
        '"one_parameter_series": ' + _json_block([_json_series(s) for s in c.one_param], "  ", "[]"),
        '"sporadic": ' + _json_block([_json_ints(q.astuple(), " " * 4) for q in c.sporadic], "  ", "[]"),
    ], "", "{}") + "\n"


def _emit_csv(c: Classification) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "a0", "a1", "a2", "a3", "d", "step1", "step2"])
    def pack(step: tuple[int, ...]) -> str:
        return ":".join(map(str, step))
    for kind, group in (
        ("two-parameter-series", c.two_param),
        ("one-parameter-series", c.one_param),
    ):
        for s in group:
            steps = [pack(step) for step in s.steps] + ["", ""]
            writer.writerow([kind, *s.base.astuple(), steps[0], steps[1]])
    for q in c.sporadic:
        writer.writerow(["sporadic", *q.astuple(), "", ""])
    return buf.getvalue()


def _emit_latex(c: Classification) -> str:
    out: list[str] = []
    for caption, rows in (
        ("Two-Parameter Series", [_series_exprs(s) for s in c.two_param]),
        ("Infinite Series", [_series_exprs(s) for s in c.one_param]),
        ("Sporadic Cases", [(f"({','.join(map(str, q.weights))})", str(q.d)) for q in c.sporadic]),
    ):
        if not rows:
            continue
        out += [
            r"\begin{longtable}{|c|c|}",
            rf"\caption{{Index {c.index}, {caption}}}\\",
            r"\hline",
            r"$(a_0,a_1,a_2,a_3)$ & $d$\\",
            r"\hline",
            r"\endhead",
        ]
        for weights, degree in rows:
            out += [rf"${weights}$ & ${degree}$\\", r"\hline"]
        out.append(r"\end{longtable}")
    return "\n".join(out) + "\n"


def _check_expand_bound(fmt: str, expand_bound: int | None) -> None:
    if expand_bound is not None and fmt != "text":
        raise ValueError(f"--expand-bound applies only to the text format, not {fmt}")


def render(c: Classification, fmt: str, expand_bound: int | None = None) -> str:
    """The classification in ``fmt``: text, json, csv or latex.

    Only the text format lists members, those with a3 <= ``expand_bound``.
    """
    _check_expand_bound(fmt, expand_bound)
    if fmt == "text":
        return _emit_text(c, expand_bound)
    if fmt == "json":
        return _emit_json(c)
    if fmt == "csv":
        return _emit_csv(c)
    if fmt == "latex":
        return _emit_latex(c)
    raise ValueError(f"unknown format: {fmt}")


# ---------------------------------------------------------------- commands

def _cmd_classify(args: argparse.Namespace) -> int:
    # reject the flags before the classification, which takes seconds at large I
    _check_expand_bound(args.format, args.expand_bound)
    sys.stdout.write(render(classify_index(args.index), args.format, args.expand_bound))
    return 0


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _table_covered(c: Classification, q: Quintuple) -> bool:
    """Whether q is a sporadic quintuple of ``c`` or a member of one of its series.

    A class series holds q exactly when ``_reduce(q)`` is its base (proved
    in ``_reduce``), so only the table series are scanned with ``contains``.
    """
    if q in c.sporadic:
        return True
    reduced = _reduce(q)
    for s in c.all_series:
        if s.origin == "tableSeries":
            if contains(s, q):
                return True
        elif s.base == reduced:
            return True
    return False


def _cmd_check(args: argparse.Namespace) -> int:
    weights = sorted((args.a0, args.a1, args.a2, args.a3))
    if args.degree is not None:
        d = args.degree
    else:
        d = sum(weights) - args.index
    q = Quintuple(*weights, d)

    report = quasismooth_divisibility(q)
    agree = quasismooth_monomial(q) == report.accepted
    types = detect_types(q)
    cls = detect_class(q)

    covered = _table_covered(classify_index(q.index), q)

    def detail(checks) -> str:
        """Each pair or triple as a0a1:pass or a0a1a2:FAIL."""
        return "  ".join("".join(f"a{i}" for i in ix) + f":{'pass' if ok else 'FAIL'}" for ix, ok in checks)

    out = [
        f"quintuple {q}  index {q.index}",
        f"  (i)   pair gcd divides degree:   {detail(report.wf_pairs)}",
        f"  (ii)  weight triples coprime:    {detail(report.wf_triples)}",
        "  (iii) degree exceeds top weight: pass",  # Quintuple guarantees d > a3
        f"  (iv)  pure power coverage:       {'pass' if report.cond_iv else 'FAIL'}",
        f"  (v)   shared-factor pairs:       {detail(report.cond_v) or 'no pairs with shared factor'}",
        f"  (vi)  edge coverage:             {detail(report.cond_vi)}",
    ]
    if report.waived_pair is not None:
        i, j = report.waived_pair
        out.append(f"  note: pair a{i}a{j} admitted as a covered contained edge")
    sorted_types = "{" + ",".join(sorted(types)) + "}"
    out.append(
        f"solid={_fmt_bool(is_solid(q))} valid={_fmt_bool(is_valid(q))}"
        f" class={cls if cls is not None else 'none'} types={sorted_types}"
    )
    out.append(f"accepted={_fmt_bool(report.accepted)} forms-agree={_fmt_bool(agree)} table-covered={_fmt_bool(covered)}")

    ob = obstruction_report(q)
    out.append(
        f"K^2={ob.k_squared} N={ob.group_order} K^2*N={ob.k_squared * ob.group_order}"
        f" gmsy={_fmt_bool(ob.gmsy)} spotti={_fmt_bool(ob.spotti)}"
    )
    print("\n".join(out))
    return 0 if report.accepted else 1


def _cmd_expand(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(args.series)
        s = Series.from_dict(payload)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed series object: {exc}") from exc
    for q in expand(s, args.bound):
        print(q)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    oracle = set(brute_force(args.index, args.bound))
    emitted = set(expand_classification(classify_index(args.index), args.bound))
    if oracle == emitted:
        print("OK")
        print(f"{len(oracle)} quintuples agree at bound {args.bound}")
        return 0
    print("MISMATCH")
    for q in sorted(oracle - emitted):
        print(f"oracle-only: {q}")
    for q in sorted(emitted - oracle):
        print(f"classifier-only: {q}")
    return 1


def _cmd_obstructions(args: argparse.Namespace) -> int:
    members = expand_classification(classify_index(args.index), args.bound)
    print("quintuple  K^2  N  K^2*N  gmsy  spotti")
    for q in members:
        ob = obstruction_report(q)
        print(
            f"{q}  {ob.k_squared}  {ob.group_order}  {ob.k_squared * ob.group_order}"
            f"  {_fmt_bool(ob.gmsy)}  {_fmt_bool(ob.spotti)}"
        )
    return 0


# ---------------------------------------------------------------- wiring

def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="dpweights", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification for one index")
    p.add_argument("--index", type=_positive, required=True)
    p.add_argument("--format", choices=("text", "json", "csv", "latex"), default="text")
    p.add_argument("--expand-bound", type=_positive, default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="condition report for one quintuple")
    for name in ("a0", "a1", "a2", "a3"):
        p.add_argument(name, type=_positive)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--index", type=_positive, default=None)
    group.add_argument("--degree", type=_positive, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("expand", help="list members of a serialized series")
    p.add_argument("--series", required=True, help='JSON {"base": ..., "steps": ..., "class": ...}')
    p.add_argument("--bound", type=_positive, required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", help="oracle cross-check of the classifier")
    p.add_argument("--index", type=_positive, required=True)
    p.add_argument("--bound", type=_positive, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("obstructions", help="metric obstruction survey")
    p.add_argument("--index", type=_positive, required=True)
    p.add_argument("--bound", type=_positive, required=True)
    p.set_defaults(func=_cmd_obstructions)

    return parser


@cache
def _shared_parser() -> _Parser:
    """The parser ``main`` uses: built on first use, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
