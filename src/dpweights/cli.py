"""Command-line interface and output emitters.

Subcommands:

* ``classify``      full classification for one index (text/json/csv/latex)
* ``check``         condition, type, class and obstruction report for one quintuple
* ``expand``        concrete members of a serialized series up to a bound
* ``verify``        brute-force oracle cross-check of the classifier
* ``obstructions``  metric obstruction survey over a classification window

Exit codes: 0 success, 1 verification mismatch or failed condition check,
2 malformed arguments.  Diagnostics go to stderr prefixed with ``ERROR:``.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .classify import classify_index, expand_classification
from .conditions import (
    detect_class,
    detect_types,
    is_solid,
    is_valid,
    quasismooth_divisibility,
    quasismooth_monomial,
)
from .core import Classification, Quintuple, Series
from .obstructions import obstruction_report
from .oracle import brute_force
from .series import contains, expand


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


def _series_exprs(s: Series) -> tuple[list[str], str]:
    """Weight and degree expressions of a series in x (and y for two steps)."""
    names = ("x", "y")
    weights = [
        _linear(s.base.astuple()[i], *((step[i], names[p]) for p, step in enumerate(s.steps)))
        for i in range(4)
    ]
    degree = _linear(s.base.d, *((step[4], names[p]) for p, step in enumerate(s.steps)))
    return weights, degree


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
            out.append(f"  ({','.join(weights)})  d = {degree}    [{_series_text(s)}]")
    out.append(f"sporadic ({len(c.sporadic)}):")
    out.extend(f"  {q}" for q in c.sporadic)
    out.append("parameters non-negative, tuple ordered")
    if bound is not None:
        members = expand_classification(c, bound)
        out.append(f"members with a3 <= {bound} ({len(members)}):")
        out.extend(f"  {q}" for q in members)
    return "\n".join(out) + "\n"


def classification_payload(c: Classification) -> dict:
    """JSON wire format with stable key order and sorted lists."""
    return {
        "index": c.index,
        "two_parameter_series": [s.to_dict() for s in c.two_param],
        "one_parameter_series": [s.to_dict() for s in c.one_param],
        "sporadic": [list(q.astuple()) for q in c.sporadic],
    }


def _emit_json(c: Classification) -> str:
    return json.dumps(classification_payload(c), indent=2) + "\n"


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


def _latex_table(caption: str, rows: list[tuple[str, str]]) -> list[str]:
    out = [
        r"\begin{longtable}{|c|c|}",
        rf"\caption{{{caption}}}\\",
        r"\hline",
        r"$(a_0,a_1,a_2,a_3)$ & $d$\\",
        r"\hline",
        r"\endhead",
    ]
    for weights, degree in rows:
        out.append(rf"${weights}$ & ${degree}$\\")
        out.append(r"\hline")
    out.append(r"\end{longtable}")
    return out


def _emit_latex(c: Classification) -> str:
    sections: list[str] = []
    def series_rows(group: tuple[Series, ...]) -> list[tuple[str, str]]:
        rows = []
        for s in group:
            weights, degree = _series_exprs(s)
            rows.append((f"({','.join(weights)})", degree))
        return rows
    if c.two_param:
        sections += _latex_table(f"Index {c.index}, Two-Parameter Series", series_rows(c.two_param))
    if c.one_param:
        sections += _latex_table(f"Index {c.index}, Infinite Series", series_rows(c.one_param))
    if c.sporadic:
        rows = [(f"({','.join(map(str, q.weights))})", str(q.d)) for q in c.sporadic]
        sections += _latex_table(f"Index {c.index}, Sporadic Cases", rows)
    return "\n".join(sections) + "\n"


def render(c: Classification, fmt: str, expand_bound: int | None = None) -> str:
    """The classification in ``fmt``: text, json, csv or latex.

    Only the text format lists members, those with a3 <= ``expand_bound``.
    """
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
    sys.stdout.write(render(classify_index(args.index), args.format, args.expand_bound))
    return 0


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


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

    classification = classify_index(q.index)
    covered = q in set(classification.sporadic) or any(
        contains(s, q) for s in classification.all_series
    )

    def pair_detail(checks) -> str:
        return "  ".join(f"a{i}a{j}:{'pass' if ok else 'FAIL'}" for (i, j), ok in checks)

    out = [
        f"quintuple {q}  index {q.index}",
        f"  (i)   pair gcd divides degree:   {pair_detail(report.wf_pairs)}",
        f"  (ii)  weight triples coprime:    "
        + "  ".join(f"a{i}a{j}a{k}:{'pass' if ok else 'FAIL'}" for (i, j, k), ok in report.wf_triples),
        "  (iii) degree exceeds top weight: pass",  # Quintuple guarantees d > a3
        f"  (iv)  pure power coverage:       {'pass' if report.cond_iv else 'FAIL'}",
        f"  (v)   shared-factor pairs:       {pair_detail(report.cond_v) or 'no pairs with shared factor'}",
        f"  (vi)  edge coverage:             {pair_detail(report.cond_vi)}",
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
