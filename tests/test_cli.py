"""CLI behaviour: formats, exit codes, diagnostics, round-trips."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from dpweights import cli
from dpweights.classify import classify_index
from dpweights.cli import main, render
from dpweights.core import Classification, Quintuple
from dpweights.oracle import brute_force
from dpweights.series import contains, expand

# sha256 over exit code and stdout of `check` on check_inputs(), recorded
# before the pair conditions moved to their closed form
CHECK_SHA256 = "4d8f5bb7d8a70252a89b9f4e5e3e5cb34e63a6d563c660a57c08d8af9be8a998"


def classification_payload(c: Classification) -> dict:
    """JSON wire format with stable key order and sorted lists."""
    return {
        "index": c.index,
        "two_parameter_series": [s.to_dict() for s in c.two_param],
        "one_parameter_series": [s.to_dict() for s in c.one_param],
        "sporadic": [list(q.astuple()) for q in c.sporadic],
    }


def check_inputs() -> list[tuple[int, ...]]:
    """(a0, a1, a2, a3, index) for `check`: oracle members, a stride of all
    small candidates, and odd-degree (2, 4, a2, a3) rejects with d near 10^5..10^6."""
    cases = []
    for index in range(1, 7):
        cases += [(*q.weights, index) for q in brute_force(index, 24)[::5][:15]]
    candidates = [
        (*w, index)
        for w in combinations_with_replacement(range(1, 13), 4)
        for index in range(1, 7)
        if sum(w) - index > w[3]
    ]
    cases += candidates[::90]
    for k in range(20):
        index, a2 = 1 + k % 6, 5 + k
        a3 = 10**5 + 45_000 * k
        a3 += (6 + a2 + a3 - index) % 2 == 0  # odd degree: the pair (2, 4) fails
        cases.append((2, 4, a2, a3, index))
    return cases


# sha256 of `classify --index I --format json` for I = 31..40, past the
# golden digests' range, recorded before emission skipped re-validation
JSON_SHA256 = {
    31: "0272f733ea2a0f7266ca993b567c88ef1601f070971522240167b7fa683ce8a5",
    32: "e13b404e0592bbd6c513ab47d760cad39b447b6d4c9e3e5982cb28a8386da75a",
    33: "5c23073a4ed1a7d604b8600e9b36197327f347beb235aa7b562252b06052752c",
    34: "a768d30e476afa029667f5fc27d8ad792dff770a7ed8b26cea6ae10658814fcd",
    35: "6f2c07b79439a3865ad77f9622f6ec08ae0829361a33391432777e77b125210f",
    36: "df94fd18bc2636be55ab3ca0c1e87f23f6e8b12cd6958eb642e873cd7de58443",
    37: "b089531948f2a5868ff6da29f0bad95d43a8b0623c548c7d7de75bfd25b42b6d",
    38: "5cfe1b23c94429228ebcdf5c8a95c59efaed4353d19c125ac999e96ab1e6fc56",
    39: "3e2a9828e8556bd8a03b90eeff408fb8267f1da6733eba59182da3fa622c172f",
    40: "0da0c6c0cae74e1e9aa7442fd11b75bcb09162c591d25e0038295daed00dfb75",
}

# sha256 over render(classify_index(I), fmt) for I = 1..12, in the order
# text, csv, latex and text with expand_bound=60 per index, recorded before
# the LaTeX sections and series expressions were each written once
FORMATS_SHA256 = "33923062a05e56985b23ba2dfbf9bd52be22d48cffb18641d343c837f7986a86"

# sha256 over render(classify_index(I), fmt) for I = 31..40, one per
# format: the renders users get past the golden digests' range
HIGH_FORMATS_SHA256 = {
    "text": "e5011c03c609133481a64fc248a42932bacc024a73557c68716fcd60f7804fcc",
    "csv": "40252c42302e5f164109b68dc337daf669215835d5b47e201bf404bd1416ce4d",
    "latex": "a7afa87dc0201fa191373bda33cc8d3a71e6f71374dfe800b90ea2bdf8b9697f",
}


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_text(self, capsys):
        code, out, err = run(capsys, "classify", "--index", "1")
        assert code == 0 and err == ""
        assert "one-parameter series (1):" in out
        assert "sporadic (22):" in out
        assert "(2,2x+3,2x+3,4x+5)" in out
        assert "parameters non-negative, tuple ordered" in out

    def test_text_with_expansion(self, capsys):
        code, out, _ = run(capsys, "classify", "--index", "1", "--expand-bound", "10")
        assert code == 0
        assert "members with a3 <= 10" in out
        assert "(1,1,1,1,3)" in out

    @pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
    def test_expansion_needs_text_format(self, capsys, fmt):
        code, out, err = run(capsys, "classify", "--index", "2", "--format", fmt, "--expand-bound", "10")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:") and "--expand-bound" in err

    def test_expansion_rejected_before_classifying(self, capsys, monkeypatch):
        def fail(index):
            raise AssertionError("classify_index ran")

        monkeypatch.setattr("dpweights.cli.classify_index", fail)
        code, out, err = run(capsys, "classify", "--index", "40", "--format", "json", "--expand-bound", "10")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:") and "--expand-bound" in err

    def test_render_rejects_expansion_outside_text(self):
        with pytest.raises(ValueError, match="--expand-bound"):
            render(classify_index(1), "json", 10)

    def test_json_roundtrip_byte_identical(self, capsys):
        code, out, _ = run(capsys, "classify", "--index", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == 4
        assert {"index", "two_parameter_series", "one_parameter_series", "sporadic"} == set(payload)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert all(set(s) == {"base", "steps", "class"} for s in payload["two_parameter_series"])
        assert [1, 10, 13, 19, 39] in payload["sporadic"]

    def test_json_writer_matches_json_dumps(self, classified):
        # the writer joins the indent-2 text itself; json.dumps is its definition
        cs = [classified(index) for index in range(1, 41)]
        two_param = cs[1].two_param
        cs += [Classification(3, (), (), ()), Classification(2, two_param, (), ())]
        for c in cs:
            text = render(c, "json")
            assert text == json.dumps(classification_payload(c), indent=2) + "\n", c.index
            if c.index in JSON_SHA256:
                assert hashlib.sha256(text.encode()).hexdigest() == JSON_SHA256[c.index], c.index

    def test_text_csv_latex_digests_past_the_golden_range(self, classified):
        # the text, CSV and LaTeX renders of I = 31..40, each format hashed
        # over the ten indices in order, stay as recorded
        for fmt, expected in HIGH_FORMATS_SHA256.items():
            digest = hashlib.sha256()
            for index in range(31, 41):
                digest.update(render(classified(index), fmt).encode())
            assert digest.hexdigest() == expected, fmt

    def test_text_csv_latex_match_golden_digest(self, classified):
        digest = hashlib.sha256()
        for index in range(1, 13):
            c = classified(index)
            for fmt, bound in (("text", None), ("csv", None), ("latex", None), ("text", 60)):
                digest.update(render(c, fmt, bound).encode())
        assert digest.hexdigest() == FORMATS_SHA256

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "classify", "--index", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["kind", "a0", "a1", "a2", "a3", "d", "step1", "step2"]
        kinds = {row[0] for row in rows[1:]}
        assert kinds == {"two-parameter-series", "one-parameter-series", "sporadic"}
        assert ["two-parameter-series", "1", "2", "3", "3", "6", "0:0:2:0:2", "0:0:0:2:2"] in rows

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "classify", "--index", "3", "--format", "latex")
        assert code == 0
        assert r"\begin{longtable}{|c|c|}" in out
        assert r"\caption{Index 3, Two-Parameter Series}\\" in out
        assert r"\caption{Index 3, Infinite Series}\\" in out
        assert r"\caption{Index 3, Sporadic Cases}\\" in out
        assert r"$(1,2,2x+3,2y+3)$ & $2(x+y)+6$\\" in out
        assert r"$(5,7,11,13)$ & $33$\\" in out

    def test_determinism(self, capsys):
        a = run(capsys, "classify", "--index", "5", "--format", "json")
        b = run(capsys, "classify", "--index", "5", "--format", "json")
        assert a == b


class TestCheck:
    def test_accepted_quintuple(self, capsys):
        code, out, _ = run(capsys, "check", "2", "4", "5", "7", "--index", "4")
        assert code == 0
        assert "solid=true valid=true class=4 types={II}" in out
        assert "table-covered=true" in out

    def test_rejected_quintuple_exits_1(self, capsys):
        code, out, _ = run(capsys, "check", "1", "1", "2", "2", "--degree", "5")
        assert code == 1
        assert "accepted=false" in out
        assert "a2a3:FAIL" in out

    def test_covered_edge_note(self, capsys):
        code, out, _ = run(capsys, "check", "6", "7", "9", "10", "--degree", "27")
        assert code == 0
        assert "admitted as a covered contained edge" in out

    def test_covered_edge_shape_with_v_divisible_by_7(self, capsys):
        # (7, 2v, 3v, (9v-7)/2) at v = 7: the pair gcd is 14, so no waiver
        code, out, _ = run(capsys, "check", "7", "14", "21", "28", "--degree", "63")
        assert code == 1
        line = next(line for line in out.splitlines() if line.lstrip().startswith("(i) "))
        assert "a1a3:FAIL" in line
        assert "note:" not in out

    def test_inconsistent_index_is_malformed(self, capsys):
        code, _, err = run(capsys, "check", "1", "2", "3", "5", "--index", "9")
        assert code == 2
        assert err.startswith("ERROR:")

    def test_requires_index_or_degree(self, capsys):
        code, _, err = run(capsys, "check", "1", "2", "3", "5")
        assert code == 2
        assert err.startswith("ERROR:")

    def test_huge_degree_bounded_time(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "2", "4", "5", "999999999995", "--index", "5")
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert "forms-agree=true" in out

    def test_huge_weights_bounded_time(self, capsys):
        # table-covered tests membership in the two-step series at a2 ~ 10^9
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "1", "4", "999999999", "1000000000", "--index", "5")
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert "forms-agree=true table-covered=false" in out

    def test_table_covered_matches_full_scan(self, classified):
        # table-covered reduces q into its class window and scans only the
        # table series; the reference scans every series with contains.  The
        # sweep holds classed, classless and non-solid quintuples, and the
        # members of the table series at I = 1, 2, 4 and 6 reach past it
        def full_scan(c: Classification, q: Quintuple) -> bool:
            return q in c.sporadic or any(contains(s, q) for s in c.all_series)

        table_members = [
            q for index in (1, 2, 4, 6) for s in classified(index).one_param
            if s.origin == "tableSeries" for q in expand(s, 200)
        ]
        swept = [
            Quintuple(*w, d) for w in combinations_with_replacement(range(1, 25), 4)
            for d in range(max(w[3] + 1, sum(w) - 8), sum(w))
        ]
        covered = 0
        for q in table_members + swept:
            c = classified(q.index)
            expected = full_scan(c, q)
            assert cli._table_covered(c, q) == expected, q
            covered += expected
        assert all(full_scan(classified(q.index), q) for q in table_members)
        assert covered > len(table_members) + 1000

    def test_output_matches_golden_digest(self):
        digest = hashlib.sha256()
        for *weights, index in check_inputs():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["check", *map(str, weights), "--index", str(index)])
            digest.update(f"{code}\n{buf.getvalue()}".encode())
        assert digest.hexdigest() == CHECK_SHA256


class TestExpand:
    SERIES = '{"base": [1, 1, 2, 3, 4], "steps": [[0, 0, 0, 2, 2]], "class": "class2"}'

    def test_members(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", self.SERIES, "--bound", "9")
        assert code == 0
        assert out.splitlines() == ["(1,1,2,3,4)", "(1,1,2,5,6)", "(1,1,2,7,8)", "(1,1,2,9,10)"]

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "expand", "--series", "{oops", "--bound", "5")
        assert code == 2
        assert err.startswith("ERROR:")

    def test_malformed_payload(self, capsys):
        code, _, err = run(capsys, "expand", "--series", '{"base": [1,2,3]}', "--bound", "5")
        assert code == 2
        assert err.startswith("ERROR:")

    def test_unknown_class_tag(self, capsys):
        # no series has a sporadic origin; sporadic cases are bare quintuples.
        # A tag is a string: a number, null or a list is no tag either
        for tag in ['"sporadic"', '"class7"', "1", "null", '["class2"]']:
            series = self.SERIES.replace('"class2"', tag)
            code, out, err = run(capsys, "expand", "--series", series, "--bound", "9")
            assert code == 2 and out == "", tag
            assert err.startswith("ERROR:"), tag

    @pytest.mark.parametrize(
        "steps, tag",
        [
            ("[[0, 0, 2, 0, 2]]", "class2"),  # moves a2, class 2 moves a3
            ("[[0, 0, 2, 0, 2], [0, 0, 0, 2, 2]]", "class2"),  # the class-1 steps
            ("[[0, 0, 0, 2, 2]]", "class1"),  # class 1 has two steps
        ],
    )
    def test_steps_of_another_class(self, capsys, steps, tag):
        series = f'{{"base": [1, 1, 2, 3, 4], "steps": {steps}, "class": "{tag}"}}'
        code, out, err = run(capsys, "expand", "--series", series, "--bound", "12")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:")

    @pytest.mark.parametrize(
        "base, steps",
        [
            ("[1, 2, 3, 3, 6]", "[[0, 0, 0, 2, 2]]"),  # a class-1 base
            ("[1, 1, 2, 3, 4]", "[[0, 0, 0, 4, 4]]"),  # modulus lcm(1, 1, 2) is 2
            ("[1, 1, 2, 4, 5]", "[[0, 0, 0, 2, 2]]"),  # gcd(2, 4) does not divide 5
        ],
    )
    def test_base_outside_class(self, capsys, base, steps):
        series = f'{{"base": {base}, "steps": {steps}, "class": "class2"}}'
        code, out, err = run(capsys, "expand", "--series", series, "--bound", "9")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:")

    def test_dependent_steps(self, capsys):
        series = '{"base": [1, 1, 2, 3, 4], "steps": [[0, 0, 0, 2, 2], [0, 0, 0, 4, 4]], "class": "tableSeries"}'
        code, out, err = run(capsys, "expand", "--series", series, "--bound", "11")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:")

    @pytest.mark.parametrize(
        "base, step",
        [
            ("[1, 1, 2, 3, 4]", '["0", "0", "0", "2", "2"]'),  # strings are not coerced
            ("[1, 1, 2, 3, 4]", "[0, 0, 0, 2.0, 2]"),
            ("[1, 1, 2, 3, 4]", "[0, 0, 0, 2, true]"),
            ("[true, 1, 2, 3, 4]", "[0, 0, 0, 2, 2]"),
        ],
    )
    def test_non_integer_entries(self, capsys, base, step):
        series = f'{{"base": {base}, "steps": [{step}], "class": "class2"}}'
        code, out, err = run(capsys, "expand", "--series", series, "--bound", "9")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:")


class TestVerify:
    def test_match(self, capsys):
        code, out, _ = run(capsys, "verify", "--index", "3", "--bound", "40")
        assert code == 0
        assert out.splitlines()[0] == "OK"

    def test_mismatch(self, capsys, monkeypatch):
        hits = brute_force(3, 40)
        dropped, stray = hits[7], Quintuple(1, 1, 2, 2, 3)  # not well-formed
        oracle = [q for q in hits if q != dropped] + [stray]
        monkeypatch.setattr("dpweights.cli.brute_force", lambda index, bound: oracle)
        code, out, _ = run(capsys, "verify", "--index", "3", "--bound", "40")
        assert code == 1
        assert out.splitlines() == ["MISMATCH", f"oracle-only: {stray}", f"classifier-only: {dropped}"]


class TestObstructions:
    def test_survey(self, capsys):
        code, out, _ = run(capsys, "obstructions", "--index", "1", "--bound", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "quintuple  K^2  N  K^2*N  gmsy  spotti"
        assert any(line.startswith("(1,1,1,1,3)  3  1  3") for line in lines)


class TestArgErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("classify",),
            ("classify", "--index", "zero"),
            ("classify", "--index", "-2"),
            ("classify", "--index", "1", "--format", "yaml"),
            ("frobnicate",),
        ],
    )
    def test_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("ERROR:")


# one call of each kind the parser decides, in one process: both exclusive
# options of check, an argparse error, a format choice, an optional bound, an
# error raised after parsing, and the first call again
PARSER_SEQUENCE = [
    ("check", "2", "4", "5", "7", "--degree", "14"),
    ("check", "2", "4", "5", "7", "--index", "4"),
    ("check", "2", "4", "5", "7", "--index", "4", "--degree", "14"),
    ("classify", "--index", "3", "--format", "csv"),
    ("classify", "--index", "3", "--expand-bound", "20"),
    ("expand", "--series", '{"base": [1, 1', "--bound", "9"),
    ("check", "2", "4", "5", "7", "--degree", "14"),
]

# counts, in a fresh interpreter, the argparse parsers that importing the CLI
# makes and the parsers that three later main calls build
BUILD_COUNT_SCRIPT = textwrap.dedent("""
    import argparse, contextlib, io, sys
    sys.path.insert(0, sys.argv[1])
    made = 0
    init = argparse.ArgumentParser.__init__
    def counting_init(self, *args, **kwargs):
        global made
        made += 1
        init(self, *args, **kwargs)
    argparse.ArgumentParser.__init__ = counting_init
    import dpweights.cli as cli
    at_import = made
    built = 0
    build = cli.build_parser
    def counting_build():
        global built
        built += 1
        return build()
    cli.build_parser = counting_build
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", "2", "4", "5", "7", "--index", "4"])
        cli.main(["classify", "--index", "2"])
        cli.main(["check", "1", "1", "2", "2", "--degree", "5"])
    print(at_import, built)
""")


def call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestSharedParser:
    def test_calls_match_a_fresh_parser(self, monkeypatch):
        shared = [call(argv) for argv in PARSER_SEQUENCE]
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)  # a new parser per call
        fresh = [call(argv) for argv in PARSER_SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 2, 0]
        assert shared[2][2].startswith("ERROR:") and shared[5][2].startswith("ERROR:")

    def test_parser_built_once(self, monkeypatch):
        cli._shared_parser.cache_clear()  # an earlier test may have built it
        build, built = cli.build_parser, []

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for argv in [
            *PARSER_SEQUENCE,
            ("verify", "--index", "2", "--bound", "20"),
            ("obstructions", "--index", "1", "--bound", "10"),
            *PARSER_SEQUENCE,
        ]:
            call(argv)
        assert len(built) == 1

    def test_import_builds_none_and_first_call_builds_one(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-I", "-c", BUILD_COUNT_SCRIPT, str(src)],
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.split() == ["0", "1"]
