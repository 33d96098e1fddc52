"""CLI behaviour: formats, exit codes, diagnostics, round-trips."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from itertools import combinations_with_replacement

import pytest

from dpweights.cli import main
from dpweights.core import Quintuple
from dpweights.oracle import brute_force

# sha256 over exit code and stdout of `check` on check_inputs(), recorded
# before the pair conditions moved to their closed form
CHECK_SHA256 = "4d8f5bb7d8a70252a89b9f4e5e3e5cb34e63a6d563c660a57c08d8af9be8a998"


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

    def test_json_roundtrip_byte_identical(self, capsys):
        code, out, _ = run(capsys, "classify", "--index", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == 4
        assert {"index", "two_parameter_series", "one_parameter_series", "sporadic"} == set(payload)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert all(set(s) == {"base", "steps", "class"} for s in payload["two_parameter_series"])
        assert [1, 10, 13, 19, 39] in payload["sporadic"]

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
