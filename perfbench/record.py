"""Record the reference outputs the benchmark's correctness gate compares against.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/record.py

It rewrites ``perfbench/reference.json`` with

* ``classify_sha256``: sha256 of ``classify --index I --format json`` for
  every index of the classify-high band;
* ``verify_counts``: brute-force member counts at the verify-oracle bound
  for indices 1..12;
* ``check_members``: the oracle's members with a3 <= MEMBER_BOUND for the
  check-mixed indices, the pool member requests are drawn from.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json

import run

MEMBER_BOUND = 40


def main() -> None:
    cli = run.load_program()
    from dpweights.oracle import brute_force

    digests = {}
    for index in run.CLASSIFY_BAND:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["classify", "--index", str(index), "--format", "json"])
        if code != 0:
            raise SystemExit(f"classify --index {index} exited {code}")
        digests[str(index)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    indices = sorted({i for stratum in run.VERIFY_STRATA for i in stratum})
    counts = {str(i): len(brute_force(i, run.VERIFY_BOUND)) for i in indices}
    members = {
        str(i): [list(q.astuple()) for q in brute_force(i, MEMBER_BOUND)] for i in run.CHECK_INDICES
    }
    reference = {"classify_sha256": digests, "verify_counts": counts, "check_members": members}
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
