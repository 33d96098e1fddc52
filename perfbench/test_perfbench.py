"""Tests of the benchmark itself: seeded inputs, the gate and traced counts.

Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

CLI = run.load_program()
REF = run.load_reference()


def test_same_seed_gives_same_inputs():
    for workload in run.WORKLOADS:
        first = run.make_ops(workload, 11, REF)
        assert first == run.make_ops(workload, 11, REF)
        assert run.inputs_digest(first) == run.inputs_digest(run.make_ops(workload, 11, REF))
    for workload in run.WORKLOADS:
        assert run.make_ops(workload, 11, REF) != run.make_ops(workload, 12, REF)


def test_check_mix_is_fixed_per_seed():
    for seed in (1, 2):
        ops = run.make_ops("check-mixed", seed, REF)
        per_index = len(ops) // len(run.CHECK_INDICES)
        assert per_index == sum(n for _, n in run.CHECK_MIX)
        large = [argv for _, argv, _ in ops if int(argv[4]) > 1000]
        assert len(large) == len(run.CHECK_INDICES) * dict(run.CHECK_MIX)["large"]
        degrees = sorted(sum(map(int, argv[1:5])) - int(argv[6]) for argv in large)
        assert all(d % 2 for d in degrees)
        assert run.LARGE_D[0] <= degrees[0] and degrees[-1] < run.LARGE_D[1]


def test_corrupted_reference_digest_is_counted_as_failed():
    ref = copy.deepcopy(REF)
    ref["classify_sha256"]["16"] = "0" * 64
    pick = [op for op in run.make_ops("classify-high", 3, ref) if op[1][2] == "16"]
    rejected = [("check", ("check", "2", "4", "5", "7", "--index", "4"), False)]  # it is accepted
    result = run.report([run.run_pass(CLI.main, pick + rejected)], {})
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 2, False)

    good = [op for op in run.make_ops("classify-high", 3, REF) if op[1][2] == "16"]
    assert run.report([run.run_pass(CLI.main, good)], {})["failed"] == 0


def _traced_counts(ops) -> dict:
    tracer = Tracer()
    run.traced_pass(CLI, ops, tracer)
    lo, hi, counters = tracer.passes[0]
    metrics = layer_metrics(*tracer.summarize(lo, hi), counters)
    return {name: value for name, (value, unit) in metrics.items() if unit != "s"}


def test_per_layer_counts_repeat_exactly():
    ops = run.make_ops("check-mixed", 5, REF)[:12]
    first = _traced_counts(ops)
    assert first["classify.classify_index.calls"] == 12
    assert first["conditions.is_solid.calls"] > 0
    assert first == _traced_counts(ops)


def test_untraced_run_leaves_no_wrappers():
    import dpweights.classify
    import dpweights.conditions

    _traced_counts(run.make_ops("check-mixed", 5, REF)[:1])
    assert dpweights.classify.is_solid is dpweights.conditions.is_solid
    assert CLI.classify_index is dpweights.classify.classify_index


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "ERROR:" in proc.stderr

