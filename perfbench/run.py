"""dpweights benchmark: seeded CLI workloads driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload check-mixed --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: ``dpweights.cli.main`` is
called with the next argument list only after the previous call returned,
with stdout captured.  Every output is checked by the correctness gate.

With ``--trace 0`` the run reports the end-to-end metrics and installs no
wrappers.  With ``--trace 1`` it alternates untraced and traced passes over
the same inputs and reports the per-layer metrics (see ``tracing.py``).
Metrics are printed one per line with their unit, and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("classify-high", "verify-oracle", "check-mixed")

# classify-high: every index of the band once per pass, in seeded order.  The
# band is fixed so that every seed does the same work; cost grows ~I^4.6.
CLASSIFY_BAND = tuple(range(16, 23))

# verify-oracle: one index drawn from each stratum.  Strata pair indices of
# one parity, whose member counts (and so expand cost) are alike.
VERIFY_BOUND = 70
VERIFY_STRATA = ((1, 3), (5, 7), (9, 11), (2, 4), (6, 8), (10, 12))

# check-mixed: per index 1..10, this many requests of each kind.
CHECK_INDICES = tuple(range(1, 11))
CHECK_MIX = (("member", 12), ("random", 6), ("large", 2))
RANDOM_TOP = 40  # random candidates draw weights from 1..RANDOM_TOP
LARGE_D = (100_001, 1_000_001)  # odd degrees of the large-d requests

SETUP_SPAWNS = 11
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import dpweights.cli\n"
    "dpweights.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

Op = tuple[str, tuple[str, ...], object]  # (kind, argv, expected outcome)


def load_program():
    """Import the package from ``src`` of the checkout; exit 2 if it is absent."""
    if not (SRC / "dpweights" / "cli.py").is_file():
        print(f"ERROR: no dpweights sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import dpweights.cli

    if Path(dpweights.cli.__file__).resolve().parent != SRC / "dpweights":
        print(f"ERROR: imported dpweights from {dpweights.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return dpweights.cli


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------- inputs

def _classify_ops(rng: random.Random, ref: dict) -> list[Op]:
    band = list(CLASSIFY_BAND)
    rng.shuffle(band)
    return [("classify", ("classify", "--index", str(i), "--format", "json"), ref["classify_sha256"][str(i)])
            for i in band]


def _verify_ops(rng: random.Random, ref: dict) -> list[Op]:
    picks = [rng.choice(stratum) for stratum in VERIFY_STRATA]
    rng.shuffle(picks)
    return [("verify", ("verify", "--index", str(i), "--bound", str(VERIFY_BOUND)), ref["verify_counts"][str(i)])
            for i in picks]


def _random_candidate(rng: random.Random, index: int) -> tuple[int, ...]:
    while True:
        w = sorted(rng.randint(1, RANDOM_TOP) for _ in range(4))
        if sum(w[:3]) > index:  # d = sum - index exceeds a3
            return tuple(w)


def _large_candidate(rng: random.Random, index: int, d: int) -> tuple[int, ...]:
    # (2, 4, a2, a3) of odd degree d with a small a2: gcd(2, 4) does not divide
    # d, so it is rejected, but the divisibility form scans O(d) multiples of
    # 4 first.  A large a2 would instead make series membership scan O(a2).
    a2 = rng.randint(5, RANDOM_TOP)
    return (2, 4, a2, d + index - 6 - a2)


def _check_ops(rng: random.Random, ref: dict, monomial) -> list[Op]:
    from dpweights.core import Quintuple

    weights: list[tuple[tuple[int, ...], int]] = []
    n_large = sum(len(CHECK_INDICES) * n for kind, n in CHECK_MIX if kind == "large")
    lo, hi = LARGE_D
    width = (hi - lo) // n_large
    large_slot = 0
    for index in CHECK_INDICES:
        pool = ref["check_members"][str(index)]
        for kind, n in CHECK_MIX:
            for _ in range(n):
                if kind == "member":
                    w = tuple(rng.choice(pool)[:4])
                elif kind == "random":
                    w = _random_candidate(rng, index)
                else:  # near the middle of its own slot of LARGE_D, for every seed
                    d = lo + large_slot * width + width // 2 + 2 * rng.randrange(-width // 40, width // 40)
                    large_slot += 1
                    w = _large_candidate(rng, index, d)
                weights.append((w, index))
    rng.shuffle(weights)
    ops: list[Op] = []
    for w, index in weights:
        accepted = monomial(Quintuple(*w, sum(w) - index))
        ops.append(("check", ("check", *map(str, w), "--index", str(index)), accepted))
    return ops


def make_ops(workload: str, seed: int, ref: dict) -> list[Op]:
    """The workload's input list: a deterministic function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify-high":
        return _classify_ops(rng, ref)
    if workload == "verify-oracle":
        return _verify_ops(rng, ref)
    if workload == "check-mixed":
        from dpweights.conditions import quasismooth_monomial

        return _check_ops(rng, ref, quasismooth_monomial)
    raise ValueError(f"unknown workload {workload}")


def inputs_digest(ops: list[Op]) -> str:
    return hashlib.sha256(json.dumps([argv for _, argv, _ in ops]).encode()).hexdigest()


# ---------------------------------------------------------------- gate

def gate(kind: str, expected: object, code: int, out: str) -> bool:
    """Whether one CLI call produced the recorded or independently derived result."""
    if kind == "classify":
        return code == 0 and hashlib.sha256(out.encode()).hexdigest() == expected
    if kind == "verify":
        return code == 0 and out == f"OK\n{expected} quintuples agree at bound {VERIFY_BOUND}\n"
    if kind == "check":
        # expected: verdict of quasismooth_monomial, the independent form
        return (
            code == (0 if expected else 1)
            and "forms-agree=true" in out
            and (not expected or "table-covered=true" in out)
        )
    raise ValueError(f"unknown operation kind {kind}")


# ---------------------------------------------------------------- passes

class Pass:
    """One sweep over the input list: per-op latencies and gate results."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.output_bytes = 0
        self.wall = 0.0


def run_pass(main, ops: list[Op], tracer: Tracer | None = None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for op_id, (kind, argv, expected) in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            code = -1
        result.latencies.append(time.perf_counter() - t0)
        text = out.getvalue()
        result.output_bytes += len(text.encode())
        if not gate(kind, expected, code, text):
            result.failed += 1
            print(f"gate failed: {' '.join(argv)} exit={code}", file=sys.stderr)
    result.wall = time.perf_counter() - start
    return result


def warm_up(main, ops: list[Op], seconds: float = 1.0) -> None:
    """Run leading ops, unmeasured, until ``seconds`` have passed."""
    start = time.perf_counter()
    for _, argv, _ in ops:
        with contextlib.suppress(Exception), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(list(argv))  # a crash here shows again, gated, in the timed passes
        if time.perf_counter() - start >= seconds:
            return


def measure_setup() -> float:
    """Median time to import ``dpweights.cli`` and build its parser, in fresh interpreters."""
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if spawn:  # the first spawn only writes the bytecode cache
            times.append(float(proc.stdout))
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_untraced(main, ops: list[Op], seconds: float) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_pass(main, ops))
    return passes


def traced_pass(cli, ops: list[Op], tracer: Tracer) -> Pass:
    """One pass with every traced lookup wrapped, restored afterwards."""
    restore = tracer.install()
    try:
        tracer.begin_pass()
        result = run_pass(tracer.wrap(cli.main, "cli.main"), ops, tracer)
        tracer.end_pass()
    finally:
        restore()
    return result


def run_traced(cli, ops: list[Op], seconds: float, tracer: Tracer) -> tuple[list[Pass], list[Pass]]:
    """Alternate untraced and traced passes until ``seconds`` have passed."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(cli.main, ops))
        traced.append(traced_pass(cli, ops, tracer))
        if time.perf_counter() - start + plain[-1].wall + traced[-1].wall > seconds:
            return plain, traced


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict[str, tuple[float, str]]:
    # each input's latency is its median over passes, which keeps short
    # bursts of contention from other tenants out of every metric
    latencies = [statistics.median(op) for op in zip(*(p.latencies for p in passes))]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(latencies), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer_metrics(tracer: Tracer, plain: list[Pass], traced: list[Pass]) -> dict[str, tuple[float, str]]:
    per_pass = []
    for lo, hi, counters in tracer.passes:
        per_pass.append(layer_metrics(*tracer.summarize(lo, hi), counters))
    # counts are exact and equal in every pass; times are medians over passes
    out = {
        name: (statistics.median(m[name][0] for m in per_pass) if unit == "s" else value, unit)
        for name, (value, unit) in per_pass[0].items()
    }
    out["cli.output_bytes"] = (traced[0].output_bytes, "bytes")
    plain_wall = statistics.median(p.wall for p in plain)
    out["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced) / plain_wall - 1, "ratio")
    return out


def report(passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> dict:
    """The result object: every gated operation counts toward ``failed``."""
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    ops = make_ops(args.workload, args.seed, load_reference())
    print(f"inputs {args.workload} seed={args.seed} ops={len(ops)} sha256={inputs_digest(ops)}")
    print(f"loop closed, 1 client, {args.seconds:g} s")

    warm_up(cli.main, ops)
    if args.trace:
        tracer = Tracer()
        plain, traced = run_traced(cli, ops, args.seconds, tracer)
        passes = plain + traced
        metrics = per_layer_metrics(tracer, plain, traced)
        stem = TRACE_DIR / args.workload  # one file per workload bounds the disk used
        tracer.write(stem, seed=args.seed)
        print(f"spans: {len(tracer.starts)} written to {stem.relative_to(ROOT)}.bin")
    else:
        setup_s = measure_setup()
        passes = run_untraced(cli.main, ops, args.seconds)
        metrics = end_to_end_metrics(passes, setup_s)

    result = report(passes, metrics)
    print(f"passes {len(passes)}  operations {result['attempted']}"
          f"  failed_ratio {result['failed'] / result['attempted']:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
