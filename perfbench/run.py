#!/usr/bin/env python3
"""The pilly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of check-catalog, encode-verify, rewrite-deep, small-terms, or
`all`, which runs each workload in its own process and prints every
result.  BENCHMARK.json gates the first three; small-terms is too noisy
on a shared host for its bound and is run by name.  Run it from the root of a checkout; it imports pilly from
`src/` and the term generators from `tests/conftest.py`.

Each workload is a closed loop with one client thread: the next item is
sent only when the previous verdict has returned.  The item list is
built from the seed once and replayed in whole passes until S seconds
have passed.  Every verdict is checked against its known answer.

With --trace 0 the last line of output is a JSON object carrying the
end-to-end metrics.  With --trace 1 it carries the per-layer metrics: two
untimed counting passes give exact work counts (they must agree), then
untraced and traced passes alternate, and the traced passes' spans give
each layer's self wall and CPU time.  Spans are written to
`.perfbench_out/` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_NEEDED = [SRC / "pilly" / "__init__.py", ROOT / "tests" / "conftest.py"]
if not all(p.is_file() for p in _NEEDED):
    sys.exit("error: run from the root of a pilly checkout; missing "
             + ", ".join(str(p.relative_to(ROOT)) for p in _NEEDED
                         if not p.is_file()))
sys.path.insert(0, str(SRC))

import tracer as TR  # noqa: E402  (these two need src/ on the path)
import workloads  # noqa: E402
from workloads import run_item  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("syntax",) + TR.LAYERS  # every pilly module
SETUP_SPAWNS = 11

_SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    + "".join(f"import pilly.{m}\n" for m in MODULES)
    + "print(repr(time.perf_counter() - t0))\n")


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import every pilly
    module, measured inside the child; one extra spawn warms the file
    cache first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times[1:])


class Loop:
    """Closed loop over a workload's items in whole passes.

    Every verdict latency is kept per item.  The timing metrics use each
    item's median latency over the run's passes and the median pass
    time.  On a shared host single passes of an item run a fifth or more
    faster or slower than is typical; the best of the passes picks up
    those lucky outliers (three identical items can differ by a quarter
    in their best), the median of the passes does not.
    """

    def __init__(self, workload):
        self.workload = workload
        self.samples: list[list[float]] = [[] for _ in workload.items]
        self.pass_times: list[float] = []
        self.status = {"solved": 0, "unknown": 0, "failed": 0}
        self.notes: dict[str, dict[str, str]] = {"unknown": {}, "failed": {}}

    def run_pass(self, tracer=None) -> float:
        t_pass = perf_counter()
        for i, item in enumerate(self.workload.items):
            if tracer is not None:
                tracer.item = i
            t0 = perf_counter()
            status, detail = run_item(item)
            self.samples[i].append(perf_counter() - t0)
            self.status[status] += 1
            if status in self.notes:
                self.notes[status][item.name] = detail
        dt = perf_counter() - t_pass
        self.pass_times.append(dt)
        return dt

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    def typical(self) -> list[float]:
        return [statistics.median(s) for s in self.samples]

    def items_per_s(self) -> float:
        return len(self.samples) / statistics.median(self.pass_times)


def untimed_pass(workload) -> None:
    for item in workload.items:
        run_item(item)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float):
    setup_s = measure_setup()
    loop = Loop(workload)  # first-call work only slows the first pass
    deadline = perf_counter() + seconds
    while True:
        loop.run_pass()
        if perf_counter() >= deadline:
            break
    typical = loop.typical()
    n = loop.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "throughput_items_per_s": metric(loop.items_per_s(), "items/s"),
        "verdict_s.p50": metric(statistics.median(typical), "s"),
        "verdict_s.p90": metric(_p90(typical), "s"),
        "solved_ratio": metric(loop.status["solved"] / n, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    }
    passes = len(loop.pass_times)
    beyond = sum(t > metrics["verdict_s.p90"]["value"] for t in typical)
    lines = [f"{passes} passes, {n} verdicts; p50 and p90 are over each of "
             f"the {len(typical)} items' median latency over the {passes} "
             f"passes ({beyond} items beyond p90); throughput is items per "
             "median pass time"]
    lines += [f"  {k:24s} {v['value']:.6g} {v['unit']}"
              for k, v in metrics.items()]
    lines.append(f"  {'failure_ratio':24s} {loop.status['failed'] / n:.6g} "
                 f"ratio ({loop.status['failed']}/{n})")
    pass_s = statistics.median(loop.pass_times)
    lines.append(f"  pass time: median {pass_s:.4f} s, best "
                 f"{min(loop.pass_times):.4f} s; setup_s is the median of "
                 f"{SETUP_SPAWNS} fresh interpreters importing every pilly "
                 "module")
    return metrics, [loop], lines, []


def count_pass(workload) -> tuple[dict, list[str]]:
    """Exact per-pass work counts from one untimed, instrumented pass."""
    counts = TR.Counts()
    tracer = TR.Tracer(measure=counts.measure)
    with TR.instrumented(tracer, counts):
        untimed_pass(workload)
    exact = dict(counts.values)
    for layer, row in tracer.totals().items():
        exact[f"{layer}.calls"] = row["calls"]
        exact[f"{layer}.errors"] = row["errors"]
    return exact, counts.mismatches


def per_layer(workload, seconds: float):
    exact, problems = count_pass(workload)
    again, problems2 = count_pass(workload)
    problems += problems2
    if exact != again:
        diff = sorted(k for k in exact if exact[k] != again[k])
        problems.append(f"two counting passes disagree on {diff}")

    plain, traced = Loop(workload), Loop(workload)
    tracer = TR.Tracer()
    deadline = perf_counter() + seconds
    while True:
        plain.run_pass()
        with TR.instrumented(tracer):
            traced.run_pass(tracer)
        if perf_counter() >= deadline:
            break
    passes = len(traced.pass_times)
    traced_wall = sum(traced.pass_times)
    totals = tracer.totals()
    cpu_sum = sum(row["cpu_s"] for row in totals.values())
    if cpu_sum > traced_wall:
        problems.append(f"layer cpu_s sums to {cpu_sum:.4f} s, more than "
                        f"the traced passes' {traced_wall:.4f} s wall")
    for layer, row in totals.items():
        if row["calls"] != exact[f"{layer}.calls"] * passes:
            problems.append(f"{layer}: {row['calls']} traced calls in "
                            f"{passes} passes, counted "
                            f"{exact[f'{layer}.calls']} per pass")

    m = {}
    for layer, row in totals.items():
        self_s, cpu_s = row["self_s"] / passes, row["cpu_s"] / passes
        m[f"{layer}.calls"] = metric(exact[f"{layer}.calls"], "count")
        m[f"{layer}.self_s"] = metric(self_s, "s")
        m[f"{layer}.cpu_s"] = metric(cpu_s, "s")
        m[f"{layer}.wait_s"] = metric(self_s - cpu_s, "s")
        m[f"{layer}.errors"] = metric(exact[f"{layer}.errors"], "count")

    def rate(count: int, layer: str) -> float:
        busy = m[f"{layer}.self_s"]["value"]
        return count / busy if busy > 0 else 0.0

    steps = exact["rewrite.steps"]
    eq_calls = exact["rewrite.equal_calls"]
    m["parser.bytes_per_s"] = metric(rate(exact["parser.bytes"], "parser"),
                                     "bytes/s")
    m["typecheck.nodes_per_s"] = metric(
        rate(exact["typecheck.nodes"], "typecheck"), "nodes/s")
    m["rewrite.steps"] = metric(steps, "count")
    m["rewrite.s_per_step"] = metric(
        m["rewrite.self_s"]["value"] / steps if steps else 0.0, "s/step")
    for key in ("nf_nodes", "unrolls", "fuel_exhausted"):
        m[f"rewrite.{key}"] = metric(exact[f"rewrite.{key}"], "count")
    m["rewrite.equal_decided_ratio"] = metric(
        exact["rewrite.equal_decided"] / eq_calls if eq_calls else 0.0,
        "ratio")
    m["encodings.generated_nodes"] = metric(
        exact["encodings.generated_nodes"], "count")
    m["trace.overhead_ratio"] = metric(
        statistics.median(traced.pass_times)
        / statistics.median(plain.pass_times), "ratio")
    m["trace.pass_s"] = metric(traced_wall / passes, "s")

    spans_file = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.dump(spans_file)
    lines = [f"{passes} traced and {len(plain.pass_times)} untraced passes; "
             "counts are per pass, times are means per traced pass"]
    lines += [f"  {k:28s} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    lines.append(f"  layer cpu_s sums to {cpu_sum / passes:.5f} s per pass, "
                 f"traced pass wall {traced_wall / passes:.5f} s")
    lines.append(f"spans written to {spans_file}")
    return m, [plain, traced], lines, problems


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    workload = workloads.build(name, seed, tiny)
    print(f"pilly benchmark: workload {name}, seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")
    print(f"items per pass: {len(workload.items)} ({workload.mix()})")
    measure = per_layer if trace else end_to_end
    metrics, loops, lines, problems = measure(workload, seconds)
    for line in lines:
        print(line)
    for status in ("unknown", "failed"):
        notes = {k: v for loop in loops for k, v in loop.notes[status].items()}
        print(f"{status} items: {len(notes) or 'none'}")
        for item_name, detail in sorted(notes.items()):
            print(f"  {item_name}: {detail}")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    if workload.probe:
        print(f"known-defect probe, run once outside the timed loop and "
              f"not in the result: {len(workload.probe)} items")
        for item in workload.probe:
            status, detail = run_item(item)
            print(f"  {status:7s} {item.name} {detail}")
    failed = sum(loop.status["failed"] for loop in loops)
    return {"correct": failed == 0 and not problems,
            "attempted": sum(loop.attempted for loop in loops),
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    ok = True
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) \
            and json.loads(lines[-1])["correct"]
        print()
    print(f"all workloads: {'correct' if ok else 'NOT CORRECT'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
