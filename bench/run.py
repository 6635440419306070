"""Benchmark runner for endscope (stdlib only).

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --full

Workloads: sweep, analyze, deciders, cayley_cli (see workloads.py).  Each run
is a closed loop: one caller in one process, no threads, and each item starts
only after the previous one returns.  The seed makes the inputs; endscope
receives only the generated inputs.

A timed run repeats the seed's pass (every item once, each after an untimed
gc.collect()) until --seconds have passed, and always makes at least two
passes, so each item's answer is also checked to repeat.  --full makes one pass over the full-size inputs instead
(the 80-diagram sweep at radius 10, 500 towers, diagrams up to 16 vertices,
balls up to ~200k elements) and ignores --seconds.

Times are scaled to a reference speed.  Other tenants of a shared machine
slow every process on it by up to ~40% for seconds to minutes at a time, so
just before and just after each timed item (and each set-up) the runner
times a fixed, interpreter-bound reference loop and multiplies the item's wall
time by REFERENCE_S over the loop's mean time.  The result reads as milliseconds on a
machine that runs the loop in REFERENCE_S; the unscaled wall-clock figures
are printed beside them.  The loop calls no endscope code, so a change to
endscope moves the scaled times in full.

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced pass,
then wraps the hooked endscope functions and prints per-layer metrics (median
per pass) and the tracing overhead.  The spans of the first traced pass are
kept in memory and written to bench/_work at the end.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code is
0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile is the highest with this many items beyond it
# Time of one reference_loop() call on the reference machine: about the fastest
# seen on a 2-vCPU Intel Xeon with Python 3.11.7.
REFERENCE_S = 75e-6
END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "item_p50_ms": "ms",
              "item_tail_ms": "ms", "peak_rss_mb": "MB"}
MODULES = ("atoms", "cayley", "cli", "coxeter", "graph_products", "graphs",
           "inference", "model", "report", "towers")

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def import_endscope():
    """Fresh import of the endscope sources of this checkout."""
    for name in [n for n in sys.modules if n == "endscope" or n.startswith("endscope.")]:
        del sys.modules[name]
    es = SimpleNamespace(**{m: importlib.import_module(f"endscope.{m}") for m in MODULES})
    if not Path(es.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"endscope was imported from {es.cli.__file__}, not from {SRC}")
    return es


def reference_loop():
    """Fixed interpreter-bound work, the kinds endscope does: tuple keys, dict
    and set updates and str (reports, balls, facts), and integer arithmetic
    over indexed lists (matrix oracles, lattices)."""
    table = {}
    for i in range(160):
        key = (i, i & 7)
        table[key] = table.get(key, 0) + len(str(i))
    row = list(range(16))
    for _ in range(10):
        row = [(row[(c * 5) & 15] * 3 - row[c] + c) & 0xFFFF for c in range(16)]
    return len(set(table)) + row[0]


def reference_time():
    """Current time of one reference_loop() call, best of two."""
    clock, best = time.perf_counter, float("inf")
    for _ in range(2):
        t0 = clock()
        reference_loop()
        best = min(best, clock() - t0)
    return best


def scale(before, after):
    """Factor from wall time to reference-speed time, from reference_time()
    taken just before and just after the timed work."""
    return 2 * REFERENCE_S / (before + after)


def setup(workload_cls, seed, full, times):
    """Import plus input generation; appends its scaled duration to `times`."""
    before = reference_time()
    t0 = time.perf_counter()
    workload = workload_cls(import_endscope(), full, WORK)
    items = workload.make_items(random.Random(seed))
    elapsed = time.perf_counter() - t0
    times.append(elapsed * scale(before, reference_time()))
    return workload, items


class Measurement:
    """Per-item times and answer checks over repeated passes of one item list."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.times = [[] for _ in items]  # wall seconds, one per pass
        self.scaled = [[] for _ in items]  # reference-speed seconds, one per pass
        self.scales = []  # scale() of each item
        self.digests = [None] * len(items)
        self.errors = []  # (item label, message)
        self.failed = 0
        self.pass_seconds = []  # sum of item times per pass
        self.pass_bytes = []
        self.matrix = Counter()  # (exact end class, verdict) over the first pass

    def run_pass(self, recorder=None):
        workload, clock = self.workload, time.perf_counter
        first = not self.pass_seconds
        busy = emitted = 0
        for i, item in enumerate(self.items):
            if recorder is not None:
                recorder.item_id = len(self.pass_seconds) * len(self.items) + i
            gc.collect()  # the item's time must not depend on what ran before it
            before = reference_time()
            t0 = clock()
            try:
                answer, error = workload.run(item), None
            except Exception as exc:  # an item that raises is a failed item
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - t0
            factor = scale(before, reference_time())
            self.times[i].append(elapsed)
            self.scaled[i].append(elapsed * factor)
            self.scales.append(factor)
            busy += elapsed
            if error is None:
                try:
                    result = workload.inspect(item, answer)
                except (ValueError, KeyError, TypeError) as exc:
                    result = workloads.Result(f"unreadable answer: {exc!r}", "")
                error = result.error
                emitted += result.out_bytes
                if first and workload.rerun_first_pass and error is None:
                    try:
                        again = workload.inspect(item, workload.run(item)).digest
                    except Exception as exc:  # a second run that raises is a failure too
                        again = f"raised {type(exc).__name__}: {exc}"
                    if again != result.digest:
                        error = "output differs between two runs of the same input"
                if error is None and self.digests[i] not in (None, result.digest):
                    error = "output differs from the previous pass"
                self.digests[i] = self.digests[i] or result.digest
                if first and result.verdict:
                    self.matrix[(result.exact, result.verdict)] += 1
            if error is not None:
                self.failed += 1
                self.errors.append((item.label, error))
        self.pass_seconds.append(busy)
        self.pass_bytes.append(emitted)

    @property
    def attempted(self):
        return len(self.items) * len(self.pass_seconds)

    def end_to_end(self, setup_s):
        # An item's time is the median of its scaled times over the passes.
        per_item = sorted(statistics.median(t) for t in self.scaled)
        n = len(per_item)
        k = max(0, n - TAIL_BEYOND - 1)
        self.tail_pct = 100.0 * (k + 1) / n
        wall = sorted(min(t) for t in self.times)
        self.wall = (n / sum(wall), 1000 * statistics.median(wall), 1000 * wall[k])
        return {
            "setup_s": setup_s,
            "items_per_s": n / sum(per_item),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "item_tail_ms": 1000 * per_item[k],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"
            f" commit={commit()}")


def commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report_end_to_end(m, metrics):
    print(f"{'setup_s':<20}{metrics['setup_s']:.4f} s (median of {SETUP_REPEATS} + one per pass)")
    print(f"{'items_per_s':<20}{metrics['items_per_s']:.3f} items/s")
    print(f"{'item_p50_ms':<20}{metrics['item_p50_ms']:.3f} ms")
    print(f"{'item_tail_ms':<20}{metrics['item_tail_ms']:.3f} ms"
          f" (p{m.tail_pct:.1f} of {len(m.items)} items, median of {len(m.pass_seconds)} passes)")
    scales = statistics.quantiles(m.scales, n=10) if len(m.scales) > 1 else m.scales * 9
    print(f"(times above are at reference speed; this machine ran at {scales[0]:.2f}-{scales[-1]:.2f}"
          f" of it, 10th-90th percentile.  Unscaled, fastest of the passes: {m.wall[0]:.3f} items/s,"
          f" p50 {m.wall[1]:.3f} ms, tail {m.wall[2]:.3f} ms)")
    print(f"{'peak_rss_mb':<20}{metrics['peak_rss_mb']:.1f} MB")
    if any(m.pass_bytes):  # workloads that emit reports or DOT files
        print(f"{'output_mb':<20}{statistics.median(m.pass_bytes) / 1e6:.3f} MB per pass")
    if m.matrix:
        inconclusive = sum(c for (_, v), c in m.matrix.items() if v == "inconclusive")
        print(f"{'inconclusive_frac':<20}{inconclusive / len(m.items):.4f} fraction"
              f" ({inconclusive}/{len(m.items)})")
    print(f"{'failed_frac':<20}{m.failed / m.attempted:.4f} fraction ({m.failed}/{m.attempted})")
    if m.matrix:
        print("agreement matrix (exact end class x estimate):")
        print(f"  {'exact':<6}{'agree':>8}{'inconcl':>9}{'disagree':>10}")
        for exact in workloads.END_CLASSES:
            row = [m.matrix[(exact, v)] for v in ("agree", "inconclusive", "disagree")]
            if any(row):
                print(f"  {exact:<6}{row[0]:>8}{row[1]:>9}{row[2]:>10}")
        totals = [sum(c for (_, v), c in m.matrix.items() if v == col)
                  for col in ("agree", "inconclusive", "disagree")]
        print(f"  {'total':<6}{totals[0]:>8}{totals[1]:>9}{totals[2]:>10}")


def report_layers(stats, missing, overhead, repeat):
    print(f"{'per-layer metric (per pass)':<58}{'value':>14}  unit    should move / on / bypassed by")
    for hook in spans.HOOKS:
        moves, on, bypassed = spans.PREDICTIONS[hook.layer]
        for stat in hook.stats:
            name = f"{hook.layer}.{stat}"
            value = stats[name]
            shown = f"{value:.4f}" if stat == "self_s" else f"{value:d}"
            note = " MISSING" if hook.layer in missing else ""
            print(f"{name:<58}{shown:>14}  {spans.UNITS[stat]:<7} {moves} / {on} / {bypassed}{note}")
    print(f"tracing overhead: {overhead * 100:.1f}% (traced pass time vs the untraced pass)")
    print(f"counts repeat across traced passes: {'yes' if repeat else 'NO'}")


def run_one(args):
    name = args.workload
    cls, setup_times = workloads.WORKLOADS[name], []
    for _ in range(SETUP_REPEATS):
        workload, items = setup(cls, args.seed, args.full, setup_times)
    m = Measurement(workload, items)
    start = time.perf_counter()
    mode = "full" if args.full else "timed"

    def more():
        if args.full:
            return not m.pass_seconds
        return len(m.pass_seconds) < MIN_PASSES or time.perf_counter() - start < args.seconds

    if args.trace:
        m.run_pass()  # untraced reference pass
        untraced = m.pass_seconds[0]
        recorder = spans.SpanRecorder()
        missing = recorder.install()
        per_pass = []
        while not per_pass or more():
            before = recorder.mark()
            m.run_pass(recorder)
            per_pass.append(recorder.layer_stats(before[0], len(recorder.start),
                                                 before[1], dict(recorder.amounts)))
            if len(per_pass) > 1:  # keep the first traced pass's spans; bounds memory
                recorder.truncate(before[0])
        recorder.write(WORK / f"spans-{name}-{args.seed}.bin")
        stats = {k: (statistics.median if k.endswith(".self_s") else statistics.median_low)(
            [p[k] for p in per_pass]) for k in per_pass[0]}
        counts = [k for k in stats if not k.endswith(".self_s")]
        repeat = all(len({p[k] for p in per_pass}) == 1 for k in counts)
        overhead = statistics.median(m.pass_seconds[1:]) / untraced - 1
        metrics = {k: {"value": v, "unit": spans.UNITS[k.rsplit(".", 1)[1]]} for k, v in stats.items()}
    else:
        while more():
            m.run_pass()
            # one more set-up after each pass spreads the samples over the run
            setup(cls, args.seed, args.full, setup_times)
        e2e = m.end_to_end(statistics.median(setup_times))
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    print(f"workload {name}  seed {args.seed}  mode {mode}  trace {args.trace}"
          f"  passes {len(m.pass_seconds)}  items/pass {len(items)}")
    print(f"machine: {machine()}")
    if args.trace:
        report_layers(stats, missing, overhead, repeat)
    else:
        report_end_to_end(m, e2e)
    for label, error in m.errors[:10]:
        print(f"FAILED {label}: {error}", file=sys.stderr)
    correct = m.failed == 0
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    status = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.full:
            cmd.append("--full")
        status[name] = subprocess.run(cmd, check=False).returncode
        print(flush=True)
    print("summary: " + ", ".join(f"{n} {'ok' if c == 0 else f'FAILED (exit {c})'}"
                                  for n, c in status.items()))
    return 0 if not any(status.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="endscope benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="one pass over the full-size inputs; ignores --seconds")
    args = parser.parse_args(argv)
    if not (SRC / "endscope" / "__init__.py").is_file():
        print(f"error: no endscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
