"""Seeded benchmark for the freegroups library.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
One process, one thread, a closed loop with one client: each op starts
when the previous one returns.  The workload's fixed op list is run in
whole passes while another pass fits in ``--seconds`` (at least one),
and every answer is checked.  A wrong answer exits 1 without a result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics; the
per-op span totals go to ``perfbench/out/``.  ``--smoke`` keeps only
the smallest rung of every ladder.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

END_TO_END = (  # name, unit
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("cost_slope", "log/log"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SPANS = {  # span name -> stats reported for it
    "graph.fold_all": ("calls", "self_s", "edges_in", "folds"),
    "graph.core": ("calls", "self_s", "vertices_removed"),
    "graph.product": ("calls", "self_s", "vertices_out", "edges_out"),
    "graph.connected_components": ("calls", "self_s", "count"),
    "graph.transport": ("calls", "self_s"),
    "graph.trace_path": ("calls", "self_s"),
    "graph.graph_from_json": ("self_s",),
    "graph.graph_to_json": ("self_s",),
    "words.free_reduce": ("calls", "self_s", "letters_in"),
    "words.multiply": ("calls", "self_s"),
    "words.parse_word": ("self_s",),
    "subgroup.SubgroupGraph": ("calls", "self_s"),
    **{f"subgroup.{fn}": ("calls", "self_s") for fn in (
        "stallings_graph", "contains", "spanning_tree", "conjugate",
        "rebase_inside", "hall_completion", "power_in")},
    "subgroup.basis": ("calls", "self_s", "letters_out"),
    "intersect.intersection": ("calls", "self_s"),
    "intersect.component_analysis": ("calls", "self_s", "components"),
    "intersect.is_malnormal": ("calls", "self_s"),
    "intersect.is_cyclonormal": ("calls", "self_s"),
    "whitehead.transform_subgroup": ("calls", "self_s"),
    "whitehead.apply_auto": ("calls", "letters_out"),
    "whitehead.is_free_factor_of_ambient": ("calls", "self_s"),
    "extensions.principal_quotients": ("calls", "self_s", "quotients", "identifications"),
    "extensions.is_isolated": ("calls", "self_s", "candidates", "limit_hits"),
    **{f"extensions.{fn}": ("self_s",) for fn in (
        "algebraic_extensions", "algebraic_closure", "malnormal_closure", "isolator")},
    "cli.main": ("calls", "self_s", "bytes_out"),
}
_UNITS = {"calls": "count", "self_s": "s"}

PER_LAYER = tuple(
    (f"{span}.{stat}", _UNITS.get(stat, "count"))
    for span, stats in _SPANS.items() for stat in stats
) + (
    ("whitehead.moves.reducing_ratio", "ratio"),
    ("whitehead.moves.level_ratio", "ratio"),
    ("whitehead.limit_hits", "count"),
    ("trace_overhead", "ratio"),
    ("trace_accounted", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest rung of every ladder only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "freegroups" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports freegroups from src/

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            report = traced_run(workloads, args)
        else:
            report = timed_run(workloads, args)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


def setup(workloads, args):
    """Set up SETUP_REPEATS times from cold caches; return the last workload
    and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # so the collection below frees the previous one
        workloads.clear_caches()
        gc.collect()
        start = time.perf_counter()
        workload = workloads.make(args.workload, args.seed, args.smoke)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def run_pass(workloads, workload, tracer=None):
    """One pass over the op list: per-op seconds, failures, output digest."""
    workload.new_pass()
    times, failed = [], 0
    digest = hashlib.sha256()
    for op in workload.ops:
        gc.collect()  # so no op pays for an earlier op's garbage
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # counted in fail_frac, reported by type
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            elapsed = tracer.end_op()
        times.append(elapsed)
        if error is None:
            op.check(result)
            digest.update(op.canon(result).encode())
        else:
            failed += 1
            digest.update(type(error).__name__.encode())
        digest.update(b"\n")
    return times, failed, digest.hexdigest()


def timed_run(workloads, args) -> dict:
    workload, setup_s = setup(workloads, args)
    passes, failed, digests = [], 0, set()
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        times, fails, digest = run_pass(workloads, workload)
        passes.append(times)
        failed += fails
        digests.add(digest)
        now = time.perf_counter()
        if now - begin + (now - start) > args.seconds:
            break
    if len(digests) != 1:
        raise workloads.WrongAnswer("passes over the same inputs gave different outputs")

    runs = workload.ops  # an op with copies > 1 appears that many times
    samples: dict[int, list[float]] = {}
    for times in passes:
        for op, seconds in zip(runs, times):
            samples.setdefault(id(op), []).append(seconds)
    ops = list({id(op): op for op in runs}.values())
    per_op = [statistics.median(samples[id(op)]) for op in ops]
    latencies = [t * 1e3 for t in per_op]
    attempted = len(runs) * len(passes)
    metrics = {
        "ops_per_s": len(runs) / statistics.median(sum(p) for p in passes),
        "lat_p50_ms": quantile(latencies, 0.5),
        "lat_p90_ms": quantile(latencies, 0.9),
        "cost_slope": cost_slope(ops, per_op),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops ({len(runs)} runs) "
          f"x {len(passes)} passes, {len(latencies)} latency samples (per-op medians), "
          f"{sum(1 for op in ops if op.ladder)} ladder ops")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {units[name]}")
    print(f"  {'fail_frac':<12} {failed / attempted:12.4f} ratio ({failed} of {attempted})")
    print(f"  output_sha256 {digests.pop()}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each
    rank's interval.  Steadier than one order statistic where the ops
    near the quantile come from populations of different cost."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)

    steps = 16  # Simpson's rule on each rank interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        total = density(lo) + density(lo + steps * h)
        total += sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def cost_slope(ops, per_op) -> float:
    """Least-squares slope of log(op time) on log(size), one intercept per
    ladder group (alphabet), pooled over the groups."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for op, seconds in zip(ops, per_op):
        if op.ladder is not None:
            group, size = op.ladder
            groups.setdefault(group, []).append((math.log(size), math.log(seconds)))
    sxy = sxx = 0.0
    for points in groups.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx if sxx else float("nan")


def traced_run(workloads, args) -> dict:
    from tracing import OP_SPAN, Tracer

    workload = workloads.make(args.workload, args.seed, args.smoke)
    plain, failed, digest = run_pass(workloads, workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failed, traced_digest = run_pass(workloads, workload, tracer)
    finally:
        tracer.uninstall()
    if traced_digest != digest:
        raise workloads.WrongAnswer("traced pass gave different outputs")

    totals, counters = tracer.totals(), tracer.counters
    library_self = sum(s for name, (_, s) in totals.items() if name != OP_SPAN)
    moves = totals["whitehead.transform_subgroup"][0]
    metrics = {}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = totals[span][0]
        elif stat == "self_s":
            metrics[name] = totals[span][1]
        else:
            metrics[name] = counters.get(name, 0)
    metrics["whitehead.moves.reducing_ratio"] = (
        counters.get("whitehead.moves.reducing", 0) / moves if moves else 0.0)
    metrics["whitehead.moves.level_ratio"] = (
        counters.get("whitehead.moves.level", 0) / moves if moves else 0.0)
    metrics["trace_overhead"] = sum(traced) / sum(plain)
    metrics["trace_accounted"] = library_self / sum(traced)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_file = out / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps([
        {"op": i, "name": op.name, "seconds": t, "spans": table}
        for i, (op, t, table) in enumerate(zip(workload.ops, traced, tracer.per_op))
    ]))

    units = dict(PER_LAYER)
    print(f"workload {args.workload} seed {args.seed}: traced {len(traced)} ops, "
          f"untraced {sum(plain):.3f} s, traced {sum(traced):.3f} s; spans in {spans_file.name}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:14.6g} {units[name]}")
    return {
        "correct": True,
        "attempted": 2 * len(workload.ops),
        "failed": failed + traced_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER},
    }


if __name__ == "__main__":
    sys.exit(main())
