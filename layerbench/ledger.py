"""Arithmetic of the layer benchmark.

Turns the raw samples one `layerbench` process prints into the end-to-end
metrics (untraced run) or the per-layer ledger (traced run). Kept apart
from run.py so test_ledger.py can check it without building anything.
"""

import hashlib
import json
import statistics

# The tail is the highest percentile that still has this many samples
# beyond it.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail(values):
    """Returns (value, percentile, n) for the tail rule.

    The value is the sample with exactly TAIL_BEYOND samples above it in
    sorted order; the percentile is the share of samples at or below it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def per_op_medians(passes):
    """Median latency of each op position over the passes of a run."""
    if not passes or any(len(p) != len(passes[0]) for p in passes):
        raise ValueError("every pass must run the same ops")
    return [median(list(samples)) for samples in zip(*passes)]


def ops_per_second(passes):
    """Completed ops per timed wall second, each op timed at its median.

    Every pass runs the same ops, so a stall the program causes recurs at
    the same op and stays in its median; a stall the machine causes lands
    on a different op each pass and drops out.
    """
    seconds = sum(per_op_medians(passes)) / 1e3
    if seconds <= 0:
        raise ValueError("no timed work")
    return len(passes[0]) / seconds


def write_median(passes, kinds):
    """Typical latency of one write: the mean of each write kind's median.

    Inserts and deletes are separate populations (a store insert costs ~3x
    a delete), so a pooled median would hop between them as the
    insert/delete ratio a seed draws changes.
    """
    by_kind = {}
    for latency, kind in zip(per_op_medians(passes), kinds, strict=True):
        by_kind.setdefault(kind, []).append(latency)
    return statistics.fmean(median(v) for v in by_kind.values())


def self_time(op_total, child_spans):
    """A layer's self time: its span minus the child spans it covers."""
    return op_total - sum(child_spans)


def ok_frac(attempted, ok):
    """Ops that returned OK and matched their reference, over attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= ok <= attempted:
        raise ValueError(f"ok={ok} outside 0..attempted={attempted}")
    return ok / attempted


def end_to_end(raw, op_key="op_ms", setup_key="setup_s"):
    """End-to-end metrics of one run as {name: (value, unit)}.

    op_key/setup_key select the program's samples or, in a traced run,
    the replay's, so the tracing overhead is the difference of the two.
    """
    kinds = raw["kinds"]
    medians = per_op_medians(raw[op_key])
    queries = [m for m, kind in zip(medians, kinds) if kind != "write"]
    tail_ms, tail_pct, tail_n = tail(queries)
    return {
        "setup_s": (median(raw[setup_key]), "s"),
        "p50_ms": (median(queries), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "ops_per_s": (ops_per_second(raw[op_key]), "1/s"),
        "write_p50_ms": (write_median(raw["write_ms"], raw["write_kinds"]), "ms"),
        "rss_mb": (raw["rss_mb"], "MB"),
        "ok_frac": (ok_frac(raw["attempted"], raw["ok"]), "frac"),
    }, (tail_pct, tail_n)


def _per_pass(raw, fn):
    """Median over passes of fn(layer accumulators, counts) for one pass."""
    return median([fn(acc, cnt) for acc, cnt in zip(raw["layers"], raw["counts"])])


def _per_setup(raw, key):
    return median([spans[key] for spans in raw["setup_spans"]])


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _ops(raw):
    return sum(1 for kind in raw["kinds"] if kind != "write")


# Per-layer metrics: (name, unit, workloads, value(raw), base). A workload
# outside `workloads` does not call that layer and reports 0.
LAND, WATER, STORE = "land_join", "water_select", "store_serve"
PER_LAYER = [
    ("data.load_ms", "ms", (LAND, WATER),
     lambda r: _per_setup(r, "data.load_ms"), "per set-up"),
    ("index.build_ms", "ms", (LAND, WATER),
     lambda r: _per_setup(r, "index.build_ms"), "per set-up"),
    ("index.join_ms", "ms", (LAND,),
     lambda r: _per_pass(r, lambda a, c: a["index.join_ms"] / _ops(r)),
     "per join"),
    ("index.join_pairs", "count", (LAND,),
     lambda r: _per_pass(r, lambda a, c: c["candidates"] / _ops(r)),
     "per join"),
    ("core.hw.test_us", "us", (LAND, WATER),
     lambda r: _per_pass(r, lambda a, c: _ratio(a["core.hw.test_ms"], a["hw.pairs"], 1e3)),
     "per pair through HwIntersectionTester::Test"),
    ("core.hw.reject_frac", "frac", (LAND, WATER),
     lambda r: _per_pass(r, lambda a, c: _ratio(c["hw_rejects"], c["hw_tests"])),
     "of hw_tests"),
    ("glsim.fill_spans", "count", (LAND, WATER),
     lambda r: _per_pass(r, lambda a, c: c["fill_spans"] / _ops(r)), "per op"),
    ("glsim.scan_spans", "count", (LAND, WATER),
     lambda r: _per_pass(r, lambda a, c: c["scan_spans"] / _ops(r)), "per op"),
    ("algo.exact.test_us", "us", (LAND, WATER),
     lambda r: _per_pass(r, lambda a, c: _ratio(a["algo.exact_ms"], a["exact.pairs"], 1e3)),
     "per candidate through algo::PolygonsIntersect"),
    ("core.hw.net_ms", "ms", (LAND,),
     lambda r: _per_pass(r, lambda a, c: (a["algo.exact_ms"] - a["core.hw.test_ms"]) / _ops(r)),
     "per join: exact cost of the candidates minus the hw tester's"),
    ("core.join.self_ms", "ms", (LAND,),
     lambda r: _per_pass(r, lambda a, c: self_time(
         a["op.pipeline_ms"], [a["index.join_ms"], a["core.hw.test_ms"]]) / _ops(r)),
     "per join: IntersectionJoin::Run minus its layer spans"),
    ("filter.interval.build_ms", "ms", (WATER,),
     lambda r: _per_setup(r, "filter.interval.build_ms"), "per set-up"),
    ("index.probe_us", "us", (WATER,),
     lambda r: _per_pass(r, lambda a, c: a["index.probe_ms"] * 1e3 / _ops(r)),
     "per query"),
    ("index.probe_ids", "count", (WATER,),
     lambda r: _per_pass(r, lambda a, c: c["candidates"] / _ops(r)), "per query"),
    ("filter.interval.query_us", "us", (WATER,),
     lambda r: _per_pass(r, lambda a, c: a["filter.interval.query_ms"] * 1e3 / _ops(r)),
     "per query"),
    ("filter.interval.decide_us", "us", (WATER,),
     lambda r: _per_pass(r, lambda a, c: a["filter.interval.decide_ms"] * 1e3 / _ops(r)),
     "per query"),
    ("filter.interval.decided_frac", "frac", (WATER,),
     lambda r: _per_pass(r, lambda a, c: _ratio(
         c["interval_hits"] + c["interval_misses"], c["candidates"])),
     "of candidates"),
    ("filter.interval.net_ms", "ms", (WATER,),
     lambda r: _per_pass(r, lambda a, c: (
         a.get("exact.decided_ms", 0.0) - a["filter.interval.query_ms"]
         - a["filter.interval.decide_ms"]) / _ops(r)),
     "per query: exact cost of the decided pairs minus query and decide"),
    ("core.select.self_us", "us", (WATER,),
     lambda r: _per_pass(r, lambda a, c: self_time(a["op.pipeline_ms"], [
         a["index.probe_ms"], a["filter.interval.query_ms"],
         a["filter.interval.decide_ms"], a["core.hw.test_ms"]]) * 1e3 / _ops(r)),
     "per query: IntersectionSelection::Run minus its layer spans"),
    ("data.seed_ms", "ms", (STORE,),
     lambda r: _per_setup(r, "data.seed_ms"), "per set-up"),
    ("core.server.start_ms", "ms", (STORE,),
     lambda r: _per_setup(r, "core.server.start_ms"), "per set-up"),
    ("data.snapshot_us", "us", (STORE,),
     lambda r: _per_pass(r, lambda a, c: a["data.snapshot_ms"] * 1e3 / _ops(r)),
     "per query"),
    ("index.dyn.probe_us", "us", (STORE,),
     lambda r: _per_pass(r, lambda a, c: a["index.dyn.probe_ms"] * 1e3 / _ops(r)),
     "per query"),
    ("filter.object.decided_frac", "frac", (STORE,),
     lambda r: _per_pass(r, lambda a, c: _ratio(a["object.decided"], a["object.candidates"])),
     "of distance candidates"),
    ("filter.object.decide_us", "us", (STORE,),
     lambda r: _per_pass(r, lambda a, c: a["filter.object_ms"] * 1e3
                         / r["kinds"].count("distance")),
     "per distance query"),
    ("core.batch.pair_us", "us", (STORE,),
     lambda r: _per_pass(r, lambda a, c: _ratio(a["core.batch_ms"], a["batch.pairs"], 1e3)),
     "per pair through BatchHardwareTester"),
    ("core.server.wait_ms", "ms", (STORE,),
     lambda r: _per_pass(r, lambda a, c: a["server.wait_ms"] / _ops(r)),
     "per query (QueryResponse::wait_ms)"),
    ("core.server.handoff_us", "us", (STORE,),
     lambda r: _per_pass(r, lambda a, c: self_time(
         a["op.pipeline_ms"], [a["direct_ms"]]) * 1e3 / _ops(r)),
     "per query: Execute minus a direct snapshot query"),
    ("data.insert_us", "us", (STORE,),
     lambda r: _per_pass(r, lambda a, c: _ratio(a["data.insert_ms"], a["inserts"], 1e3)),
     "per VersionedDataset::Insert"),
    ("data.delete_us", "us", (STORE,),
     lambda r: _per_pass(r, lambda a, c: _ratio(a["data.delete_ms"], a["deletes"], 1e3)),
     "per VersionedDataset::Delete"),
]

# Tracing overhead: the replay's end-to-end metric minus the program's, in
# the same traced run. rss_mb and ok_frac have no traced counterpart: the
# traced process holds both states, and a replay that diverges fails the run.
OVERHEAD = ["setup_s", "p50_ms", "tail_ms", "ops_per_s", "write_p50_ms"]
OVERHEAD_UNITS = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms",
                  "ops_per_s": "1/s", "write_p50_ms": "ms"}


def counts_digest(counts):
    text = json.dumps(counts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarize(raw):
    """Returns (result, report_lines) for one run's raw samples.

    `result` holds the contract's keys: correct, attempted, failed and
    metrics ({name: {"value", "unit"}}).
    """
    lines = []
    problems = list(raw["problems"])
    attempted = raw["attempted"]
    failed = attempted - raw["ok"]
    workload = raw["workload"]
    e2e, (tail_pct, tail_n) = end_to_end(raw)
    lines.append(f"# {workload} seed={raw['seed']} passes={raw['passes']} "
                 f"setups={len(raw['setup_s'])} ops/pass={len(raw['kinds'])}")
    lines.append(f"# tail_ms is p{tail_pct:.2f} of n={tail_n} per-op medians")
    metrics = {}
    if not raw["trace"]:
        for name, (value, unit) in e2e.items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<14} {value:>14.6f} {unit}")
    else:
        if any(c != raw["counts"][0] for c in raw["counts"]):
            problems.append("integer counts differ between passes")
        lines.append(f"# counts per pass {json.dumps(raw['counts'][0], sort_keys=True)}")
        lines.append(f"# counts digest {counts_digest(raw['counts'][0])}")
        for name, unit, workloads, value, base in PER_LAYER:
            exercised = workload in workloads
            v = value(raw) if exercised else 0.0
            metrics[name] = {"value": v, "unit": unit}
            lines.append(f"{name:<30} {v:>14.6f} {unit:<6} "
                         f"{base if exercised else 'not exercised by ' + workload}")
        traced, _ = end_to_end(raw, "replay_ms", "traced_setup_s")
        for name in OVERHEAD:
            v = traced[name][0] - e2e[name][0]
            metrics[f"trace.overhead.{name}"] = {"value": v, "unit": OVERHEAD_UNITS[name]}
            lines.append(f"{'trace.overhead.' + name:<30} {v:>14.6f} "
                         f"{OVERHEAD_UNITS[name]:<6} replay minus program "
                         f"({traced[name][0]:.6f} - {e2e[name][0]:.6f})")
    for p in problems:
        lines.append(f"# PROBLEM {p}")
    correct = failed == 0 and not problems
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines
