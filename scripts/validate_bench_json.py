#!/usr/bin/env python3
"""Validate hasj bench observability outputs (DESIGN.md §10).

Checks two file kinds against their stable schemas:

  * --json PATH   bench report written by a fig*/table*/ablation_* binary's
                  --json flag: schema_version 3, the printed series rows,
                  a full metrics-registry snapshot (counters, gauges,
                  power-of-two-bucket histograms with p50/p90/p99), and the
                  run's query/truncated accounting. schema_version 1
                  (pre-quantile) and 2 (pre-accounting) files still
                  validate.
  * --trace PATH  Chrome trace_event file written by --trace: a
                  "traceEvents" array of complete ("X"), instant ("i") and
                  metadata ("M") events with per-track monotonic timestamps
                  (chrome://tracing and ui.perfetto.dev both require this
                  shape to render sensibly).
  * --query-log PATH  JSONL query log written by --query_log=PATH
                  (DESIGN.md §15): one record per sampled query with the
                  config fingerprint, stage costs/counts, hardware
                  counters, filter tallies, events, and PMU deltas.

`--require-counter NAME` (repeatable) additionally insists that every
--json file's metrics snapshot contains NAME as a counter or a gauge — CI
uses it to pin the metrics a bench is expected to exercise (e.g. the
stage.interval.* decision counters from ablation_intervals, or the
hw.simd_backend gauge from ablation_simd).

Exit code 0 when every file validates, 1 otherwise (one line per problem).
CI runs this over a small-scale bench run; it is also handy locally:

  build/bench/fig12_join_hw --scale=0.01 --json=r.json --trace=t.json
  scripts/validate_bench_json.py --json r.json --trace t.json
"""

import argparse
import json
import sys

HISTOGRAM_BUCKETS = 64


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def validate_report(path, required_counters=()):
    """Returns a list of problem strings for one --json report file."""
    errors = []

    def err(message):
        errors.append(f"{path}: {message}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or not JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]

    schema = doc.get("schema_version")
    if schema not in (1, 2, 3):
        err(f"schema_version must be 1, 2 or 3, got {schema!r}")
    if schema == 3:
        # Schema 3 adds run-level query accounting: how many queries the
        # bench executed and how many a deadline/cancellation truncated.
        queries = doc.get("queries")
        truncated = doc.get("truncated")
        if not _is_int(queries) or queries < 0:
            err(f"queries must be a non-negative integer, got {queries!r}")
        if not _is_int(truncated) or truncated < 0:
            err(f"truncated must be a non-negative integer, got {truncated!r}")
        if _is_int(queries) and _is_int(truncated) and truncated > queries:
            err(f"truncated ({truncated}) must not exceed queries ({queries})")
    if not isinstance(doc.get("bench_name"), str) or not doc.get("bench_name"):
        err("bench_name must be a non-empty string")
    if not _is_number(doc.get("scale")) or not 0 < doc.get("scale", 0) <= 1:
        err(f"scale must be a number in (0, 1], got {doc.get('scale')!r}")
    if not _is_int(doc.get("seed")) or doc.get("seed", -1) < 0:
        err(f"seed must be a non-negative integer, got {doc.get('seed')!r}")
    if not _is_int(doc.get("threads")) or doc.get("threads", -1) < 0:
        err(f"threads must be a non-negative integer, got {doc.get('threads')!r}")

    series = doc.get("series")
    if not isinstance(series, list):
        err("series must be an array")
        series = []
    for i, row in enumerate(series):
        where = f"series[{i}]"
        if not isinstance(row, dict):
            err(f"{where} must be an object")
            continue
        if not isinstance(row.get("series"), str) or not row.get("series"):
            err(f"{where}.series must be a non-empty string")
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            err(f"{where}.metrics must be an object")
            continue
        for key, value in metrics.items():
            if not _is_number(value):
                err(f"{where}.metrics[{key!r}] must be a number, got {value!r}")

    snap = doc.get("metrics")
    if not isinstance(snap, dict):
        err("metrics must be an object")
        return errors
    counters = snap.get("counters")
    if not isinstance(counters, dict):
        err("metrics.counters must be an object")
        counters = {}
    else:
        for name, value in counters.items():
            if not _is_int(value):
                err(f"counter {name!r} must be an integer, got {value!r}")
    gauges = snap.get("gauges")
    if not isinstance(gauges, dict):
        err("metrics.gauges must be an object")
        gauges = {}
    else:
        for name, value in gauges.items():
            if not _is_number(value):
                err(f"gauge {name!r} must be a number, got {value!r}")
    for name in required_counters:
        if name not in counters and name not in gauges:
            err(
                f"required metric {name!r} missing from metrics.counters "
                "and metrics.gauges"
            )
    histograms = snap.get("histograms")
    if not isinstance(histograms, dict):
        err("metrics.histograms must be an object")
        histograms = {}
    for name, hist in histograms.items():
        where = f"histogram {name!r}"
        if not isinstance(hist, dict):
            err(f"{where} must be an object")
            continue
        for field in ("count", "sum", "min", "max"):
            if not _is_int(hist.get(field)):
                err(f"{where}.{field} must be an integer, got {hist.get(field)!r}")
        if schema >= 2:
            for field in ("p50", "p90", "p99"):
                if not _is_int(hist.get(field)):
                    err(
                        f"{where}.{field} must be an integer, "
                        f"got {hist.get(field)!r}"
                    )
            if all(_is_int(hist.get(f)) for f in ("p50", "p90", "p99")):
                if not hist["p50"] <= hist["p90"] <= hist["p99"]:
                    err(
                        f"{where}: quantiles must be ordered, got "
                        f"p50={hist['p50']} p90={hist['p90']} p99={hist['p99']}"
                    )
            if (
                all(
                    _is_int(hist.get(f))
                    for f in ("count", "min", "max", "p50", "p99")
                )
                and hist["count"] > 0
                and not hist["min"] <= hist["p50"] <= hist["p99"] <= hist["max"]
            ):
                err(f"{where}: quantiles must lie within [min, max]")
        buckets = hist.get("buckets")
        if (
            not isinstance(buckets, list)
            or len(buckets) != HISTOGRAM_BUCKETS
            or not all(_is_int(b) and b >= 0 for b in buckets)
        ):
            err(f"{where}.buckets must be {HISTOGRAM_BUCKETS} non-negative integers")
        elif _is_int(hist.get("count")) and sum(buckets) != hist["count"]:
            err(f"{where}: bucket sum {sum(buckets)} != count {hist['count']}")

    return errors


QUERY_LOG_KINDS = (
    "selection",
    "join",
    "distance_selection",
    "distance_join",
    "snapshot_selection",
    "snapshot_join",
    "snapshot_distance_selection",
    "snapshot_distance_join",
)

QUERY_LOG_OBJECTS = {
    "config": (
        "enable_hw",
        "backend",
        "resolution",
        "sw_threshold",
        "routing",
        "simd",
        "use_intervals",
        "interval_grid_bits",
        "deadline_ms",
        "faults",
    ),
    "costs": ("mbr_ms", "filter_ms", "compare_ms", "total_ms"),
    "counts": ("candidates", "filter_hits", "compared", "results", "truncated"),
    "hw": (
        "tests",
        "mbr_misses",
        "pip_hits",
        "sw_threshold_skips",
        "hw_tests",
        "hw_rejects",
        "sw_tests",
        "width_fallbacks",
        "hw_faults",
        "hw_fallback_pairs",
        "breaker_opens",
        "cost_skips",
        "run_box_rejects",
        "fill_spans",
        "scan_spans",
    ),
    "filter": (
        "interval_hits",
        "interval_misses",
        "interval_undecided",
    ),
    "events": ("deadline_exceeded", "faulted", "breaker_opened"),
}

PMU_STAGES = ("hw_fill", "hw_scan", "interval_decide", "exact_compare")
PMU_EVENTS = ("cycles", "instructions", "cache_misses", "branch_misses")


def validate_query_log(path):
    """Returns a list of problem strings for one --query_log JSONL file."""
    errors = []

    def err(message):
        errors.append(f"{path}: {message}")

    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [f"{path}: unreadable: {e}"]

    if not lines:
        err("query log is empty")
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            err(f"{where}: not JSON: {e}")
            continue
        if not isinstance(record, dict):
            err(f"{where}: record must be an object")
            continue
        if record.get("schema_version") != 4:
            err(
                f"{where}: schema_version must be 4, "
                f"got {record.get('schema_version')!r}"
            )
        if record.get("kind") not in QUERY_LOG_KINDS:
            err(f"{where}: kind must be one of {QUERY_LOG_KINDS}, "
                f"got {record.get('kind')!r}")
        for section, fields in QUERY_LOG_OBJECTS.items():
            obj = record.get(section)
            if not isinstance(obj, dict):
                err(f"{where}: {section} must be an object, got {obj!r}")
                continue
            for field in fields:
                if field not in obj:
                    err(f"{where}: {section}.{field} missing")
        pmu = record.get("pmu", "absent")
        if pmu == "absent":
            err(f"{where}: pmu must be present (null when no PMU attached)")
        elif pmu is not None:
            if not isinstance(pmu, dict):
                err(f"{where}: pmu must be null or an object, got {pmu!r}")
            else:
                if not isinstance(pmu.get("available"), bool):
                    err(f"{where}: pmu.available must be a boolean")
                for stage in PMU_STAGES:
                    deltas = pmu.get(stage)
                    if not isinstance(deltas, dict):
                        err(f"{where}: pmu.{stage} must be an object")
                        continue
                    for event in PMU_EVENTS:
                        if not _is_int(deltas.get(event)):
                            err(f"{where}: pmu.{stage}.{event} must be an integer")

    return errors


def validate_trace(path):
    """Returns a list of problem strings for one --trace file."""
    errors = []

    def err(message):
        errors.append(f"{path}: {message}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or not JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: traceEvents must be an array"]
    if not events:
        err("traceEvents is empty")

    last_ts = {}  # (pid, tid) -> last ts seen, per track
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            err(f"{where} must be an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            err(f"{where}.ph must be one of X/i/M, got {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                err(f"{where} ({ph}) missing {field!r}")
        if ph == "M":
            if event.get("name") == "thread_name" and not isinstance(
                event.get("args", {}).get("name"), str
            ):
                err(f"{where}: thread_name metadata needs args.name")
            continue  # metadata carries no timestamp
        ts = event.get("ts")
        if not _is_number(ts):
            err(f"{where} ({ph}) needs a numeric ts, got {ts!r}")
            continue
        if ph == "X" and (not _is_number(event.get("dur")) or event["dur"] < 0):
            err(f"{where} (X) needs a non-negative numeric dur")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            err(f"{where} (i) needs a scope s in t/p/g")
        track = (event.get("pid"), event.get("tid"))
        if track in last_ts and ts < last_ts[track]:
            err(f"{where}: ts {ts} goes backwards on track pid={track[0]} tid={track[1]}")
        last_ts[track] = ts

    return errors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        dest="reports",
        action="append",
        default=[],
        metavar="PATH",
        help="bench --json report to validate (repeatable)",
    )
    parser.add_argument(
        "--trace",
        dest="traces",
        action="append",
        default=[],
        metavar="PATH",
        help="bench --trace file to validate (repeatable)",
    )
    parser.add_argument(
        "--query-log",
        dest="query_logs",
        action="append",
        default=[],
        metavar="PATH",
        help="bench --query_log JSONL file to validate (repeatable)",
    )
    parser.add_argument(
        "--require-counter",
        dest="required_counters",
        action="append",
        default=[],
        metavar="NAME",
        help="metric that must be present in every --json file's "
        "metrics.counters or metrics.gauges snapshot (repeatable)",
    )
    args = parser.parse_args(argv)
    if not args.reports and not args.traces and not args.query_logs:
        parser.error(
            "nothing to validate: pass --json, --trace and/or --query-log"
        )
    if args.required_counters and not args.reports:
        parser.error("--require-counter needs at least one --json file")

    errors = []
    for path in args.reports:
        errors.extend(validate_report(path, args.required_counters))
    for path in args.traces:
        errors.extend(validate_trace(path))
    for path in args.query_logs:
        errors.extend(validate_query_log(path))

    for problem in errors:
        print(problem, file=sys.stderr)
    checked = len(args.reports) + len(args.traces) + len(args.query_logs)
    if errors:
        print(f"{checked} file(s) checked, {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"{checked} file(s) checked, all valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
