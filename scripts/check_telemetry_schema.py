#!/usr/bin/env python3
"""Validate MNTP observability artifacts.

Seven artifact kinds, detected from content (or forced with --kind):

  * `report` — JSONL telemetry run report (schema v1, src/obs/report.h):
    line 1 is a `meta` object with schema_version 1 and run/sim_end_ns/
    metric_count/event_count, where event_count is 0; every following
    line is a `metric` object with the fields its kind requires; metric
    names are sorted and the meta metric_count matches the body;
    histogram buckets have ascending finite bounds with a final "inf"
    bucket whose counts sum to the histogram count, and p50<=p90<=p99.
  * `profile` — Chrome trace-event JSON written by --profile-out
    (src/obs/profiler.h): a single object with a traceEvents array of
    "ph":"M" metadata and "ph":"X" complete events carrying numeric
    ts/dur and args.self_us <= dur.
  * `bench` — BENCH_results.json written by bench/perf_suite.cc:
    schema_version 1, kind mntp_perf_suite, an environment block, and
    per-workload robust summaries whose sample counts match `reps` and
    whose order statistics are consistent (min<=median<=p95<=max).
  * `query-trace` — JSONL causal query trace written by --query-trace-out
    (schema v1, src/obs/query_trace.h): line 1 is a `meta` object with
    kind mntp_query_trace; every following line is a `query` object with
    a strictly increasing positive id, a kind, a start_ns, and a stages
    array whose entries carry integer sim timestamps (non-decreasing per
    query, none before start_ns), a non-empty stage name, a reason drawn
    from the closed enum of src/obs/reason_codes.h, and a flat fields
    object; at most one `verdict` stage exists per query and it must be
    the last; the meta query_count matches the query-line count. When
    the meta carries a `sampling` block (deterministic sampling was
    active, QueryTracer::Sampling) its accounting must conserve ids:
    minted == kept + sampled_out + dropped and query_count == kept.
  * `diff` — cross-run triage record written by `mntp-inspect diff
    --json` (kind mntp_diff, src/obs/diff.h): schema_version 1, the
    diffed artifact kind, a/b provenance, the significance options,
    and ranked sections of named delta entries whose class vocabulary
    is closed and whose significant/regressions tallies and exit_hint
    must be internally consistent (regression implies significant;
    exit_hint is 1 exactly when regressions > 0).
  * `fleet` — fleet-simulation report written by `bench/fleet_qps
    --fleet-out` (kind mntp_fleet_report, src/fleet/report.h): params,
    population and totals blocks whose conservation ledger must balance
    (queries == arrived + dropped; per-server requests sum to arrived;
    cache hits + misses and OWD valid + invalid both equal arrived - kod,
    KoD-limited requests receiving no time response), a throughput block,
    and the 4-row speaker x population and provider-category OWD tables
    whose counts sum to owd_valid with p50<=p90<=p99 per row.
  * `timeline` — JSONL sim-time series written by --timeline-out
    (schema v1, src/obs/timeseries.h): line 1 is a `meta` object with
    kind mntp_timeline and run/sim_end_ns/cadence_ns/series_count; every
    following line is a `series` object with a name, a probe kind from
    {callback, counter, gauge}, string labels, positive samples/stride,
    and a non-empty points array of [t_ns, min, mean, max, last, count]
    rows with strictly ascending t_ns, min<=mean<=max, min<=last<=max,
    count>=1 and counts summing to `samples`; the meta series_count
    matches the series-line count.

Usage:
  check_telemetry_schema.py ARTIFACT
      [--kind report|profile|bench|query-trace|timeline]
      [--require-prefixes a.,b.]
  check_telemetry_schema.py --generate BENCH_BINARY --out report.jsonl \
      [--kind report|profile|query-trace|timeline] [--require-prefixes a.,b.]

With --generate the script first runs `BENCH_BINARY --telemetry-out OUT`
(`--profile-out OUT` when --kind profile, `--query-trace-out OUT` when
--kind query-trace, `--timeline-out OUT` when --kind timeline) — the
binary's own exit code is ignored: shape
checks may evolve independently of the telemetry schema — and then
validates OUT. --require-prefixes (report kind only) additionally
demands at least one metric per listed name prefix, which is how the
CTest wiring asserts that every layer of the stack (sim., net., ntp.,
mntp.) actually reported.
"""

import argparse
import json
import subprocess
import sys


def fail(lineno, msg):
    raise SystemExit(f"SCHEMA ERROR line {lineno}: {msg}")


def check_meta(obj, lineno):
    for key in ("schema_version", "run", "sim_end_ns", "metric_count",
                "event_count"):
        if key not in obj:
            fail(lineno, f"meta missing '{key}'")
    if obj["schema_version"] != 1:
        fail(lineno, f"unsupported schema_version {obj['schema_version']}")
    if not isinstance(obj["run"], str) or not obj["run"]:
        fail(lineno, "meta 'run' must be a non-empty string")
    for key in ("sim_end_ns", "metric_count"):
        if not isinstance(obj[key], int) or obj[key] < 0:
            fail(lineno, f"meta '{key}' must be a non-negative integer")
    if obj["event_count"] != 0:
        fail(lineno, f"meta 'event_count' must be 0, got {obj['event_count']}")


def check_histogram(obj, lineno):
    for key in ("count", "sum", "min", "max", "p50", "p90", "p99", "buckets"):
        if key not in obj:
            fail(lineno, f"histogram missing '{key}'")
    if not isinstance(obj["count"], int) or obj["count"] < 0:
        fail(lineno, "histogram 'count' must be a non-negative integer")
    buckets = obj["buckets"]
    if not isinstance(buckets, list) or not buckets:
        fail(lineno, "histogram 'buckets' must be a non-empty array")
    prev_le = None
    total = 0
    for i, b in enumerate(buckets):
        if set(b) != {"le", "count"}:
            fail(lineno, f"bucket {i} must have exactly 'le' and 'count'")
        le, n = b["le"], b["count"]
        if not isinstance(n, int) or n < 0:
            fail(lineno, f"bucket {i} count must be a non-negative integer")
        total += n
        if i == len(buckets) - 1:
            if le != "inf":
                fail(lineno, "final bucket 'le' must be \"inf\"")
        else:
            if not isinstance(le, (int, float)) or isinstance(le, bool):
                fail(lineno, f"bucket {i} 'le' must be a number")
            if prev_le is not None and le <= prev_le:
                fail(lineno, f"bucket bounds must ascend ({le} after {prev_le})")
            prev_le = le
    if total != obj["count"]:
        fail(lineno, f"bucket counts sum to {total}, histogram count is "
                     f"{obj['count']}")
    if obj["count"] > 0:
        if obj["min"] > obj["max"]:
            fail(lineno, "histogram min > max")
        if not obj["p50"] <= obj["p90"] <= obj["p99"]:
            fail(lineno, "histogram quantiles must satisfy p50<=p90<=p99")


def check_metric(obj, lineno):
    for key in ("kind", "name", "labels"):
        if key not in obj:
            fail(lineno, f"metric missing '{key}'")
    if obj["kind"] not in ("counter", "gauge", "histogram"):
        fail(lineno, f"unknown metric kind '{obj['kind']}'")
    if not isinstance(obj["name"], str) or not obj["name"]:
        fail(lineno, "metric 'name' must be a non-empty string")
    labels = obj["labels"]
    if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()):
        fail(lineno, "metric 'labels' must be a string-to-string object")
    if obj["kind"] == "histogram":
        check_histogram(obj, lineno)
    else:
        if "value" not in obj or isinstance(obj["value"], bool) or \
                not isinstance(obj["value"], (int, float)):
            fail(lineno, f"{obj['kind']} needs a numeric 'value'")
        if obj["kind"] == "counter" and obj["value"] < 0:
            fail(lineno, "counter value must be non-negative")


def validate(path, require_prefixes):
    metric_names = []
    meta = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                fail(lineno, "blank line")
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as e:
                fail(lineno, f"invalid JSON: {e}")
            kind = obj.get("type")
            if lineno == 1:
                if kind != "meta":
                    fail(lineno, "first line must be the meta object")
                check_meta(obj, lineno)
                meta = obj
                continue
            if kind == "metric":
                check_metric(obj, lineno)
                metric_names.append(obj["name"])
            elif kind == "meta":
                fail(lineno, "duplicate meta line")
            else:
                fail(lineno, f"unknown line type '{kind}'")

    if meta is None:
        raise SystemExit("SCHEMA ERROR: empty report")
    if meta["metric_count"] != len(metric_names):
        raise SystemExit(
            f"SCHEMA ERROR: meta metric_count {meta['metric_count']} != "
            f"{len(metric_names)} metric lines")
    if metric_names != sorted(metric_names):
        raise SystemExit("SCHEMA ERROR: metric lines not sorted by name")

    for prefix in require_prefixes:
        if not any(n.startswith(prefix) for n in metric_names):
            raise SystemExit(
                f"SCHEMA ERROR: no metric with required prefix '{prefix}' "
                f"(got {sorted(set(metric_names))})")

    print(f"OK: {path} — {len(metric_names)} metrics, run '{meta['run']}'")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_profile(path):
    """Chrome trace-event JSON from --profile-out / write_chrome_trace."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SystemExit(f"SCHEMA ERROR: {path}: invalid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise SystemExit("SCHEMA ERROR: profile must be an object with "
                         "'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise SystemExit("SCHEMA ERROR: 'traceEvents' must be an array")
    spans = 0
    names = set()
    for i, e in enumerate(events):
        def efail(msg):
            raise SystemExit(f"SCHEMA ERROR: traceEvents[{i}]: {msg}")
        if not isinstance(e, dict):
            efail("not an object")
        ph = e.get("ph")
        if ph == "M":
            continue  # metadata: name/args only, nothing to enforce
        if ph != "X":
            efail(f"unexpected phase '{ph}' (only M and X are emitted)")
        for key in ("name", "cat", "pid", "tid", "ts", "dur", "args"):
            if key not in e:
                efail(f"X event missing '{key}'")
        if not isinstance(e["name"], str) or not e["name"]:
            efail("'name' must be a non-empty string")
        if not is_number(e["ts"]) or e["ts"] < 0:
            efail("'ts' must be a non-negative number")
        if not is_number(e["dur"]) or e["dur"] < 0:
            efail("'dur' must be a non-negative number")
        args = e["args"]
        if not isinstance(args, dict):
            efail("'args' must be an object")
        for key in ("self_us", "depth"):
            if key not in args:
                efail(f"args missing '{key}'")
        if not is_number(args["self_us"]) or args["self_us"] < 0:
            efail("args.self_us must be a non-negative number")
        # Rounded independently to 3 decimals, so allow half-ULP slack.
        if args["self_us"] > e["dur"] + 0.001:
            efail(f"args.self_us {args['self_us']} exceeds dur {e['dur']}")
        if not isinstance(args["depth"], int) or args["depth"] < 0:
            efail("args.depth must be a non-negative integer")
        spans += 1
        names.add(e["name"])
    print(f"OK: {path} — profile with {spans} spans, "
          f"{len(names)} span names")


def validate_bench(path):
    """BENCH_results.json from bench/perf_suite.cc."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SystemExit(f"SCHEMA ERROR: {path}: invalid JSON: {e}")

    def bfail(msg):
        raise SystemExit(f"SCHEMA ERROR: {path}: {msg}")
    if not isinstance(doc, dict):
        bfail("top level must be an object")
    if doc.get("schema_version") != 1:
        bfail(f"unsupported schema_version {doc.get('schema_version')}")
    if doc.get("kind") != "mntp_perf_suite":
        bfail(f"kind must be 'mntp_perf_suite', got {doc.get('kind')!r}")
    for key in ("reps", "warmup"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            bfail(f"'{key}' must be a non-negative integer")
    if doc["reps"] < 1:
        bfail("'reps' must be >= 1")
    env = doc.get("environment")
    if not isinstance(env, dict):
        bfail("missing 'environment' object")
    for key in ("compiler", "build_type", "build_flags"):
        if not isinstance(env.get(key), str):
            bfail(f"environment.{key} must be a string")
    if not isinstance(env.get("hardware_threads"), int):
        bfail("environment.hardware_threads must be an integer")
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        bfail("'workloads' must be a non-empty array")
    seen = set()
    for i, w in enumerate(workloads):
        def wfail(msg):
            raise SystemExit(f"SCHEMA ERROR: {path}: workloads[{i}]: {msg}")
        if not isinstance(w, dict):
            wfail("not an object")
        name = w.get("name")
        if not isinstance(name, str) or not name:
            wfail("'name' must be a non-empty string")
        if name in seen:
            wfail(f"duplicate workload name '{name}'")
        seen.add(name)
        if w.get("unit") != "us":
            wfail(f"'unit' must be 'us', got {w.get('unit')!r}")
        for key in ("median_us", "mad_us", "p95_us", "min_us", "max_us",
                    "mean_us"):
            if not is_number(w.get(key)) or w[key] < 0:
                wfail(f"'{key}' must be a non-negative number")
        samples = w.get("samples_us")
        if not isinstance(samples, list) or \
                not all(is_number(s) for s in samples):
            wfail("'samples_us' must be an array of numbers")
        if len(samples) != doc["reps"]:
            wfail(f"{len(samples)} samples but reps is {doc['reps']}")
        if not w["min_us"] <= w["median_us"] <= w["p95_us"] <= w["max_us"]:
            wfail("order statistics must satisfy min<=median<=p95<=max")
    print(f"OK: {path} — perf suite with {len(workloads)} workloads, "
          f"{doc['reps']} reps")


# The closed reason vocabulary of src/obs/reason_codes.h (kAllReasons);
# an emitter inventing a reason outside it is a schema break, because
# downstream causation tables bucket by exact string.
QUERY_TRACE_REASONS = {
    "none", "ok", "channel_defer", "forced_emission", "loss", "timeout",
    "server_error", "validation_error", "popcorn_suppressed",
    "false_ticker", "trend_outlier", "accepted_warmup", "accepted_regular",
    "no_samples", "no_survivors",
}


def check_query_trace_meta(obj, lineno):
    for key in ("schema_version", "kind", "run", "sim_end_ns", "query_count",
                "dropped", "dropped_stages"):
        if key not in obj:
            fail(lineno, f"meta missing '{key}'")
    if obj["schema_version"] != 1:
        fail(lineno, f"unsupported schema_version {obj['schema_version']}")
    if obj["kind"] != "mntp_query_trace":
        fail(lineno, f"meta kind must be 'mntp_query_trace', got "
                     f"{obj['kind']!r}")
    if not isinstance(obj["run"], str) or not obj["run"]:
        fail(lineno, "meta 'run' must be a non-empty string")
    for key in ("sim_end_ns", "query_count", "dropped", "dropped_stages"):
        if not isinstance(obj[key], int) or obj[key] < 0:
            fail(lineno, f"meta '{key}' must be a non-negative integer")
    # Sampling block (only present when deterministic sampling was
    # active, QueryTracer::Sampling): every minted id must end exactly
    # one way — kept, sampled out, or dropped.
    if "sampling" in obj:
        s = obj["sampling"]
        if not isinstance(s, dict):
            fail(lineno, "meta 'sampling' must be an object")
        for key in ("sample_one_in_n", "seed", "minted", "kept",
                    "sampled_out"):
            if key not in s:
                fail(lineno, f"sampling missing '{key}'")
            if not isinstance(s[key], int) or s[key] < 0:
                fail(lineno, f"sampling '{key}' must be a non-negative "
                             "integer")
        if s["sample_one_in_n"] < 1:
            fail(lineno, "sampling 'sample_one_in_n' must be >= 1")
        if s["minted"] != s["kept"] + s["sampled_out"] + obj["dropped"]:
            fail(lineno, f"sampling accounting broken: minted {s['minted']}"
                         f" != kept {s['kept']} + sampled_out "
                         f"{s['sampled_out']} + dropped {obj['dropped']}")
        if obj["query_count"] != s["kept"]:
            fail(lineno, f"query_count {obj['query_count']} != kept "
                         f"{s['kept']}")


def check_query_stage(stage, qid, i, lineno):
    def sfail(msg):
        fail(lineno, f"query {qid} stages[{i}]: {msg}")
    if not isinstance(stage, dict):
        sfail("not an object")
    for key in ("t_ns", "stage", "reason", "fields"):
        if key not in stage:
            sfail(f"missing '{key}'")
    if not isinstance(stage["t_ns"], int):
        sfail("'t_ns' must be an integer")
    if not isinstance(stage["stage"], str) or not stage["stage"]:
        sfail("'stage' must be a non-empty string")
    if stage["reason"] not in QUERY_TRACE_REASONS:
        sfail(f"unknown reason {stage['reason']!r}")
    fields = stage["fields"]
    if not isinstance(fields, dict):
        sfail("'fields' must be an object")
    for k, v in fields.items():
        if not isinstance(k, str) or not k:
            sfail("field keys must be non-empty strings")
        if not (isinstance(v, str) or isinstance(v, bool) or is_number(v)):
            sfail(f"field {k!r} must be a string, bool or number")


def validate_query_trace(path):
    meta = None
    queries = 0
    last_id = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                fail(lineno, "blank line")
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as e:
                fail(lineno, f"invalid JSON: {e}")
            kind = obj.get("type")
            if lineno == 1:
                if kind != "meta":
                    fail(lineno, "first line must be the meta object")
                check_query_trace_meta(obj, lineno)
                meta = obj
                continue
            if kind == "meta":
                fail(lineno, "duplicate meta line")
            if kind != "query":
                fail(lineno, f"unknown line type '{kind}'")
            for key in ("id", "parent", "kind", "start_ns", "stages"):
                if key not in obj:
                    fail(lineno, f"query missing '{key}'")
            qid = obj["id"]
            if not isinstance(qid, int) or qid <= 0:
                fail(lineno, "query 'id' must be a positive integer")
            if qid <= last_id:
                fail(lineno, f"query ids must be strictly increasing "
                             f"({qid} after {last_id})")
            last_id = qid
            if not isinstance(obj["parent"], int) or obj["parent"] < 0:
                fail(lineno, "query 'parent' must be a non-negative integer")
            if not isinstance(obj["kind"], str) or not obj["kind"]:
                fail(lineno, "query 'kind' must be a non-empty string")
            if not isinstance(obj["start_ns"], int) or obj["start_ns"] < 0:
                fail(lineno, "query 'start_ns' must be a non-negative "
                             "integer")
            stages = obj["stages"]
            if not isinstance(stages, list):
                fail(lineno, "query 'stages' must be an array")
            last_t = obj["start_ns"]
            for i, stage in enumerate(stages):
                check_query_stage(stage, qid, i, lineno)
                if stage["t_ns"] < last_t:
                    fail(lineno, f"query {qid} stages[{i}]: t_ns "
                                 f"{stage['t_ns']} precedes {last_t}")
                last_t = stage["t_ns"]
                if stage["stage"] == "verdict" and i != len(stages) - 1:
                    fail(lineno, f"query {qid}: 'verdict' stage must be "
                                 "last")
            queries += 1

    if meta is None:
        raise SystemExit("SCHEMA ERROR: empty query trace")
    if meta["query_count"] != queries:
        raise SystemExit(
            f"SCHEMA ERROR: meta query_count {meta['query_count']} != "
            f"{queries} query lines")
    print(f"OK: {path} — query trace with {queries} queries, "
          f"run '{meta['run']}'")


DIFF_ARTIFACT_KINDS = {"bench", "profile", "report", "query-trace",
                       "timeline"}
# The closed delta-class vocabulary of src/obs/diff.h: exact/shifted are
# the exact-reconciliation classes for accounting counters, added/removed
# mark one-sided rows, equal/changed everything else.
DIFF_ENTRY_CLASSES = {"equal", "changed", "exact", "shifted", "added",
                      "removed"}


def validate_diff(path):
    """Triage record from `mntp-inspect diff --json` (src/obs/diff.h)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SystemExit(f"SCHEMA ERROR: {path}: invalid JSON: {e}")

    def dfail(msg):
        raise SystemExit(f"SCHEMA ERROR: {path}: {msg}")
    if not isinstance(doc, dict):
        dfail("top level must be an object")
    if doc.get("schema_version") != 1:
        dfail(f"unsupported schema_version {doc.get('schema_version')}")
    if doc.get("kind") != "mntp_diff":
        dfail(f"kind must be 'mntp_diff', got {doc.get('kind')!r}")
    if doc.get("artifact_kind") not in DIFF_ARTIFACT_KINDS:
        dfail(f"unknown artifact_kind {doc.get('artifact_kind')!r}")
    for side in ("a", "b"):
        block = doc.get(side)
        if not isinstance(block, dict):
            dfail(f"missing '{side}' provenance object")
        for key in ("path", "run"):
            if not isinstance(block.get(key), str):
                dfail(f"{side}.{key} must be a string")
    options = doc.get("options")
    if not isinstance(options, dict):
        dfail("missing 'options' object")
    for key in ("tolerance", "abs_floor_us", "sigma", "divergence"):
        if not is_number(options.get(key)):
            dfail(f"options.{key} must be a number")
    for key in ("significant", "regressions"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            dfail(f"'{key}' must be a non-negative integer")
    if doc.get("exit_hint") not in (0, 1):
        dfail(f"exit_hint must be 0 or 1, got {doc.get('exit_hint')!r}")
    sections = doc.get("sections")
    if not isinstance(sections, list):
        dfail("'sections' must be an array")
    significant = regressions = entries_total = 0
    for si, section in enumerate(sections):
        def sfail(msg):
            raise SystemExit(f"SCHEMA ERROR: {path}: sections[{si}]: {msg}")
        if not isinstance(section, dict):
            sfail("not an object")
        if not isinstance(section.get("title"), str) or not section["title"]:
            sfail("'title' must be a non-empty string")
        entries = section.get("entries")
        if not isinstance(entries, list):
            sfail("'entries' must be an array")
        for ei, e in enumerate(entries):
            def efail(msg):
                raise SystemExit(f"SCHEMA ERROR: {path}: sections[{si}]"
                                 f".entries[{ei}]: {msg}")
            if not isinstance(e, dict):
                efail("not an object")
            if not isinstance(e.get("name"), str) or not e["name"]:
                efail("'name' must be a non-empty string")
            for key in ("before", "after"):
                if e.get(key) is not None and not is_number(e[key]):
                    efail(f"'{key}' must be a number or null")
            for key in ("delta", "score"):
                if not is_number(e.get(key)):
                    efail(f"'{key}' must be a number")
            for key in ("significant", "regression"):
                if not isinstance(e.get(key), bool):
                    efail(f"'{key}' must be a boolean")
            if e["regression"] and not e["significant"]:
                efail("regression entries must also be significant")
            if e.get("class") not in DIFF_ENTRY_CLASSES:
                efail(f"unknown class {e.get('class')!r}")
            if not isinstance(e.get("note"), str):
                efail("'note' must be a string")
            significant += e["significant"]
            regressions += e["regression"]
            entries_total += 1
    if doc["significant"] != significant:
        dfail(f"'significant' is {doc['significant']} but entries flag "
              f"{significant}")
    if doc["regressions"] != regressions:
        dfail(f"'regressions' is {doc['regressions']} but entries flag "
              f"{regressions}")
    if doc["exit_hint"] != (1 if regressions > 0 else 0):
        dfail(f"exit_hint {doc['exit_hint']} inconsistent with "
              f"{regressions} regression(s)")
    print(f"OK: {path} — diff ({doc['artifact_kind']}) with "
          f"{entries_total} entries, {significant} significant, "
          f"{regressions} regression(s)")


def check_timeline_meta(obj, lineno):
    for key in ("schema_version", "kind", "run", "sim_end_ns", "cadence_ns",
                "series_count"):
        if key not in obj:
            fail(lineno, f"meta missing '{key}'")
    if obj["schema_version"] != 1:
        fail(lineno, f"unsupported schema_version {obj['schema_version']}")
    if obj["kind"] != "mntp_timeline":
        fail(lineno, f"meta kind must be 'mntp_timeline', got "
                     f"{obj['kind']!r}")
    if not isinstance(obj["run"], str) or not obj["run"]:
        fail(lineno, "meta 'run' must be a non-empty string")
    for key in ("sim_end_ns", "series_count"):
        if not isinstance(obj[key], int) or obj[key] < 0:
            fail(lineno, f"meta '{key}' must be a non-negative integer")
    if not isinstance(obj["cadence_ns"], int) or obj["cadence_ns"] <= 0:
        fail(lineno, "meta 'cadence_ns' must be a positive integer")


TIMELINE_PROBE_KINDS = {"callback", "counter", "gauge"}


def check_timeline_series(obj, lineno):
    for key in ("name", "probe", "labels", "samples", "stride", "points"):
        if key not in obj:
            fail(lineno, f"series missing '{key}'")
    if not isinstance(obj["name"], str) or not obj["name"]:
        fail(lineno, "series 'name' must be a non-empty string")
    if obj["probe"] not in TIMELINE_PROBE_KINDS:
        fail(lineno, f"unknown probe kind {obj['probe']!r}")
    labels = obj["labels"]
    if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()):
        fail(lineno, "series 'labels' must be a string-to-string object")
    for key in ("samples", "stride"):
        if not isinstance(obj[key], int) or obj[key] < 1:
            fail(lineno, f"series '{key}' must be a positive integer")
    points = obj["points"]
    if not isinstance(points, list) or not points:
        fail(lineno, "series 'points' must be a non-empty array "
                     "(empty series are skipped at export)")
    name = obj["name"]
    last_t = None
    total = 0
    for i, p in enumerate(points):
        def pfail(msg):
            fail(lineno, f"series {name!r} points[{i}]: {msg}")
        if not isinstance(p, list) or len(p) != 6:
            pfail("must be a [t_ns,min,mean,max,last,count] array")
        t_ns, lo, mean, hi, last, count = p
        if not isinstance(t_ns, int):
            pfail("'t_ns' must be an integer")
        if last_t is not None and t_ns <= last_t:
            pfail(f"t_ns {t_ns} not after previous {last_t}")
        last_t = t_ns
        for label, v in (("min", lo), ("mean", mean), ("max", hi),
                         ("last", last)):
            if not is_number(v):
                pfail(f"'{label}' must be a number")
        if not isinstance(count, int) or count < 1:
            pfail("'count' must be a positive integer")
        total += count
        if not lo <= mean <= hi:
            pfail(f"needs min<=mean<=max, got {lo}/{mean}/{hi}")
        if not lo <= last <= hi:
            pfail(f"needs min<=last<=max, got {lo}/{last}/{hi}")
    if total != obj["samples"]:
        fail(lineno, f"series {name!r}: point counts sum to {total}, "
                     f"'samples' is {obj['samples']}")


def validate_timeline(path):
    """Timeline JSONL from --timeline-out (src/obs/timeseries.h)."""
    meta = None
    series_seen = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                fail(lineno, "blank line")
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as e:
                fail(lineno, f"invalid JSON: {e}")
            kind = obj.get("type")
            if lineno == 1:
                if kind != "meta":
                    fail(lineno, "first line must be the meta object")
                check_timeline_meta(obj, lineno)
                meta = obj
                continue
            if kind == "meta":
                fail(lineno, "duplicate meta line")
            if kind != "series":
                fail(lineno, f"unknown line type '{kind}'")
            check_timeline_series(obj, lineno)
            series_seen += 1

    if meta is None:
        raise SystemExit("SCHEMA ERROR: empty timeline")
    if meta["series_count"] != series_seen:
        raise SystemExit(
            f"SCHEMA ERROR: meta series_count {meta['series_count']} != "
            f"{series_seen} series lines")
    print(f"OK: {path} — timeline with {series_seen} series, "
          f"run '{meta['run']}'")


FLEET_SPEAKERS = {"ntp", "sntp"}
FLEET_POPULATIONS = {"wired", "wireless"}
FLEET_CATEGORIES = ["cloud", "isp", "broadband", "mobile"]


def check_fleet_owd_row(row, where, ffail):
    if not isinstance(row, dict):
        ffail(f"{where}: not an object")
    if not isinstance(row.get("count"), int) or row["count"] < 0:
        ffail(f"{where}: 'count' must be a non-negative integer")
    for key in ("p50_ms", "p90_ms", "p99_ms", "mean_ms", "min_ms", "max_ms"):
        if not is_number(row.get(key)) or row[key] < 0:
            ffail(f"{where}: '{key}' must be a non-negative number")
    if row["count"] > 0:
        if not row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"]:
            ffail(f"{where}: quantiles must satisfy p50<=p90<=p99")
        if row["min_ms"] > row["max_ms"]:
            ffail(f"{where}: min_ms > max_ms")


def validate_fleet(path):
    """Fleet report from bench/fleet_qps --fleet-out (src/fleet/report.h).

    Beyond field shapes, this enforces the simulator's conservation
    ledger: every query is accounted for exactly once at every stage
    (issued -> arrived/dropped -> per-server -> cache hit/miss and OWD
    valid/invalid, both net of KoD-limited requests, which receive no
    time response)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SystemExit(f"SCHEMA ERROR: {path}: invalid JSON: {e}")

    def ffail(msg):
        raise SystemExit(f"SCHEMA ERROR: {path}: {msg}")
    if not isinstance(doc, dict):
        ffail("top level must be an object")
    if doc.get("schema_version") != 2:
        ffail(f"unsupported schema_version {doc.get('schema_version')}")
    if doc.get("kind") != "mntp_fleet_report":
        ffail(f"kind must be 'mntp_fleet_report', got {doc.get('kind')!r}")

    params = doc.get("params")
    if not isinstance(params, dict):
        ffail("missing 'params' object")
    for key in ("clients", "shards", "seed", "kod_limit_per_slice"):
        if not isinstance(params.get(key), int) or params[key] < 0:
            ffail(f"params.{key} must be a non-negative integer")
    for key in ("duration_s", "cache_bucket_ms", "batch_window_ms"):
        if not is_number(params.get(key)) or params[key] <= 0:
            ffail(f"params.{key} must be a positive number")

    pop = doc.get("population")
    if not isinstance(pop, dict):
        ffail("missing 'population' object")
    for key in ("clients", "sntp_clients", "ntp_clients", "wireless_clients",
                "wired_clients"):
        if not isinstance(pop.get(key), int) or pop[key] < 0:
            ffail(f"population.{key} must be a non-negative integer")
    if pop["sntp_clients"] + pop["ntp_clients"] != pop["clients"]:
        ffail("population: sntp_clients + ntp_clients != clients")
    if pop["wireless_clients"] + pop["wired_clients"] != pop["clients"]:
        ffail("population: wireless_clients + wired_clients != clients")
    if pop["clients"] != params["clients"]:
        ffail("population.clients != params.clients")

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        ffail("missing 'totals' object")
    for key in ("queries", "arrived", "dropped", "kod", "batches",
                "cache_hits", "cache_misses", "owd_valid", "owd_invalid"):
        if not isinstance(totals.get(key), int) or totals[key] < 0:
            ffail(f"totals.{key} must be a non-negative integer")
    if totals["queries"] != totals["arrived"] + totals["dropped"]:
        ffail("totals: queries != arrived + dropped")
    served = totals["arrived"] - totals["kod"]
    if totals["cache_hits"] + totals["cache_misses"] != served:
        ffail("totals: cache_hits + cache_misses != arrived - kod")
    if totals["owd_valid"] + totals["owd_invalid"] != served:
        ffail("totals: owd_valid + owd_invalid != arrived - kod")

    throughput = doc.get("throughput")
    if not isinstance(throughput, dict):
        ffail("missing 'throughput' object")
    if not isinstance(throughput.get("threads"), int) or \
            throughput["threads"] < 1:
        ffail("throughput.threads must be a positive integer")
    for key in ("wall_s", "qps", "qps_per_core"):
        if not is_number(throughput.get(key)) or throughput[key] < 0:
            ffail(f"throughput.{key} must be a non-negative number")

    servers = doc.get("servers")
    if not isinstance(servers, list) or not servers:
        ffail("'servers' must be a non-empty array")
    server_sum = 0
    seen_ids = set()
    for i, s in enumerate(servers):
        if not isinstance(s, dict):
            ffail(f"servers[{i}]: not an object")
        if not isinstance(s.get("id"), str) or not s["id"]:
            ffail(f"servers[{i}]: 'id' must be a non-empty string")
        if s["id"] in seen_ids:
            ffail(f"servers[{i}]: duplicate id {s['id']!r}")
        seen_ids.add(s["id"])
        if not isinstance(s.get("requests"), int) or s["requests"] < 0:
            ffail(f"servers[{i}]: 'requests' must be a non-negative integer")
        server_sum += s["requests"]
    if server_sum != totals["arrived"]:
        ffail(f"per-server requests sum to {server_sum}, totals.arrived is "
              f"{totals['arrived']}")

    owd = doc.get("owd")
    if not isinstance(owd, list) or len(owd) != 4:
        ffail("'owd' must be an array of the 4 speaker x population rows")
    owd_count = 0
    seen_classes = set()
    for i, row in enumerate(owd):
        where = f"owd[{i}]"
        check_fleet_owd_row(row, where, ffail)
        if row.get("speaker") not in FLEET_SPEAKERS:
            ffail(f"{where}: unknown speaker {row.get('speaker')!r}")
        if row.get("population") not in FLEET_POPULATIONS:
            ffail(f"{where}: unknown population {row.get('population')!r}")
        key = (row["speaker"], row["population"])
        if key in seen_classes:
            ffail(f"{where}: duplicate class {key}")
        seen_classes.add(key)
        owd_count += row["count"]
    if owd_count != totals["owd_valid"]:
        ffail(f"owd row counts sum to {owd_count}, totals.owd_valid is "
              f"{totals['owd_valid']}")

    cat = doc.get("category_owd")
    if not isinstance(cat, list) or len(cat) != 4:
        ffail("'category_owd' must be an array of the 4 provider categories")
    cat_count = 0
    for i, row in enumerate(cat):
        where = f"category_owd[{i}]"
        check_fleet_owd_row(row, where, ffail)
        if row.get("category") != FLEET_CATEGORIES[i]:
            ffail(f"{where}: expected category "
                  f"{FLEET_CATEGORIES[i]!r}, got {row.get('category')!r}")
        cat_count += row["count"]
    if cat_count != totals["owd_valid"]:
        ffail(f"category_owd counts sum to {cat_count}, totals.owd_valid is "
              f"{totals['owd_valid']}")

    print(f"OK: {path} — fleet report, {params['clients']} clients, "
          f"{totals['queries']} queries, "
          f"{throughput['qps_per_core']:.0f} q/s/core")


def detect_kind(path):
    """Whole-file JSON => profile/bench; otherwise JSONL run report."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError):
        # JSONL: the first line's meta kind separates the two.
        try:
            with open(path, "r", encoding="utf-8") as f:
                first = json.loads(f.readline())
            if isinstance(first, dict) and \
                    first.get("kind") == "mntp_query_trace":
                return "query-trace"
            if isinstance(first, dict) and \
                    first.get("kind") == "mntp_timeline":
                return "timeline"
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
        return "report"
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "profile"
    if isinstance(doc, dict) and doc.get("kind") == "mntp_perf_suite":
        return "bench"
    if isinstance(doc, dict) and doc.get("kind") == "mntp_diff":
        return "diff"
    if isinstance(doc, dict) and doc.get("kind") == "mntp_fleet_report":
        return "fleet"
    # A zero-query trace is a single meta line, i.e. valid whole-file JSON.
    if isinstance(doc, dict) and doc.get("kind") == "mntp_query_trace":
        return "query-trace"
    # Likewise a timeline with no non-empty series.
    if isinstance(doc, dict) and doc.get("kind") == "mntp_timeline":
        return "timeline"
    raise SystemExit(f"SCHEMA ERROR: {path}: unrecognized artifact "
                     "(pass --kind to force)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", nargs="?", help="artifact to validate")
    parser.add_argument("--kind",
                        choices=("report", "profile", "bench", "query-trace",
                                 "timeline", "diff", "fleet"),
                        help="artifact kind; detected from content if omitted")
    parser.add_argument("--generate", metavar="BINARY",
                        help="bench binary to run with --telemetry-out "
                             "(--profile-out when --kind profile) first")
    parser.add_argument("--out", help="artifact path for --generate")
    parser.add_argument("--extra-args", default="",
                        help="space-separated extra flags appended to the "
                             "--generate command (e.g. "
                             "'--query-trace-sample 4')")
    parser.add_argument("--require-prefixes", default="",
                        help="comma-separated metric-name prefixes that must "
                             "each match at least one metric (report kind)")
    args = parser.parse_args()

    if args.generate:
        if not args.out:
            parser.error("--generate requires --out")
        path = args.out
        flag = {"profile": "--profile-out",
                "query-trace": "--query-trace-out",
                "timeline": "--timeline-out",
                "fleet": "--fleet-out"}.get(args.kind, "--telemetry-out")
        # The bench's own PASS/FAIL shape checks are not under test here;
        # only the telemetry output is.
        subprocess.run([args.generate, flag, path] + args.extra_args.split(),
                       stdout=subprocess.DEVNULL, check=False)
    elif args.artifact:
        path = args.artifact
    else:
        parser.error("need an artifact path or --generate")

    kind = args.kind or detect_kind(path)
    if kind == "profile":
        validate_profile(path)
    elif kind == "bench":
        validate_bench(path)
    elif kind == "query-trace":
        validate_query_trace(path)
    elif kind == "timeline":
        validate_timeline(path)
    elif kind == "diff":
        validate_diff(path)
    elif kind == "fleet":
        validate_fleet(path)
    else:
        prefixes = [p for p in args.require_prefixes.split(",") if p]
        validate(path, prefixes)


if __name__ == "__main__":
    main()
