#!/usr/bin/env python3
"""Validate bench_results/BENCH_*.json artifacts (schema_version 12).

Only the current schema is accepted; bench/Harness.cpp's BenchJson is
the one emitter. An artifact carries:

* "config": the resolved suite and solver knobs (MODSCHED_BENCH_*),
  including backend ("ilp", "pb" or "auto"), explain and cache;
* "metrics": experiment-specific headline numbers;
* "cache_counters": the ilpsched/cache.* hits / misses / inserts /
  evictions telemetry snapshot at write time;
* "record_sets": labelled per-loop records with effort counters and
  per-attempt forensics (witness / witness_source / proof / trajectory)
  and the engine whose verdict each attempt committed. A cache_hit
  record must be solved and report ZERO solver effort.

Unknown status, backend, witness, proof and engine strings are
rejected, catching drift between the emitter and consumers. The engine
"ilp+pb" (a raced attempt that neither engine decided) never appears
on a decided attempt.

Stdlib-only. Usage:

    python3 scripts/check_bench_json.py bench_results/*.json

Exits 0 iff every file conforms to the schema documented in
docs/OBSERVABILITY.md, printing one line per file.
"""

import json
import numbers
import sys

SCHEMA_VERSION = 12

CONFIG_KEYS = {
    "synthetic_loops": numbers.Integral,
    "seed": numbers.Integral,
    "time_limit_seconds": numbers.Real,
    "node_limit": numbers.Integral,
    "large_cap": numbers.Integral,
    "jobs": numbers.Integral,
    "backend": str,
    "explain": bool,
    "cache": bool,
}

RECORD_KEYS = {
    "name": str,
    "n": numbers.Integral,
    "solved": bool,
    "timed_out": bool,
    "status": str,
    "ii": numbers.Integral,
    "mii": numbers.Integral,
    "nodes": numbers.Integral,
    "iterations": numbers.Integral,
    "warm_solves": numbers.Integral,
    "cold_solves": numbers.Integral,
    "warm_iterations": numbers.Integral,
    "variables": numbers.Integral,
    "constraints": numbers.Integral,
    "seconds": numbers.Real,
    "secondary": numbers.Real,
    "max_live": numbers.Integral,
    "total_lifetime": numbers.Integral,
    "buffers": numbers.Integral,
    "attempts": list,
    "node_limit_hit": bool,
    "refactorizations": numbers.Integral,
    "eta_nnz": numbers.Integral,
    "pb_conflicts": numbers.Integral,
    "pb_propagations": numbers.Integral,
    "explained_attempts": numbers.Integral,
    "unexplained_attempts": numbers.Integral,
    "cache_hit": bool,
}

# Snapshot of the ilpsched/cache.* telemetry counters at write time.
CACHE_COUNTER_KEYS = {
    "hits": numbers.Integral,
    "misses": numbers.Integral,
    "inserts": numbers.Integral,
    "evictions": numbers.Integral,
}

ATTEMPT_KEYS = {
    "ii": numbers.Integral,
    "status": str,
    "window_infeasible": bool,
    "scheduled": bool,
    "nodes": numbers.Integral,
    "iterations": numbers.Integral,
    "variables": numbers.Integral,
    "constraints": numbers.Integral,
    "seconds": numbers.Real,
    "cancelled": bool,
    "pb_conflicts": numbers.Integral,
    "witness": str,
    "witness_source": str,
    "witness_verified": bool,
    "witness_detail": str,
    "proof": str,
    "gap": numbers.Real,
    "root_bound": numbers.Real,
    "trajectory": list,
    "engine": str,
}

TRAJECTORY_KEYS = {
    "seconds": numbers.Real,
    "nodes": numbers.Integral,
    "incumbent": numbers.Real,
    "has_incumbent": bool,
    "bound": numbers.Real,
}

STATUSES = {"solved", "timeout", "unsolved", "node_limit"}

# Per-attempt solver verdicts (ilp::toString(MipStatus)).
ATTEMPT_STATUSES = {"optimal", "infeasible", "limit", "cancelled"}

BACKENDS = {"ilp", "pb", "auto"}

# The engine whose verdict an attempt committed ("ilp+pb": a raced
# attempt that neither engine decided).
ENGINES = {"ilp", "pb", "ilp+pb"}

WITNESSES = {"cycle", "resource", "window", "none"}
WITNESS_SOURCES = {"graph", "farkas", "core", "none"}
PROOFS = {"", "optimal", "first_solution", "censored"}


class SchemaError(Exception):
    pass


def check_keys(obj, spec, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected object, got {type(obj).__name__}")
    missing = set(spec) - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    for key, expected in spec.items():
        value = obj[key]
        # bool is a subclass of int in Python; reject it where we expect
        # genuine numbers so "solved": 1 and "n": true both fail.
        if expected is not bool and isinstance(value, bool):
            raise SchemaError(f"{where}.{key}: expected {expected.__name__}, "
                              f"got bool")
        if not isinstance(value, expected):
            raise SchemaError(f"{where}.{key}: expected {expected.__name__}, "
                              f"got {type(value).__name__}")


def check_record(record, where):
    check_keys(record, RECORD_KEYS, where)
    if record["cache_hit"]:
        # A cache-served record replays a previous verified solve; it
        # must never masquerade as solver work.
        if not record["solved"]:
            raise SchemaError(f"{where}: cache_hit=true but solved=false")
        if record["attempts"]:
            raise SchemaError(f"{where}: cache_hit=true but "
                              f"{len(record['attempts'])} solver "
                              f"attempt(s) reported")
        for effort in ("nodes", "iterations", "pb_conflicts",
                       "pb_propagations"):
            if record[effort]:
                raise SchemaError(f"{where}: cache_hit=true but "
                                  f"{effort}={record[effort]}")
    if record["status"] not in STATUSES:
        raise SchemaError(f"{where}.status: {record['status']!r} not in "
                          f"{sorted(STATUSES)}")
    if record["solved"] and record["status"] != "solved":
        raise SchemaError(f"{where}: solved=true but status="
                          f"{record['status']!r}")
    if record["status"] == "node_limit" and not record["node_limit_hit"]:
        raise SchemaError(f"{where}: status='node_limit' but "
                          f"node_limit_hit=false")
    if record["timed_out"] and record["status"] not in {"timeout", "solved"}:
        raise SchemaError(f"{where}: timed_out=true but status="
                          f"{record['status']!r} (timeout wins over "
                          f"node_limit)")
    for i, attempt in enumerate(record["attempts"]):
        check_attempt(attempt, f"{where}.attempts[{i}]")


def check_attempt(attempt, awhere):
    check_keys(attempt, ATTEMPT_KEYS, awhere)
    for key, allowed in (("status", ATTEMPT_STATUSES),
                         ("engine", ENGINES),
                         ("witness", WITNESSES),
                         ("witness_source", WITNESS_SOURCES),
                         ("proof", PROOFS)):
        if attempt[key] not in allowed:
            raise SchemaError(f"{awhere}.{key}: {attempt[key]!r} not in "
                              f"{sorted(allowed)}")
    if attempt["engine"] == "ilp+pb" and (attempt["scheduled"] or
                                          attempt["status"] == "infeasible"):
        raise SchemaError(f"{awhere}: a decided attempt names no single "
                          f"engine")
    if attempt["witness"] != "none" and attempt["witness_source"] == "none":
        raise SchemaError(f"{awhere}: witness={attempt['witness']!r} but "
                          f"witness_source='none'")
    for t, sample in enumerate(attempt["trajectory"]):
        check_keys(sample, TRAJECTORY_KEYS, f"{awhere}.trajectory[{t}]")


def check_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    check_keys(doc, {
        "schema_version": numbers.Integral,
        "experiment": str,
        "generated_unix": numbers.Integral,
        "config": dict,
        "metrics": dict,
        "cache_counters": dict,
        "record_sets": list,
    }, "$")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"$.schema_version: expected {SCHEMA_VERSION}, "
                          f"got {doc['schema_version']}")
    if not doc["experiment"]:
        raise SchemaError("$.experiment: empty string")
    check_keys(doc["config"], CONFIG_KEYS, "$.config")
    if doc["config"]["backend"] not in BACKENDS:
        raise SchemaError(f"$.config.backend: "
                          f"{doc['config']['backend']!r} not in "
                          f"{sorted(BACKENDS)}")
    check_keys(doc["cache_counters"], CACHE_COUNTER_KEYS, "$.cache_counters")
    for key, value in doc["metrics"].items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise SchemaError(f"$.metrics[{key!r}]: expected number, got "
                              f"{type(value).__name__}")
    n_records = 0
    for s, record_set in enumerate(doc["record_sets"]):
        where = f"$.record_sets[{s}]"
        check_keys(record_set, {"label": str, "records": list}, where)
        for r, record in enumerate(record_set["records"]):
            check_record(record, f"{where}.records[{r}]")
            n_records += 1
    return len(doc["record_sets"]), n_records


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} BENCH_*.json...", file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            n_sets, n_records = check_file(path)
        except (OSError, json.JSONDecodeError, SchemaError) as err:
            print(f"FAIL {path}: {err}")
            failures += 1
        else:
            print(f"ok   {path}: {n_sets} record set(s), "
                  f"{n_records} record(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
