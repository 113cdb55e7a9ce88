#!/usr/bin/env python3
"""Compare two bench_results directories and flag regressions.

Pairs BENCH_*.json artifacts by filename (baseline dir vs candidate
dir), validates both with scripts/check_bench_json.py (an artifact the
checker rejects, e.g. one of a stale schema, is refused and counts as a
regression), matches records by (record-set label, loop name), and
reports:

  * coverage regressions - loops the baseline solved that the candidate
    did not (status solved -> timeout/unsolved/node_limit);
  * coverage improvements - the reverse (informational);
  * solver-time regressions - solved-in-both loops whose candidate
    seconds exceed baseline seconds by more than --threshold (default
    20%), ignoring loops faster than --min-seconds in both runs (timer
    noise dominates below that) and loops served from the solution
    cache in either run (cache_hit=true: replay time measures the
    cache, not the solver, so such pairs say nothing about solver
    speed);
  * cache-counter drift - the top-level cache_counters snapshot is
    diffed when it changed, and a candidate whose cache went cold
    (baseline served hits, candidate served none with the cache still
    configured on) is flagged as a regression;
  * artifacts present in only one directory (informational).

Exits nonzero iff any coverage or solver-time regression was found, so
CI can gate on it. Comparing a directory against itself is the CI smoke
test: it must report nothing and exit 0. `--self-test` builds throwaway
artifacts that pass the checker (and one of a stale schema that must be
refused) in a temp directory and checks the comparator's own behavior,
exiting nonzero on any deviation.

Stdlib-only. Usage:

    python3 scripts/bench_compare.py BASELINE_DIR CANDIDATE_DIR \
        [--threshold 0.20] [--min-seconds 0.05]
    python3 scripts/bench_compare.py --self-test
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_json  # noqa: E402

CACHE_COUNTER_KEYS = ("hits", "misses", "inserts", "evictions")


def load_checked(path):
    """Loads an artifact the schema checker accepts; raises
    check_bench_json.SchemaError (or OSError / JSONDecodeError) on any
    other."""
    check_bench_json.check_file(path)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def doc_records(doc):
    """Maps (record-set label, loop name) -> record for one artifact."""
    records = {}
    for record_set in doc.get("record_sets", []):
        label = record_set.get("label", "")
        for record in record_set.get("records", []):
            records[(label, record.get("name", ""))] = record
    return records


def compare_cache_counters(name, base_doc, cand_doc):
    """Returns (regressions, notes) for one artifact pair's counters."""
    base = base_doc["cache_counters"]
    cand = cand_doc["cache_counters"]
    regressions = []
    notes = []
    if base != cand:
        delta = ", ".join(f"{k} {base[k]} -> {cand[k]}"
                          for k in CACHE_COUNTER_KEYS if base[k] != cand[k])
        notes.append(f"{name} cache_counters: {delta}")
    if base["hits"] > 0 and cand["hits"] == 0 and cand_doc["config"]["cache"]:
        regressions.append(
            f"{name}: cache went cold (baseline served {base['hits']} "
            f"hit(s), candidate served none with cache on)")
    return regressions, notes


def compare_file(name, base_path, cand_path, threshold, min_seconds):
    """Returns (regressions, notes) line lists for one artifact pair."""
    base_doc = load_checked(base_path)
    cand_doc = load_checked(cand_path)
    base = doc_records(base_doc)
    cand = doc_records(cand_doc)
    regressions, notes = compare_cache_counters(name, base_doc, cand_doc)
    for key in sorted(set(base) - set(cand)):
        notes.append(f"{name} {key[0]}/{key[1]}: record dropped")
    for key in sorted(set(cand) - set(base)):
        notes.append(f"{name} {key[0]}/{key[1]}: record added")
    for key in sorted(set(base) & set(cand)):
        b, c = base[key], cand[key]
        where = f"{name} {key[0]}/{key[1]}"
        if b.get("solved") and not c.get("solved"):
            regressions.append(
                f"{where}: coverage regression (solved -> "
                f"{c.get('status', '?')})")
            continue
        if not b.get("solved") and c.get("solved"):
            notes.append(f"{where}: coverage improvement "
                         f"({b.get('status', '?')} -> solved)")
            continue
        if not (b.get("solved") and c.get("solved")):
            continue
        if b.get("cache_hit") or c.get("cache_hit"):
            # Cache-served records report replay time, not solver
            # time; comparing them would grade the wrong thing.
            continue
        bs, cs = b.get("seconds", 0.0), c.get("seconds", 0.0)
        if bs < min_seconds and cs < min_seconds:
            continue
        if bs > 0 and cs > bs * (1.0 + threshold):
            regressions.append(
                f"{where}: solver-time regression "
                f"{bs:.3f}s -> {cs:.3f}s (+{(cs / bs - 1.0) * 100:.0f}%)")
    return regressions, notes


def bench_files(directory):
    try:
        entries = os.listdir(directory)
    except OSError as err:
        raise SystemExit(f"error: cannot list {directory}: {err}")
    return {e for e in entries
            if e.startswith("BENCH_") and e.endswith(".json")}


def make_artifact(hits, solved=True, seconds=0.2, cache_on=True):
    """A minimal artifact of the current schema for the self-test."""
    return {
        "schema_version": check_bench_json.SCHEMA_VERSION,
        "experiment": "selftest",
        "generated_unix": 0,
        "config": {"synthetic_loops": 1, "seed": 1,
                   "time_limit_seconds": 1.0, "node_limit": 1000,
                   "large_cap": 32, "jobs": 1,
                   "backend": "auto", "explain": False, "cache": cache_on},
        "metrics": {},
        "cache_counters": {"hits": hits, "misses": 3, "inserts": 2,
                           "evictions": 0},
        "record_sets": [{
            "label": "sweep",
            "records": [{
                "name": "loop0", "n": 4, "solved": solved,
                "timed_out": not solved,
                "status": "solved" if solved else "timeout",
                "ii": 2, "mii": 2, "nodes": 0, "iterations": 0,
                "warm_solves": 0, "cold_solves": 0, "warm_iterations": 0,
                "variables": 8, "constraints": 9, "seconds": seconds,
                "secondary": 0.0, "max_live": 3, "total_lifetime": 5,
                "buffers": 3, "node_limit_hit": False,
                "refactorizations": 0, "eta_nnz": 0, "pb_conflicts": 1,
                "pb_propagations": 7, "explained_attempts": 0,
                "unexplained_attempts": 0, "cache_hit": False,
                "attempts": [{
                    "ii": 2, "status": "optimal" if solved else "limit",
                    "window_infeasible": False, "scheduled": solved,
                    "cancelled": False, "nodes": 0, "iterations": 0,
                    "pb_conflicts": 1, "variables": 8, "constraints": 9,
                    "seconds": seconds, "witness": "none",
                    "witness_source": "none", "witness_verified": False,
                    "witness_detail": "", "proof": "", "gap": 0.0,
                    "root_bound": 0.0, "trajectory": [], "engine": "pb",
                }],
            }],
        }],
    }


def self_test():
    """Exercises the comparator on constructed artifact pairs; returns
    the number of failed expectations (0 = pass)."""
    failures = 0

    def expect(ok, what):
        nonlocal failures
        if not ok:
            failures += 1
            print(f"SELF-TEST FAIL: {what}")

    with tempfile.TemporaryDirectory(prefix="bench_compare_selftest_") as tmp:
        base_dir = os.path.join(tmp, "base")
        cand_dir = os.path.join(tmp, "cand")
        os.mkdir(base_dir)
        os.mkdir(cand_dir)

        def write(directory, doc):
            path = os.path.join(directory, "BENCH_selftest.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            return path

        def compare(base, cand):
            return compare_file("BENCH_selftest.json", base, cand, 0.2, 0.05)

        # 1. The fabricated artifacts are valid, and identical ones
        #    compare silently (the CI smoke invariant).
        b = write(base_dir, make_artifact(hits=5))
        regs, notes = compare(b, b)
        expect(not regs and not notes, "self-comparison was not silent")

        # 2. A candidate whose cache went cold is a regression; the
        #    reverse direction is not.
        c = write(cand_dir, make_artifact(hits=0))
        regs, notes = compare(b, c)
        expect(any("cache went cold" in r for r in regs),
               "cold candidate cache not flagged")
        expect(any("cache_counters" in n for n in notes),
               "counter drift note missing")
        regs, _ = compare(c, b)
        expect(not regs, f"reverse direction regressed: {regs}")

        # 3. Zero hits with the cache configured OFF is not a
        #    regression (cache-off candidates never serve hits).
        c = write(cand_dir, make_artifact(hits=0, cache_on=False))
        regs, _ = compare(b, c)
        expect(not any("cache went cold" in r for r in regs),
               "cache-off candidate flagged as gone-cold")

        # 4. Solver-time and coverage regressions fire.
        slow = write(cand_dir, make_artifact(hits=5, seconds=10.0))
        regs, _ = compare(b, slow)
        expect(any("solver-time regression" in r for r in regs),
               "solver-time regression not detected")
        lost = write(cand_dir, make_artifact(hits=5, solved=False))
        regs, _ = compare(b, lost)
        expect(any("coverage regression" in r for r in regs),
               "coverage regression not detected")

        # 5. An artifact of a stale schema is refused, not diffed.
        stale = make_artifact(hits=5)
        stale["schema_version"] = check_bench_json.SCHEMA_VERSION - 1
        stale_path = write(cand_dir, stale)
        try:
            compare(b, stale_path)
            expect(False, "stale-schema artifact was compared")
        except check_bench_json.SchemaError:
            pass

    print(f"self-test: {'PASS' if failures == 0 else 'FAIL'} "
          f"({failures} failed expectation(s))")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="diff two bench_results directories")
    parser.add_argument("baseline", nargs="?",
                        help="baseline bench_results directory")
    parser.add_argument("candidate", nargs="?",
                        help="candidate bench_results directory")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative solver-time slowdown that counts as "
                             "a regression (default 0.20 = 20%%)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore loops faster than this in both runs "
                             "(default 0.05)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the comparator's self-test and exit")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate directories are required "
                     "(or use --self-test)")

    base_files = bench_files(args.baseline)
    cand_files = bench_files(args.candidate)
    regressions = []
    notes = []
    for name in sorted(base_files - cand_files):
        notes.append(f"{name}: only in baseline")
    for name in sorted(cand_files - base_files):
        notes.append(f"{name}: only in candidate")
    for name in sorted(base_files & cand_files):
        try:
            file_regressions, file_notes = compare_file(
                name, os.path.join(args.baseline, name),
                os.path.join(args.candidate, name), args.threshold,
                args.min_seconds)
        except (OSError, json.JSONDecodeError,
                check_bench_json.SchemaError) as err:
            regressions.append(f"{name}: refused ({err})")
            continue
        regressions.extend(file_regressions)
        notes.extend(file_notes)

    for line in notes:
        print(f"note  {line}")
    for line in regressions:
        print(f"REGR  {line}")
    compared = len(base_files & cand_files)
    print(f"compared {compared} artifact(s): {len(regressions)} "
          f"regression(s), {len(notes)} note(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
