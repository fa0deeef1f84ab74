#!/usr/bin/env python3
"""Regression gate for the bench JSON output (BENCH_*.json).

Compares each freshly generated bench file against its committed
baseline, record by record. Records key on (suite, config);
register-pressure records, which carry num_regs, key on (suite, config,
num_regs, allocator, spill_mode), and one with num_regs but without
allocator or spill_mode is malformed. Three families of checks, all
pure counter/measurement diffs: independent of machine speed,
deterministic, and they fail the build whenever a change

  1. reintroduces a redundant analysis recomputation or interference
     work into the pipeline (decrease-only counters: dense liveness
     solves, interference-graph constructions, CFG/dominator builds,
     coalescer graph rebuilds and confirm scans, phi-coalescer pair
     queries, class-interference sweep probes, translate inserts);
  2. alters any measurement: the paper's move counts (moves, weighted
     moves, pre-coalesce moves, coalescer merges), the spill counts,
     the compile-service framing counts and the executed
     instruction/move tallies must be bit-identical (the
     class-interference engine is an exact replacement for the pairwise
     scan, so results never move, see docs/ANALYSIS.md);
  3. breaks the sweep engine's sublinearity: on the scale_n* suites the
     engine's liveness-probe count must keep shrinking relative to the
     pairwise bound (sum |A|*|B| per query) as functions grow.

Usage: check_bench_regression.py [--report-seconds] \
           <baseline.json> <fresh.json> \
           [<baseline2.json> <fresh2.json> ...]

Every pair is checked with the same rules (CI passes all nine BENCH
files); the sublinearity check only engages on files whose suites match
scale_n*.

--report-seconds additionally prints a baseline-vs-fresh wall-clock
table as GitHub-flavored markdown: one row per numeric top-level field
whose name ends in 'seconds' ('seconds', 'coalesce_seconds',
BENCH_exec's 'vm_seconds'/'interp_seconds', ...), plus any per-pass
breakdown. The table is informational only — machine-dependent timings
never gate — and CI uploads it as the job's step summary.

A fresh count <= baseline passes (improvements update the committed
baseline on the next reference run). Everything that could hide a
regression fails loudly with the offending key named: a fresh count
above baseline, a measurement differing at all, a record that exists in
the baseline but not in the fresh output, a checked counter or
measurement field present on one side but missing from the other, and
bench files missing their top-level 'records' key or a required
per-record key (malformed input is a failure, never a traceback). Exit
status: 0 clean, 1 any failure, 2 usage. Stdlib only.
"""

import json
import re
import sys

CHECKED_COUNTERS = (
    "liveness.analyses",
    "interference.graphs_built",
    "analysis.cfg_builds",
    "analysis.domtree_builds",
    "phicoalesce.pair_queries",
    "classinterf.probes",
    # The zero-rebuild coalescer: one gate scan and at most one graph
    # build per run; anything above the baseline means per-round
    # reconstruction crept back in.
    "coalesce.rebuilds",
    "coalesce.confirm_scans",
    # Out-of-SSA copy insertion: the replay emits repair/phi/pin copies
    # and nothing else; growth means elision (or the repair analysis)
    # regressed.
    "translate.inserts",
)

# Must match the baseline exactly: the tentpole engine work (and any
# future interference-path change) may only alter *how fast* verdicts
# are computed, never the verdicts — and these measurements are pure
# functions of the verdicts. Fields absent from both records (e.g. the
# spill fields on compile-time records) compare as equal.
IDENTICAL_FIELDS = (
    "moves",
    "weighted_moves",
    "moves_before_coalesce",
    "coalescer_merges",
    "spills",
    "spill_accesses",
    "failures",
    # Compile-service measurements (BENCH_server.json): the served IR is
    # deterministic, so framing counts and payload bytes are too.
    # Throughput lives in "seconds"/"functions_per_sec" and is never
    # gated; arena reuse is scheduling-dependent and likewise ungated.
    "frames",
    "batches",
    "functions",
    "bytes_in",
    "ir_bytes",
    "errors",
    # Execution-tier measurements (BENCH_exec.json): the bytecode VM and
    # the interpreter are deterministic, so executed-instruction and
    # executed-move tallies — and the digest of every run's output
    # trace — are bit-stable. vm_seconds/interp_seconds/speedup are
    # wall-clock and never gated.
    "runs",
    "dyn_instrs",
    "dyn_moves",
    "outputs",
)

# Sublinearity margin: the probes/pair_cost ratio of the largest scale_n*
# suite must be at most 1/SUBLINEAR_FACTOR of the smallest one's. The
# reference run measures a ~50x drop from scale_n40 to scale_n640; 4x
# leaves ample headroom for workload-generator drift.
SUBLINEAR_FACTOR = 4


class MalformedBench(Exception):
    """A bench JSON file that cannot even be keyed.

    Raised (and turned into a named failure by main) instead of letting
    a KeyError traceback escape: a truncated or restructured bench file
    must read as "this file is broken", never as "the check crashed".
    """


def records_by_key(doc, path):
    if not isinstance(doc, dict) or "records" not in doc:
        raise MalformedBench("%s: missing top-level 'records' key" % path)
    out = {}
    for idx, rec in enumerate(doc["records"]):
        for required in ("suite", "config"):
            if required not in rec:
                raise MalformedBench(
                    "%s: record #%d missing required key '%s'"
                    % (path, idx, required)
                )
        # Register-pressure records repeat each (suite, config) once per
        # simulated register count, allocator strategy, and spill model;
        # num_regs/allocator/spill_mode disambiguate them.
        key = (rec["suite"], rec["config"])
        if "num_regs" in rec:
            for required in ("allocator", "spill_mode"):
                if required not in rec:
                    raise MalformedBench(
                        "%s: record #%d has num_regs but no '%s'"
                        % (path, idx, required)
                    )
            key += (rec["num_regs"], rec["allocator"], rec["spill_mode"])
        out[key] = rec
    return out


def key_str(key):
    return "/".join(str(part) for part in key)


def check_counters(baseline, fresh, failures):
    compared = 0
    for key, base_rec in sorted(baseline.items()):
        if key not in fresh:
            failures.append(
                "%s: record missing from fresh output" % key_str(key)
            )
            continue
        base_counters = base_rec.get("counters", {})
        fresh_counters = fresh[key].get("counters", {})
        for name in CHECKED_COUNTERS:
            compared += 1
            # A checked counter the baseline has but the fresh run lost
            # is itself a regression (a stat was renamed or its bump
            # deleted) — defaulting it to 0 would silently pass the
            # decrease-only comparison.
            if name in base_counters and name not in fresh_counters:
                failures.append(
                    "%s: counter %s present in baseline but missing "
                    "from fresh output" % (key_str(key), name)
                )
                continue
            base = base_counters.get(name, 0)
            new = fresh_counters.get(name, 0)
            if new > base:
                failures.append(
                    "%s: %s regressed %d -> %d"
                    % (key_str(key), name, base, new)
                )
        for name in IDENTICAL_FIELDS:
            compared += 1
            in_base = name in base_rec
            in_fresh = name in fresh[key]
            if in_base != in_fresh:
                failures.append(
                    "%s: measurement %s missing from %s output"
                    % (key_str(key), name,
                       "fresh" if in_base else "baseline")
                )
                continue
            base = base_rec.get(name)
            new = fresh[key].get(name)
            if base != new:
                failures.append(
                    "%s: measurement %s changed %r -> %r "
                    "(must be bit-identical)"
                    % (key_str(key), name, base, new)
                )
    return compared


def check_sublinearity(fresh, failures):
    """Engine probes must scale sublinearly in the pairwise bound."""
    points = []
    for key, rec in fresh.items():
        suite, config = key[0], key[1]
        m = re.match(r"scale_n(\d+)$", suite)
        if not m:
            continue
        counters = rec.get("counters", {})
        probes = counters.get("classinterf.probes", 0)
        pair_cost = counters.get("classinterf.pair_cost", 0)
        if probes and pair_cost:
            points.append((int(m.group(1)), suite, config, probes, pair_cost))
    if len(points) < 2:
        return 0
    points.sort()
    _, s_suite, s_config, s_probes, s_cost = points[0]
    _, l_suite, l_config, l_probes, l_cost = points[-1]
    # ratio(largest) * FACTOR <= ratio(smallest), cross-multiplied to
    # stay in integers.
    if l_probes * s_cost * SUBLINEAR_FACTOR > l_cost * s_probes:
        failures.append(
            "sweep sublinearity lost: %s/%s probes/pair_cost %d/%d vs "
            "%s/%s %d/%d (want a >= %dx ratio drop)"
            % (s_suite, s_config, s_probes, s_cost, l_suite, l_config,
               l_probes, l_cost, SUBLINEAR_FACTOR)
        )
    return len(points)


def seconds_report(baseline, fresh):
    """Markdown lines comparing wall-clock seconds, baseline vs fresh.

    Informational only: timings depend on the machine, so nothing here
    ever contributes a failure. One row per record and numeric top-level
    field ending in 'seconds' present on both sides (non-positive fresh
    values are skipped); per-pass breakdowns ride along when both
    records carry matching per_pass_seconds entries.
    """
    lines = []
    for key, base_rec in sorted(baseline.items()):
        fresh_rec = fresh.get(key)
        if fresh_rec is None:
            continue
        rows = [(name, base_rec[name], fresh_rec.get(name))
                for name in sorted(base_rec) if name.endswith("seconds")]
        base_pp = base_rec.get("per_pass_seconds", {})
        fresh_pp = fresh_rec.get("per_pass_seconds", {})
        if isinstance(base_pp, dict) and isinstance(fresh_pp, dict):
            rows += [(pname, base_pp[pname], fresh_pp.get(pname))
                     for pname in sorted(base_pp)]
        for name, base_s, new_s in rows:
            if isinstance(base_s, (int, float)) and \
                    isinstance(new_s, (int, float)) and new_s > 0:
                lines.append(
                    "| %s | %s | %.4f | %.4f | %.2fx |"
                    % (key_str(key), name, base_s, new_s, base_s / new_s)
                )
    if not lines:
        return []
    header = [
        "### Wall-clock comparison (non-gating)",
        "",
        "| record | field | baseline s | fresh s | speedup |",
        "|---|---|---|---|---|",
    ]
    return header + lines + [""]


def main(argv):
    args = list(argv[1:])
    report_seconds = "--report-seconds" in args
    if report_seconds:
        args.remove("--report-seconds")
    if len(args) < 2 or len(args) % 2 != 0:
        sys.stderr.write(__doc__)
        return 2

    failures = []
    report = []
    compared = records = scale_points = 0
    for i in range(0, len(args), 2):
        try:
            with open(args[i]) as f:
                baseline = records_by_key(json.load(f), args[i])
            with open(args[i + 1]) as f:
                fresh = records_by_key(json.load(f), args[i + 1])
        except (MalformedBench, json.JSONDecodeError, OSError) as err:
            failures.append(str(err))
            continue
        compared += check_counters(baseline, fresh, failures)
        scale_points += check_sublinearity(fresh, failures)
        records += len(baseline)
        if report_seconds:
            report.extend(seconds_report(baseline, fresh))

    if report:
        print("\n".join(report))
    if failures:
        print("bench regression check FAILED:")
        for line in failures:
            print("  " + line)
        return 1
    print(
        "bench regression check passed: %d counters/measurements across "
        "%d records, sweep sublinearity on %d scale points"
        % (compared, records, scale_points)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
