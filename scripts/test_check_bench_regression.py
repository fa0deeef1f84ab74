#!/usr/bin/env python3
"""Selftest for check_bench_regression.py's failure modes.

The checker is the CI gate that keeps the analysis-count baselines
honest, so its *failure* paths need their own regression test: a gate
that silently passes on malformed input is worse than no gate. Each case
runs the checker in-process on synthetic bench documents and asserts
both the exit status and that the offending key is named in the output.

Run directly (no arguments) or via ctest; stdlib only.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as cbr


def bench_doc(records):
    return {"records": records}


def record(suite="valcc", config="Lphi,ABI+C", counters=None, **fields):
    rec = {"suite": suite, "config": config, "moves": 10,
           "weighted_moves": 20.0}
    rec["counters"] = {"liveness.analyses": 5} if counters is None \
        else counters
    rec.update(fields)
    return rec


class CheckerHarness(unittest.TestCase):
    def run_checker(self, baseline, fresh, *extra_args):
        """Writes the two docs to temp files and runs main(). Returns
        (exit_status, captured_stdout)."""
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            for path, doc in ((base_path, baseline), (fresh_path, fresh)):
                with open(path, "w") as f:
                    if isinstance(doc, str):
                        f.write(doc)
                    else:
                        json.dump(doc, f)
            with contextlib.redirect_stdout(out):
                status = cbr.main(["prog", *extra_args, base_path,
                                   fresh_path])
        return status, out.getvalue()

    def assert_fails_naming(self, baseline, fresh, *needles):
        status, out = self.run_checker(baseline, fresh)
        self.assertEqual(status, 1, out)
        self.assertIn("FAILED", out)
        for needle in needles:
            self.assertIn(needle, out)


class TestCleanPass(CheckerHarness):
    def test_identical_documents_pass(self):
        doc = bench_doc([record()])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)
        self.assertIn("passed", out)

    def test_counter_decrease_passes(self):
        base = bench_doc([record(counters={"liveness.analyses": 5})])
        fresh = bench_doc([record(counters={"liveness.analyses": 3})])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)

    def test_counter_absent_from_both_passes(self):
        # Not every record carries every checked counter (regpressure
        # records have no coalescer counters, say); absent on both
        # sides is not a regression.
        doc = bench_doc([record(counters={})])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)


class TestCounterFailures(CheckerHarness):
    def test_counter_increase_fails(self):
        base = bench_doc([record(counters={"liveness.analyses": 5})])
        fresh = bench_doc([record(counters={"liveness.analyses": 6})])
        self.assert_fails_naming(base, fresh, "liveness.analyses",
                                 "regressed 5 -> 6")

    def test_counter_missing_from_fresh_fails(self):
        # The bug this selftest exists for: a counter the baseline has
        # but the fresh run lost must fail by name, not default to 0
        # and slide through the decrease-only comparison.
        base = bench_doc([record(counters={"liveness.analyses": 5})])
        fresh = bench_doc([record(counters={})])
        self.assert_fails_naming(
            base, fresh, "liveness.analyses",
            "present in baseline but missing from fresh")

    def test_record_missing_from_fresh_fails(self):
        base = bench_doc([record(suite="valcc"), record(suite="spec")])
        fresh = bench_doc([record(suite="valcc")])
        self.assert_fails_naming(base, fresh,
                                 "record missing from fresh output",
                                 "spec")


class TestMeasurementFailures(CheckerHarness):
    def test_measurement_change_fails(self):
        base = bench_doc([record(moves=10)])
        fresh = bench_doc([record(moves=11)])
        self.assert_fails_naming(base, fresh, "moves",
                                 "must be bit-identical")

    def test_measurement_missing_from_fresh_fails(self):
        base = bench_doc([record()])
        fresh_rec = record()
        del fresh_rec["moves"]
        self.assert_fails_naming(base, bench_doc([fresh_rec]),
                                 "measurement moves missing from fresh")

    def test_measurement_missing_from_baseline_fails(self):
        base_rec = record()
        del base_rec["moves"]
        self.assert_fails_naming(
            bench_doc([base_rec]), bench_doc([record()]),
            "measurement moves missing from baseline")


class TestMalformedInput(CheckerHarness):
    def test_missing_records_key_fails_cleanly(self):
        self.assert_fails_naming({"suite": "valcc"}, bench_doc([record()]),
                                 "missing top-level 'records' key")

    def test_record_missing_suite_fails_cleanly(self):
        rec = record()
        del rec["suite"]
        self.assert_fails_naming(bench_doc([rec]), bench_doc([record()]),
                                 "missing required key 'suite'")

    def test_record_missing_config_fails_cleanly(self):
        rec = record()
        del rec["config"]
        self.assert_fails_naming(bench_doc([record()]), bench_doc([rec]),
                                 "missing required key 'config'")

    def test_invalid_json_fails_cleanly(self):
        status, out = self.run_checker("{not json", bench_doc([record()]))
        self.assertEqual(status, 1, out)
        self.assertIn("FAILED", out)

    def test_usage_error_is_distinct(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            self.assertEqual(cbr.main(["prog", "only-one.json"]), 2)


class TestSecondsReport(CheckerHarness):
    def test_table_absent_without_flag(self):
        base = bench_doc([record(seconds=2.0)])
        fresh = bench_doc([record(seconds=1.0)])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)
        self.assertNotIn("Wall-clock", out)

    def test_report_never_gates(self):
        # A 10x wall-clock slowdown with identical counters must still
        # pass: timings are machine-dependent and informational only.
        base = bench_doc([record(seconds=1.0)])
        fresh = bench_doc([record(seconds=10.0)])
        status, out = self.run_checker(base, fresh, "--report-seconds")
        self.assertEqual(status, 0, out)
        self.assertIn("Wall-clock comparison (non-gating)", out)
        self.assertIn("valcc/Lphi,ABI+C", out)
        self.assertIn("0.10x", out)

    def test_per_pass_rows_ride_along(self):
        base = bench_doc([record(seconds=2.0,
                                 per_pass_seconds={"translate": 1.0})])
        fresh = bench_doc([record(seconds=1.0,
                                  per_pass_seconds={"translate": 0.5})])
        status, out = self.run_checker(base, fresh, "--report-seconds")
        self.assertEqual(status, 0, out)
        self.assertIn("| translate |", out)
        self.assertIn("2.00x", out)

    def test_every_seconds_field_is_reported(self):
        # BENCH_exec records time both engines in their own fields.
        base = bench_doc([record(vm_seconds=0.004, interp_seconds=0.02)])
        fresh = bench_doc([record(vm_seconds=0.002, interp_seconds=0.02)])
        status, out = self.run_checker(base, fresh, "--report-seconds")
        self.assertEqual(status, 0, out)
        self.assertIn("| valcc/Lphi,ABI+C | vm_seconds | 0.0040 | 0.0020 "
                      "| 2.00x |", out)
        self.assertIn("| interp_seconds |", out)

    def test_records_without_seconds_are_skipped(self):
        status, out = self.run_checker(bench_doc([record()]),
                                       bench_doc([record()]),
                                       "--report-seconds")
        self.assertEqual(status, 0, out)
        self.assertNotIn("Wall-clock", out)


class TestRegpressureKeying(CheckerHarness):
    """The 5-tuple (suite, config, num_regs, allocator, spill_mode) key
    for register-pressure records."""

    def test_num_regs_without_allocator_keys_is_malformed(self):
        # Every register-pressure record names its allocator and spill
        # model; one that carries num_regs without them cannot be keyed.
        rec = record(num_regs=8, spills=355, spill_mode="spill-everywhere",
                     counters={})
        self.assert_fails_naming(bench_doc([rec]), bench_doc([rec]),
                                 "has num_regs but no 'allocator'")

    def test_allocator_distinguishes_records(self):
        # Same (suite, config, num_regs) but a different allocator is a
        # different record: the chordal numbers must not be compared
        # against (or hide behind) the chaitin-briggs baseline.
        base = bench_doc([
            record(num_regs=8, spills=355, allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
            record(num_regs=8, spills=340, allocator="chordal",
                   spill_mode="spill-everywhere", counters={}),
        ])
        status, out = self.run_checker(base, base)
        self.assertEqual(status, 0, out)
        # Dropping only the chordal record must fail and name it by its
        # full 5-tuple key.
        fresh = bench_doc([
            record(num_regs=8, spills=355, allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
        ])
        self.assert_fails_naming(base, fresh,
                                 "record missing from fresh output",
                                 "valcc/Lphi,ABI+C/8/chordal")

    def test_spill_mode_distinguishes_records(self):
        base = bench_doc([
            record(num_regs=6, spill_accesses=1943,
                   allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
            record(num_regs=6, spill_accesses=1500,
                   allocator="chaitin-briggs",
                   spill_mode="load-store-opt", counters={}),
        ])
        status, out = self.run_checker(base, base)
        self.assertEqual(status, 0, out)
        # A spill_accesses change on the load-store-opt record fails
        # under its own key, not the spill-everywhere one.
        fresh = bench_doc([
            record(num_regs=6, spill_accesses=1943,
                   allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
            record(num_regs=6, spill_accesses=1600,
                   allocator="chaitin-briggs",
                   spill_mode="load-store-opt", counters={}),
        ])
        self.assert_fails_naming(
            base, fresh, "spill_accesses",
            "valcc/Lphi,ABI+C/6/chaitin-briggs/load-store-opt")

    def test_records_without_num_regs_ignore_allocator_keys(self):
        # Compile-time records have no num_regs; they keep the plain
        # (suite, config) key even if a stray allocator key appears.
        base = bench_doc([record(counters={})])
        fresh = bench_doc([record(allocator="chordal", counters={})])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)


class TestExecRecords(CheckerHarness):
    """BENCH_exec.json: dynamic execution tallies gate bit-identically,
    engine wall-clock never does."""

    def exec_record(self, **overrides):
        rec = {"suite": "VALcc1", "config": "Lphi,ABI+C", "functions": 22,
               "runs": 61, "errors": 0, "dyn_instrs": 24850,
               "dyn_moves": 5189, "outputs": 0x1234ABCD5678EF90,
               "vm_seconds": 0.002, "interp_seconds": 0.008,
               "speedup": 4.0}
        rec.update(overrides)
        return rec

    def test_identical_exec_records_pass(self):
        doc = bench_doc([self.exec_record()])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)

    def test_dyn_moves_change_fails(self):
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(dyn_moves=5190)])
        self.assert_fails_naming(base, fresh, "dyn_moves",
                                 "must be bit-identical")

    def test_dyn_instrs_change_fails(self):
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(dyn_instrs=24849)])
        self.assert_fails_naming(base, fresh, "dyn_instrs",
                                 "must be bit-identical")

    def test_output_digest_change_fails(self):
        # The digest folds every run's status, output trace and return
        # value; any behavioral drift in either engine lands here.
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(outputs=0x1234ABCD5678EF91)])
        self.assert_fails_naming(base, fresh, "outputs",
                                 "must be bit-identical")

    def test_engine_timings_never_gate(self):
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(vm_seconds=0.2,
                                            interp_seconds=0.1,
                                            speedup=0.5)])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)

    def test_scale_records_without_probe_counters_skip_sublinearity(self):
        # The exec sweep reuses the scale_n* suite names but carries no
        # classinterf counters; the sublinearity check must not engage.
        doc = bench_doc([
            self.exec_record(suite="scale_n40", config="ssa", counters={}),
            self.exec_record(suite="scale_n640", config="ssa", counters={}),
        ])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)
        self.assertIn("on 0 scale points", out)


class TestSublinearity(CheckerHarness):
    def test_lost_sublinearity_fails(self):
        def scale(n, probes, pair_cost):
            return record(suite="scale_n%d" % n,
                          counters={"classinterf.probes": probes,
                                    "classinterf.pair_cost": pair_cost})
        # Probes grow as fast as the pairwise bound: ratio never drops.
        fresh = bench_doc([scale(40, 100, 1000), scale(640, 1600, 16000)])
        base = fresh
        self.assert_fails_naming(base, fresh, "sublinearity lost")


if __name__ == "__main__":
    unittest.main(verbosity=2)
