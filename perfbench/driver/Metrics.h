//===- Metrics.h - The benchmark's metric tables ----------------*- C++ -*-===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every metric the benchmark prints, with its unit, in output order.
/// BENCHMARK.json at the repository root declares the same two lists;
/// the helper tests fail when they drift apart. Every workload reports
/// every metric: end-to-end metrics from untraced runs (--trace 0),
/// per-layer metrics from the traced run (--trace 1). A per-layer
/// metric of a layer the workload does not call reads 0.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The workloads, in BENCHMARK.json order.
inline constexpr const char *WorkloadNames[] = {
    "large_pinned", "large_naive", "regalloc_suites", "service_small"};

inline constexpr MetricSpec EndToEndMetrics[] = {
    {"compile_s", "s"},        {"fn_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"setup_s", "s"},
    {"residual_moves", "count"}, {"dyn_instrs", "count"},
};

/// Spans whose summed durations are per-layer time metrics
/// ("<span name>_s"); see the workloads for where each is recorded.
inline constexpr const char *TimedSpans[] = {
    "outofssa.pipeline",
    "outofssa.phase.split-critical-edges",
    "outofssa.phase.constraints",
    "outofssa.phase.pin-analysis",
    "outofssa.phase.phi-coalescing",
    "outofssa.phase.translate",
    "outofssa.phase.sequentialize",
    "outofssa.phase.naive-abi",
    "outofssa.phase.coalesce",
    "regalloc.chordal.alloc",
    "regalloc.chaitin-briggs.alloc",
    "exec.compile",
    "exec.vm",
    "ir.parse",
    "ir.print",
    "ssa.normalize",
};

/// StatsRegistry counters reported as per-pass deltas.
inline constexpr const char *Counters[] = {
    "phicoalesce.pair_queries", "phicoalesce.affinity_edges",
    "classinterf.probes",       "classinterf.pair_cost",
    "translate.inserts",        "translate.repairs",
    "coalesce.worklist_pops",   "coalesce.merges",
    "coalesce.rebuilds",        "analysis.cfg_builds",
    "analysis.domtree_builds",  "liveness.fixpoint_iterations",
    "liveness.var_solves",      "interference.graphs_built",
    "regalloc.rounds",          "regalloc.spilled_values",
    "regalloc.spill_loads",     "regalloc.spill_stores",
    "regalloc.evictions",       "regalloc.biased_hits",
    "exec.bytecode_instrs",     "exec.dyn_moves",
    "ir.arena_bytes",
};

/// Layers with a self-time metric "self.<layer>_s".
inline constexpr const char *Layers[] = {"outofssa", "regalloc", "exec",
                                         "ir",       "ssa",      "server"};

/// The remaining per-layer metrics, filled by the workloads or from
/// the trace.
inline constexpr MetricSpec OtherPerLayer[] = {
    {"weighted_moves", "count"},
    {"spill_accesses", "count"},
    {"server.worker_s", "s"},
    {"server.wait_s", "s"},
    {"server.busy_frac", "ratio"},
    {"server.frames", "count"},
    {"server.max_inflight", "count"},
    {"client.stall_s", "s"},
    {"workloads.generate_s", "s"},
    {"self.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

/// The full per-layer list, in output order: (name, unit).
inline std::vector<std::pair<std::string, std::string>> perLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const char *S : TimedSpans)
    Out.emplace_back(std::string(S) + "_s", "s");
  for (const char *C : Counters)
    Out.emplace_back(C, "count");
  for (const char *L : Layers)
    Out.emplace_back("self." + std::string(L) + "_s", "s");
  for (const MetricSpec &M : OtherPerLayer)
    Out.emplace_back(M.Name, M.Unit);
  return Out;
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
