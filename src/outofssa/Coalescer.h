//===- Coalescer.h - Aggressive repeated register coalescing ----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's [Coalescing] baseline: a Chaitin-style aggressive
/// "repeated" register coalescer run on non-SSA code, outside any
/// register-allocation context (so it ignores colorability). It removes
/// every move whose operands do not interfere by merging them, and stops
/// at a fixpoint: no copy is mergeable under an exact interference graph.
///
/// Zero-rebuild schedule
/// ---------------------
/// The interference graph is built exactly once per call. A graph-free
/// *confirm scan* first proves a merge exists (most post-phi-coalescing
/// calls find nothing and never build a graph); then a FIFO worklist of
/// the remaining copies drives merge *rounds*:
///
///  1. pop each copy, resolve its operands through this round's rename
///     map, and either merge it (InterferenceGraph::mergeNodes unions the
///     two neighborhoods in place, in O(degree)) or defer it when the
///     current graph carries an edge between the operands;
///  2. at the round boundary, apply the renames to the instructions,
///     delete the moves that became identities, maintain the dense
///     liveness exactly (Liveness::applyRenames + recomputeValues), and
///     run one *repair scan* that restores the graph to exactness (see
///     below); then re-enqueue exactly the deferred copies whose operands
///     alias a node merged this round and whose repaired pair no longer
///     interferes.
///
/// The sweep stops when nothing is re-enqueued: every surviving copy then
/// carries an exact interference edge, which is the fixpoint condition.
///
/// Exactness argument (why the merge trace equals rebuild-every-round)
/// -------------------------------------------------------------------
/// Let E(P) be the exact graph of program P and G the maintained graph.
/// Unioning neighborhoods on a merge is conservative: every exact edge of
/// the renamed program maps to some unioned edge, so E(P') is a subgraph
/// of G throughout a round — G never lets through a merge that an exact
/// graph would block. G can, however, hold *stale* edges (e.g. the copy
/// `x = s` contributes no (x, s) edge by Chaitin's source exemption, but
/// after s merges into d the same instruction reads `x = d` and a unioned
/// (x, d) edge may survive that the exemption would now suppress). Two
/// confinement lemmas bound the damage: (a) a merge changes the liveness
/// only of its own constituents (a merged range is contained in the union
/// of the old ranges), and (b) re-running the graph construction on the
/// rewritten program changes only edges incident to nodes touched by a
/// merge. Hence every stale edge lies on a row of a *dirty* node — a
/// merge survivor — and the round-boundary repair scan, which recomputes
/// exactly those rows from the maintained (exact) liveness, restores
/// G = E(P') at every round boundary. By induction each round therefore
/// starts from the same exact graph a full rebuild would produce, pops in
/// the same instruction order the rebuild path sweeps in, and mid-round
/// queries agree as well (unions only add edges, and rebuild-every-round
/// blocks on its own unions identically), so the (survivor, victim) merge
/// sequence is identical to the rebuild-every-round reference.
///
/// `LAO_COALESCE_ORACLE=1` (or setCoalescerCrossCheckOracle) checks that
/// claim at runtime: every production run first executes the reference
/// rebuild path on a clone, then replays the worklist schedule in
/// lockstep against the recorded trace and aborts on the first divergent
/// merge, on a final-IR mismatch, or on a residual mergeable copy.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_COALESCER_H
#define LAO_OUTOFSSA_COALESCER_H

#include "ir/Function.h"

#include <utility>
#include <vector>

namespace lao {

class AnalysisManager;

struct CoalescerOptions {
  /// Reference mode: rebuild the analyses after every merge sweep (the
  /// original, quadratic-ish schedule). Kept as the oracle for the
  /// equivalence tests and LAO_COALESCE_ORACLE, which pin the worklist
  /// schedule to an identical merge trace.
  bool RebuildEveryRound = false;
  /// When set, every merge appends its resolved (survivor, victim) pair —
  /// the exact trace the oracle compares across schedules.
  std::vector<std::pair<RegId, RegId>> *TraceOut = nullptr;
};

/// Runs aggressive repeated coalescing on non-SSA \p F (no phis; parallel
/// copies must have been sequentialized).
///
/// When \p AM is provided it supplies the CFG and dense liveness, and on
/// return its Liveness is still cached and *valid* (the coalescer
/// maintains it exactly through every rename/deletion). When merges
/// happened, the repaired interference graph — exact for the final
/// program — stays cached too; only the liveness-query engine is
/// invalidated. Passing nullptr uses a private manager.
///
/// Returns the number of interference-graph merges; the rest of the
/// call's work (rounds, rebuilds, worklist traffic, moves removed) is
/// counted into the coalesce.* registry counters.
unsigned coalesceAggressively(Function &F, const CoalescerOptions &Opts = {},
                              AnalysisManager *AM = nullptr);

/// Cross-check mode (also enabled by the LAO_COALESCE_ORACLE environment
/// variable): every worklist-scheduled call first runs the
/// rebuild-every-round reference on a clone, then compares merge-by-merge
/// and aborts on the first divergence, a final-IR mismatch, or a missed
/// fixpoint. Global because it is a process-level debugging mode.
void setCoalescerCrossCheckOracle(bool On);

} // namespace lao

#endif // LAO_OUTOFSSA_COALESCER_H
