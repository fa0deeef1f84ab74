//===- Coalescer.cpp - Aggressive repeated register coalescing ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/Coalescer.h"

#include "analysis/AnalysisManager.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "ir/Clone.h"
#include "ir/IRPrinter.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

using namespace lao;

namespace {

bool oracleFromEnv() {
  const char *E = std::getenv("LAO_COALESCE_ORACLE");
  return E && *E && *E != '0';
}

bool CrossCheckOracle = oracleFromEnv();

/// One coalesceAggressively call's work; each field is published once
/// per call to its coalesce.* counter (docs/OBSERVABILITY.md).
struct CoalesceTally {
  unsigned MovesRemoved = 0, Rounds = 0, Merges = 0, Rebuilds = 0;
  unsigned ConfirmScans = 0, RepairScans = 0, StaleEdgesRemoved = 0;
  unsigned WorklistPushes = 0, WorklistPops = 0, Requeues = 0;
};

/// Packs an unordered RegId pair into one sortable/searchable key.
uint64_t pairKey(RegId A, RegId B) {
  if (A < B)
    std::swap(A, B);
  return (static_cast<uint64_t>(A) << 32) | B;
}

/// Graph-free fixpoint check: would a freshly built exact interference
/// graph let the sweep merge at least one remaining copy?
///
/// Replays the InterferenceGraph constructor's backward scan, but instead
/// of materializing edges it only *marks* the candidate pairs — the
/// (def, use) pairs of the remaining copies (identities and
/// physical/physical pairs excluded) — that would receive an edge. A
/// candidate left unmarked is exactly a copy the sweep would merge on a
/// fresh graph, so "any candidate unmarked" <=> "a rebuild would be
/// productive".
///
/// Both working sets are sorted flat vectors: candidates are collected,
/// sorted and uniqued once, then probed by binary search; marked pairs
/// are appended freely and deduplicated once at the end. No per-element
/// hashing or node allocation.
bool anyCoalescableCopy(const Function &F, const Liveness &LV) {
  // Candidate pairs and, per register, its candidate partners (tiny
  // lists: only registers appearing in copies have any).
  std::vector<uint64_t> Candidates;
  for (const auto &BB : F.blocks()) {
    for (const Instruction &I : BB->instructions()) {
      if (!I.isCopy())
        continue;
      RegId D = I.def(0), S = I.use(0);
      if (D == S)
        continue;
      if (F.isPhysical(D) && F.isPhysical(S))
        continue;
      Candidates.push_back(pairKey(D, S));
    }
  }
  if (Candidates.empty())
    return false;
  std::sort(Candidates.begin(), Candidates.end());
  Candidates.erase(std::unique(Candidates.begin(), Candidates.end()),
                   Candidates.end());

  std::vector<std::vector<RegId>> Partners(F.numValues());
  for (uint64_t Key : Candidates) {
    RegId A = static_cast<RegId>(Key >> 32);
    RegId B = static_cast<RegId>(Key & 0xffffffffu);
    Partners[A].push_back(B);
    Partners[B].push_back(A);
  }

  // Mirror of the graph constructor's edge rules, restricted to a def's
  // candidate partners (everything else cannot affect the answer).
  std::vector<uint64_t> Interfering;
  auto MarkDef = [&](RegId D, const BitVector &Live, RegId ExemptSrc) {
    for (RegId P : Partners[D])
      if (P != D && P != ExemptSrc && Live.test(P))
        Interfering.push_back(pairKey(D, P));
  };
  auto MarkDefPair = [&](RegId A, RegId B) {
    if (A != B && std::binary_search(Candidates.begin(), Candidates.end(),
                                     pairKey(A, B)))
      Interfering.push_back(pairKey(A, B));
  };

  for (const auto &BB : F.blocks()) {
    BitVector Live = LV.liveOut(BB.get());
    auto &Insts = BB->instructions();
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      const Instruction &I = *It;
      assert(!I.isPhi() && "coalescer expects non-SSA code");
      if (I.isCopy()) {
        RegId D = I.def(0), S = I.use(0);
        // The constructor resets S before scanning Live, then resets D
        // and re-adds S; exempting S from the partner test is the same
        // restriction.
        Live.reset(S);
        MarkDef(D, Live, /*ExemptSrc=*/S);
        Live.reset(D);
        Live.set(S);
        continue;
      }
      if (I.isParCopy()) {
        for (unsigned K = 0; K < I.numDefs(); ++K)
          MarkDef(I.def(K), Live, /*ExemptSrc=*/I.use(K));
        for (unsigned A = 0; A < I.numDefs(); ++A)
          for (unsigned B = A + 1; B < I.numDefs(); ++B)
            MarkDefPair(I.def(A), I.def(B));
        for (RegId D : I.defs())
          Live.reset(D);
        for (RegId U : I.uses())
          Live.set(U);
        continue;
      }
      for (RegId D : I.defs())
        MarkDef(D, Live, /*ExemptSrc=*/InvalidReg);
      for (unsigned A = 0; A < I.numDefs(); ++A)
        for (unsigned B = A + 1; B < I.numDefs(); ++B)
          MarkDefPair(I.def(A), I.def(B));
      for (RegId D : I.defs())
        Live.reset(D);
      for (RegId U : I.uses())
        Live.set(U);
    }
  }
  std::sort(Interfering.begin(), Interfering.end());
  Interfering.erase(std::unique(Interfering.begin(), Interfering.end()),
                    Interfering.end());
  return Interfering.size() < Candidates.size();
}

/// The pre-optimization schedule, kept verbatim as the reference for the
/// equivalence tests and the LAO_COALESCE_ORACLE cross-check: every
/// iteration rebuilds CFG + liveness + graph and runs exactly one sweep.
CoalesceTally
coalesceRebuildingEveryRound(Function &F,
                             std::vector<std::pair<RegId, RegId>> *TraceOut) {
  CoalesceTally Tally;
  for (;;) {
    ++Tally.Rebuilds;
    CFG Cfg(F);
    Liveness LV(Cfg);
    InterferenceGraph IG(F, LV);

    std::vector<RegId> RenameTo(F.numValues(), InvalidReg);
    auto Resolve = [&](RegId V) {
      while (RenameTo[V] != InvalidReg)
        V = RenameTo[V];
      return V;
    };

    bool MergedOnThisGraph = false;
    ++Tally.Rounds;
    for (const auto &BB : F.blocks()) {
      for (Instruction &I : BB->instructions()) {
        if (!I.isCopy())
          continue;
        RegId D = Resolve(I.def(0));
        RegId S = Resolve(I.use(0));
        if (D == S)
          continue;
        if (F.isPhysical(D) && F.isPhysical(S))
          continue;
        if (IG.interfere(D, S))
          continue;
        RegId Survivor = F.isPhysical(S) ? S : D;
        RegId Victim = Survivor == D ? S : D;
        IG.mergeNodes(Survivor, Victim);
        RenameTo[Victim] = Survivor;
        if (TraceOut)
          TraceOut->emplace_back(Survivor, Victim);
        ++Tally.Merges;
        MergedOnThisGraph = true;
      }
    }

    if (!MergedOnThisGraph)
      break;

    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      for (auto It = Insts.begin(); It != Insts.end();) {
        for (unsigned K = 0; K < It->numDefs(); ++K)
          It->setDef(K, Resolve(It->def(K)));
        for (unsigned K = 0; K < It->numUses(); ++K)
          It->setUse(K, Resolve(It->use(K)));
        if (It->isCopy() && It->def(0) == It->use(0)) {
          It = Insts.erase(It);
          ++Tally.MovesRemoved;
        } else {
          ++It;
        }
      }
    }
  }
  return Tally;
}

/// Round-boundary repair: recomputes the rows of the dirty nodes — the
/// survivors (and since-victimized survivors) of this round's merges —
/// exactly, from the already-maintained liveness of the rewritten
/// program. Staleness is confined to those rows (see the header's
/// confinement lemmas), so removing each dirty row's unconfirmed edges
/// restores the whole graph to exactness.
void repairDirtyRows(const Function &F, const Liveness &LV,
                     InterferenceGraph &IG, const BitVector &DirtyMask,
                     const std::vector<RegId> &DirtyList,
                     CoalesceTally &Tally) {
  ++Tally.RepairScans;
  size_t NV = F.numValues();
  size_t ND = DirtyList.size();
  std::vector<uint32_t> Slot(NV, UINT32_MAX);
  for (size_t I = 0; I < ND; ++I)
    Slot[DirtyList[I]] = static_cast<uint32_t>(I);
  // Confirmed exact neighbors per dirty node, as bit rows: marking is
  // idempotent, so the multi-def webs of out-of-SSA code (each def site
  // of a neighbor re-confirms the same edge) cost one bit-set each
  // instead of growing a duplicate-heavy list that needs sorting.
  std::vector<BitVector> Exact(ND, BitVector(NV));

  auto MarkPair = [&](RegId A, RegId B) {
    if (Slot[A] != UINT32_MAX)
      Exact[Slot[A]].set(B);
    if (Slot[B] != UINT32_MAX)
      Exact[Slot[B]].set(A);
  };
  // Def site: the constructor's edge rule, restricted to pairs with a
  // dirty endpoint. A dirty def (rare: a def of a merge survivor) scans
  // everything live across it. Clean defs — the overwhelming majority —
  // only need the *dirty* subset of the live set, which the scan below
  // maintains as a DirtyLive vector restricted to |dirty| slots: the
  // per-def cost is one scan of |dirty|/64 words plus the actual hits,
  // independent of the function's total value count.
  BitVector DirtyLive(ND);
  auto MarkDef = [&](RegId D, const BitVector &Live, RegId ExemptSrc) {
    if (Slot[D] != UINT32_MAX) {
      Live.forEach([&](size_t L) {
        RegId R = static_cast<RegId>(L);
        if (R != D && R != ExemptSrc)
          MarkPair(D, R);
      });
    } else {
      DirtyLive.forEach([&](size_t SlotIdx) {
        RegId R = DirtyList[SlotIdx];
        if (R != D && R != ExemptSrc)
          Exact[SlotIdx].set(D);
      });
    }
  };
  auto LiveReset = [&](BitVector &Live, RegId V) {
    Live.reset(V);
    if (Slot[V] != UINT32_MAX)
      DirtyLive.reset(Slot[V]);
  };
  auto LiveSet = [&](BitVector &Live, RegId V) {
    Live.set(V);
    if (Slot[V] != UINT32_MAX)
      DirtyLive.set(Slot[V]);
  };

  for (const auto &BB : F.blocks()) {
    BitVector Live = LV.liveOut(BB.get());
    DirtyLive.clear();
    for (size_t I = 0; I < ND; ++I)
      if (Live.test(DirtyList[I]))
        DirtyLive.set(I);
    auto &Insts = BB->instructions();
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      const Instruction &I = *It;
      if (I.isCopy()) {
        RegId D = I.def(0), S = I.use(0);
        LiveReset(Live, S);
        MarkDef(D, Live, /*ExemptSrc=*/S);
        LiveReset(Live, D);
        LiveSet(Live, S);
        continue;
      }
      if (I.isParCopy()) {
        for (unsigned K = 0; K < I.numDefs(); ++K)
          MarkDef(I.def(K), Live, /*ExemptSrc=*/I.use(K));
        for (unsigned A = 0; A < I.numDefs(); ++A)
          for (unsigned B = A + 1; B < I.numDefs(); ++B)
            if (I.def(A) != I.def(B))
              MarkPair(I.def(A), I.def(B));
        for (RegId D : I.defs())
          LiveReset(Live, D);
        for (RegId U : I.uses())
          LiveSet(Live, U);
        continue;
      }
      for (RegId D : I.defs())
        MarkDef(D, Live, /*ExemptSrc=*/InvalidReg);
      for (unsigned A = 0; A < I.numDefs(); ++A)
        for (unsigned B = A + 1; B < I.numDefs(); ++B)
          if (I.def(A) != I.def(B))
            MarkPair(I.def(A), I.def(B));
      for (RegId D : I.defs())
        LiveReset(Live, D);
      for (RegId U : I.uses())
        LiveSet(Live, U);
    }
  }

  for (size_t I = 0; I < ND; ++I) {
    RegId R = DirtyList[I];
    // The maintained graph is conservative (exact edges are a subset of
    // the unioned ones), so repairing a row only ever *removes* edges.
    // Collect first: removeEdge mutates the row being walked.
    std::vector<RegId> Stale;
    const std::vector<RegId> &Row = IG.neighbors(R);
    for (RegId N : Row)
      if (!Exact[I].test(N))
        Stale.push_back(N);
    assert(Exact[I].count() == Row.size() - Stale.size() &&
           "repair found an exact edge the unioned graph was missing");
    for (RegId N : Stale)
      IG.removeEdge(R, N);
    Tally.StaleEdgesRemoved += static_cast<unsigned>(Stale.size());
  }
}

/// The zero-rebuild worklist schedule (see the header for the exactness
/// argument). \p ExpectTrace, when set, is the reference merge trace the
/// oracle compares against, aborting on the first divergence.
void coalesceWithWorklist(Function &F, AnalysisManager &AM,
                          CoalesceTally &Tally,
                          std::vector<std::pair<RegId, RegId>> *TraceOut,
                          const std::vector<std::pair<RegId, RegId>> *ExpectTrace) {
  Liveness &LV = AM.liveness();

  // Graph-free gate first: most calls after the phi-coalescing
  // configurations find nothing to merge and never build a graph.
  ++Tally.ConfirmScans;
  if (!anyCoalescableCopy(F, LV))
    return;

  bool HadGraph = AM.isCached(AnalysisKind::Interference);
  InterferenceGraph &IG = AM.interference();
  if (!HadGraph)
    ++Tally.Rebuilds; // The one and only build of this call.

  // The move worklist: every remaining candidate copy, in instruction
  // order (matching the reference sweep order). Entries index Moves so
  // deleted instructions can be retired without dangling pointers.
  struct MoveRec {
    Instruction *I;
    bool Alive = true;
  };
  std::vector<MoveRec> Moves;
  for (const auto &BB : F.blocks()) {
    for (Instruction &I : BB->instructions()) {
      if (!I.isCopy())
        continue;
      RegId D = I.def(0), S = I.use(0);
      if (D == S)
        continue;
      if (F.isPhysical(D) && F.isPhysical(S))
        continue;
      Moves.push_back({&I});
    }
  }

  std::vector<unsigned> Queue; // This round's pops, ascending move index.
  Queue.reserve(Moves.size());
  for (unsigned Idx = 0; Idx < Moves.size(); ++Idx)
    Queue.push_back(Idx);
  Tally.WorklistPushes += static_cast<unsigned>(Queue.size());

  std::vector<unsigned> Deferred; // Blocked moves, ascending move index.
  size_t NV = F.numValues();
  std::vector<RegId> RenameTo(NV, InvalidReg);
  auto Resolve = [&](RegId V) {
    while (RenameTo[V] != InvalidReg)
      V = RenameTo[V];
    return V;
  };
  BitVector DirtyMask(NV);
  std::vector<RegId> DirtyList;
  unsigned TraceIdx = 0;

  while (!Queue.empty()) {
    ++Tally.Rounds;
    unsigned MergesThisRound = 0;

    for (unsigned Idx : Queue) {
      ++Tally.WorklistPops;
      const MoveRec &M = Moves[Idx];
      assert(M.Alive && "a dead move stayed enqueued");
      RegId D = Resolve(M.I->def(0));
      RegId S = Resolve(M.I->use(0));
      if (D == S)
        continue; // Became an identity; deleted at the boundary.
      if (F.isPhysical(D) && F.isPhysical(S))
        continue; // Cannot merge two machine registers; dropped for good.
      if (IG.interfere(D, S)) {
        Deferred.push_back(Idx);
        continue;
      }
      RegId Survivor = F.isPhysical(S) ? S : D;
      RegId Victim = Survivor == D ? S : D;
      IG.mergeNodes(Survivor, Victim);
      RenameTo[Victim] = Survivor;
      if (!DirtyMask.test(Survivor)) {
        DirtyMask.set(Survivor);
        DirtyList.push_back(Survivor);
      }
      if (TraceOut)
        TraceOut->emplace_back(Survivor, Victim);
      if (ExpectTrace) {
        if (TraceIdx >= ExpectTrace->size() ||
            (*ExpectTrace)[TraceIdx] != std::make_pair(Survivor, Victim)) {
          std::fprintf(
              stderr,
              "LAO_COALESCE_ORACLE: merge %u diverged: worklist merged "
              "(v%u <- v%u), rebuild-every-round merged %s\n",
              TraceIdx, Survivor, Victim,
              TraceIdx < ExpectTrace->size()
                  ? (std::string("(v") +
                     std::to_string((*ExpectTrace)[TraceIdx].first) + " <- v" +
                     std::to_string((*ExpectTrace)[TraceIdx].second) + ")")
                        .c_str()
                  : "nothing (trace exhausted)");
          std::abort();
        }
        ++TraceIdx;
      }
      ++Tally.Merges;
      ++MergesThisRound;
    }
    assert(MergesThisRound > 0 &&
           "every scheduled round must merge at least once");
    (void)MergesThisRound;

    // Round boundary: apply the renames, drop identity moves (retiring
    // their worklist entries), and maintain the dense liveness exactly.
    std::vector<RegId> Survivors;
    for (RegId V = 0; V < NV; ++V)
      if (RenameTo[V] != InvalidReg)
        Survivors.push_back(Resolve(V));
    std::sort(Survivors.begin(), Survivors.end());
    Survivors.erase(std::unique(Survivors.begin(), Survivors.end()),
                    Survivors.end());

    // Retire the records whose copies the rewrite below will erase as
    // identities BEFORE touching the instructions: resolving the recorded
    // operands needs no pointer map, and the erase loop then never has to
    // map an instruction back to its record.
    for (MoveRec &M : Moves)
      if (M.Alive && Resolve(M.I->def(0)) == Resolve(M.I->use(0)))
        M.Alive = false;
    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      for (auto It = Insts.begin(); It != Insts.end();) {
        for (unsigned K = 0; K < It->numDefs(); ++K)
          It->setDef(K, Resolve(It->def(K)));
        for (unsigned K = 0; K < It->numUses(); ++K)
          It->setUse(K, Resolve(It->use(K)));
        if (It->isCopy() && It->def(0) == It->use(0)) {
          It = Insts.erase(It);
          ++Tally.MovesRemoved;
        } else {
          ++It;
        }
      }
    }

    LV.applyRenames(RenameTo);
    LV.recomputeValues(Survivors);

    // Restore G = exact graph of the rewritten program (dirty rows only).
    repairDirtyRows(F, LV, IG, DirtyMask, DirtyList, Tally);

    // Re-enqueue exactly the deferred moves whose operands alias a node
    // merged this round and whose pair no longer interferes; clean pairs
    // kept their (exact) edge, so they stay parked without a query.
    std::sort(Deferred.begin(), Deferred.end());
    Queue.clear();
    std::vector<unsigned> StillDeferred;
    for (unsigned Idx : Deferred) {
      const MoveRec &M = Moves[Idx];
      if (!M.Alive)
        continue; // Deleted as an identity above.
      RegId D = M.I->def(0), S = M.I->use(0); // Rewritten: already resolved.
      assert(D != S && "identity copies are deleted, not deferred");
      if (F.isPhysical(D) && F.isPhysical(S))
        continue; // Permanently unmergeable.
      if ((DirtyMask.test(D) || DirtyMask.test(S)) && !IG.interfere(D, S)) {
        Queue.push_back(Idx);
        ++Tally.Requeues;
        ++Tally.WorklistPushes;
      } else {
        StillDeferred.push_back(Idx);
      }
    }
    Deferred.swap(StillDeferred);

    std::fill(RenameTo.begin(), RenameTo.end(), InvalidReg);
    DirtyMask.clear();
    DirtyList.clear();
  }
  // Worklist dry: every surviving copy pair carries an exact interference
  // edge — the rebuild-every-round fixpoint condition.

  if (ExpectTrace && TraceIdx != ExpectTrace->size()) {
    std::fprintf(stderr,
                 "LAO_COALESCE_ORACLE: worklist stopped after %u merges, "
                 "rebuild-every-round performed %zu\n",
                 TraceIdx, ExpectTrace->size());
    std::abort();
  }
}

} // namespace

void lao::setCoalescerCrossCheckOracle(bool On) { CrossCheckOracle = On; }

unsigned lao::coalesceAggressively(Function &F, const CoalescerOptions &Opts,
                                   AnalysisManager *AM) {
  CoalesceTally Tally;

  if (Opts.RebuildEveryRound) {
    Tally = coalesceRebuildingEveryRound(F, Opts.TraceOut);
  } else {
    std::optional<AnalysisManager> LocalAM;
    if (!AM) {
      LocalAM.emplace(F);
      AM = &*LocalAM;
    }

    std::optional<std::vector<std::pair<RegId, RegId>>> RefTrace;
    std::string RefPrinted;
    unsigned RefMovesRemoved = 0;
    if (CrossCheckOracle) {
      // Run the reference schedule on a clone first; the worklist run
      // below then replays against its trace in lockstep.
      auto Ref = cloneFunction(F);
      RefTrace.emplace();
      RefMovesRemoved =
          coalesceRebuildingEveryRound(*Ref, &*RefTrace).MovesRemoved;
      RefPrinted = printFunction(*Ref);
    }

    coalesceWithWorklist(F, *AM, Tally, Opts.TraceOut,
                         RefTrace ? &*RefTrace : nullptr);

    if (Tally.Merges > 0) {
      // The maintained liveness is exact, and the repaired graph is the
      // exact graph of the final program; only the SSA-position query
      // engine is stale. With verify-on-invalidate enabled both survivors
      // are cross-checked against fresh recomputation here.
      AM->invalidate(PreservedAnalyses::cfgOnly()
                         .preserve(AnalysisKind::Liveness)
                         .preserve(AnalysisKind::Interference));
    }

    if (CrossCheckOracle) {
      if (Tally.MovesRemoved != RefMovesRemoved) {
        std::fprintf(stderr,
                     "LAO_COALESCE_ORACLE: moves removed mismatch: "
                     "worklist %u, rebuild-every-round %u\n",
                     Tally.MovesRemoved, RefMovesRemoved);
        std::abort();
      }
      if (printFunction(F) != RefPrinted) {
        std::fprintf(stderr,
                     "LAO_COALESCE_ORACLE: final IR mismatch\n"
                     "--- worklist ---\n%s--- rebuild-every-round ---\n%s",
                     printFunction(F).c_str(), RefPrinted.c_str());
        std::abort();
      }
      // A true fixpoint: no copy is mergeable under the exact liveness.
      if (anyCoalescableCopy(F, AM->liveness())) {
        std::fprintf(stderr,
                     "LAO_COALESCE_ORACLE: worklist stopped before the "
                     "fixpoint (a mergeable copy remains)\n");
        std::abort();
      }
    }
  }

  LAO_STAT(coalesce, runs) += 1;
  LAO_STAT(coalesce, rounds) += Tally.Rounds;
  LAO_STAT(coalesce, rebuilds) += Tally.Rebuilds;
  LAO_STAT(coalesce, confirm_scans) += Tally.ConfirmScans;
  LAO_STAT(coalesce, merges) += Tally.Merges;
  LAO_STAT(coalesce, moves_removed) += Tally.MovesRemoved;
  LAO_STAT(coalesce, repair_scans) += Tally.RepairScans;
  LAO_STAT(coalesce, worklist_pushes) += Tally.WorklistPushes;
  LAO_STAT(coalesce, worklist_pops) += Tally.WorklistPops;
  LAO_STAT(coalesce, worklist_requeues) += Tally.Requeues;
  LAO_STAT(coalesce, stale_edges_removed) += Tally.StaleEdgesRemoved;
  return Tally.Merges;
}
