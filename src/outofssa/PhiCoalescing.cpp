//===- PhiCoalescing.cpp - Pinning-based phi coalescing ------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/PhiCoalescing.h"

#include "support/Stats.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

using namespace lao;

namespace {

/// One affinity edge between a phi-result resource and an argument
/// resource (vertices are class representatives at graph-build time).
struct Edge {
  RegId DefRes;
  RegId ArgRes;
  unsigned Multiplicity = 0;
  int Weight = 0;
  /// Use-pin ties (2-operand / argument-register constraints) between the
  /// two endpoint classes: merging them additionally elides a pin copy,
  /// so among equally weighted edges the pruning removes tie-free edges
  /// first (the ABI-awareness of the paper's point [CS3]).
  unsigned TieBonus = 0;
  bool Deleted = false;
};

/// Affinity graph of one basic block (paper Section 3.1).
struct AffinityGraph {
  std::vector<Edge> Edges;
  std::set<RegId> Vertices;

  Edge *findEdge(RegId A, RegId B) {
    for (Edge &E : Edges)
      if (!E.Deleted && ((E.DefRes == A && E.ArgRes == B) ||
                         (E.DefRes == B && E.ArgRes == A)))
        return &E;
    return nullptr;
  }
};

/// One coalescePhis call's work; each field is published once per call
/// to its phicoalesce.* counter (docs/OBSERVABILITY.md).
struct PhiTally {
  unsigned AffinityEdges = 0, InitialPruned = 0, WeightPruned = 0;
  unsigned Merges = 0, UsePinMerges = 0, PhysDeferred = 0, SafetySkips = 0;
  unsigned Gain = 0;
  uint64_t PairQueries = 0;
};

/// Create_affinity_graph (Algorithm 2 / Algorithm 3 with depth filter).
/// \p DepthFilter of -1 disables the filter.
AffinityGraph createAffinityGraph(const BasicBlock &BB, PinningContext &Ctx,
                                  const LoopInfo &LI, int DepthFilter,
                                  PhiTally &Tally) {
  AffinityGraph G;
  for (const Instruction &I : BB.instructions()) {
    if (!I.isPhi())
      break;
    RegId DefRes = Ctx.resourceOf(I.def(0));
    G.Vertices.insert(DefRes);
    for (unsigned K = 0; K < I.numUses(); ++K) {
      RegId Arg = I.use(K);
      if (DepthFilter >= 0) {
        const DefSite &DS = Ctx.defSite(Arg);
        if (!DS.Valid ||
            static_cast<int>(LI.depth(DS.BB)) != DepthFilter)
          continue;
      }
      RegId ArgRes = Ctx.resourceOf(Arg);
      if (ArgRes == DefRes)
        continue; // Already coalesced: the gain is already realized.
      G.Vertices.insert(ArgRes);
      ++Tally.AffinityEdges;
      if (Edge *E = G.findEdge(DefRes, ArgRes)) {
        ++E->Multiplicity;
        continue;
      }
      G.Edges.push_back(Edge{DefRes, ArgRes, 1, 0, false});
    }
  }
  return G;
}

/// Graph_InitialPruning: delete edges whose resources interfere.
void initialPruning(AffinityGraph &G, PinningContext &Ctx,
                    PhiTally &Tally) {
  for (Edge &E : G.Edges) {
    if (E.Deleted)
      continue;
    ++Tally.PairQueries;
    if (Ctx.resourceInterfere(E.DefRes, E.ArgRes)) {
      E.Deleted = true;
      Tally.InitialPruned += E.Multiplicity;
    }
  }
}

/// BipartiteGraph_pruning: weight, then greedily delete heaviest edges.
void bipartitePruning(Function &F, AffinityGraph &G, PinningContext &Ctx,
                      PruneHeuristic Heuristic,
                      PhiTally &Tally) {
  // Tie bonuses: a use pinned to a resource of one endpoint whose
  // variable lives in the other endpoint makes the edge more valuable.
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (unsigned K = 0; K < I.numUses(); ++K) {
        if (I.usePin(K) == InvalidReg || I.isPhi())
          continue;
        RegId RPin = Ctx.resourceOf(I.usePin(K));
        RegId RVar = Ctx.resourceOf(I.use(K));
        if (RPin == RVar)
          continue;
        for (Edge &E : G.Edges)
          if (!E.Deleted && ((E.DefRes == RPin && E.ArgRes == RVar) ||
                             (E.DefRes == RVar && E.ArgRes == RPin)))
            ++E.TieBonus;
      }

  // Weight each edge: for every pair of live edges sharing a vertex whose
  // far endpoints interfere, each edge gains the other's multiplicity.
  for (size_t A = 0; A < G.Edges.size(); ++A) {
    if (G.Edges[A].Deleted)
      continue;
    for (size_t B = A + 1; B < G.Edges.size(); ++B) {
      if (G.Edges[B].Deleted)
        continue;
      Edge &EA = G.Edges[A];
      Edge &EB = G.Edges[B];
      RegId FarA = InvalidReg, FarB = InvalidReg;
      if (EA.DefRes == EB.DefRes) {
        FarA = EA.ArgRes;
        FarB = EB.ArgRes;
      } else if (EA.ArgRes == EB.ArgRes) {
        FarA = EA.DefRes;
        FarB = EB.DefRes;
      } else if (EA.DefRes == EB.ArgRes) {
        FarA = EA.ArgRes;
        FarB = EB.DefRes;
      } else if (EA.ArgRes == EB.DefRes) {
        FarA = EA.DefRes;
        FarB = EB.ArgRes;
      } else {
        continue;
      }
      if (FarA == FarB)
        continue;
      ++Tally.PairQueries;
      if (!Ctx.resourceInterfere(FarA, FarB))
        continue;
      EA.Weight += static_cast<int>(EB.Multiplicity);
      EB.Weight += static_cast<int>(EA.Multiplicity);
    }
  }

  // Greedy deletion: heaviest first; ties prune the edge with the
  // fewest use-pin ties (keep the ABI-profitable edges).
  while (true) {
    Edge *Pick = nullptr;
    for (Edge &E : G.Edges) {
      if (E.Deleted || E.Weight <= 0)
        continue;
      if (!Pick || E.Weight > Pick->Weight ||
          (E.Weight == Pick->Weight && E.TieBonus < Pick->TieBonus))
        Pick = &E;
      if (Heuristic == PruneHeuristic::FirstFound && Pick)
        break;
    }
    if (!Pick)
      break;
    Pick->Deleted = true;
    Tally.WeightPruned += Pick->Multiplicity;
    for (Edge &E : G.Edges) {
      if (E.Deleted)
        continue;
      bool SharesVertex = E.DefRes == Pick->DefRes ||
                          E.ArgRes == Pick->ArgRes ||
                          E.DefRes == Pick->ArgRes ||
                          E.ArgRes == Pick->DefRes;
      if (SharesVertex)
        E.Weight -= static_cast<int>(Pick->Multiplicity);
    }
  }
}

/// PrunedGraph_pinning: merge the connected components of the remaining
/// graph. Members of each merged class get their definition pin updated
/// to the final representative, so the coalescing decision is visible in
/// the printed IR (as in the paper's Figure 7).
void mergeComponents(Function &F, AffinityGraph &G, PinningContext &Ctx,
                     unsigned PhysMergeMinMult, PhiTally &Tally) {
  // Adjacency over live edges (neighbour, edge multiplicity).
  std::map<RegId, std::vector<std::pair<RegId, unsigned>>> Adj;
  for (const Edge &E : G.Edges) {
    if (E.Deleted)
      continue;
    Adj[E.DefRes].push_back({E.ArgRes, E.Multiplicity});
    Adj[E.ArgRes].push_back({E.DefRes, E.Multiplicity});
  }

  std::set<RegId> Merged;
  for (RegId Start : G.Vertices) {
    if (Merged.count(Start) || !Adj.count(Start))
      continue;
    // BFS, merging as we go; re-check interference against the class
    // accumulated so far (see header comment). A vertex skipped here
    // (interference or deferred physical merge) stays available as the
    // seed of its own component.
    std::vector<RegId> Work{Start};
    std::set<RegId> Tried{Start};
    Merged.insert(Start);
    RegId Acc = Start;
    while (!Work.empty()) {
      RegId V = Work.back();
      Work.pop_back();
      for (auto [N, Mult] : Adj[V]) {
        if (Tried.count(N) || Merged.count(N))
          continue;
        Tried.insert(N);
        ++Tally.PairQueries;
        if (Ctx.resourceInterfere(Acc, N)) {
          ++Tally.SafetySkips;
          continue;
        }
        // Joining a *physical* (dedicated-register) class commits a
        // scarce machine register to the whole web and usually blocks
        // the later aggressive coalescer more than it saves; do it only
        // on strong affinity (several phi operands already live there,
        // as in the paper's Figure 8 partial-coalescing example, or a
        // use-pin tie toward the physical class).
        bool PhysInvolved = Ctx.func().isPhysical(Ctx.resourceOf(N)) ||
                            Ctx.func().isPhysical(Ctx.resourceOf(Acc));
        if (PhysInvolved && Mult < PhysMergeMinMult) {
          ++Tally.PhysDeferred;
          continue;
        }
        Acc = Ctx.pinTogether(Acc, N);
        Merged.insert(N);
        ++Tally.Merges;
        Work.push_back(N);
      }
    }
    // Publish the merged pinning on every member's definition.
    RegId Rep = Ctx.resourceOf(Acc);
    for (RegId Member : Ctx.members(Rep)) {
      const DefSite &DS = Ctx.defSite(Member);
      if (!DS.Valid)
        continue;
      Instruction &I = const_cast<Instruction &>(*DS.I);
      for (unsigned K = 0; K < I.numDefs(); ++K)
        if (I.def(K) == Member)
          I.pinDef(K, Rep);
    }
  }
  (void)F;
}

} // namespace

void lao::coalescePhis(Function &F, PinningContext &Ctx, const CFG &Cfg,
                       const LoopInfo &LI, const PhiCoalescingOptions &Opts) {
  PhiTally Tally;

  // Confluence blocks ordered inner-to-outer (deepest loop first; RPO
  // breaks ties deterministically).
  std::vector<BasicBlock *> Order;
  for (BasicBlock *BB : Cfg.rpo())
    if (!BB->empty() && BB->front().isPhi())
      Order.push_back(BB);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](BasicBlock *A, BasicBlock *B) {
                     return LI.depth(A) > LI.depth(B);
                   });

  // [LIM2] pre-pass, run BEFORE the phi affinities: a use pinned to a
  // resource wants its variable's definition there too; merge when
  // interference-free so the reconstruction elides the copy. Running it
  // first mirrors the program-order greedy of a Chaitin coalescer for
  // ABI copies (argument registers are scarce; the phi webs merged
  // second can still coalesce around them).
  if (Opts.UsePinAffinity) {
    std::vector<BasicBlock *> ByDepth(Cfg.rpo());
    std::stable_sort(ByDepth.begin(), ByDepth.end(),
                     [&](BasicBlock *A, BasicBlock *B) {
                       return LI.depth(A) > LI.depth(B);
                     });
    for (BasicBlock *BB : ByDepth)
      for (Instruction &I : BB->instructions()) {
        for (unsigned K = 0; K < I.numUses(); ++K) {
          RegId Pin = I.usePin(K);
          if (Pin == InvalidReg)
            continue;
          RegId V = I.use(K);
          if (F.isPhysical(V))
            continue;
          if (Ctx.resourceOf(V) == Ctx.resourceOf(Pin))
            continue;
          ++Tally.PairQueries;
          if (Ctx.resourceInterfere(V, Pin))
            continue;
          RegId Rep = Ctx.pinTogether(V, Pin);
          ++Tally.UsePinMerges;
          const DefSite &DS = Ctx.defSite(V);
          if (DS.Valid) {
            Instruction &DefI = const_cast<Instruction &>(*DS.I);
            for (unsigned D = 0; D < DefI.numDefs(); ++D)
              if (DefI.def(D) == V)
                DefI.pinDef(D, Rep);
          }
        }
      }
  }


  auto ProcessBlock = [&](BasicBlock *BB, int DepthFilter) {
    AffinityGraph G =
        createAffinityGraph(*BB, Ctx, LI, DepthFilter, Tally);
    initialPruning(G, Ctx, Tally);
    bipartitePruning(F, G, Ctx, Opts.Heuristic, Tally);
    mergeComponents(F, G, Ctx, Opts.PhysMergeMinMult, Tally);
  };

  if (Opts.DepthConstrained) {
    // Algorithm 3: process per definition depth, innermost first.
    unsigned MaxDepth = 0;
    for (const auto &BB : F.blocks())
      MaxDepth = std::max(MaxDepth, LI.depth(BB.get()));
    for (int D = static_cast<int>(MaxDepth); D >= 0; --D)
      for (BasicBlock *BB : Order)
        ProcessBlock(BB, D);
  } else {
    for (BasicBlock *BB : Order)
      ProcessBlock(BB, -1);
  }

  // Final gain: phi arguments that now share their result's resource.
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      RegId DefRes = Ctx.resourceOf(I.def(0));
      for (unsigned K = 0; K < I.numUses(); ++K)
        if (Ctx.resourceOf(I.use(K)) == DefRes)
          ++Tally.Gain;
    }
  LAO_STAT(phicoalesce, runs) += 1;
  LAO_STAT(phicoalesce, affinity_edges) += Tally.AffinityEdges;
  LAO_STAT(phicoalesce, initial_pruned) += Tally.InitialPruned;
  LAO_STAT(phicoalesce, weight_pruned) += Tally.WeightPruned;
  LAO_STAT(phicoalesce, merges) += Tally.Merges;
  LAO_STAT(phicoalesce, use_pin_merges) += Tally.UsePinMerges;
  LAO_STAT(phicoalesce, phys_deferred) += Tally.PhysDeferred;
  LAO_STAT(phicoalesce, safety_skips) += Tally.SafetySkips;
  LAO_STAT(phicoalesce, pair_queries) += Tally.PairQueries;
  LAO_STAT(phicoalesce, gain) += Tally.Gain;
}
