//===- ClassInterference.h - Dominance-ordered class interference *- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A class-vs-class interference engine that answers the paper's
/// Resource_interfere(A, B) with a single merged dominance-order sweep
/// over the two classes' definition sites instead of the O(|A|*|B|)
/// pairwise scan of Algorithm 2 — same verdicts, sublinear liveness
/// probes (see docs/ANALYSIS.md, "Class interference").
///
/// The exactness argument rests on two SSA facts:
///
///  1. *Dominance of live ranges.* In strict SSA over reachable blocks, a
///     value is live at a point only if its definition dominates that
///     point. Hence every class member that can be a Class 1 / Class 2
///     kill victim of a definition (or phi-copy slot) at point p has its
///     own definition on the dominator-tree path from the entry to p —
///     i.e. on the sweep's dominating-def stack when the sweep reaches p.
///
///  2. *Nearest-victim sufficiency.* Within one class the PinningContext
///     maintains the invariant "variableKills(X, Y) between same-class
///     members implies Y is in the killed set" (seeded with self-kills,
///     extended by every pinTogether). Consequently, if a *deeper* stack
///     entry W (non-killed, its def strictly dominating the nearest
///     non-killed entry W1 of the same class) were live at the probe
///     point, then W would also be live at W1's definition — the
///     dominator-tree path from def(W1) to the probe point can be chosen
///     through blocks dominated by def(W1).BB, which excludes def(W).BB,
///     so liveness extends def-free backwards — making variableKills(W1,
///     W) true and W killed: a contradiction. This holds in all three
///     InterferenceModes (for Optimistic/Pessimistic the same path
///     argument runs through isLiveOut/isLiveIn of def(W1).BB). So each
///     killer only probes the *topmost non-killed group* of the other
///     class's stack.
///
/// Definitions that execute in parallel (phis of one block; the several
/// results of one instruction) share one *group* keyed (preorder of the
/// defining block, intra-block key) with phis ordered before non-phis,
/// so parallel defs never pop — or probe — each other. Class 2 phi
/// copies are swept as *slot items* placed at the end of each phi's
/// predecessor block, probing the topmost other-class group for values
/// live out of the predecessor that are not the flowing value. Strong
/// interference (Cases 3/4, multi-result instructions) needs no liveness
/// at all and is answered from per-class digests merged on pinTogether:
/// phi-block id sets, multi-def instruction sets, and per-predecessor
/// incoming-value summaries.
///
/// Verdicts are memoized per representative pair; a pinTogether merge
/// evicts exactly the cached pairs touching either merged representative
/// (kills are only ever added to the merged class, so third-party
/// verdicts cannot change). Functions with non-empty unreachable blocks
/// void fact 1 above; the engine reports !usable() and PinningContext
/// falls back to the pairwise scan wholesale.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_CLASSINTERFERENCE_H
#define LAO_OUTOFSSA_CLASSINTERFERENCE_H

#include "analysis/Dominators.h"
#include "analysis/LivenessQuery.h"
#include "ir/CFG.h"
#include "ir/Function.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace lao {

class PinningContext;

/// Dominance-ordered interference engine over one PinningContext. Built
/// lazily at the first resourceInterfere query; PinningContext keeps it
/// informed of class merges through onMerge.
class ClassInterference {
public:
  ClassInterference(const PinningContext &Ctx, const CFG &Cfg,
                    const DominatorTree &DT, const LivenessQuery &LV);
  ~ClassInterference(); ///< Flushes the local counters into LAO_STATs.

  /// False when the function has a non-empty unreachable block (liveness
  /// is then not confined to dominator subtrees and the sweep would be
  /// unsound); the caller must use the pairwise scan instead.
  bool usable() const { return Usable; }

  /// Resource_interfere over two *distinct current representatives*, not
  /// both physical. Memoized; bit-equal to the pairwise scan.
  bool interfere(RegId RA, RegId RB);

  /// Must be called after every effective PinningContext merge, with the
  /// two pre-merge representatives: evicts the cached verdicts touching
  /// either and merges the loser's summaries into the survivor's.
  void onMerge(RegId OldA, RegId OldB);

  /// Engine-local counters (process-wide totals go to the stats
  /// registry; these feed PinningContext::interferenceReport()).
  struct Counters {
    uint64_t Queries = 0;      ///< Uncached interfere() computations.
    uint64_t CacheHits = 0;
    uint64_t CacheEvictions = 0;
    uint64_t Sweeps = 0;       ///< Queries that reached the sweep.
    uint64_t Probes = 0;       ///< Liveness probes issued by sweeps.
    uint64_t PairCost = 0;     ///< Sum of |A|*|B| over swept queries:
                               ///< the pairwise scan's probe bound.
  };
  const Counters &counters() const { return Stats; }

private:
  /// One member definition, keyed for the dominance-order walk. Key =
  /// (dom-tree preorder of the defining block) << 32 | intra-block key,
  /// where phis get intra-block key 0 (they define at block entry, in
  /// parallel) and a non-phi at instruction index i gets i + 1. Equal
  /// keys = parallel definitions = one group.
  struct DefItem {
    uint64_t Key;
    uint32_t PreOut; ///< preorderLimit of the defining block.
    RegId V;
  };

  /// One Class 2 phi-copy slot: the parallel copy writing the class's
  /// resource at the end of predecessor Pred. Keyed after every
  /// definition of that block (intra-block key 0xffffffff).
  struct SlotItem {
    uint64_t Key;
    uint32_t PreOut; ///< preorderLimit of Pred.
    const BasicBlock *Pred;
    RegId Incoming; ///< The value flowing through the copy (never a
                    ///< victim of this slot).
  };

  /// Per-predecessor-block digest of a class's phi incoming values, for
  /// the Case 3 strong check: either the single distinct value the
  /// class's phis read from Block, or Multi when they read two or more.
  struct PredArg {
    uint32_t Block;
    RegId Val;
    bool Multi;
  };

  /// Summaries of one class, indexed by current representative. All
  /// vectors sorted; onMerge merge-joins them in linear time.
  struct ClassData {
    std::vector<DefItem> Items;
    std::vector<SlotItem> Slots;
    std::vector<const Instruction *> MultiDefs; ///< Instrs with >= 2 results.
    std::vector<uint32_t> PhiBlocks;            ///< Blocks with a phi def.
    std::vector<PredArg> PredArgs;
  };

  /// The dominating-def stack of one class during a sweep: a dominance
  /// chain of non-killed member groups. Only the top group is ever
  /// probed (nearest-victim sufficiency).
  struct VictimStack {
    struct Group {
      uint64_t Key;
      uint32_t PreOut;
      uint32_t Begin; ///< First member index in Vals.
    };
    std::vector<Group> Groups;
    std::vector<RegId> Vals;

    void clear() {
      Groups.clear();
      Vals.clear();
    }
    /// Pops every group whose position does not dominate (PreIn, SubKey,
    /// PreOut) — after which the stack is exactly the dominator chain of
    /// the current sweep position.
    void popTo(uint32_t PreIn, uint32_t SubKey, uint32_t PreOut);
  };

  bool computeUncached(RegId RA, RegId RB);
  bool strongInterfere(const ClassData &A, const ClassData &B) const;
  bool sweep(RegId RA, RegId RB);
  bool class1Probe(RegId Victim, RegId Killer);
  void evict(RegId R);
  void buildSummaries();

  static uint64_t pairKey(RegId A, RegId B) {
    if (A < B)
      std::swap(A, B);
    return (uint64_t(A) << 32) | B;
  }

  const PinningContext &Ctx;
  const CFG &Cfg;
  const DominatorTree &DT;
  const LivenessQuery &LV;
  bool Usable = true;

  std::vector<ClassData> Data; ///< Indexed by representative.
  std::unordered_map<uint64_t, bool> Cache;
  std::vector<std::vector<RegId>> Partners; ///< Cached partners per rep.

  VictimStack StackA, StackB; ///< Reused across sweeps.
  Counters Stats;
};

} // namespace lao

#endif // LAO_OUTOFSSA_CLASSINTERFERENCE_H
