//===- SSAConstruction.cpp - Pruned SSA construction --------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ssa/SSAConstruction.h"

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "support/Stats.h"

#include <cassert>
#include <map>
#include <set>
#include <vector>

using namespace lao;

namespace {

/// Renaming state: one definition stack per original variable.
class Renamer {
public:
  Renamer(Function &F, const DominatorTree &DT, const CFG &Cfg,
          const std::map<const Instruction *, RegId> &PhiOriginal)
      : F(F), DT(DT), Cfg(Cfg), PhiOriginal(PhiOriginal) {
    Stacks.resize(F.numValues());
  }

  /// Renames every definition; returns how many fresh names it made.
  unsigned run() {
    renameBlock(&F.entry());
    return NumVarsRenamed;
  }

private:
  Function &F;
  const DominatorTree &DT;
  const CFG &Cfg;
  const std::map<const Instruction *, RegId> &PhiOriginal;
  std::vector<std::vector<RegId>> Stacks;
  unsigned NumVarsRenamed = 0;

  RegId top(RegId Orig) const {
    assert(!Stacks[Orig].empty() && "use of undefined variable");
    return Stacks[Orig].back();
  }

  RegId fresh(RegId Orig) {
    RegId New = F.makeVirtual(F.valueName(Orig));
    Stacks[Orig].push_back(New);
    ++NumVarsRenamed;
    return New;
  }

  void renameBlock(BasicBlock *BB) {
    // Record how many pushes this block makes per variable so they can be
    // popped on exit.
    std::vector<std::pair<RegId, size_t>> Pushed;

    auto pushDef = [&](Instruction &I, unsigned DefIdx) {
      RegId Orig = I.def(DefIdx);
      if (F.isPhysical(Orig))
        return;
      RegId New = F.makeVirtual(F.valueName(Orig));
      Stacks[Orig].push_back(New);
      Pushed.push_back({Orig, 1});
      ++NumVarsRenamed;
      I.setDef(DefIdx, New);
    };

    for (Instruction &I : BB->instructions()) {
      if (I.isPhi()) {
        // Phi defs are renamed here; args are filled from predecessors.
        pushDef(I, 0);
        continue;
      }
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId Orig = I.use(K);
        if (!F.isPhysical(Orig))
          I.setUse(K, top(Orig));
      }
      for (unsigned K = 0; K < I.numDefs(); ++K)
        pushDef(I, K);
    }

    // Fill phi arguments of successors with the current reaching names.
    for (BasicBlock *S : Cfg.succs(BB)) {
      for (Instruction &I : S->instructions()) {
        if (!I.isPhi())
          break;
        auto It = PhiOriginal.find(&I);
        assert(It != PhiOriginal.end() && "phi without original variable");
        RegId Orig = It->second;
        for (unsigned K = 0; K < I.numUses(); ++K)
          if (I.incomingBlock(K) == BB && I.use(K) == Orig)
            I.setUse(K, top(Orig));
      }
    }

    for (BasicBlock *Child : DT.children(BB))
      renameBlock(Child);

    for (auto &[Orig, Count] : Pushed)
      for (size_t K = 0; K < Count; ++K)
        Stacks[Orig].pop_back();
  }
};

} // namespace

void lao::buildSSA(Function &F) {
  unsigned NumPhisInserted = 0;
  CFG Cfg(F);
  DominatorTree DT(Cfg);
  DominanceFrontier DF(Cfg, DT);
  Liveness LV(Cfg);

  // Definition sites per virtual variable.
  size_t NumOrigValues = F.numValues();
  std::vector<std::set<BasicBlock *>> DefBlocks(NumOrigValues);
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (RegId D : I.defs())
        if (!F.isPhysical(D))
          DefBlocks[D].insert(BB.get());

  // Place phis at the iterated dominance frontier, pruned by liveness.
  // Remember each phi's original variable for argument filling.
  std::map<const Instruction *, RegId> PhiOriginal;
  for (RegId V = Target::NumPhysRegs; V < NumOrigValues; ++V) {
    if (DefBlocks[V].empty())
      continue;
    std::vector<BasicBlock *> Work(DefBlocks[V].begin(), DefBlocks[V].end());
    std::set<BasicBlock *> HasPhi;
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      for (BasicBlock *Join : DF.frontier(BB)) {
        if (HasPhi.count(Join))
          continue;
        if (!LV.isLiveIn(V, Join))
          continue; // Pruned SSA: dead at the join point.
        HasPhi.insert(Join);
        Instruction Phi(Opcode::Phi);
        Phi.addDef(V);
        for (BasicBlock *P : Cfg.preds(Join))
          Phi.addIncoming(V, P);
        auto Pos = Join->instructions().begin();
        auto Inserted = Join->insert(Pos, std::move(Phi));
        PhiOriginal[&*Inserted] = V;
        ++NumPhisInserted;
        if (!DefBlocks[V].count(Join)) {
          DefBlocks[V].insert(Join);
          Work.push_back(Join);
        }
      }
    }
  }

  unsigned NumVarsRenamed = Renamer(F, DT, Cfg, PhiOriginal).run();
  LAO_STAT(ssa, runs) += 1;
  LAO_STAT(ssa, phis_inserted) += NumPhisInserted;
  LAO_STAT(ssa, vars_renamed) += NumVarsRenamed;
}
