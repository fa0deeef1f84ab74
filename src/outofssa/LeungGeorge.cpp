//===- LeungGeorge.cpp - Out-of-pinned-SSA translation -------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/LeungGeorge.h"

#include "support/Stats.h"

#include <cassert>
#include <deque>
#include <map>
#include <set>

using namespace lao;

namespace {

/// Abstract state of the mark phase: for each *written* resource-class
/// slot (compactly renumbered, see SlotOf), the SSA variable whose value
/// the resource currently holds. Two sentinels: BottomHolder
/// (== InvalidReg, "conflicting values") and AbsentHolder ("never
/// written on some path"). They are distinct lattice points —
/// absent-meet-absent stays absent while any disagreement bottoms out —
/// but both mean "not holding anything" to queries.
using HolderState = std::vector<RegId>;

constexpr RegId BottomHolder = InvalidReg;
constexpr RegId AbsentHolder = InvalidReg - 1;
constexpr uint32_t NoSlot = ~0u;

class Translator {
public:
  Translator(Function &F, PinningContext &Ctx, const CFG &Cfg)
      : F(F), Ctx(Ctx), Cfg(Cfg), NumOrigValues(F.numValues()) {}

  void run() {
    solve();
    replay(/*Rewrite=*/false);
    for (RegId V : RepairNeeded)
      RepairVar[V] = F.makeVirtual(F.valueName(V) + ".r");
    replay(/*Rewrite=*/true);

    LAO_STAT(translate, runs) += 1;
    LAO_STAT(translate, repairs) += RepairNeeded.size();
    LAO_STAT(translate, phi_copies) += NumPhiCopies;
    LAO_STAT(translate, pin_copies) += NumPinCopies;
    LAO_STAT(translate, elided_copies) += NumElidedCopies;
    LAO_STAT(translate, phis_removed) += NumPhisRemoved;
    LAO_STAT(translate, inserts) += NumInserts;
  }

private:
  Function &F;
  PinningContext &Ctx;
  const CFG &Cfg;
  size_t NumOrigValues;

  /// Rewrite-mode tallies, published by run() to the translate.*
  /// counters (the repair count is RepairNeeded's size).
  unsigned NumPhiCopies = 0, NumPinCopies = 0, NumElidedCopies = 0;
  unsigned NumPhisRemoved = 0, NumInserts = 0;

  /// Compact renumbering of written resource slots: SlotOf[Res] is the
  /// dense state index of resource representative Res, or NoSlot if no
  /// instruction ever writes it. Dataflow states only carry written
  /// slots — every query resolves through a definition, a use pin or a
  /// phi, all of which write their slot, so unwritten slots are Absent
  /// everywhere and need no storage.
  std::vector<uint32_t> SlotOf;
  uint32_t NumSlots = 0;

  /// Per-block transfer effects. The writes a block performs are
  /// state-independent (slot, value) pairs, so the transfer function is
  /// "apply this delta list in order" — no instruction walk per
  /// dataflow iteration.
  std::vector<std::vector<std::pair<uint32_t, RegId>>> Deltas;

  std::vector<HolderState> In, Out;
  std::vector<bool> Visited;
  std::set<RegId> RepairNeeded;
  std::map<RegId, RegId> RepairVar;

  RegId repOf(RegId V) const {
    assert(V < NumOrigValues && "querying a synthesized variable");
    return Ctx.resourceOf(V);
  }

  uint32_t slotOf(RegId Res) const {
    assert(Res < SlotOf.size() && SlotOf[Res] != NoSlot &&
           "query on a never-written resource slot");
    return SlotOf[Res];
  }

  static RegId holderOfSlot(const HolderState &S, uint32_t Slot) {
    RegId H = S[Slot];
    // BottomHolder already is InvalidReg; only Absent needs mapping.
    return H == AbsentHolder ? InvalidReg : H;
  }

  RegId holderOf(const HolderState &S, RegId Res) const {
    return holderOfSlot(S, slotOf(Res));
  }

  /// Location of \p V's value under \p S: its resource if the resource
  /// still holds it, otherwise its repair variable. In mark mode a miss
  /// records the repair requirement instead.
  RegId locOf(RegId V, const HolderState &S, bool Rewrite) {
    if (F.isPhysical(V))
      return V;
    RegId Res = repOf(V);
    if (holderOf(S, Res) == V)
      return Res;
    if (!Rewrite) {
      RepairNeeded.insert(V);
      return Res;
    }
    auto It = RepairVar.find(V);
    assert(It != RepairVar.end() && "repair variable missing");
    return It->second;
  }

  /// The parallel-copy state updates performed at the end of \p BB for
  /// the phis of its successors.
  void applyPhiCopyUpdates(const BasicBlock *BB, HolderState &S) {
    for (BasicBlock *Succ : BB->successors())
      for (const Instruction &I : Succ->instructions()) {
        if (!I.isPhi())
          break;
        S[slotOf(repOf(I.def(0)))] = I.def(0);
      }
  }

  uint32_t internSlot(RegId Res) {
    if (SlotOf[Res] == NoSlot)
      SlotOf[Res] = NumSlots++;
    return SlotOf[Res];
  }

  /// One pass over the function: assigns compact indices to every
  /// written slot (in first-write order, deterministic) and records each
  /// block's delta list, mirroring the replay state updates exactly.
  void buildSlotsAndDeltas() {
    SlotOf.assign(F.numValues(), NoSlot);
    NumSlots = 0;
    Deltas.assign(F.numBlocks(), {});
    for (const auto &BBPtr : F.blocks()) {
      auto &D = Deltas[BBPtr->id()];
      for (const Instruction &I : BBPtr->instructions()) {
        if (I.isPhi()) {
          D.push_back({internSlot(repOf(I.def(0))), I.def(0)});
          continue;
        }
        if (I.isTerminator()) // Phi-related parallel copies at block end.
          for (BasicBlock *Succ : BBPtr->successors())
            for (const Instruction &Phi : Succ->instructions()) {
              if (!Phi.isPhi())
                break;
              D.push_back({internSlot(repOf(Phi.def(0))), Phi.def(0)});
            }
        for (unsigned K = 0; K < I.numUses(); ++K)
          if (I.usePin(K) != InvalidReg)
            D.push_back({internSlot(repOf(I.usePin(K))), I.use(K)});
        for (RegId Dv : I.defs())
          D.push_back(
              {internSlot(F.isPhysical(Dv) ? Ctx.resourceOf(Dv) : repOf(Dv)),
               Dv});
      }
    }
  }

  /// Forward dataflow to the maximum fixpoint. The lattice is flat and
  /// the transfer functions are slot-wise constant-or-identity, so the
  /// fixpoint is unique — worklist order does not affect the result,
  /// only how fast it converges. Unvisited predecessors are ignored
  /// (optimistic start), exactly like the former round-robin solver; the
  /// entry block merges an extra "function start" path on which nothing
  /// holds a value, which bottoms out values flowing around a loop back
  /// to the entry.
  void solve() {
    buildSlotsAndDeltas();
    size_t NB = F.numBlocks();
    In.assign(NB, HolderState(NumSlots, AbsentHolder));
    Out.assign(NB, HolderState(NumSlots, AbsentHolder));
    Visited.assign(NB, false);

    std::vector<char> InList(NB, true);
    std::deque<BasicBlock *> Worklist;
    for (BasicBlock *BB : Cfg.rpo())
      Worklist.push_back(BB);

    HolderState NewIn;
    while (!Worklist.empty()) {
      BasicBlock *BB = Worklist.front();
      Worklist.pop_front();
      InList[BB->id()] = false;

      bool Merged = false;
      if (BB == &F.entry()) {
        NewIn.assign(NumSlots, AbsentHolder);
        Merged = true;
      }
      for (BasicBlock *P : Cfg.preds(BB)) {
        if (!Visited[P->id()])
          continue;
        const HolderState &PO = Out[P->id()];
        if (!Merged) {
          NewIn = PO;
          Merged = true;
        } else {
          for (size_t K = 0; K < NumSlots; ++K)
            if (NewIn[K] != PO[K])
              NewIn[K] = BottomHolder;
        }
      }
      if (!Merged) // Unreachable block: only the all-absent state.
        NewIn.assign(NumSlots, AbsentHolder);

      bool First = !Visited[BB->id()];
      Visited[BB->id()] = true;
      if (!First && NewIn == In[BB->id()])
        continue;
      In[BB->id()] = NewIn;

      for (const auto &[Slot, V] : Deltas[BB->id()])
        NewIn[Slot] = V; // NewIn now holds the block's Out.
      if (First || NewIn != Out[BB->id()]) {
        Out[BB->id()] = NewIn;
        for (BasicBlock *S : BB->successors())
          if (!InList[S->id()]) {
            Worklist.push_back(S);
            InList[S->id()] = true;
          }
      }
    }
  }

  /// Walks every block with the solved In state. In mark mode (Rewrite ==
  /// false) it records which variables need repairs; in rewrite mode it
  /// rebuilds each block's sequence by *relinking* retained instructions
  /// into a staging list (an O(1) splice per instruction — records never
  /// move or copy) and inserting the parallel copies and repairs. Phis
  /// and identity moves stay behind and are freed when the staged list
  /// is installed. Installation happens only after all blocks are
  /// processed: building a predecessor's parallel copy needs the
  /// successor's phis.
  void replay(bool Rewrite) {
    std::vector<BasicBlock::InstList> NewLists;
    NewLists.reserve(F.numBlocks());
    for (size_t I = 0; I < F.numBlocks(); ++I)
      NewLists.emplace_back(&F);
    for (const auto &BBPtr : F.blocks())
      replayBlock(BBPtr.get(), Rewrite, NewLists[BBPtr->id()]);
    if (Rewrite)
      for (const auto &BBPtr : F.blocks())
        BBPtr->instructions() = std::move(NewLists[BBPtr->id()]);
  }

  /// Emits (in rewrite mode) the repair copy for \p V right after its
  /// definition point.
  void emitRepair(RegId V, BasicBlock::InstList &NewList) {
    Instruction Copy(Opcode::Mov);
    Copy.addDef(RepairVar.at(V));
    Copy.addUse(repOf(V));
    NewList.push_back(std::move(Copy));
    ++NumInserts;
  }

  void replayBlock(BasicBlock *BB, bool Rewrite,
                   BasicBlock::InstList &NewList) {
    HolderState S = In[BB->id()];
    std::vector<RegId> PendingPhiRepairs;
    bool InPhiGroup = true;

    auto &Insts = BB->instructions();
    for (auto It = Insts.begin(); It != Insts.end();) {
      Instruction &I = *It;
      auto Next = std::next(It);
      if (I.isPhi()) {
        assert(InPhiGroup && "phi after non-phi");
        S[slotOf(repOf(I.def(0)))] = I.def(0);
        if (Rewrite) {
          if (RepairNeeded.count(I.def(0)))
            PendingPhiRepairs.push_back(I.def(0));
          ++NumPhisRemoved;
        }
        It = Next;
        continue;
      }
      if (InPhiGroup) {
        InPhiGroup = false;
        if (Rewrite)
          for (RegId V : PendingPhiRepairs)
            emitRepair(V, NewList);
      }

      // Phi-related parallel copy at block end (before the terminator).
      if (I.isTerminator()) {
        Instruction ParCopy(Opcode::ParCopy);
        for (BasicBlock *Succ : BB->successors()) {
          for (const Instruction &Phi : Succ->instructions()) {
            if (!Phi.isPhi())
              break;
            RegId X = Phi.def(0);
            RegId Dst = repOf(X);
            // Find the argument flowing along this edge.
            RegId Arg = InvalidReg;
            for (unsigned K = 0; K < Phi.numUses(); ++K)
              if (Phi.incomingBlock(K) == BB) {
                Arg = Phi.use(K);
                break;
              }
            assert(Arg != InvalidReg && "phi lacks entry for predecessor");
            if (holderOf(S, Dst) == Arg) {
              // The destination resource already carries the flowing
              // value: elide the copy (paper Section 2.3, second bullet).
              if (Rewrite)
                ++NumElidedCopies;
              continue;
            }
            RegId Src = locOf(Arg, S, Rewrite);
            if (Src == Dst) {
              if (Rewrite)
                ++NumElidedCopies;
              continue;
            }
            ParCopy.addDef(Dst);
            ParCopy.addUse(Src);
          }
        }
        applyPhiCopyUpdates(BB, S);
        if (Rewrite && ParCopy.numDefs() != 0) {
          NumPhiCopies += ParCopy.numDefs();
          NewList.push_back(std::move(ParCopy));
          ++NumInserts;
        }
      }

      // Uses. The pin copies execute (in parallel) immediately before
      // the instruction: build them against the pre-copy state, then
      // apply their effect, then resolve every operand against the
      // post-copy state — an unpinned use whose resource was just
      // clobbered by a sibling's pin copy must read its repair.
      const std::vector<RegId> OrigUses(I.uses().begin(), I.uses().end());
      Instruction PinCopy(Opcode::ParCopy);
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId V = OrigUses[K];
        RegId Pin = I.usePin(K);
        if (Pin == InvalidReg)
          continue;
        RegId PinRes = repOf(Pin);
        RegId Loc = F.isPhysical(V) ? V : locOf(V, S, Rewrite);
        if (holderOf(S, PinRes) == V || Loc == PinRes) {
          if (Rewrite)
            ++NumElidedCopies;
          continue;
        }
        // Copy the value into the pinned resource.
        bool Dup = false;
        for (unsigned D = 0; D < PinCopy.numDefs() && !Dup; ++D)
          Dup = PinCopy.def(D) == PinRes;
        if (!Dup) {
          PinCopy.addDef(PinRes);
          PinCopy.addUse(Loc);
        }
      }
      // Pin-copy state updates (value now also in the pinned resource).
      for (unsigned K = 0; K < I.numUses(); ++K)
        if (I.usePin(K) != InvalidReg)
          S[slotOf(repOf(I.usePin(K)))] = OrigUses[K];
      if (Rewrite && PinCopy.numDefs() != 0) {
        NumPinCopies += PinCopy.numDefs();
        NewList.push_back(std::move(PinCopy));
        ++NumInserts;
      }
      // Resolve operands under the post-copy state.
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId V = OrigUses[K];
        RegId Pin = I.usePin(K);
        if (Pin != InvalidReg) {
          if (Rewrite)
            I.setUse(K, repOf(Pin));
          continue;
        }
        RegId Loc = F.isPhysical(V) ? V : locOf(V, S, Rewrite);
        if (Rewrite)
          I.setUse(K, Loc);
      }

      // Defs: rename to the class representative.
      std::vector<RegId> RepairsAfter;
      for (unsigned K = 0; K < I.numDefs(); ++K) {
        RegId D = I.def(K);
        RegId Res = repOf(D);
        S[slotOf(Res)] = D;
        if (Rewrite) {
          I.setDef(K, Res);
          if (RepairNeeded.count(D))
            RepairsAfter.push_back(D);
        }
      }

      if (Rewrite) {
        // Relink the (renamed-in-place) instruction into the staged
        // list; moves that became identities through renaming stay
        // behind and are freed when the staged list is installed.
        bool Identity = I.isCopy() && I.def(0) == I.use(0);
        if (!Identity)
          NewList.splice(NewList.end(), Insts, It);
        for (RegId V : RepairsAfter)
          emitRepair(V, NewList);
      }
      It = Next;
    }

    // Clear pins: the output is no longer pinned SSA. The new list is
    // installed by replay() once every block has been processed.
    if (Rewrite) {
      for (Instruction &I : NewList) {
        for (unsigned K = 0; K < I.numDefs(); ++K)
          I.pinDef(K, InvalidReg);
        for (unsigned K = 0; K < I.numUses(); ++K)
          I.pinUse(K, InvalidReg);
      }
    }
  }
};

} // namespace

void lao::translateOutOfSSA(Function &F, PinningContext &Ctx,
                            const CFG &Cfg) {
  Translator(F, Ctx, Cfg).run();
}

void lao::sequentializeCopyPairs(std::vector<CopyPair> Entries,
                                 const std::function<RegId()> &MakeTemp,
                                 std::vector<CopyPair> &Out) {
  while (!Entries.empty()) {
    // Emit a copy whose destination is not needed as a source.
    bool Progress = false;
    for (size_t K = 0; K < Entries.size(); ++K) {
      RegId Dst = Entries[K].first;
      bool DstIsSource = false;
      for (auto &[D2, S2] : Entries)
        DstIsSource |= S2 == Dst;
      if (DstIsSource)
        continue;
      Out.push_back(Entries[K]);
      Entries.erase(Entries.begin() + K);
      Progress = true;
      break;
    }
    if (Progress)
      continue;
    // Pure cycle: break it with a temporary (the swap problem).
    RegId CycleSrc = Entries.front().second;
    RegId Tmp = MakeTemp();
    Out.push_back({Tmp, CycleSrc});
    for (auto &[D2, S2] : Entries)
      if (S2 == CycleSrc)
        S2 = Tmp;
  }
}

unsigned lao::sequentializeParallelCopies(Function &F) {
  unsigned NumMoves = 0;
  for (const auto &BB : F.blocks()) {
    auto &Insts = BB->instructions();
    for (auto It = Insts.begin(); It != Insts.end();) {
      if (!It->isParCopy()) {
        ++It;
        continue;
      }
      // Gather entries, dropping identities.
      std::vector<CopyPair> Entries; // (dst, src)
      for (unsigned K = 0; K < It->numDefs(); ++K)
        if (It->def(K) != It->use(K))
          Entries.push_back({It->def(K), It->use(K)});

      std::vector<CopyPair> Seq;
      sequentializeCopyPairs(std::move(Entries),
                             [&F] { return F.makeVirtual("swap"); }, Seq);

      NumMoves += Seq.size();
      for (auto &[Dst, Src] : Seq) {
        Instruction Mv(Opcode::Mov);
        Mv.addDef(Dst);
        Mv.addUse(Src);
        Insts.insert(It, std::move(Mv));
      }
      It = Insts.erase(It);
    }
  }
  LAO_STAT(sequentialize, moves_emitted) += NumMoves;
  return NumMoves;
}
