//===- IfConversion.cpp - Diamond if-conversion to psi --------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ssa/IfConversion.h"

#include "ir/CFG.h"
#include "support/Stats.h"

#include <cassert>

using namespace lao;

namespace {

bool isSpeculationSafe(const Instruction &I) {
  switch (I.op()) {
  case Opcode::Mov:
  case Opcode::Make:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::AddI:
  case Opcode::CmpLT:
  case Opcode::CmpEQ:
  case Opcode::More:
  case Opcode::Psi:
    return true;
  default:
    return false;
  }
}

/// True if \p Arm is convertible: only safe instructions (at most
/// \p MaxArmInsts) followed by a jump.
bool armConvertible(const BasicBlock *Arm, unsigned MaxArmInsts) {
  unsigned Count = 0;
  for (const Instruction &I : Arm->instructions()) {
    if (I.isTerminator())
      return I.op() == Opcode::Jump;
    if (I.isPhi() || !isSpeculationSafe(I) || ++Count > MaxArmInsts)
      return false;
  }
  return false; // No terminator: malformed.
}

/// Moves all non-terminator instructions of \p Arm before \p Pos in
/// \p Dst.
void hoistArm(BasicBlock *Arm, BasicBlock *Dst,
              BasicBlock::InstList::iterator Pos) {
  auto &Src = Arm->instructions();
  for (auto It = Src.begin(); It != Src.end();) {
    if (It->isTerminator())
      break;
    auto Next = std::next(It);
    Dst->instructions().splice(Pos, Src, It);
    It = Next;
  }
}

/// Threads single-predecessor, jump-only blocks (the husks inner
/// conversions leave as joins): the predecessor branches directly to the
/// final target, making outer diamonds visible. Returns true on change.
bool threadTrivialJumps(Function &F, const CFG &Cfg) {
  bool Changed = false;
  for (const auto &BBPtr : F.blocks()) {
    BasicBlock *B = BBPtr.get();
    if (!Cfg.isReachable(B) || B == &F.entry())
      continue;
    if (B->instructions().size() != 1 ||
        B->front().op() != Opcode::Jump)
      continue;
    BasicBlock *T = B->front().target(0);
    if (T == B || Cfg.preds(B).size() != 1)
      continue;
    BasicBlock *P = Cfg.preds(B)[0];
    // Avoid creating parallel edges (phi incoming lists would need
    // duplicate entries).
    bool AlreadyPred = false;
    for (BasicBlock *Q : Cfg.preds(T))
      AlreadyPred |= Q == P;
    if (AlreadyPred)
      continue;
    Instruction &PTerm = P->terminator();
    for (unsigned K = 0; K < 2; ++K)
      if ((PTerm.op() == Opcode::Jump && K == 0) ||
          PTerm.op() == Opcode::Branch)
        if (PTerm.target(K) == B)
          PTerm.setTarget(K, T);
    for (Instruction &I : T->instructions()) {
      if (!I.isPhi())
        break;
      for (unsigned K = 0; K < I.numUses(); ++K)
        if (I.incomingBlock(K) == B)
          I.setIncomingBlock(K, P);
    }
    // Neuter the threaded block: it must not keep its edge into T.
    B->instructions().clear();
    RegId Zero = F.makeVirtual("husk");
    Instruction Mk(Opcode::Make);
    Mk.addDef(Zero);
    Mk.setImm(0);
    B->append(std::move(Mk));
    Instruction Rt(Opcode::Ret);
    Rt.addUse(Zero);
    B->append(std::move(Rt));
    Changed = true;
    return true; // CFG snapshot is stale; caller restarts.
  }
  return Changed;
}

} // namespace

void lao::convertIfsToPsi(Function &F, unsigned MaxArmInsts) {
  unsigned NumDiamonds = 0, NumTriangles = 0, NumPsis = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    CFG Cfg(F);
    if (threadTrivialJumps(F, Cfg)) {
      Changed = true;
      continue;
    }
    for (const auto &BBPtr : F.blocks()) {
      BasicBlock *H = BBPtr.get();
      if (!Cfg.isReachable(H) || !H->hasTerminator())
        continue;
      Instruction &Term = H->terminator();
      if (Term.op() != Opcode::Branch || Term.target(0) == Term.target(1))
        continue;
      RegId Cond = Term.use(0);
      BasicBlock *T = Term.target(0);
      BasicBlock *E = Term.target(1);

      // Diamond: H -> {T, E} -> J.
      bool Diamond = Cfg.preds(T).size() == 1 && Cfg.preds(E).size() == 1 &&
                     armConvertible(T, MaxArmInsts) &&
                     armConvertible(E, MaxArmInsts) &&
                     T->terminator().target(0) ==
                         E->terminator().target(0) &&
                     T->terminator().target(0) != H;
      // Triangle: H -> T -> J and H -> J (or the mirrored form).
      bool TriangleThen = !Diamond && Cfg.preds(T).size() == 1 &&
                          armConvertible(T, MaxArmInsts) &&
                          T->terminator().target(0) == E && E != H;
      bool TriangleElse = !Diamond && !TriangleThen &&
                          Cfg.preds(E).size() == 1 &&
                          armConvertible(E, MaxArmInsts) &&
                          E->terminator().target(0) == T && T != H;

      BasicBlock *Join = nullptr;
      if (Diamond)
        Join = T->terminator().target(0);
      else if (TriangleThen)
        Join = E;
      else if (TriangleElse)
        Join = T;
      else
        continue;

      // The join must merge exactly the converted paths.
      if (Cfg.preds(Join).size() != 2)
        continue;

      // Every phi of the join must have an entry for each converted
      // path; convert them into psi instructions at the end of H.
      auto BranchPos = std::prev(H->instructions().end());
      if (Diamond) {
        hoistArm(T, H, BranchPos);
        hoistArm(E, H, BranchPos);
      } else {
        hoistArm(TriangleThen ? T : E, H, BranchPos);
      }

      for (auto It = Join->instructions().begin();
           It != Join->instructions().end();) {
        if (!It->isPhi())
          break;
        RegId FromThen = InvalidReg, FromElse = InvalidReg;
        for (unsigned K = 0; K < It->numUses(); ++K) {
          const BasicBlock *In = It->incomingBlock(K);
          if (Diamond) {
            if (In == T)
              FromThen = It->use(K);
            else if (In == E)
              FromElse = It->use(K);
          } else if (TriangleThen) {
            if (In == T)
              FromThen = It->use(K);
            else if (In == H)
              FromElse = It->use(K);
          } else {
            if (In == E)
              FromElse = It->use(K);
            else if (In == H)
              FromThen = It->use(K);
          }
        }
        assert(FromThen != InvalidReg && FromElse != InvalidReg &&
               "join phi lacks an entry for a converted path");
        Instruction Psi(Opcode::Psi);
        Psi.addDef(It->def(0));
        Psi.addUse(Cond);
        Psi.addUse(FromThen);
        Psi.addUse(FromElse);
        H->insert(BranchPos, std::move(Psi));
        ++NumPsis;
        It = Join->instructions().erase(It);
      }

      // Replace the branch with a direct jump. The converted arms stay
      // as unreachable husks (block ids are stable), but they must not
      // keep edges into the join — rewrite each into a self-contained
      // return so no spurious predecessors survive.
      Instruction Jump(Opcode::Jump);
      Jump.setTarget(0, Join);
      H->instructions().pop_back();
      H->append(std::move(Jump));
      auto NeuterArm = [&](BasicBlock *Arm) {
        Arm->instructions().clear();
        RegId Zero = F.makeVirtual("husk");
        Instruction Mk(Opcode::Make);
        Mk.addDef(Zero);
        Mk.setImm(0);
        Arm->append(std::move(Mk));
        Instruction Rt(Opcode::Ret);
        Rt.addUse(Zero);
        Arm->append(std::move(Rt));
      };
      if (Diamond) {
        NeuterArm(T);
        NeuterArm(E);
      } else {
        NeuterArm(TriangleThen ? T : E);
      }

      if (Diamond)
        ++NumDiamonds;
      else
        ++NumTriangles;
      Changed = true;
      break; // CFG snapshot is stale; restart the scan.
    }
  }
  LAO_STAT(ifconvert, runs) += 1;
  LAO_STAT(ifconvert, diamonds) += NumDiamonds;
  LAO_STAT(ifconvert, triangles) += NumTriangles;
  LAO_STAT(ifconvert, psis) += NumPsis;
}
