//===- LeungGeorgeTests.cpp - Out-of-pinned-SSA translation tests -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/MoveStats.h"
#include "workloads/PaperExamples.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

/// Runs split + pinningSP + translate + sequentialize on \p F and
/// returns the translation's counters.
StatsSnapshot translate(Function &F,
                        InterferenceMode Mode = InterferenceMode::Precise) {
  splitCriticalEdges(F);
  collectSPConstraints(F);
  CFG Cfg(F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  PinningContext Ctx(F, Cfg, DT, LV, Mode);
  StatsSnapshot Stats = countersOf([&] { translateOutOfSSA(F, Ctx, Cfg); });
  sequentializeParallelCopies(F);
  return Stats;
}

} // namespace

TEST(LeungGeorge, UnpinnedPhiBecomesPredCopies) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %x1 = make 1
  jump j
e:
  %x2 = make 2
  jump j
j:
  %x = phi [%x1, t], [%x2, e]
  output %x
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(Stats["translate.phis_removed"], 1u);
  EXPECT_EQ(Stats["translate.phi_copies"], 2u) << "one copy per predecessor";
  EXPECT_EQ(Stats["translate.repairs"], 0u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {1});
  expectEquivalent(*Before, *F, {0});
}

TEST(LeungGeorge, CoalescedPhiCostsNothing) {
  // All operands pre-pinned to one virtual resource: zero moves.
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %x1^w = make 1
  jump j
e:
  %x2^w = make 2
  jump j
j:
  %x^w = phi [%x1, t], [%x2, e]
  output %x
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(countMoves(*F), 0u);
  EXPECT_GE(Stats["translate.elided_copies"], 2u);
  expectEquivalent(*Before, *F, {1});
  expectEquivalent(*Before, *F, {0});
}

TEST(LeungGeorge, Figure3RepairAndElision) {
  auto F = makeFigure3();
  auto Before = cloneFunction(*F);
  splitCriticalEdges(*F);
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  PinningContext Ctx(*F, Cfg, DT, LV);
  StatsSnapshot Stats = countersOf([&] { translateOutOfSSA(*F, Ctx, Cfg); });
  sequentializeParallelCopies(*F);

  // x2 is killed by the call result x4 (both in R0's class) and used at
  // the return: exactly one repair.
  EXPECT_EQ(Stats["translate.repairs"], 1u);
  // The call's use of x2 pinned to R0 is elided (already in R0), as are
  // the phi copies whose values are produced in place.
  EXPECT_GE(Stats["translate.elided_copies"], 1u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {5, 9});
  expectEquivalent(*Before, *F, {0, 1});
}

TEST(LeungGeorge, Figure8PartialCoalescingMechanism) {
  // Manually pin z's definition to R0 (what a Chaitin coalescer on final
  // code can never do): both phi copies vanish, one repair move appears.
  auto F = makeFigure8();
  auto Before = cloneFunction(*F);

  // Count moves when z stays unpinned: one copy per predecessor plus
  // the pinned call argument and the pinned return value.
  {
    auto Unpinned = cloneFunction(*F);
    translate(*Unpinned);
    EXPECT_EQ(countMoves(*Unpinned), 4u);
  }

  // Pin z to R0 on its definition (the phi def).
  for (const auto &BB : F->blocks())
    for (Instruction &I : BB->instructions())
      if (I.isPhi())
        I.pinDef(0, Target::R0);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(Stats["translate.repairs"], 1u) << "z killed by the f3 call result";
  EXPECT_EQ(countMoves(*F), 2u)
      << "partial coalescing trades two phi moves and the call-argument "
         "copy for one repair plus the return-value copy";
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {7});
}

TEST(LeungGeorge, Figure12PinnedUseReadsOwnResource) {
  // Our reconstruction refinement: the repeated R0-pinned use reads x
  // from x's own resource each iteration (one move per iteration), with
  // no repair chain — matching the figure's "optimal" column.
  auto F = makeFigure12();
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(Stats["translate.repairs"], 0u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {3});
}

TEST(LeungGeorge, UsePinInsertsCopyOnlyWhenNeeded) {
  auto F = parse(R"(
func @f {
entry:
  input %a^R0, %b^R1
  %r^R0 = call @f(%a^R0, %b^R1)
  %s^R0 = call @g(%r^R0, %b^R1)
  ret %s^R0
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  // Every pinned value is produced in its target register already:
  // a arrives in R0, r and s are defined there, b stays in R1.
  EXPECT_EQ(countMoves(*F), 0u);
  EXPECT_GE(Stats["translate.elided_copies"], 5u);
  expectEquivalent(*Before, *F, {11, 22});
}

TEST(LeungGeorge, ArgShuffleUsesParallelCopy) {
  // Swapped argument registers at the second call force a parallel copy
  // (R0, R1) <- (R1, R0), sequentialized with a temp.
  auto F = parse(R"(
func @f {
entry:
  input %a^R0, %b^R1
  %r^R0 = call @f(%b^R0, %a^R1)
  ret %r^R0
}
)");
  auto Before = cloneFunction(*F);
  translate(*F);
  EXPECT_EQ(countMoves(*F), 3u) << "swap through a temporary";
  expectEquivalent(*Before, *F, {5, 6});
}

TEST(LeungGeorge, TwoOperandConstraintSatisfiedInPlace) {
  auto F = parse(R"(
func @f {
entry:
  input %a^R0
  %k = more %a^k, 7
  %q = autoadd %k^q, 4
  ret %q^R0
}
)");
  auto Before = cloneFunction(*F);
  collectABIConstraints(*F); // No-op here: pins already written.
  translate(*F);
  // a -> k needs one move (a is still live? no: a's last use is the
  // more). The chain then stays in place; only the final ret needs R0.
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {640});
}

TEST(LeungGeorge, SPChainStaysInSP) {
  auto F = parse(R"(
func @f {
entry:
  input %a^R0
  %sp1 = spadjust %SP, -16
  %sp2 = spadjust %sp1, 8
  %sp3 = spadjust %sp2, 8
  store %sp3, %a
  ret %a^R0
}
)");
  auto Before = cloneFunction(*F);
  translate(*F);
  EXPECT_EQ(countMoves(*F), 0u) << "the SP chain coalesces entirely";
  // All spadjusts now write SP itself.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::SpAdjust) {
        EXPECT_EQ(I.def(0), static_cast<RegId>(Target::SP));
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::SP));
      }
  expectEquivalent(*Before, *F, {77});
}

TEST(LeungGeorge, LostCopyProblem) {
  // x's old value is used after the loop; the phi overwrites it at the
  // latch. A repair keeps the translation correct.
  auto F = parse(R"(
func @f {
entry:
  input %n
  %x0^w = make 0
  jump head
head:
  %x^w = phi [%x0, entry], [%x2, latch]
  %x2^w = addi %x, 1
  %c = cmplt %x2, %n
  branch %c, latch, done
latch:
  jump head
done:
  output %x
  ret %x2
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  EXPECT_GE(Stats["translate.repairs"], 1u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {4});
  expectEquivalent(*Before, *F, {1});
}

TEST(LeungGeorge, SwapProblemThroughPhis) {
  auto F = parse(R"(
func @f {
entry:
  input %n
  %a0^u = make 1
  %b0^v = make 2
  %i0 = make 0
  jump head
head:
  %a^u = phi [%a0, entry], [%b, latch]
  %b^v = phi [%b0, entry], [%a, latch]
  %i = phi [%i0, entry], [%i2, latch]
  output %a
  %i2 = addi %i, 1
  %c = cmplt %i2, %n
  branch %c, latch, done
latch:
  jump head
done:
  ret %b
}
)");
  auto Before = cloneFunction(*F);
  translate(*F);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {3});
}

TEST(LeungGeorge, OutputHasNoPinsLeft) {
  auto F = makeFigure1();
  translate(*F);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions()) {
      for (unsigned K = 0; K < I.numDefs(); ++K)
        EXPECT_EQ(I.defPin(K), InvalidReg);
      for (unsigned K = 0; K < I.numUses(); ++K)
        EXPECT_EQ(I.usePin(K), InvalidReg);
    }
}

TEST(LeungGeorge, Figure1EndToEnd) {
  auto F = makeFigure1();
  auto Before = cloneFunction(*F);
  translate(*F);
  expectWellFormed(*F);
  // Every ABI-pinned operand now names its physical register.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Call) {
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::R0));
        EXPECT_EQ(I.use(1), static_cast<RegId>(Target::R1));
        EXPECT_EQ(I.def(0), static_cast<RegId>(Target::R0));
      }
  expectEquivalent(*Before, *F, {10, 2000});
}
