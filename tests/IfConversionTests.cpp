//===- IfConversionTests.cpp - Predication (psi-SSA) tests ------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "outofssa/Pipeline.h"
#include "ssa/IfConversion.h"
#include "ssa/SSAVerifier.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

unsigned countPsis(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      N += I.op() == Opcode::Psi;
  return N;
}

} // namespace

TEST(IfConversion, ConvertsSimpleDiamond) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %c = cmplt %a, %b
  branch %c, t, e
t:
  %x1 = addi %a, 10
  jump j
e:
  %x2 = addi %b, 20
  jump j
j:
  %x = phi [%x1, t], [%x2, e]
  output %x
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = countersOf([&] { convertIfsToPsi(*F); });
  EXPECT_EQ(Stats["ifconvert.diamonds"], 1u);
  EXPECT_EQ(Stats["ifconvert.psis"], 1u);
  EXPECT_EQ(countPsis(*F), 1u);
  expectWellFormed(*F);
  EXPECT_TRUE(verifySSA(*F).empty());
  expectEquivalent(*Before, *F, {1, 2});
  expectEquivalent(*Before, *F, {2, 1});
}

TEST(IfConversion, ConvertsTriangle) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %c = cmplt %a, %b
  branch %c, t, j
t:
  %x1 = mul %a, %b
  jump j
j:
  %x = phi [%x1, t], [%a, entry]
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = countersOf([&] { convertIfsToPsi(*F); });
  EXPECT_EQ(Stats["ifconvert.triangles"], 1u);
  EXPECT_EQ(countPsis(*F), 1u);
  EXPECT_TRUE(verifySSA(*F).empty());
  expectEquivalent(*Before, *F, {3, 9});
  expectEquivalent(*Before, *F, {9, 3});
}

TEST(IfConversion, MultiplePhisBecomeMultiplePsis) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %c = cmpeq %a, %b
  branch %c, t, e
t:
  %x1 = addi %a, 1
  %y1 = addi %a, 2
  jump j
e:
  %x2 = addi %b, 3
  %y2 = addi %b, 4
  jump j
j:
  %x = phi [%x1, t], [%x2, e]
  %y = phi [%y1, t], [%y2, e]
  %s = add %x, %y
  ret %s
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = countersOf([&] { convertIfsToPsi(*F); });
  EXPECT_EQ(Stats["ifconvert.psis"], 2u);
  expectEquivalent(*Before, *F, {5, 5});
  expectEquivalent(*Before, *F, {5, 6});
}

TEST(IfConversion, RefusesSideEffectingArms) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %p
  %c = cmplt %a, %p
  branch %c, t, e
t:
  %x1 = call @f(%a)
  jump j
e:
  %x2 = addi %a, 1
  jump j
j:
  %x = phi [%x1, t], [%x2, e]
  ret %x
}
)");
  StatsSnapshot Stats = countersOf([&] { convertIfsToPsi(*F); });
  EXPECT_EQ(Stats["ifconvert.diamonds"], 0u);
  EXPECT_EQ(countPsis(*F), 0u);
}

TEST(IfConversion, RefusesLongArms) {
  std::string Text = R"(
func @f {
entry:
  input %a, %b
  %c = cmplt %a, %b
  branch %c, t, e
t:
)";
  for (int K = 0; K < 8; ++K)
    Text += "  %t" + std::to_string(K) + " = addi %a, " +
            std::to_string(K) + "\n";
  Text += R"(  jump j
e:
  %x2 = addi %b, 1
  jump j
j:
  %x = phi [%t7, t], [%x2, e]
  ret %x
}
)";
  auto F = parse(Text);
  StatsSnapshot Short =
      countersOf([&] { convertIfsToPsi(*F, /*MaxArmInsts=*/4); });
  EXPECT_EQ(Short["ifconvert.diamonds"], 0u);
  StatsSnapshot Long =
      countersOf([&] { convertIfsToPsi(*F, /*MaxArmInsts=*/8); });
  EXPECT_EQ(Long["ifconvert.diamonds"], 1u);
}

TEST(IfConversion, NestedDiamondsConverge) {
  // Inner diamond converts first, making the outer one convertible
  // (psi is itself speculation-safe).
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %c0 = cmplt %a, %b
  branch %c0, t0, e0
t0:
  %c1 = cmpeq %a, %b
  branch %c1, t1, e1
t1:
  %u1 = addi %a, 1
  jump j1
e1:
  %u2 = addi %a, 2
  jump j1
j1:
  %u = phi [%u1, t1], [%u2, e1]
  jump j0
e0:
  %v = addi %b, 3
  jump j0
j0:
  %x = phi [%u, j1], [%v, e0]
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats =
      countersOf([&] { convertIfsToPsi(*F, /*MaxArmInsts=*/6); });
  EXPECT_EQ(Stats["ifconvert.psis"], 2u);
  EXPECT_EQ(countPsis(*F), 2u);
  expectEquivalent(*Before, *F, {4, 4});
  expectEquivalent(*Before, *F, {4, 5});
  expectEquivalent(*Before, *F, {5, 4});
}

TEST(IfConversion, ConvertedCodeSurvivesFullPipeline) {
  // If-converted (psi-carrying) programs must translate out of SSA with
  // the psi renaming constraint and stay equivalent.
  for (uint64_t Seed = 1200; Seed < 1212; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 20;
    P.MaxNesting = 2;
    auto F = generateProgram(P, "ifc" + std::to_string(Seed));
    normalizeToOptimizedSSA(*F);
    convertIfsToPsi(*F);
    expectWellFormed(*F);
    for (const auto &D : verifySSA(*F))
      FAIL() << "seed " << Seed << ": " << D;
    auto Before = cloneFunction(*F);
    auto Translated = cloneFunction(*F);
    runPipeline(*Translated, pipelinePreset("Lphi,ABI+C"));
    expectEquivalent(*Before, *Translated, {Seed, Seed % 7});
  }
}

TEST(IfConversion, ConversionIncreasesPsiConstraintCoverage) {
  // Statistical sanity: over a batch of generated programs, conversion
  // produces a meaningful number of psis.
  uint64_t TotalPsis = 0;
  for (uint64_t Seed = 1300; Seed < 1320; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 24;
    P.MaxNesting = 2;
    auto F = generateProgram(P, "cov" + std::to_string(Seed));
    normalizeToOptimizedSSA(*F);
    TotalPsis += countersOf([&] { convertIfsToPsi(*F); })["ifconvert.psis"];
  }
  EXPECT_GE(TotalPsis, 5u);
}
