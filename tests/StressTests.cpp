//===- StressTests.cpp - Large-scale and adversarial runs -------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "ssa/IfConversion.h"
#include "ssa/SSAVerifier.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

TEST(Stress, VeryLargeFunctionThroughFullPipeline) {
  GeneratorParams P;
  P.Seed = 424242;
  P.NumStatements = 400;
  P.MaxNesting = 4;
  P.NumParams = 4;
  P.UseSP = true;
  P.UsePsi = true;
  auto F = generateProgram(P, "huge");
  normalizeToOptimizedSSA(*F);
  EXPECT_TRUE(verifySSA(*F).empty());

  auto Translated = cloneFunction(*F);
  StatsSnapshot Counts = countersOf(
      [&] { runPipeline(*Translated, pipelinePreset("Lphi,ABI+C")); });
  EXPECT_GT(Counts["translate.phis_removed"], 20u)
      << "a 400-statement nest should carry a real phi population";
  expectWellFormed(*Translated);
  expectEquivalent(*F, *Translated, {1, 2, 3, 4});
}

TEST(Stress, DeepLoopNestWeights) {
  // Depth-4 nests exercise the 5^d weighting without overflow and the
  // inner-to-outer traversal ordering.
  GeneratorParams P;
  P.Seed = 515151;
  P.NumStatements = 60;
  P.MaxNesting = 4;
  auto F = generateProgram(P, "deep");
  normalizeToOptimizedSSA(*F);
  auto Translated = cloneFunction(*F);
  PipelineResult R = runPipeline(*Translated, pipelinePreset("Lphi,ABI"));
  EXPECT_GE(R.WeightedMoves, R.NumMoves);
  expectEquivalent(*F, *Translated, {9, 8});
}

TEST(Stress, RepeatedPipelineRunsAreIndependent) {
  // Running the pipeline on clones must not leak state across runs.
  GeneratorParams P;
  P.Seed = 606060;
  P.NumStatements = 40;
  auto F = generateProgram(P, "indep");
  normalizeToOptimizedSSA(*F);
  std::string FirstOutput;
  for (int K = 0; K < 3; ++K) {
    auto C = cloneFunction(*F);
    runPipeline(*C, pipelinePreset("Lphi,ABI+C"));
    std::string Out = printFunction(*C);
    if (K == 0)
      FirstOutput = Out;
    else
      EXPECT_EQ(Out, FirstOutput);
  }
}

TEST(Stress, IfConvertThenPipelineThenAllocate) {
  // The full extended stack: predication, out-of-SSA, allocation.
  for (uint64_t Seed : {777001u, 777002u, 777003u}) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 50;
    P.MaxNesting = 3;
    auto F = generateProgram(P, "stack" + std::to_string(Seed));
    normalizeToOptimizedSSA(*F);
    convertIfsToPsi(*F);
    ASSERT_TRUE(verifySSA(*F).empty());
    auto Machine = cloneFunction(*F);
    runPipeline(*Machine, pipelinePreset("Lphi,ABI+C"));
    RegAllocOptions Opts;
    Opts.NumRegs = 8;
    RegAllocResult R = allocateRegisters(*Machine, Opts);
    ASSERT_TRUE(R.Ok) << R.Error;
    expectEquivalent(*F, *Machine, {Seed, 3});
  }
}

TEST(Stress, AllPresetsOnLargeSuiteSample) {
  auto Suite = makeLargeSuite();
  ASSERT_GE(Suite.size(), 3u);
  static const char *const Presets[] = {"Lphi,ABI+C", "LABI+C",
                                        "C,naiveABI+C", "Lphi+C", "C"};
  for (size_t K = 0; K < 3; ++K) {
    const Workload &W = Suite[K];
    for (const char *Preset : Presets) {
      auto F = cloneFunction(*W.F);
      runPipeline(*F, pipelinePreset(Preset));
      SCOPED_TRACE(std::string(W.Name) + "/" + Preset);
      expectEquivalent(*W.F, *F, W.Inputs[0]);
    }
  }
}

TEST(Stress, MoveCountMonotonicUnderCoalescer) {
  // +C can only remove moves, never add them.
  auto Suite = makeValccSuite(2);
  for (size_t K = 0; K < 10 && K < Suite.size(); ++K) {
    auto A = cloneFunction(*Suite[K].F);
    PipelineResult R = runPipeline(*A, pipelinePreset("Lphi,ABI+C"));
    EXPECT_LE(R.NumMoves, R.MovesBeforeCoalesce) << Suite[K].Name;
  }
}
