//===- ClassInterferenceTests.cpp - Sweep engine vs pairwise oracle ----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Randomized equivalence suite for the dominance-ordered class-interference
// engine (outofssa/ClassInterference.h): on every workload suite and on
// adversarial generator functions (large phi webs, physical-register
// classes), the engine must return the exact verdicts of the paper-literal
// pairwise scan — both per-query and as a whole coalescing run (identical
// merge traces, pins, and killed masks). Also covers the verdict cache
// (hits, post-merge eviction) and the unreachable-block fallback.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/PhiCoalescing.h"
#include "outofssa/PinningContext.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lao;
using namespace lao::test;

namespace {

/// Saves and restores the process-wide engine/oracle flags, so a failing
/// test cannot leak its flag state into the rest of the binary.
struct FlagGuard {
  bool Engine = PinningContext::sweepEngineEnabled();
  bool Oracle = PinningContext::crossCheckOracle();
  ~FlagGuard() {
    PinningContext::setSweepEngineEnabled(Engine);
    PinningContext::setCrossCheckOracle(Oracle);
  }
};

/// Analyses bundle for driving PinningContext / coalescePhis by hand.
struct Analyses {
  CFG Cfg;
  DominatorTree DT;
  LivenessQuery LV;
  LoopInfo LI;
  PinningContext Ctx;

  explicit Analyses(Function &F,
                    InterferenceMode Mode = InterferenceMode::Precise)
      : Cfg(F), DT(Cfg), LV(Cfg, DT), LI(Cfg, DT), Ctx(F, Cfg, DT, LV, Mode) {}
};

/// Splits edges and pins SP/ABI so the function has both virtual and
/// physical-register classes, as the coalescer would see it.
void prepare(Function &F, bool PinABI = true) {
  splitCriticalEdges(F);
  collectSPConstraints(F);
  if (PinABI)
    collectABIConstraints(F);
}

/// Representatives worth querying: classes holding at least one defined
/// variable or a physical register (others are trivially non-interfering
/// on both paths).
std::vector<RegId> interestingReps(const PinningContext &Ctx,
                                   const Function &F) {
  std::vector<RegId> Reps;
  for (RegId V = 0; V < F.numValues(); ++V) {
    if (Ctx.resourceOf(V) != V)
      continue;
    bool Interesting = F.isPhysical(V);
    for (RegId M : Ctx.members(V))
      Interesting = Interesting || Ctx.defSite(M).Valid;
    if (Interesting)
      Reps.push_back(V);
  }
  return Reps;
}

/// Queries (a strided sample of) all representative pairs through one
/// engine-backed context and one pairwise-only context built over the same
/// function, expecting identical verdicts.
void expectVerdictEquality(Function &F, InterferenceMode Mode,
                           size_t MaxPairs = 6000) {
  FlagGuard G;
  PinningContext::setCrossCheckOracle(false);
  PinningContext::setSweepEngineEnabled(true);
  Analyses On(F, Mode);
  PinningContext::setSweepEngineEnabled(false);
  Analyses Off(F, Mode);

  std::vector<RegId> Reps = interestingReps(Off.Ctx, F);
  size_t NumPairs = Reps.empty() ? 0 : Reps.size() * (Reps.size() - 1) / 2;
  size_t Stride = NumPairs > MaxPairs ? NumPairs / MaxPairs + 1 : 1;
  size_t Index = 0;
  for (size_t I = 0; I < Reps.size(); ++I)
    for (size_t J = I + 1; J < Reps.size(); ++J) {
      if (Index++ % Stride != 0)
        continue;
      PinningContext::setSweepEngineEnabled(true);
      bool Engine = On.Ctx.resourceInterfere(Reps[I], Reps[J]);
      PinningContext::setSweepEngineEnabled(false);
      bool Pairwise = Off.Ctx.resourceInterfere(Reps[I], Reps[J]);
      ASSERT_EQ(Engine, Pairwise)
          << F.name() << ": verdict mismatch for classes "
          << F.valueName(Reps[I]) << " / " << F.valueName(Reps[J])
          << " in mode " << static_cast<int>(Mode);
    }
  PinningContext::setSweepEngineEnabled(true);
  EXPECT_TRUE(On.Ctx.interferenceReport().EngineUsed || Reps.size() < 2)
      << F.name();
}

/// Runs coalescePhis twice over clones of \p Orig — engine on and engine
/// off — and expects bit-identical merge traces: same statistics, same
/// resulting pins, same class partition, same killed mask.
void expectMergeTraceEquality(const Function &Orig, InterferenceMode Mode,
                              bool PinABI = true) {
  auto FOn = cloneFunction(Orig);
  auto FOff = cloneFunction(Orig);
  prepare(*FOn, PinABI);
  prepare(*FOff, PinABI);

  FlagGuard G;
  PinningContext::setCrossCheckOracle(false);
  PinningContext::setSweepEngineEnabled(true);
  Analyses On(*FOn, Mode);
  StatsSnapshot StOn =
      countersOf([&] { coalescePhis(*FOn, On.Ctx, On.Cfg, On.LI); });
  PinningContext::setSweepEngineEnabled(false);
  Analyses Off(*FOff, Mode);
  StatsSnapshot StOff =
      countersOf([&] { coalescePhis(*FOff, Off.Ctx, Off.Cfg, Off.LI); });

  // Every phicoalesce.* count matches (the classinterf.* ones measure the
  // engine itself and legitimately differ).
  auto PhiCounts = [](const StatsSnapshot &S) {
    StatsSnapshot Out;
    for (const auto &[Key, Value] : S)
      if (Key.rfind("phicoalesce.", 0) == 0)
        Out.emplace(Key, Value);
    return Out;
  };
  EXPECT_EQ(PhiCounts(StOn), PhiCounts(StOff)) << Orig.name();

  // Identical merge traces leave identical pins behind.
  EXPECT_EQ(printFunction(*FOn), printFunction(*FOff)) << Orig.name();
  ASSERT_EQ(FOn->numValues(), FOff->numValues());
  for (RegId V = 0; V < FOn->numValues(); ++V)
    if (On.Ctx.resourceOf(V) != Off.Ctx.resourceOf(V)) {
      ADD_FAILURE() << Orig.name() << ": class partition diverged at "
                    << FOn->valueName(V);
      break;
    }
  EXPECT_TRUE(On.Ctx.killedMask() == Off.Ctx.killedMask())
      << Orig.name() << ": killed masks diverged";
}

/// Adversarial generator configs. PhiWebs stresses deep nests of phis over
/// mutated variables (large classes after phi pinning); the other variant
/// stresses physical-register classes via many ABI-pinned call sites.
std::unique_ptr<Function> adversarial(uint64_t Seed, bool PhiWebs) {
  GeneratorParams P;
  P.Seed = Seed;
  P.NumParams = 4;
  if (PhiWebs) {
    P.NumStatements = 60;
    P.MaxNesting = 3;
    P.MutatePercent = 85;
    P.CallPercent = 5;
  } else {
    P.NumStatements = 40;
    P.MaxNesting = 2;
    P.CallPercent = 45;
    P.UseSP = true;
  }
  auto F = generateProgram(P, (PhiWebs ? "phiweb" : "physreg") +
                                  std::to_string(Seed));
  normalizeToOptimizedSSA(*F);
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload suites
//===----------------------------------------------------------------------===//

TEST(ClassInterference, SuiteVerdictsMatchPairwise) {
  for (const SuiteSpec &S : allSuites())
    for (Workload &W : S.Make()) {
      prepare(*W.F);
      expectVerdictEquality(*W.F, InterferenceMode::Precise);
    }
}

TEST(ClassInterference, SuiteMergeTracesMatchPairwise) {
  for (const SuiteSpec &S : allSuites())
    for (Workload &W : S.Make())
      expectMergeTraceEquality(*W.F, InterferenceMode::Precise);
}

//===----------------------------------------------------------------------===//
// Adversarial generator functions
//===----------------------------------------------------------------------===//

TEST(ClassInterference, AdversarialPhiWebsAllModes) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    for (InterferenceMode Mode :
         {InterferenceMode::Precise, InterferenceMode::Optimistic,
          InterferenceMode::Pessimistic}) {
      auto F = adversarial(Seed, /*PhiWebs=*/true);
      prepare(*F);
      expectVerdictEquality(*F, Mode);
    }
}

TEST(ClassInterference, AdversarialPhysicalClassesAllModes) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    for (InterferenceMode Mode :
         {InterferenceMode::Precise, InterferenceMode::Optimistic,
          InterferenceMode::Pessimistic}) {
      auto F = adversarial(Seed, /*PhiWebs=*/false);
      prepare(*F);
      expectVerdictEquality(*F, Mode);
    }
}

TEST(ClassInterference, AdversarialMergeTraces) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    expectMergeTraceEquality(*adversarial(Seed, true),
                             InterferenceMode::Precise);
    expectMergeTraceEquality(*adversarial(Seed, false),
                             InterferenceMode::Precise);
    expectMergeTraceEquality(*adversarial(Seed, true),
                             InterferenceMode::Pessimistic);
  }
}

//===----------------------------------------------------------------------===//
// Verdict cache: hits, and eviction across pinTogether merges
//===----------------------------------------------------------------------===//

TEST(ClassInterference, CacheHitsOnRepeatedQueries) {
  auto F = adversarial(3, /*PhiWebs=*/true);
  prepare(*F);
  FlagGuard G;
  PinningContext::setCrossCheckOracle(false);
  PinningContext::setSweepEngineEnabled(true);
  Analyses S(*F);
  std::vector<RegId> Reps = interestingReps(S.Ctx, *F);
  // Physical-physical pairs short-circuit before the engine; cache
  // behavior only shows on pairs with a virtual side.
  Reps.erase(std::remove_if(Reps.begin(), Reps.end(),
                            [&](RegId R) { return F->isPhysical(R); }),
             Reps.end());
  ASSERT_GE(Reps.size(), 2u);

  bool First = S.Ctx.resourceInterfere(Reps[0], Reps[1]);
  auto R1 = S.Ctx.interferenceReport();
  bool Second = S.Ctx.resourceInterfere(Reps[0], Reps[1]);
  auto R2 = S.Ctx.interferenceReport();
  EXPECT_EQ(First, Second);
  EXPECT_EQ(R2.CacheHits, R1.CacheHits + 1) << "repeat query must hit";
  EXPECT_EQ(R2.Queries, R1.Queries) << "repeat query must not recompute";
  // Argument order and non-representative members resolve to the same
  // cache entry.
  S.Ctx.resourceInterfere(Reps[1], Reps[0]);
  EXPECT_EQ(S.Ctx.interferenceReport().CacheHits, R2.CacheHits + 1);
}

TEST(ClassInterference, CacheEvictedOnMergeStaysExact) {
  // Warm the cache over every pair, coalesce (merges must evict the stale
  // entries), then re-check every post-merge verdict against the pairwise
  // scan on the same merged context.
  GeneratorParams P;
  P.Seed = 9;
  P.NumStatements = 25;
  P.MaxNesting = 2;
  P.MutatePercent = 70;
  auto F = generateProgram(P, "evict9");
  normalizeToOptimizedSSA(*F);
  prepare(*F);

  FlagGuard G;
  PinningContext::setCrossCheckOracle(false);
  PinningContext::setSweepEngineEnabled(true);
  Analyses S(*F);
  std::vector<RegId> Before = interestingReps(S.Ctx, *F);
  for (size_t I = 0; I < Before.size(); ++I)
    for (size_t J = I + 1; J < Before.size(); ++J)
      S.Ctx.resourceInterfere(Before[I], Before[J]);

  StatsSnapshot St =
      countersOf([&] { coalescePhis(*F, S.Ctx, S.Cfg, S.LI); });
  auto R = S.Ctx.interferenceReport();
  if (St["phicoalesce.merges"] > 0) {
    EXPECT_GT(R.CacheEvictions, 0u)
        << "merging warmed classes must evict their cached verdicts";
  }

  std::vector<RegId> After = interestingReps(S.Ctx, *F);
  for (size_t I = 0; I < After.size(); ++I)
    for (size_t J = I + 1; J < After.size(); ++J) {
      PinningContext::setSweepEngineEnabled(true);
      bool Engine = S.Ctx.resourceInterfere(After[I], After[J]);
      PinningContext::setSweepEngineEnabled(false);
      bool Pairwise = S.Ctx.resourceInterfere(After[I], After[J]);
      ASSERT_EQ(Engine, Pairwise)
          << "post-merge verdict diverged for " << F->valueName(After[I])
          << " / " << F->valueName(After[J]);
    }
}

//===----------------------------------------------------------------------===//
// Fallback and diagnostics
//===----------------------------------------------------------------------===//

TEST(ClassInterference, UnreachableBlockFallsBackToPairwise) {
  // Class 2 of the pairwise scan has no dominance precondition on
  // unreachable code, so a function with a non-empty unreachable block
  // must be served wholesale by the pairwise path.
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
dead:
  %d = make 7
  ret %d
}
)");
  prepare(*F, /*PinABI=*/false);
  FlagGuard G;
  PinningContext::setCrossCheckOracle(false);
  PinningContext::setSweepEngineEnabled(true);
  Analyses S(*F);
  std::vector<RegId> Reps = interestingReps(S.Ctx, *F);
  for (size_t I = 0; I < Reps.size(); ++I)
    for (size_t J = I + 1; J < Reps.size(); ++J) {
      PinningContext::setSweepEngineEnabled(true);
      bool WithFlag = S.Ctx.resourceInterfere(Reps[I], Reps[J]);
      PinningContext::setSweepEngineEnabled(false);
      bool Pairwise = S.Ctx.resourceInterfere(Reps[I], Reps[J]);
      EXPECT_EQ(WithFlag, Pairwise);
    }
  PinningContext::setSweepEngineEnabled(true);
  auto R = S.Ctx.interferenceReport();
  EXPECT_FALSE(R.EngineUsed);
  EXPECT_GT(R.PairwiseQueries, 0u);
}

TEST(ClassInterference, ReportHistogramCoversClasses) {
  auto F = adversarial(5, /*PhiWebs=*/true);
  prepare(*F);
  FlagGuard G;
  PinningContext::setCrossCheckOracle(false);
  PinningContext::setSweepEngineEnabled(true);
  Analyses S(*F);
  StatsSnapshot St =
      countersOf([&] { coalescePhis(*F, S.Ctx, S.Cfg, S.LI); });
  auto R = S.Ctx.interferenceReport();
  uint64_t Sum = 0;
  for (uint64_t Bucket : R.SizeHist)
    Sum += Bucket;
  EXPECT_EQ(Sum, R.NumClasses);
  EXPECT_GT(R.NumClasses, 0u);
  if (St["phicoalesce.pair_queries"] > 0) {
    EXPECT_TRUE(R.EngineUsed);
    EXPECT_GT(R.Queries + R.CacheHits, 0u);
    EXPECT_GT(R.PairCost, 0u) << "swept queries must record their bound";
  }
}

TEST(ClassInterference, OracleCleanOnCoalescingRuns) {
  // With the cross-check oracle armed, every engine verdict issued during
  // a full coalescing run is compared against the pairwise scan and a
  // mismatch aborts — so merely finishing is the assertion.
  FlagGuard G;
  PinningContext::setSweepEngineEnabled(true);
  PinningContext::setCrossCheckOracle(true);
  for (uint64_t Seed : {11u, 12u}) {
    auto F = adversarial(Seed, Seed % 2 == 0);
    prepare(*F);
    Analyses S(*F);
    coalescePhis(*F, S.Ctx, S.Cfg, S.LI);
  }
  SUCCEED();
}
