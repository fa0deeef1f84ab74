//===- CoalescerTests.cpp - Chaitin coalescer and NaiveABI tests ------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/AnalysisManager.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "outofssa/Coalescer.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/MoveStats.h"
#include "outofssa/NaiveABI.h"
#include "outofssa/Pipeline.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace lao;
using namespace lao::test;

namespace {

/// Arms the coalescer's cross-check oracle for one scope, then restores
/// the process setting (LAO_COALESCE_ORACLE, which Debug CI sets).
struct OracleArmed {
  OracleArmed() { setCoalescerCrossCheckOracle(true); }
  ~OracleArmed() {
    const char *E = std::getenv("LAO_COALESCE_ORACLE");
    setCoalescerCrossCheckOracle(E && *E && *E != '0');
  }
};

} // namespace

TEST(InterferenceGraph, DefInterferesWithLive) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %b = addi %p, 1
  %a = addi %p, 2
  %u = add %b, %a
  ret %u
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), B = F->findValue("b");
  EXPECT_TRUE(IG.interfere(A, B));
  EXPECT_FALSE(IG.interfere(A, F->findValue("u")));
}

TEST(InterferenceGraph, MoveSourceExemption) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = mov %p
  %u = add %a, %a
  %v = add %u, %p
  ret %v
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), P = F->findValue("p");
  // p is live past the move (used by v) but a = mov p does not make
  // them interfere by itself... unless a is redefined while p lives.
  EXPECT_FALSE(IG.interfere(A, P));
}

TEST(InterferenceGraph, MergePreservesNeighbors) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %b = addi %p, 1
  %a = addi %p, 2
  %u = add %b, %a
  ret %u
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), B = F->findValue("b");
  RegId U = F->findValue("u");
  EXPECT_FALSE(IG.interfere(U, B));
  IG.mergeNodes(U, A); // u absorbs a; a interfered with b.
  EXPECT_TRUE(IG.interfere(U, B));
  EXPECT_TRUE(IG.neighbors(A).empty());
}

TEST(InterferenceGraph, CopySourceDeadAfterMove) {
  // The move is the last use of its source: destination and source must
  // not interfere (that is the whole point of the Chaitin exemption),
  // and the coalescer must be able to merge them.
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = addi %p, 1
  %b = mov %a
  %r = add %b, %b
  ret %r
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), B = F->findValue("b");
  EXPECT_FALSE(IG.interfere(A, B));
  // b does interfere with p? p is dead after the addi, so no.
  EXPECT_FALSE(IG.interfere(B, F->findValue("p")));
}

TEST(InterferenceGraph, ParCopyDestinationsInterferePairwise) {
  // Destinations of one parallel copy are written simultaneously: they
  // interfere pairwise even when the values themselves have disjoint
  // uses afterwards.
  auto F = parse(R"(
func @f {
entry:
  input %p, %q
  parcopy %x = %p, %y = %q
  %r = add %x, %y
  %s = add %r, %p
  ret %s
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId X = F->findValue("x"), Y = F->findValue("y");
  RegId P = F->findValue("p"), Q = F->findValue("q");
  EXPECT_TRUE(IG.interfere(X, Y));
  // x is exempt from its own source p even though p stays live past the
  // parcopy, but y (written while p is live) does interfere with p.
  EXPECT_FALSE(IG.interfere(X, P));
  EXPECT_TRUE(IG.interfere(Y, P));
  // q dies at the parcopy: neither destination conflicts with it.
  EXPECT_FALSE(IG.interfere(Y, Q));
  EXPECT_FALSE(IG.interfere(X, Q));
}

TEST(Coalescer, RemovesNonInterferingMove) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = addi %p, 1
  %b = mov %a
  %r = add %b, %b
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = countersOf([&] { coalesceAggressively(*F); });
  EXPECT_EQ(Stats["coalesce.moves_removed"], 1u);
  EXPECT_EQ(countMoves(*F), 0u);
  expectEquivalent(*Before, *F, {4});
}

TEST(Coalescer, KeepsInterferingMove) {
  // a is still used after b is redefined through it: they interfere.
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = addi %p, 1
  %b = mov %a
  %b = addi %b, 5
  %r = add %a, %b
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = countersOf([&] { coalesceAggressively(*F); });
  EXPECT_EQ(Stats["coalesce.moves_removed"], 0u);
  EXPECT_EQ(countMoves(*F), 1u);
  expectEquivalent(*Before, *F, {4});
}

TEST(Coalescer, ChainsCascadeAcrossRounds) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = mov %p
  %b = mov %a
  %c = mov %b
  %r = add %c, %c
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = countersOf([&] { coalesceAggressively(*F); });
  EXPECT_EQ(Stats["coalesce.moves_removed"], 3u);
  expectEquivalent(*Before, *F, {9});
}

TEST(Coalescer, PhysicalSurvivesAsName) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %R0 = mov %p
  %r = call @f(%R0)
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  coalesceAggressively(*F);
  // p merged into R0: the call operand must still be R0.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Call)
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::R0));
  expectEquivalent(*Before, *F, {3});
}

TEST(Coalescer, NeverMergesTwoPhysicals) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %R0 = mov %p
  %R1 = mov %R0
  %r = call @f(%R0, %R1)
  ret %r
}
)");
  coalesceAggressively(*F);
  // The R1 = R0 move cannot be removed (two machine registers).
  EXPECT_GE(countMoves(*F), 1u);
}

TEST(Coalescer, AmortizedRebuildMatchesRebuildEveryRound) {
  // The worklist schedule builds the graph once and repairs it in place;
  // both schedules must reach the same fixpoint move count on every
  // workload, and the worklist side must never build more graphs.
  auto CheckSuite = [](const std::vector<Workload> &Suite,
                       const char *Preset) {
    for (const Workload &W : Suite) {
      auto A = cloneFunction(*W.F);
      runPipeline(*A, pipelinePreset(Preset));
      auto B = cloneFunction(*A);

      StatsSnapshot Fast = countersOf([&] { coalesceAggressively(*A); });
      CoalescerOptions Ref;
      Ref.RebuildEveryRound = true;
      StatsSnapshot Slow = countersOf([&] { coalesceAggressively(*B, Ref); });

      EXPECT_EQ(countMoves(*A), countMoves(*B)) << W.Name;
      EXPECT_EQ(Fast["coalesce.moves_removed"],
                Slow["coalesce.moves_removed"])
          << W.Name;
      EXPECT_LE(Fast["coalesce.rebuilds"], Slow["coalesce.rebuilds"])
          << W.Name << ": the amortized schedule must never rebuild more";
    }
  };
  // "Lphi,ABI" / "Sphi" leave residual moves without running the cleanup
  // coalescer themselves, so both schedules get real work.
  CheckSuite(makeExamplesSuite(), "Lphi,ABI");
  CheckSuite(makeValccSuite(1), "Sphi");
}

TEST(Coalescer, WorklistTraceMatchesRebuildEveryRoundOnEverySuite) {
  // The header's exactness claim, checked literally on every workload
  // suite: the zero-rebuild worklist schedule performs the *same merges
  // in the same order* as rebuilding the analyses after every sweep, and
  // both leave byte-identical IR — with at most one graph build and one
  // confirm scan on the worklist side, even with the cross-check oracle
  // (whose own fixpoint re-scan is not a gate scan) armed.
  OracleArmed Armed;
  for (const SuiteSpec &Spec : allSuites()) {
    for (const Workload &W : Spec.Make()) {
      for (const char *Preset : {"Lphi,ABI", "Sphi"}) {
        auto A = cloneFunction(*W.F);
        runPipeline(*A, pipelinePreset(Preset));
        auto B = cloneFunction(*A);

        std::vector<std::pair<RegId, RegId>> FastTrace, RefTrace;
        CoalescerOptions FastOpts;
        FastOpts.TraceOut = &FastTrace;
        StatsSnapshot Fast =
            countersOf([&] { coalesceAggressively(*A, FastOpts); });
        CoalescerOptions RefOpts;
        RefOpts.RebuildEveryRound = true;
        RefOpts.TraceOut = &RefTrace;
        StatsSnapshot Slow =
            countersOf([&] { coalesceAggressively(*B, RefOpts); });

        EXPECT_EQ(FastTrace, RefTrace)
            << Spec.Name << "/" << W.Name << "/" << Preset
            << ": divergent merge trace";
        EXPECT_EQ(printFunction(*A), printFunction(*B))
            << Spec.Name << "/" << W.Name << "/" << Preset;
        EXPECT_EQ(Fast["coalesce.moves_removed"],
                  Slow["coalesce.moves_removed"])
            << W.Name;
        EXPECT_EQ(Fast["coalesce.merges"], Slow["coalesce.merges"]) << W.Name;
        EXPECT_LE(Fast["coalesce.rebuilds"], 1u)
            << W.Name << ": zero-rebuild means at most the initial build";
        EXPECT_EQ(Fast["coalesce.confirm_scans"], 1u)
            << W.Name << ": the confirm scan is a one-time gate now";
      }
    }
  }
}

namespace {

/// Adversarial input for the worklist schedule: \p Gadgets copies of the
/// exemption-switch pattern
///
///   s = ...; d = mov s; x = mov s; k = add x, d
///
/// where (x, d) interfere exactly until round 1 merges s into d and the
/// rewritten `x = mov d` falls under Chaitin's source exemption — every
/// gadget's second copy must be *re-enqueued* after the round boundary.
/// A long copy chain follows (merges cascade through mergeNodes within a
/// round, repeatedly victimizing the previous survivor), and a diamond
/// whose left leg carries the same deferred pattern across a branch.
std::unique_ptr<Function> makeRequeueForcer(unsigned Gadgets) {
  std::string Text = "func @adv {\nentry:\n  input %p\n";
  std::string Prev = "%p";
  for (unsigned G = 0; G < Gadgets; ++G) {
    std::string N = std::to_string(G);
    Text += "  %s" + N + " = addi " + Prev + ", 1\n";
    Text += "  %d" + N + " = mov %s" + N + "\n";
    Text += "  %x" + N + " = mov %s" + N + "\n";
    Text += "  %k" + N + " = add %x" + N + ", %d" + N + "\n";
    Prev = "%k" + N;
  }
  // Copy chain: all of it coalesces in one round, survivor after
  // survivor.
  Text += "  %c0 = mov " + Prev + "\n";
  for (unsigned C = 1; C < 6; ++C)
    Text += "  %c" + std::to_string(C) + " = mov %c" + std::to_string(C - 1) +
            "\n";
  // Diamond: the deferred pattern with the blocking liveness flowing
  // through a branch.
  Text += R"(  %ds = addi %c5, 1
  %dd = mov %ds
  %cond = cmplt %c5, %p
  branch %cond, left, right
left:
  %dx = mov %ds
  %m = add %dx, %dd
  jump join
right:
  %m = add %dd, %dd
  jump join
join:
  ret %m
}
)";
  return lao::test::parse(Text);
}

} // namespace

TEST(Coalescer, AdversarialRequeueForcerMatchesReference) {
  for (unsigned Gadgets : {1u, 4u, 16u}) {
    auto F = makeRequeueForcer(Gadgets);
    auto Before = cloneFunction(*F);
    auto Ref = cloneFunction(*F);

    std::vector<std::pair<RegId, RegId>> FastTrace, RefTrace;
    CoalescerOptions FastOpts;
    FastOpts.TraceOut = &FastTrace;
    StatsSnapshot Fast =
        countersOf([&] { coalesceAggressively(*F, FastOpts); });
    CoalescerOptions RefOpts;
    RefOpts.RebuildEveryRound = true;
    RefOpts.TraceOut = &RefTrace;
    coalesceAggressively(*Ref, RefOpts);

    EXPECT_EQ(FastTrace, RefTrace) << Gadgets << " gadgets";
    EXPECT_EQ(printFunction(*F), printFunction(*Ref)) << Gadgets;
    // Every gadget defers its second copy in round 1 and must wake it up
    // after the boundary repair — with exactly one graph build total.
    EXPECT_EQ(Fast["coalesce.rebuilds"], 1u) << Gadgets;
    EXPECT_GE(Fast["coalesce.worklist_requeues"], Gadgets) << Gadgets;
    EXPECT_GE(Fast["coalesce.rounds"], 2u) << Gadgets;
    EXPECT_GE(Fast["coalesce.stale_edges_removed"], Gadgets)
        << Gadgets << ": each exemption switch leaves a stale edge";
    // The merged program still computes the same thing.
    expectEquivalent(*Before, *F, {7});
    expectEquivalent(*Before, *F, {123});
  }
}

TEST(Coalescer, OracleModeRunsCleanly) {
  // LAO_COALESCE_ORACLE wiring: with the cross-check enabled, every
  // production call replays the rebuild-every-round reference in
  // lockstep and aborts on divergence — so merely finishing is the
  // assertion.
  OracleArmed Armed;
  for (const Workload &W : makeExamplesSuite()) {
    auto F = cloneFunction(*W.F);
    runPipeline(*F, pipelinePreset("Lphi,ABI+C"));
  }
  auto F = makeRequeueForcer(8);
  coalesceAggressively(*F);
}

TEST(Coalescer, MaintainsManagedLivenessExactly) {
  // The AnalysisManager contract of coalesceAggressively: on return the
  // manager's dense Liveness is still cached and exact (incrementally
  // maintained through every merge and copy deletion). When the confirm
  // scan fired and a graph was built, the repaired interference graph
  // stays cached too — boundary repair leaves it exact; otherwise no
  // graph was ever built. The liveness-query engine is always dropped.
  auto CheckSuite = [](const std::vector<Workload> &Suite,
                       const char *Preset) {
    for (const Workload &W : Suite) {
      auto F = cloneFunction(*W.F);
      runPipeline(*F, pipelinePreset(Preset));
      AnalysisManager AM(*F);
      (void)AM.liveness();
      StatsSnapshot S =
          countersOf([&] { coalesceAggressively(*F, {}, &AM); });
      EXPECT_TRUE(AM.isCached(AnalysisKind::Liveness)) << W.Name;
      EXPECT_EQ(AM.isCached(AnalysisKind::Interference),
                S["coalesce.rebuilds"] > 0)
          << W.Name << ": graph cached iff the gate scan built one";
      EXPECT_FALSE(AM.isCached(AnalysisKind::LivenessQuery)) << W.Name;
      EXPECT_EQ(AM.verify(), "") << W.Name;
    }
  };
  CheckSuite(makeExamplesSuite(), "Lphi,ABI");
  CheckSuite(makeValccSuite(1), "Sphi");
}

TEST(InterferenceGraph, NeighborsSortedAndMatrixConsistent) {
  // The hybrid representation: adjacency lists are sorted ascending (a
  // deterministic iteration order for RegAlloc), and every list entry
  // agrees with the triangular bit matrix's interfere() answer — after
  // construction and after merges.
  auto CheckGraph = [](const InterferenceGraph &IG, size_t NumValues,
                       const char *When) {
    for (RegId A = 0; A < NumValues; ++A) {
      const std::vector<RegId> &N = IG.neighbors(A);
      for (size_t K = 0; K + 1 < N.size(); ++K)
        EXPECT_LT(N[K], N[K + 1]) << When << ": unsorted neighbors of " << A;
      for (RegId B : N)
        EXPECT_TRUE(IG.interfere(A, B)) << When << ": list/matrix disagree";
    }
  };
  for (const Workload &W : makeValccSuite(1)) {
    auto F = cloneFunction(*W.F);
    runPipeline(*F, pipelinePreset("Lphi,ABI"));
    CFG Cfg(*F);
    Liveness LV(Cfg);
    InterferenceGraph IG(*F, LV);
    CheckGraph(IG, F->numValues(), "fresh");
    // Merge a few non-interfering pairs and re-check the invariants.
    unsigned Merged = 0;
    for (RegId A = 0; A < F->numValues() && Merged < 4; ++A)
      for (RegId B = A + 1; B < F->numValues() && Merged < 4; ++B)
        if (!IG.interfere(A, B) && !F->isPhysical(B)) {
          IG.mergeNodes(A, B);
          ++Merged;
          break;
        }
    CheckGraph(IG, F->numValues(), "post-merge");
  }
}

TEST(NaiveABI, InsertsMovesAroundCall) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %r = call @g(%a, %b)
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  unsigned Moves = lowerABINaively(*F);
  sequentializeParallelCopies(*F);
  // input: 2 copies out of R0/R1; call: 2 copies in, 1 result copy out;
  // ret: 1 copy. Total 6.
  EXPECT_EQ(Moves, 6u);
  // The call now reads R0/R1 and writes R0.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Call) {
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::R0));
        EXPECT_EQ(I.use(1), static_cast<RegId>(Target::R1));
        EXPECT_EQ(I.def(0), static_cast<RegId>(Target::R0));
      }
  expectEquivalent(*Before, *F, {8, 9});
}

TEST(NaiveABI, TiesTwoOperandInstructions) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %k = more %a, 7
  %r = add %k, %a
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  lowerABINaively(*F);
  sequentializeParallelCopies(*F);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::More)
        EXPECT_EQ(I.def(0), I.use(0));
  expectEquivalent(*Before, *F, {5});
}

TEST(NaiveABI, MostMovesCoalesceAway) {
  // The Table 3/4 story: naive ABI lowering inserts many moves, and the
  // aggressive coalescer removes most but not all of them.
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = add %a, %b
  %r = call @g(%x, %a)
  %s = call @h(%r, %b)
  ret %s
}
)");
  auto Before = cloneFunction(*F);
  unsigned Inserted = lowerABINaively(*F);
  sequentializeParallelCopies(*F);
  EXPECT_GE(Inserted, 8u);
  coalesceAggressively(*F);
  EXPECT_LT(countMoves(*F), Inserted);
  expectEquivalent(*Before, *F, {100, 200});
}

TEST(MoveStats, CountsMovsAndParCopyEntries) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = mov %a
  parcopy %a = %b, %b = %a
  ret %x
}
)");
  EXPECT_EQ(countMoves(*F), 3u);
}

TEST(MoveStats, WeightedCountUses5PowDepth) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %m0 = mov %a
  jump head
head:
  %c = cmplt %m0, %a
  branch %c, body, done
body:
  %m1 = mov %a
  jump head
done:
  ret %a
}
)");
  // One move at depth 0 (weight 1) + one at depth 1 (weight 5).
  EXPECT_EQ(weightedMoveCount(*F), 6u);
}
