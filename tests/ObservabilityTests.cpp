//===- ObservabilityTests.cpp - Stats/Timer/Json/ThreadPool tests -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the support-layer observability pieces (stats registry,
// timer groups, JSON writer, thread pool) and the guard the bench
// machinery relies on: the parallel suite runner's measurement fields
// are bit-identical to the serial path's.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Json.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <vector>

using namespace lao;
using namespace lao::bench;

//===----------------------------------------------------------------------===//
// StatsRegistry
//===----------------------------------------------------------------------===//

TEST(Stats, CounterRegistersAndAccumulates) {
  StatCounter &C = LAO_STAT(testpass, bumps);
  uint64_t Start = C.value();
  ++C;
  C += 4;
  EXPECT_EQ(C.value(), Start + 5);

  // Executing the same LAO_STAT expression again returns the same static.
  auto Bump = [] { return &(++LAO_STAT(testpass, bumps)); };
  EXPECT_EQ(Bump(), Bump());

  // Different sites naming the same (pass, name) are distinct statics but
  // aggregate under one snapshot key.
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  ++LAO_STAT(testpass, bumps);
  StatsSnapshot After = StatsRegistry::instance().snapshot();
  StatsSnapshot D = StatsRegistry::delta(Before, After);
  ASSERT_EQ(D.count("testpass.bumps"), 1u);
  EXPECT_EQ(D["testpass.bumps"], 1u);
}

TEST(Stats, DeltaDropsUnmovedCounters) {
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  LAO_STAT(testpass, delta_only) += 7;
  StatsSnapshot After = StatsRegistry::instance().snapshot();
  StatsSnapshot D = StatsRegistry::delta(Before, After);
  ASSERT_EQ(D.count("testpass.delta_only"), 1u);
  EXPECT_EQ(D["testpass.delta_only"], 7u);
  // Counters that did not move between the snapshots are absent.
  for (const auto &[Key, V] : D) {
    EXPECT_GT(V, 0u) << Key;
    EXPECT_EQ(V, After[Key] - (Before.count(Key) ? Before[Key] : 0)) << Key;
  }
}

TEST(Stats, DeltaCountsNewCountersFromZero) {
  StatsSnapshot Before; // Pretend the counter did not exist yet.
  StatsSnapshot After;
  After["late.counter"] = 3;
  StatsSnapshot D = StatsRegistry::delta(Before, After);
  ASSERT_EQ(D.count("late.counter"), 1u);
  EXPECT_EQ(D["late.counter"], 3u);
}

//===----------------------------------------------------------------------===//
// TimerGroup / ScopedTimer
//===----------------------------------------------------------------------===//

TEST(Timer, GroupKeepsFirstInsertionOrderAndAccumulates) {
  TimerGroup TG;
  EXPECT_TRUE(TG.empty());
  TG.add("b", 1.0);
  TG.add("a", 2.0);
  TG.add("b", 0.5);
  ASSERT_EQ(TG.entries().size(), 2u);
  EXPECT_EQ(TG.entries()[0].first, "b");
  EXPECT_EQ(TG.entries()[1].first, "a");
  EXPECT_DOUBLE_EQ(TG.seconds("b"), 1.5);
  EXPECT_DOUBLE_EQ(TG.seconds("a"), 2.0);
  EXPECT_DOUBLE_EQ(TG.seconds("missing"), 0.0);
  EXPECT_DOUBLE_EQ(TG.total(), 3.5);
}

TEST(Timer, AddAllFoldsAndAppends) {
  TimerGroup A, B;
  A.add("x", 1.0);
  B.add("x", 2.0);
  B.add("y", 3.0);
  A.addAll(B);
  ASSERT_EQ(A.entries().size(), 2u);
  EXPECT_EQ(A.entries()[0].first, "x");
  EXPECT_DOUBLE_EQ(A.seconds("x"), 3.0);
  EXPECT_DOUBLE_EQ(A.seconds("y"), 3.0);
}

TEST(Timer, ScopedTimerAddsNonNegativeElapsed) {
  TimerGroup TG;
  {
    ScopedTimer T(TG, "scope");
    volatile unsigned Sink = 0;
    for (unsigned K = 0; K < 1000; ++K)
      Sink = Sink + K;
    (void)Sink;
  }
  ASSERT_EQ(TG.entries().size(), 1u);
  EXPECT_GE(TG.seconds("scope"), 0.0);
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(Json, ObjectsArraysAndAutomaticCommas) {
  JsonWriter W;
  W.beginObject();
  W.key("a").value(uint64_t(1));
  W.key("b").beginArray();
  W.value(uint64_t(2)).value("x").value(true);
  W.endArray();
  W.key("c").beginObject();
  W.key("d").value(int64_t(-3));
  W.endObject();
  W.endObject();
  EXPECT_EQ(W.str(), R"({"a":1,"b":[2,"x",true],"c":{"d":-3}})");
}

TEST(Json, EmptyContainers) {
  JsonWriter W;
  W.beginObject();
  W.key("arr").beginArray().endArray();
  W.key("obj").beginObject().endObject();
  W.endObject();
  EXPECT_EQ(W.str(), R"({"arr":[],"obj":{}})");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape("nl\n"), "nl\\n");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");

  JsonWriter W;
  W.beginObject();
  W.key("k\"ey").value("v\nal");
  W.endObject();
  EXPECT_EQ(W.str(), "{\"k\\\"ey\":\"v\\nal\"}");
}

TEST(Json, Doubles) {
  JsonWriter W;
  W.beginArray();
  W.value(0.25);
  W.value(1.0);
  W.value(std::numeric_limits<double>::infinity()); // degrades to 0
  W.endArray();
  EXPECT_EQ(W.str(), "[0.25,1,0]");
}

TEST(Json, TakeMovesOutTheBuffer) {
  JsonWriter W;
  W.beginArray().value(uint64_t(7)).endArray();
  std::string S = W.take();
  EXPECT_EQ(S, "[7]");
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  const size_t N = 257;
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << I;
  // N == 0 is a no-op, N < threads uses fewer lanes.
  Pool.parallelFor(0, [&](size_t) { FAIL(); });
  std::atomic<unsigned> Small{0};
  Pool.parallelFor(2, [&](size_t) { ++Small; });
  EXPECT_EQ(Small.load(), 2u);
}

TEST(ThreadPool, SingleThreadPoolDegradesToSerial) {
  ThreadPool Pool(1);
  std::vector<size_t> Order;
  // One worker claims indices in ascending order: execution is serial.
  Pool.parallelFor(8, [&](size_t I) { Order.push_back(I); });
  ASSERT_EQ(Order.size(), 8u);
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPool, AsyncAndWait) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Done{0};
  for (unsigned K = 0; K < 16; ++K)
    Pool.async([&] { ++Done; });
  Pool.wait();
  EXPECT_EQ(Done.load(), 16u);
}

//===----------------------------------------------------------------------===//
// Parallel suite runner determinism (the acceptance-criterion guard)
//===----------------------------------------------------------------------===//

TEST(SuiteRunner, ParallelTotalsBitIdenticalToSerial) {
  // runOnSuite's contract: with any pool, the deterministic measurement
  // fields equal the strictly serial path's. Wall-clock fields are
  // exempt (they can never be identical run to run).
  ThreadPool Pool(4);
  auto Suite = makeExamplesSuite();
  for (const char *Preset : {"Lphi,ABI+C", "C,naiveABI+C"}) {
    PipelineConfig Config = pipelinePreset(Preset);
    SuiteTotals Serial = runOnSuite(Suite, Config, nullptr);
    SuiteTotals Parallel = runOnSuite(Suite, Config, &Pool);
    EXPECT_EQ(Serial.Moves, Parallel.Moves) << Preset;
    EXPECT_EQ(Serial.WeightedMoves, Parallel.WeightedMoves) << Preset;
    EXPECT_EQ(Serial.MovesBeforeCoalesce, Parallel.MovesBeforeCoalesce)
        << Preset;
    EXPECT_EQ(Serial.CoalescerMerges, Parallel.CoalescerMerges) << Preset;
    EXPECT_EQ(Serial.Counters, Parallel.Counters) << Preset;
    // Phase order of the folded timers is the pipeline's phase order in
    // both modes (the reduction is index-ordered).
    ASSERT_EQ(Serial.PerPass.entries().size(),
              Parallel.PerPass.entries().size())
        << Preset;
    for (size_t K = 0; K < Serial.PerPass.entries().size(); ++K)
      EXPECT_EQ(Serial.PerPass.entries()[K].first,
                Parallel.PerPass.entries()[K].first)
          << Preset;
  }
}

TEST(SuiteRunner, JsonReportDeterministicAcrossRuns) {
  // Satellite guard for the analysis-substrate overhaul: running the same
  // suite through two independent BenchReports yields byte-identical JSON
  // once the wall-clock fields are excluded. This pins down determinism
  // of the whole stack — pipeline, sorted interference neighbors, stats
  // counters — not just of the headline move counts.
  auto Suite = makeExamplesSuite();
  auto Render = [&Suite] {
    BenchReport Report;
    for (const char *Preset : {"Lphi,ABI+C", "C,naiveABI+C"})
      Report.totals("examples", Suite, pipelinePreset(Preset));
    return Report.jsonString("determinism", /*IncludeTimings=*/false);
  };
  std::string First = Render();
  std::string Second = Render();
  EXPECT_EQ(First, Second);
  // Sanity: the deterministic rendering really did drop the clocks.
  EXPECT_EQ(First.find("seconds"), std::string::npos);
  EXPECT_NE(First.find("\"moves\""), std::string::npos);
}

TEST(SuiteRunner, JsonReportMatchesTableNumbers) {
  // The --json acceptance criterion: the BenchReport serves the printed
  // tables and the JSON from one cached record, so re-querying returns
  // the exact same totals object.
  BenchReport Report;
  auto Suite = makeExamplesSuite();
  PipelineConfig Config = pipelinePreset("Lphi,ABI+C");
  const SuiteTotals &First = Report.totals("examples", Suite, Config);
  const SuiteTotals &Second = Report.totals("examples", Suite, Config);
  EXPECT_EQ(&First, &Second) << "second query must hit the cache";
}
