//===- Main.cpp - perfbench driver ----------------------------------------===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Runs one workload (see Workload.h for the common shape) and prints
// two lines to stdout: a JSON "details" line (seed, pass times, tail
// percentile used, error rate, layer shares, ...), then the result
// line, a JSON object with exactly the keys correct / attempted /
// failed / metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run also makes traced passes, writes their spans
// as Chrome trace-event JSON to <trace-dir>/<workload>-seed<n>.json and
// reports the per-layer metrics (Metrics.h). Exit status 0 only when
// every output matched its reference and every consistency check held.
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"
#include "Stats.h"
#include "Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <sys/resource.h>

using namespace perfbench;

namespace perfbench {

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "large_pinned")
    return makeLargeWorkload(false);
  if (Name == "large_naive")
    return makeLargeWorkload(true);
  if (Name == "regalloc_suites")
    return makeRegAllocSuitesWorkload();
  if (Name == "service_small")
    return makeServiceWorkload();
  return nullptr;
}

} // namespace perfbench

namespace {

constexpr unsigned SetupRuns = 3;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceDir = ".bench_build/traces";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    if (K + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++K];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 0);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--trace-dir")
      O.TraceDir = V;
    else
      usage(("unknown option " + A).c_str());
    if (End && *End)
      usage(("bad number for " + A).c_str());
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  return O;
}

/// Whole passes until the next one would overrun \p Budget seconds of
/// measured time; always at least one.
std::vector<PassResult> runPasses(Workload &W, Tracer *T, double Budget) {
  std::vector<PassResult> Passes;
  double Measured = 0;
  do {
    Passes.push_back(W.pass(T));
    if (T)
      W.replay(*T);
    Measured += Passes.back().Seconds;
  } while (Measured + Passes.back().Seconds <= Budget);
  return Passes;
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::vector<double> passSeconds(const std::vector<PassResult> &Passes) {
  std::vector<double> S;
  for (const PassResult &P : Passes)
    S.push_back(P.Seconds);
  return S;
}

/// Appends `"name": {"value": v, "unit": u}`.
void metric(std::string &Out, const std::string &Name, double Value,
            const std::string &Unit) {
  if (!validMetricName(Name)) {
    std::fprintf(stderr, "perfbench: invalid metric name '%s'\n",
                 Name.c_str());
    std::exit(2);
  }
  if (Out.back() != '{')
    Out += ", ";
  Out += "\"" + Name + "\": {\"value\": " + formatDouble(Value) +
         ", \"unit\": \"" + Unit + "\"}";
}

std::string jsonList(const std::vector<double> &Values) {
  std::string Out = "[";
  for (size_t K = 0; K < Values.size(); ++K)
    Out += (K ? ", " : "") + formatDouble(Values[K]);
  return Out + "]";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    usage(("unknown workload '" + O.Workload + "'").c_str());

  std::vector<std::string> Errors;
  std::vector<double> SetupTimes;
  SetupLayers Setup;
  for (unsigned K = 0; K < SetupRuns; ++K) {
    Setup.clear();
    double T0 = nowSeconds();
    W->setup(O.Seed, Setup);
    SetupTimes.push_back(nowSeconds() - T0);
  }
  for (const std::string &P : W->computeReferences())
    Errors.push_back("reference: " + P);

  PassResult Warm = W->warmup();
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  std::vector<PassResult> Plain = runPasses(*W, nullptr, Budget);
  Tracer Trace;
  std::vector<PassResult> Traced;
  if (O.Trace)
    Traced = runPasses(*W, &Trace, Budget);

  // Every pass computes the same functions: its deterministic outputs
  // must repeat exactly.
  uint64_t Attempted = Warm.Attempted, Failed = Warm.Failed;
  const PassResult &First = Plain.front();
  for (const std::vector<PassResult> *Set : {&Plain, &Traced})
    for (const PassResult &P : *Set) {
      Attempted += P.Attempted;
      Failed += P.Failed;
      if (P.Moves != First.Moves || P.WeightedMoves != First.WeightedMoves ||
          P.SpillAccesses != First.SpillAccesses ||
          P.DynInstrs != First.DynInstrs)
        Errors.push_back("nondeterminism: moves / weighted moves / spill "
                         "accesses / dynamic instructions changed between "
                         "passes");
    }
  for (const std::string &E : W->consistencyErrors())
    Errors.push_back("consistency: " + E);

  // End-to-end figures from the untraced passes.
  std::vector<double> Latencies, Rates;
  for (const PassResult &P : Plain) {
    Latencies.insert(Latencies.end(), P.LatenciesMs.begin(),
                     P.LatenciesMs.end());
    Rates.push_back(P.Seconds > 0 ? P.Functions / P.Seconds : 0);
  }
  double CompileS = median(passSeconds(Plain));
  Tail TailL = tailLatency(Latencies);

  std::string Metrics = "{";
  std::string Extra;
  if (!O.Trace) {
    std::map<std::string, double> E2E = {
        {"compile_s", CompileS},
        {"fn_per_s", median(Rates)},
        {"latency_p50_ms", median(Latencies)},
        {"latency_tail_ms", TailL.Value},
        {"peak_rss_mb", peakRssMb()},
        {"setup_s", median(SetupTimes)},
        {"residual_moves", static_cast<double>(First.Moves)},
        {"dyn_instrs", static_cast<double>(First.DynInstrs)},
    };
    for (const MetricSpec &M : EndToEndMetrics)
      metric(Metrics, M.Name, E2E.at(M.Name), M.Unit);
  } else {
    // Per-layer figures from the traced passes, per pass.
    double N = static_cast<double>(Traced.size());
    std::map<std::string, double> SpanSeconds;
    for (const Span &S : Trace.spans())
      SpanSeconds[S.Name] += S.End - S.Start;
    SelfTimes Self = selfTimes(Trace.spans());
    if (Self.identityError() > 1e-9 * (1 + Self.RootSeconds))
      Errors.push_back("trace: root time != layer self times + unattributed");
    const PassResult &T0 = Traced.front();
    std::map<std::string, double> Layer;
    for (const PassResult &P : Traced)
      for (const auto &[Name, V] : P.Layer)
        Layer[Name] += V / N;
    Layer["weighted_moves"] = static_cast<double>(T0.WeightedMoves);
    Layer["spill_accesses"] = static_cast<double>(T0.SpillAccesses);
    Layer["workloads.generate_s"] = Setup["workloads.generate_s"];
    Layer["self.unattributed_s"] = Self.Unattributed / N;
    Layer["trace.overhead_s"] = median(passSeconds(Traced)) - CompileS;
    Layer["trace.spans"] = static_cast<double>(Trace.spans().size()) / N;

    for (const auto &[Name, Unit] : perLayerMetrics()) {
      double V = 0;
      std::string Stem = Name.substr(0, Name.size() - 2);
      if (Layer.count(Name))
        V = Layer[Name];
      else if (Name.rfind("self.", 0) == 0)
        V = Self.ByLayer[Stem.substr(5)] / N;
      else if (Unit == "s")
        // Set-up time (SSA normalisation in the large workloads) plus
        // per-pass span time.
        V = SpanSeconds[Stem] / N + Setup[Name];
      else if (T0.Counters.count(Name))
        V = static_cast<double>(T0.Counters.at(Name));
      metric(Metrics, Name, V, Unit);
    }

    std::filesystem::create_directories(O.TraceDir);
    std::string Path = O.TraceDir + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + ".json";
    std::ofstream(Path) << Trace.chromeJson();
    Extra += ", \"trace_file\": \"" + Path + "\"";
    Extra += ", \"traced_pass_seconds\": " + jsonList(passSeconds(Traced));
    // Self-time shares by span, largest first: where the time went.
    std::vector<std::pair<double, std::string>> Shares;
    for (const auto &[Name, S] : Self.ByName)
      Shares.emplace_back(S, Name);
    Shares.emplace_back(Self.Unattributed, "unattributed");
    std::sort(Shares.rbegin(), Shares.rend());
    Extra += ", \"self_share\": {";
    for (size_t K = 0; K < Shares.size(); ++K)
      Extra += (K ? ", \"" : "\"") + Shares[K].second + "\": " +
               formatDouble(Self.RootSeconds > 0
                                ? Shares[K].first / Self.RootSeconds
                                : 0);
    Extra += "}";
  }
  Metrics += "}";

  bool Correct = Failed == 0 && Errors.empty();
  for (const std::string &E : Errors)
    std::fprintf(stderr, "perfbench: %s\n", E.c_str());
  std::printf(
      "{\"details\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"setup_runs_s\": %s, \"pass_seconds\": %s, \"latency_samples\": %zu, "
      "\"tail_percentile\": \"%s\", \"tail_samples_beyond\": %zu, "
      "\"error_rate\": %s, \"weighted_moves\": %llu, "
      "\"spill_accesses\": %llu%s}}\n",
      O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
      O.Trace ? 1 : 0, jsonList(SetupTimes).c_str(),
      jsonList(passSeconds(Plain)).c_str(), Latencies.size(),
      TailL.Label.c_str(), TailL.Beyond,
      formatDouble(Attempted ? static_cast<double>(Failed) / Attempted : 0)
          .c_str(),
      static_cast<unsigned long long>(First.WeightedMoves),
      static_cast<unsigned long long>(First.SpillAccesses), Extra.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
