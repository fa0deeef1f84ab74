//===- bench_server.cpp - Compile-service transport throughput ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Measures the compile service end to end: a feeder thread streams
// framed requests through a loopback socketpair into Server::serve
// (wrapped in the same FdStreamBuf the daemon uses), a collector
// drains the responses, and the run is accounted both ways:
//
//  * deterministic service measurements — frames, batches, functions,
//    request bytes, served IR bytes, error count — which the bench
//    itself asserts are identical across repetitions and
//    check_bench_regression.py gates bit-identical against the
//    committed BENCH_server.json baseline;
//  * wall-clock throughput (median seconds, functions/second) — never
//    gated, surfaced by --report-seconds in the CI step summary.
//
// Two workloads bracket the service overhead: `suite146` (every suite
// function once, compile-bound — framing is a small tax) and
// `tiny_x20` (the example1-8 functions twenty times over — tiny
// compiles, so per-frame overhead dominates and batching pays). Both
// run with one REQ per function (`frames_x1`) and packed into BAT
// frames of 32 (`batch_x32`).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/IRPrinter.h"
#include "server/FdStream.h"
#include "server/Protocol.h"
#include "server/Server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace lao;
using namespace lao::bench;

namespace {

constexpr unsigned NumWorkers = 4;
constexpr unsigned Reps = 3;

struct ServiceRun {
  // Gated (deterministic) service measurements.
  uint64_t Frames = 0;
  uint64_t Batches = 0;
  uint64_t Functions = 0;
  uint64_t BytesIn = 0;  ///< Request stream size.
  uint64_t IrBytes = 0;  ///< Served IR payload (response framing and
                         ///< JSON records carry timings, so the full
                         ///< response byte count is not deterministic).
  uint64_t Errors = 0;
  // Non-gated.
  double Seconds = 0;
  StatsSnapshot Counters;

  bool sameMeasurements(const ServiceRun &O) const {
    return Frames == O.Frames && Batches == O.Batches &&
           Functions == O.Functions && BytesIn == O.BytesIn &&
           IrBytes == O.IrBytes && Errors == O.Errors;
  }
};

bool writeBytes(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = write(Fd, Data.data() + Off, Data.size() - Off);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Encodes \p Texts as request frames: one REQ each, or BAT frames of
/// \p BatchSize.
std::string encodeStream(const std::vector<std::string> &Texts,
                         unsigned BatchSize, uint64_t &Frames,
                         uint64_t &Batches) {
  std::string Bytes;
  if (BatchSize <= 1) {
    for (size_t K = 0; K < Texts.size(); ++K) {
      Request R;
      R.Id = K + 1;
      R.Text = Texts[K];
      Bytes += encodeRequest(R);
      ++Frames;
    }
    return Bytes;
  }
  for (size_t K = 0; K < Texts.size();) {
    BatchRequest B;
    B.Id = Frames + 1;
    for (unsigned N = 0; N < BatchSize && K < Texts.size(); ++N, ++K)
      B.Texts.push_back(Texts[K]);
    Bytes += encodeBatchRequest(B);
    ++Frames;
    ++Batches;
  }
  return Bytes;
}

/// One timed pass: requests through a socketpair into a fresh server,
/// responses drained and accounted.
ServiceRun runOnce(const std::vector<std::string> &Texts,
                   unsigned BatchSize) {
  ServiceRun Run;
  std::string ReqBytes =
      encodeStream(Texts, BatchSize, Run.Frames, Run.Batches);
  Run.BytesIn = ReqBytes.size();

  ServerOptions Opts;
  Opts.NumWorkers = NumWorkers;
  Server S(Opts);
  int SV[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, SV) != 0) {
    std::fprintf(stderr, "socketpair failed\n");
    std::exit(1);
  }

  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  auto T0 = std::chrono::steady_clock::now();
  std::thread Serving([&] {
    FdStreamBuf InBuf(SV[0]);
    FdStreamBuf OutBuf(SV[0]);
    std::istream In(&InBuf);
    std::ostream Out(&OutBuf);
    S.serve(In, Out);
    Out.flush();
    shutdown(SV[0], SHUT_WR);
  });
  std::string RspBytes;
  std::thread Collector([&] {
    char Buf[1u << 16];
    for (ssize_t N; (N = read(SV[1], Buf, sizeof(Buf))) > 0;)
      RspBytes.append(Buf, static_cast<size_t>(N));
  });
  if (!writeBytes(SV[1], ReqBytes)) {
    std::fprintf(stderr, "request feed failed\n");
    std::exit(1);
  }
  shutdown(SV[1], SHUT_WR);
  Collector.join();
  Serving.join();
  Run.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  Run.Counters =
      StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  close(SV[0]);
  close(SV[1]);

  std::istringstream In(RspBytes);
  FrameLimits Limits;
  Limits.MaxBodyBytes = 256u << 20;
  for (;;) {
    FrameKind Kind = FrameKind::Single;
    Response Rsp;
    BatchResponse Batch;
    std::string Error;
    FrameStatus St = readResponseFrame(In, Limits, Kind, Rsp, Batch, Error);
    if (St == FrameStatus::Eof)
      break;
    if (St != FrameStatus::Ok) {
      std::fprintf(stderr, "response stream: %s\n", Error.c_str());
      std::exit(1);
    }
    const std::vector<Response> OneItem = {Rsp};
    const std::vector<Response> &Items =
        Kind == FrameKind::Single ? OneItem : Batch.Items;
    for (const Response &Item : Items) {
      ++Run.Functions;
      Run.IrBytes += Item.IR.size();
      if (!Item.Ok)
        ++Run.Errors;
    }
  }
  return Run;
}

/// Repeats runOnce, asserts the service measurements never move, and
/// keeps the median wall-clock (first rep's counters — every rep's
/// compile work is identical by the same determinism argument).
ServiceRun runConfig(const char *Suite, const char *Config,
                     const std::vector<std::string> &Texts,
                     unsigned BatchSize) {
  std::vector<ServiceRun> Runs;
  for (unsigned K = 0; K < Reps; ++K) {
    Runs.push_back(runOnce(Texts, BatchSize));
    if (!Runs.back().sameMeasurements(Runs.front())) {
      std::fprintf(stderr,
                   "NONDETERMINISM: %s/%s rep %u measurements moved\n",
                   Suite, Config, K);
      std::exit(1);
    }
  }
  std::vector<double> Secs;
  for (const ServiceRun &R : Runs)
    Secs.push_back(R.Seconds);
  std::sort(Secs.begin(), Secs.end());
  ServiceRun Out = Runs.front();
  Out.Seconds = Secs[Secs.size() / 2];
  return Out;
}

struct Record {
  std::string Suite;
  std::string Config;
  ServiceRun Run;
};

std::string jsonString(const std::vector<Record> &Records) {
  JsonWriter W;
  W.beginObject();
  W.key("bench").value("server");
  W.key("records").beginArray();
  for (const Record &R : Records) {
    W.beginObject();
    W.key("suite").value(R.Suite);
    W.key("config").value(R.Config);
    W.key("frames").value(R.Run.Frames);
    W.key("batches").value(R.Run.Batches);
    W.key("functions").value(R.Run.Functions);
    W.key("bytes_in").value(R.Run.BytesIn);
    W.key("ir_bytes").value(R.Run.IrBytes);
    W.key("errors").value(R.Run.Errors);
    W.key("seconds").value(R.Run.Seconds);
    W.key("functions_per_sec")
        .value(R.Run.Seconds > 0 ? R.Run.Functions / R.Run.Seconds : 0.0);
    W.key("counters").beginObject();
    for (const auto &[Name, V] : R.Run.Counters)
      W.key(Name).value(V);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

/// `suite146`: every function of every named suite, once.
std::vector<std::string> allTexts() {
  std::vector<std::string> Texts;
  for (const auto &[Name, Suite] : suites())
    for (const Workload &W : Suite)
      Texts.push_back(printFunction(*W.F));
  return Texts;
}

/// `tiny_x20`: the example1-8 functions, twenty passes. Compiles are
/// ~0.1 ms each, so this workload isolates the per-frame service
/// overhead that batching amortizes.
std::vector<std::string> tinyTexts() {
  std::vector<std::string> Base;
  for (const auto &[Name, Suite] : suites())
    if (Name == "example1-8")
      for (const Workload &W : Suite)
        Base.push_back(printFunction(*W.F));
  std::vector<std::string> Texts;
  for (unsigned K = 0; K < 20; ++K)
    Texts.insert(Texts.end(), Base.begin(), Base.end());
  return Texts;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv, "--json=", "<file>");

  struct WorkloadSpec {
    const char *Suite;
    std::vector<std::string> Texts;
  };
  std::vector<WorkloadSpec> Workloads;
  Workloads.push_back({"suite146", allTexts()});
  Workloads.push_back({"tiny_x20", tinyTexts()});

  std::vector<Record> Records;
  std::printf("\nCompile-service throughput (%u workers, %u reps, median)\n",
              NumWorkers, Reps);
  std::printf("%-10s %-10s %9s %8s %10s %12s %14s\n", "suite", "config",
              "functions", "frames", "seconds", "funcs/sec", "ir-bytes");
  for (const WorkloadSpec &WS : Workloads) {
    double SingleFps = 0;
    for (auto [Config, BatchSize] :
         {std::pair<const char *, unsigned>{"frames_x1", 1},
          std::pair<const char *, unsigned>{"batch_x32", 32}}) {
      ServiceRun Run = runConfig(WS.Suite, Config, WS.Texts, BatchSize);
      if (Run.Errors != 0 || Run.Functions != WS.Texts.size()) {
        std::fprintf(stderr, "%s/%s: %llu errors, %llu/%zu answered\n",
                     WS.Suite, Config,
                     static_cast<unsigned long long>(Run.Errors),
                     static_cast<unsigned long long>(Run.Functions),
                     WS.Texts.size());
        return 1;
      }
      double Fps = Run.Seconds > 0 ? Run.Functions / Run.Seconds : 0;
      if (BatchSize <= 1)
        SingleFps = Fps;
      std::printf("%-10s %-10s %9llu %8llu %10.4f %12.0f %14llu\n",
                  WS.Suite, Config,
                  static_cast<unsigned long long>(Run.Functions),
                  static_cast<unsigned long long>(Run.Frames), Run.Seconds,
                  Fps, static_cast<unsigned long long>(Run.IrBytes));
      Records.push_back({WS.Suite, Config, std::move(Run)});
    }
    if (SingleFps > 0) {
      double Ratio = (Records.back().Run.Functions /
                      Records.back().Run.Seconds) /
                     SingleFps;
      std::printf("%-10s batch_x32 over frames_x1: %.2fx\n", WS.Suite,
                  Ratio);
    }
  }
  std::fflush(stdout);

  if (!JsonPath.empty())
    writeJsonFile(JsonPath, jsonString(Records));
  return 0;
}
