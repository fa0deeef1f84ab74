//===- ServiceWorkload.cpp - service_small: the compile service ------------===//
//
// Part of the lao perfbench package.
//
//===----------------------------------------------------------------------===//
//
// An in-process Server with three pool workers, fed over one socketpair
// connection (opened by the warm-up pass, kept for the run) by a
// closed-loop client that keeps at most eight frames in flight (the way `lao-client --batch` pipelines a bounded
// window and waits). The stream is built from the seed in set-up:
//
//  * 512 generated small functions (20-40 statements), sent as non-SSA
//    text with `ssa: 1`: 256 in single REQ frames, 256 in 16 BAT frames
//    of 16; plus the example1-8 functions, already SSA, as single REQ
//    frames without `ssa`;
//  * an eighth of the single frames carries
//    `regalloc: chordal/load-store-opt` with `regalloc_regs: 8`; their
//    32 functions come from a fixed seed (see setup), all others from
//    the run's seed;
//  * within each kind of frame, pipelines alternate Lphi,ABI+C and
//    C,naiveABI+C, and a seeded eighth of the frames carries `exec: vm`;
//  * the frames go out in sixteen blocks of a fixed shape (sixteen
//    singles, one batch, an example every other block); the seed fills
//    the slots. Spreading the batches and options evenly keeps the work
//    in the in-flight window alike from seed to seed.
//
// Every returned function is parsed back and run in the VM on its
// frame's argument vector; the trace must match the interpreter's run
// of the function text that was sent. Records that executed in the
// server must report the same outputs.
//
//===----------------------------------------------------------------------===//

#include "MiniJson.h"
#include "Workload.h"

#include "exec/Bytecode.h"
#include "exec/Interpreter.h"
#include "exec/VM.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "server/FdStream.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Rng.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace lao;

namespace perfbench {
namespace {

constexpr unsigned NumWorkers = 3;
constexpr unsigned Window = 8; ///< Frames in flight, at most.
constexpr unsigned NumSingles = 256;
constexpr unsigned NumAllocs = NumSingles / 8; ///< Singles that allocate.
constexpr unsigned NumBatches = 16;
constexpr unsigned BatchSize = 16;
constexpr const char *RegAllocPreset = "chordal/load-store-opt";
constexpr unsigned RegAllocRegs = 8;

/// One function inside a frame.
struct ServiceItem {
  std::string Text;
  bool Ssa = false; ///< Sent with `ssa: 1` (generated non-SSA text).
  ExecResult Ref;   ///< Interpreter run of Text on the frame's Args.
};

struct ServiceFrame {
  uint64_t Id = 0;
  bool Batch = false;
  std::string Pipeline;
  bool RegAlloc = false;
  bool Exec = false;
  std::vector<uint64_t> Args; ///< Every item's arguments.
  std::vector<ServiceItem> Items;
  std::string Bytes; ///< The encoded frame.
};

bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = write(Fd, Data.data() + Off, Data.size() - Off);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// What the client's reader thread got back for one frame.
struct Reply {
  double Received = 0;
  FrameKind Kind = FrameKind::Single;
  Response Single;
  BatchResponse Batch;
};

/// One connection to the in-process server for the whole run: a
/// socketpair, the thread running Server::serve on one end, and the
/// client's reader thread on the other. Responses arrive in send order;
/// the reader files each into the next slot of the current pass.
class Connection {
public:
  explicit Connection(Server &Srv) {
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, SV) != 0) {
      std::fprintf(stderr, "FAILED: socketpair\n");
      Done = true;
      return;
    }
    Serving = std::thread([this, &Srv] {
      FdStreamBuf InBuf(SV[0]);
      FdStreamBuf OutBuf(SV[0]);
      std::istream In(&InBuf);
      std::ostream Out(&OutBuf);
      Srv.serve(In, Out);
      Out.flush();
      shutdown(SV[0], SHUT_WR);
    });
    Reader = std::thread([this] { readLoop(); });
  }

  ~Connection() {
    if (Serving.joinable()) {
      shutdown(SV[1], SHUT_WR); // EOF ends serve(), which ends the reader.
      Serving.join();
      Reader.join();
      close(SV[0]);
      close(SV[1]);
    }
  }

  /// Sends \p Frames with at most Window in flight and waits for every
  /// response. Returns the number answered (all unless the stream broke).
  size_t exchange(const std::vector<ServiceFrame> &Frames,
                  std::vector<double> &Sent, std::vector<Reply> &Replies,
                  double &Stall, unsigned &MaxInFlight) {
    {
      std::lock_guard<std::mutex> G(M);
      Slots = &Replies;
      Filled = 0;
    }
    for (size_t K = 0; K < Frames.size(); ++K) {
      {
        std::unique_lock<std::mutex> L(M);
        double W0 = nowSeconds();
        Cv.wait(L, [&] { return K - Filled < Window || Done; });
        Stall += nowSeconds() - W0;
        if (Done)
          break;
        MaxInFlight = std::max(MaxInFlight, static_cast<unsigned>(K + 1 -
                                                                 Filled));
      }
      Sent[K] = nowSeconds();
      if (!writeAll(SV[1], Frames[K].Bytes))
        break;
    }
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Filled == Frames.size() || Done; });
    Slots = nullptr;
    return Filled;
  }

  const std::string &streamError() const { return Error; }

private:
  void readLoop() {
    FdStreamBuf Buf(SV[1]);
    std::istream In(&Buf);
    FrameLimits Limits;
    Limits.MaxBodyBytes = 256u << 20;
    for (;;) {
      Reply Rep;
      std::string Why;
      FrameStatus St =
          readResponseFrame(In, Limits, Rep.Kind, Rep.Single, Rep.Batch, Why);
      Rep.Received = nowSeconds();
      std::lock_guard<std::mutex> G(M);
      if (St != FrameStatus::Ok || !Slots || Filled == Slots->size()) {
        if (St != FrameStatus::Eof)
          Error = St == FrameStatus::Ok ? "unexpected response" : Why;
        Done = true;
        Cv.notify_all();
        return;
      }
      (*Slots)[Filled++] = std::move(Rep);
      Cv.notify_all();
    }
  }

  int SV[2] = {-1, -1};
  std::thread Serving, Reader;
  std::mutex M;
  std::condition_variable Cv;
  std::vector<Reply> *Slots = nullptr; ///< The current pass's replies.
  size_t Filled = 0;
  bool Done = false; ///< The stream ended or broke.
  std::string Error;
};

class ServiceWorkload : public Workload {
public:
  void setup(uint64_t Seed, SetupLayers &Layers) override {
    Frames.clear();
    Conn.reset();
    Srv.reset();
    ServerOptions Opts;
    Opts.NumWorkers = NumWorkers;
    Srv = std::make_unique<Server>(Opts);

    // The functions that allocate registers are the same for every seed.
    // Replies go out in order, so one slow allocation holds up the frames
    // behind it and the tail latency is the cost of the most expensive
    // allocation in the stream; drawn from the seed, that cost moved the
    // tail 30% from seed to seed.
    auto Generate = [](Rng &R, unsigned Count, const char *Prefix) {
      std::vector<std::string> Texts;
      for (unsigned K = 0; K < Count; ++K) {
        GeneratorParams P;
        P.Seed = R.next();
        P.NumStatements = 20 + static_cast<unsigned>(R.below(21));
        Texts.push_back(printFunction(
            *generateProgram(P, Prefix + std::to_string(K))));
      }
      return Texts;
    };
    Rng R(Seed * 0x9E3779B97F4A7C15ULL + 0x5E41CE);
    Rng Fixed(0xA110CA7E);
    double T0 = nowSeconds();
    std::vector<std::string> Generated =
        Generate(R, NumSingles - NumAllocs + NumBatches * BatchSize, "g");
    std::vector<std::string> AllocTexts = Generate(Fixed, NumAllocs, "a");
    std::vector<lao::Workload> ExampleSuite = makeExamplesSuite();
    Layers["workloads.generate_s"] += nowSeconds() - T0;

    // Otherwise the seed draws every function, argument vector and which
    // frames execute; the shape of the stream is fixed, because the frame
    // latencies of a closed loop with in-order replies depend on it.
    std::vector<ServiceFrame> Singles, Allocs, Batches(NumBatches), Examples;
    for (unsigned K = 0; K < NumSingles - NumAllocs; ++K) {
      Singles.emplace_back();
      Singles.back().Items.push_back({Generated[K], true, {}});
    }
    for (std::string &Text : AllocTexts) {
      Allocs.emplace_back();
      Allocs.back().RegAlloc = true;
      Allocs.back().Items.push_back({std::move(Text), true, {}});
    }
    // Batches are dealt like cards, largest text first, back and forth,
    // so every batch carries about the same amount of work.
    std::vector<std::string> Batched(Generated.begin() + Singles.size(),
                                     Generated.end());
    std::stable_sort(Batched.begin(), Batched.end(),
                     [](const std::string &A, const std::string &B) {
                       return A.size() > B.size();
                     });
    for (size_t K = 0; K < Batched.size(); ++K) {
      size_t Round = K / NumBatches, Seat = K % NumBatches;
      ServiceFrame &F = Batches[Round % 2 ? NumBatches - 1 - Seat : Seat];
      F.Batch = true;
      F.Items.push_back({std::move(Batched[K]), true, {}});
    }
    for (lao::Workload &W : ExampleSuite) {
      Examples.emplace_back();
      Examples.back().Items.push_back({printFunction(*W.F), false, {}});
      Examples.back().Args = W.Inputs.front(); // The recorded input.
    }
    // Within each kind, walking from the largest frame, pipelines
    // alternate, and each run of frames as long as the kind has runs of
    // eight slots gives exec to one seeded member.
    for (std::vector<ServiceFrame> *Kind :
         {&Singles, &Allocs, &Batches, &Examples}) {
      std::vector<ServiceFrame *> BySize;
      for (ServiceFrame &F : *Kind)
        BySize.push_back(&F);
      auto Size = [](const ServiceFrame *F) {
        size_t Bytes = 0;
        for (const ServiceItem &It : F->Items)
          Bytes += It.Text.size();
        return Bytes;
      };
      std::stable_sort(BySize.begin(), BySize.end(),
                       [&](const ServiceFrame *A, const ServiceFrame *B) {
                         return Size(A) > Size(B);
                       });
      for (size_t K = 0; K < BySize.size(); ++K) {
        ServiceFrame &F = *BySize[K];
        F.Pipeline = K % 2 ? "C,naiveABI+C" : "Lphi,ABI+C";
        if (F.Items.front().Ssa)
          F.Args = {R.below(1000), R.below(1000)};
      }
      if (Kind == &Allocs)
        continue;
      size_t Run = Kind == &Singles ? Singles.size() / NumAllocs : 8;
      for (size_t G = 0; G < BySize.size(); G += Run)
        BySize[G + R.below(std::min(Run, BySize.size() - G))]->Exec = true;
    }
    // The stream: sixteen blocks of sixteen singles, the batch after the
    // eighth, an example last in every other block. Allocating singles
    // take slots 3 and 11 of each block, in a fixed order; executing
    // singles slots 5 and 13, the others the remaining slots, in a seeded
    // order.
    std::vector<ServiceFrame> Exec, Plain;
    for (ServiceFrame &F : Singles)
      (F.Exec ? Exec : Plain).push_back(std::move(F));
    auto Take = [&](std::vector<ServiceFrame> &From) {
      size_t K = &From == &Allocs ? 0 : R.below(From.size());
      ServiceFrame F = std::move(From[K]);
      From.erase(From.begin() + static_cast<std::ptrdiff_t>(K));
      return F;
    };
    for (unsigned B = 0; B < NumBatches; ++B) {
      for (unsigned Slot = 0; Slot < NumSingles / NumBatches; ++Slot) {
        if (Slot == 8)
          Frames.push_back(std::move(Batches[B]));
        Frames.push_back(Take(Slot % 8 == 3   ? Allocs
                              : Slot % 8 == 5 ? Exec
                                              : Plain));
      }
      if (B % 2 == 0)
        Frames.push_back(std::move(Examples[B / 2]));
    }
    for (size_t K = 0; K < Frames.size(); ++K) {
      Frames[K].Id = K + 1;
      Frames[K].Bytes = encode(Frames[K]);
    }
  }

  std::vector<std::string> computeReferences() override {
    std::vector<std::string> Problems;
    for (ServiceFrame &F : Frames)
      for (ServiceItem &It : F.Items) {
        std::string Error;
        std::unique_ptr<Function> Fn = parseFunction(It.Text, &Error);
        if (!Fn) {
          Problems.push_back("frame " + std::to_string(F.Id) +
                             ": input does not parse: " + Error);
          continue;
        }
        It.Ref = interpret(*Fn, F.Args);
        if (!It.Ref.ok())
          Problems.push_back("frame " + std::to_string(F.Id) +
                             ": reference run failed: " + It.Ref.Error);
      }
    return Problems;
  }

  PassResult pass(Tracer *T) override {
    PassResult R;
    if (!Conn)
      Conn = std::make_unique<Connection>(*Srv);
    std::vector<double> Sent(Frames.size(), 0);
    std::vector<Reply> Replies(Frames.size());
    double Stall = 0;
    unsigned MaxInFlight = 0;

    lao::StatsSnapshot Before = StatsRegistry::instance().snapshot();
    double Start = nowSeconds();
    size_t NumReceived = Conn->exchange(Frames, Sent, Replies, Stall,
                                        MaxInFlight);
    R.Seconds = (NumReceived ? Replies[NumReceived - 1].Received
                             : nowSeconds()) -
                Start;
    R.Counters =
        StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
    if (NumReceived < Frames.size())
      std::fprintf(stderr, "FAILED: response stream: %s\n",
                   Conn->streamError().empty() ? "ended early"
                                               : Conn->streamError().c_str());

    // Everything below is checking and accounting, outside the timing.
    double WorkerSum = 0, WaitSum = 0;
    for (size_t K = 0; K < Frames.size(); ++K) {
      const ServiceFrame &F = Frames[K];
      R.Attempted += F.Items.size();
      if (K >= NumReceived) {
        R.Failed += F.Items.size();
        continue;
      }
      const Reply &Rep = Replies[K];
      const std::vector<Response> One = {Rep.Single};
      const std::vector<Response> &Rsps =
          Rep.Kind == FrameKind::Single ? One : Rep.Batch.Items;
      double Worker = 0;
      for (size_t I = 0; I < F.Items.size(); ++I) {
        bool Ok = I < Rsps.size() &&
                  check(F, F.Items[I], Rsps[I], R, Worker);
        if (Ok)
          ++R.Functions;
        else
          ++R.Failed;
      }
      double Latency = Rep.Received - Sent[K];
      R.LatenciesMs.push_back(Latency * 1e3);
      WorkerSum += Worker;
      WaitSum += std::max(0.0, Latency - Worker);
      if (T) {
        unsigned Lane = 1 + static_cast<unsigned>(K % Window);
        int Root = T->add("frame", "client", F.Id, -1, Sent[K], Rep.Received,
                          Lane);
        T->add("server.worker", "server", F.Id, Root,
               Rep.Received - std::min(Worker, Latency), Rep.Received, Lane);
      }
    }
    R.Layer["server.worker_s"] = WorkerSum;
    R.Layer["server.wait_s"] = WaitSum;
    R.Layer["server.busy_frac"] =
        R.Seconds > 0 ? WorkerSum / (R.Seconds * NumWorkers) : 0;
    R.Layer["server.frames"] = static_cast<double>(NumReceived);
    R.Layer["server.max_inflight"] = MaxInFlight;
    R.Layer["client.stall_s"] = Stall;
    return R;
  }

  /// Replays every request of a pass on this thread, in spans around
  /// each layer call the server makes for it: parse, SSA normalisation,
  /// pipeline (with phases), register allocation, print, execution.
  void replay(Tracer &T) override {
    constexpr unsigned Lane = Window + 2;
    for (const ServiceFrame &F : Frames) {
      PipelineConfig Config = pipelinePreset(F.Pipeline);
      for (const ServiceItem &It : F.Items) {
        int Root = T.begin("replay", "bench", F.Id, -1, Lane);
        std::unique_ptr<Function> Fn;
        {
          SpanScope S(&T, "ir.parse", "ir", F.Id, Root, Lane);
          Fn = parseFunction(It.Text);
        }
        if (It.Ssa) {
          SpanScope S(&T, "ssa.normalize", "ssa", F.Id, Root, Lane);
          normalizeToOptimizedSSA(*Fn);
        }
        pipelineSpan(*Fn, Config, &T, F.Id, Root, Lane);
        if (F.RegAlloc) {
          RegAllocOptions Opts = regAllocPreset(RegAllocPreset);
          Opts.NumRegs = RegAllocRegs;
          SpanScope S(&T, "regalloc.chordal.alloc", "regalloc", F.Id, Root,
                      Lane);
          allocateRegisters(*Fn, Opts);
        }
        {
          SpanScope S(&T, "ir.print", "ir", F.Id, Root, Lane);
          printFunction(*Fn);
        }
        if (F.Exec) {
          BytecodeFunction BF;
          {
            SpanScope S(&T, "exec.compile", "exec", F.Id, Root, Lane);
            BF = compileToBytecode(*Fn);
          }
          SpanScope S(&T, "exec.vm", "exec", F.Id, Root, Lane);
          runBytecode(BF, F.Args);
        }
        {
          SpanScope S(&T, "ir.free", "ir", F.Id, Root, Lane);
          Fn.reset();
        }
        T.end(Root);
      }
    }
  }

private:
  static std::string encode(const ServiceFrame &F) {
    auto Fill = [&](auto &Req) {
      Req.Id = F.Id;
      Req.Pipeline = F.Pipeline;
      Req.BuildSSA = F.Items.front().Ssa;
      if (F.RegAlloc) {
        Req.RegAlloc = RegAllocPreset;
        Req.RegAllocRegs = RegAllocRegs;
      }
      if (F.Exec) {
        Req.Exec = "vm";
        Req.ExecArgs = F.Args;
      }
    };
    if (!F.Batch) {
      Request Req;
      Fill(Req);
      Req.Text = F.Items.front().Text;
      return encodeRequest(Req);
    }
    BatchRequest Req;
    Fill(Req);
    for (const ServiceItem &It : F.Items)
      Req.Texts.push_back(It.Text);
    return encodeBatchRequest(Req);
  }

  /// Checks one returned function; accumulates its record's counts.
  static bool check(const ServiceFrame &F, const ServiceItem &It,
                    const Response &Rsp, PassResult &R, double &Worker) {
    std::optional<JsonValue> Rec = parseJson(Rsp.RecordJson);
    auto Fail = [&](const std::string &Why) {
      std::fprintf(stderr, "MISMATCH: frame %llu (%s%s%s): %s\n",
                   static_cast<unsigned long long>(F.Id), F.Pipeline.c_str(),
                   F.RegAlloc ? ", regalloc" : "", F.Exec ? ", exec" : "",
                   Why.c_str());
      return false;
    };
    if (!Rec)
      return Fail("unreadable record: " + Rsp.RecordJson);
    auto Num = [&](const char *Key) {
      const JsonValue *V = Rec->get(Key);
      return V ? V->asU64() : 0;
    };
    if (const JsonValue *S = Rec->get("seconds"))
      Worker += S->asDouble();
    if (!Rsp.Ok)
      return Fail("record not ok: " + Rsp.RecordJson);
    R.Moves += Num("moves");
    R.WeightedMoves += Num("weighted_moves");
    R.SpillAccesses += Num("spill_accesses");

    std::string Error;
    std::unique_ptr<Function> Back = parseFunction(Rsp.IR, &Error);
    if (!Back)
      return Fail("returned IR does not parse: " + Error);
    ExecResult ER = executeVM(*Back, F.Args);
    R.DynInstrs += ER.Steps;
    if (!It.Ref.sameObservable(ER))
      return Fail("returned code differs from the input: " +
                  (ER.ok() ? std::string("different outputs") : ER.Error));
    if (F.Exec) {
      const JsonValue *Outs = Rec->get("exec_outputs");
      const JsonValue *Status = Rec->get("exec_status");
      std::vector<uint64_t> Got;
      if (Outs)
        for (const JsonValue &V : Outs->Items)
          Got.push_back(V.asU64());
      if (!Status || Status->Text != "ok" || Got != It.Ref.Outputs ||
          Num("exec_ret") != It.Ref.RetValue)
        return Fail("server-side execution differs from the reference");
    }
    return true;
  }

  std::unique_ptr<Server> Srv;
  std::unique_ptr<Connection> Conn; ///< Opened by the first pass.
  std::vector<ServiceFrame> Frames;
};

} // namespace

std::unique_ptr<Workload> makeServiceWorkload() {
  return std::make_unique<ServiceWorkload>();
}

} // namespace perfbench
