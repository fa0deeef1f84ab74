//===- lao-server.cpp - Persistent sharded compile daemon -----------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Long-running compile service over the out-of-SSA pipeline: reads
// framed requests (see src/server/Protocol.h and docs/SERVER.md) from
// stdin — or, with --listen-unix/--listen-tcp, from any number of
// concurrent socket connections sharing one worker pool — and writes
// responses back in per-connection request order. Diagnostics and the
// exit report go to stderr, so stdout stays a pure protocol stream.
//
//   lao-server [options]
//     --workers=N             worker pool size (default 4)
//     --max-body-bytes=N      frame body size limit (default 4 MiB)
//     --default-deadline-ms=N deadline for requests that carry none
//                             (default 0 = unlimited)
//     --max-inflight=N        per-connection backpressure window:
//                             frames dispatched but not yet answered
//                             (default 64, 0 = unbounded)
//     --default-regalloc=P    allocator preset applied to requests that
//                             carry no "regalloc" key, e.g. chordal or
//                             chaitin-briggs/load-store-opt (default:
//                             none — such requests skip allocation)
//     --listen-unix=PATH      serve a Unix-domain socket instead of
//                             stdin/stdout
//     --listen-tcp=SPEC       serve TCP ("port" or "host:port"; a bare
//                             port binds loopback only)
//     --stats                 print the merged per-request counter
//                             deltas with the exit report
//
// SIGINT/SIGTERM request a graceful shutdown: the daemon stops taking
// new frames, drains everything in flight, flushes the reorder
// buffers, and exits 0.
//
// Exit status: 0 on clean EOF or signal-driven drain, 1 after an
// unrecoverable framing error on the stdio stream (a final id-0
// protocol error record is still written; socket-mode framing errors
// only end their own connection), 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "regalloc/RegAlloc.h"
#include "server/FdStream.h"
#include "server/Server.h"
#include "server/SocketTransport.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include <unistd.h>

using namespace lao;

namespace {

/// Set by the signal handlers; polled by the stop-aware streambuf (the
/// stdio reader) and the socket accept loop.
std::atomic<bool> GStop{false};

void onShutdownSignal(int) { GStop.store(true, std::memory_order_release); }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers=N] [--max-body-bytes=N] "
               "[--default-deadline-ms=N] [--max-inflight=N] "
               "[--default-regalloc=<preset>] "
               "[--listen-unix=PATH | --listen-tcp=SPEC] [--stats]\n",
               Argv0);
  return 2;
}

bool parseUnsigned(const std::string &Arg, const char *Prefix,
                   uint64_t &Out) {
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = std::strtoull(Arg.c_str() + std::strlen(Prefix), nullptr, 10);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  bool PrintStats = false;
  std::string ListenUnix, ListenTcp;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    uint64_t V = 0;
    if (parseUnsigned(A, "--workers=", V)) {
      Opts.NumWorkers = static_cast<unsigned>(V);
    } else if (parseUnsigned(A, "--max-body-bytes=", V)) {
      Opts.Limits.MaxBodyBytes = static_cast<size_t>(V);
    } else if (parseUnsigned(A, "--default-deadline-ms=", V)) {
      Opts.DefaultDeadlineMs = V;
    } else if (parseUnsigned(A, "--max-inflight=", V)) {
      Opts.MaxInFlightFrames = static_cast<unsigned>(V);
    } else if (A.rfind("--default-regalloc=", 0) == 0) {
      Opts.DefaultRegAlloc = A.substr(std::strlen("--default-regalloc="));
      if (!regAllocPresetOpt(Opts.DefaultRegAlloc)) {
        std::fprintf(stderr, "unknown regalloc preset '%s'\n",
                     Opts.DefaultRegAlloc.c_str());
        return usage(Argv[0]);
      }
    } else if (A.rfind("--listen-unix=", 0) == 0) {
      ListenUnix = A.substr(std::strlen("--listen-unix="));
    } else if (A.rfind("--listen-tcp=", 0) == 0) {
      ListenTcp = A.substr(std::strlen("--listen-tcp="));
    } else if (A == "--stats") {
      PrintStats = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return usage(Argv[0]);
    }
  }
  if (!ListenUnix.empty() && !ListenTcp.empty()) {
    std::fprintf(stderr, "--listen-unix and --listen-tcp are exclusive\n");
    return usage(Argv[0]);
  }

  // No SA_RESTART: a signal must interrupt blocked reads/accepts so the
  // EINTR-retrying poll loops re-check the stop flag promptly.
  struct sigaction SA = {};
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN); // A vanished client is that client's problem.

  Server S(Opts);
  int Rc = 0;
  if (!ListenUnix.empty() || !ListenTcp.empty()) {
    std::string Error;
    int ListenFd = !ListenUnix.empty()
                       ? listenUnixSocket(ListenUnix, Error)
                       : listenTcpSocket(ListenTcp, Error);
    if (ListenFd < 0) {
      std::fprintf(stderr, "lao-server: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "lao-server: listening on %s\n",
                 (!ListenUnix.empty() ? ListenUnix : ListenTcp).c_str());
    Rc = runSocketServer(S, ListenFd, GStop);
    close(ListenFd);
    if (!ListenUnix.empty())
      unlink(ListenUnix.c_str());
  } else {
    FdStreamBuf InBuf(STDIN_FILENO, &GStop);
    FdStreamBuf OutBuf(STDOUT_FILENO);
    std::istream In(&InBuf);
    std::ostream Out(&OutBuf);
    Rc = S.serve(In, Out);
    Out.flush();
  }

  const ServerReport &R = S.report();
  std::fprintf(stderr,
               "lao-server: %llu requests (%llu ok, %llu errors: "
               "%llu timeout, %llu parse, %llu oversized, %llu pipeline, "
               "%llu batch), %llu batches, max in-flight %llu%s\n",
               static_cast<unsigned long long>(R.NumRequests),
               static_cast<unsigned long long>(R.NumOk),
               static_cast<unsigned long long>(R.NumErrors),
               static_cast<unsigned long long>(R.NumTimeouts),
               static_cast<unsigned long long>(R.NumParseErrors),
               static_cast<unsigned long long>(R.NumOversized),
               static_cast<unsigned long long>(R.NumPipelineErrors),
               static_cast<unsigned long long>(R.NumBatchErrors),
               static_cast<unsigned long long>(R.NumBatches),
               static_cast<unsigned long long>(R.MaxInFlight),
               GStop.load(std::memory_order_acquire)
                   ? " (drained after shutdown signal)"
                   : "");
  if (PrintStats) {
    std::fprintf(stderr, "=== merged per-request counters ===\n");
    for (const auto &[Key, Value] : R.MergedCounters)
      std::fprintf(stderr, "%12llu  %s\n",
                   static_cast<unsigned long long>(Value), Key.c_str());
  }
  return Rc;
}
