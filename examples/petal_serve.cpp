//===- examples/petal_serve.cpp - The petald completion daemon ------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The serving entry point the ROADMAP asks for: a resident process that
// owns parsed documents and completion indexes and answers framed JSON-RPC
// requests (see service/Protocol.h for the method set). By default it
// speaks Content-Length framing over stdin/stdout, exactly like a language
// server, so an editor plugin — or a human with printf — can drive it:
//
//   $ printf 'Content-Length: 64\r\n\r\n{...}' | ./build/examples/petal_serve
//
// With --tcp PORT it listens on 127.0.0.1:PORT instead and serves one
// connection at a time (each connection gets a fresh service, i.e. its own
// sessions and cache).
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "service/Transport.h"
#include "support/CliArgs.h"
#include "support/FaultInjector.h"

#include <fstream>
#include <iostream>
#include <sstream>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace petal;

namespace {

// The fd <-> iostream bridge (FdStreamBuf, with EINTR and short-write
// handling) lives in service/Transport.h, and the connection loop is the
// library's serveStream (service/Service.h) — both covered by the wire and
// robustness tests rather than duplicated here.

int serveTcp(uint16_t Port, const PetalService::Options &Opts) {
  int Listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Listener < 0) {
    std::cerr << "petal_serve: socket() failed\n";
    return 1;
  }
  int One = 1;
  ::setsockopt(Listener, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(Listener, 4) < 0) {
    std::cerr << "petal_serve: cannot listen on 127.0.0.1:" << Port << "\n";
    ::close(Listener);
    return 1;
  }
  std::cerr << "petal_serve: listening on 127.0.0.1:" << Port << "\n";
  for (;;) {
    int Conn = ::accept(Listener, nullptr, nullptr);
    if (Conn < 0)
      break;
    std::cerr << "petal_serve: client connected\n";
    FdStreamBuf Buf(Conn);
    std::istream In(&Buf);
    std::ostream Out(&Buf);
    serveStream(In, Out, Opts);
    ::close(Conn);
    std::cerr << "petal_serve: client disconnected\n";
  }
  ::close(Listener);
  return 0;
}

/// Fixes glibc's mmap and trim thresholds for the daemon. Every completion
/// allocates its candidates in fresh arenas of up to 1 MiB slabs and frees
/// them when it answers; an argument query takes several MiB. Under
/// glibc's dynamic thresholds, which only rise when a large mapped block
/// is freed, those slabs are mapped, or the heap top is trimmed after the
/// query, and the next query faults all of its pages in again. With these
/// fixed sizes freed memory stays in the heap, where any later allocation
/// reuses it, not only the next query's.
void keepQueryMemoryInTheHeap() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 8 << 20);
  mallopt(M_TRIM_THRESHOLD, 16 << 20);
#endif
}

} // namespace

int main(int argc, char **argv) {
  keepQueryMemoryInTheHeap();
  PetalService::Options Opts;
  size_t TcpPort = 0;
  bool UseTcp = false;
  std::string BasePath;
  std::string BaseSnapshotPath;

  FlagParser Flags("petal_serve",
                   "resident completion daemon (framed JSON-RPC)");
  Flags.addFlag("base", "FILE",
                "serve every document as an overlay over this shared "
                "framework corpus source (parsed, frozen, and solved once "
                "at startup)",
                [&](const std::string &V) {
                  BasePath = V;
                  return !BasePath.empty();
                });
  Flags.addFlag("base-snapshot", "FILE",
                "like --base, but adopt the shared corpus zero-copy from a "
                "snapshot written by corpus_explorer --save-snapshot "
                "(refuses to start on any defect)",
                [&](const std::string &V) {
                  BaseSnapshotPath = V;
                  return !BaseSnapshotPath.empty();
                });
  Flags.addFlag("max-sessions", "N",
                "cap on open sessions; exceeding opens evict the "
                "least-recently-used idle session (default 0 = unlimited)",
                [&](const std::string &V) {
                  return parseCount(V, "max-sessions", Opts.MaxSessions);
                });
  Flags.addFlag("workers", "N", "service worker threads (default 2)",
                [&](const std::string &V) {
                  return parseCount(V, "workers", Opts.Workers);
                });
  Flags.addFlag("cache", "N", "result cache entries (default 1024, 0 = off)",
                [&](const std::string &V) {
                  return parseCount(V, "cache", Opts.CacheCapacity);
                });
  Flags.addFlag("tcp", "PORT", "listen on 127.0.0.1:PORT instead of stdio",
                [&](const std::string &V) {
                  UseTcp = true;
                  if (!parseCount(V, "tcp", TcpPort))
                    return false;
                  if (TcpPort == 0 || TcpPort > 65535) {
                    std::cerr << "error: --tcp expects a port in [1, 65535]\n";
                    return false;
                  }
                  return true;
                });
  Flags.addFlag("max-queue", "N",
                "admission cap on outstanding requests; excess is shed "
                "with ServerOverloaded + retryAfterMs (default 0 = no cap)",
                [&](const std::string &V) {
                  return parseCount(V, "max-queue", Opts.MaxQueue);
                });
  Flags.addFlag("max-strand-depth", "N",
                "cap on one document's pending requests (default 0 = no "
                "cap)",
                [&](const std::string &V) {
                  return parseCount(V, "max-strand-depth",
                                    Opts.MaxStrandDepth);
                });
  Flags.addFlag("watchdog-ms", "MS",
                "fail tasks executing longer than MS with InternalError "
                "(default 0 = disabled)",
                [&](const std::string &V) {
                  size_t Ms = 0;
                  if (!parseCount(V, "watchdog-ms", Ms))
                    return false;
                  Opts.WatchdogMs = static_cast<double>(Ms);
                  return true;
                });
  Flags.addFlag("max-frame-bytes", "N",
                "per-message payload cap on the wire (default 16 MiB)",
                [&](const std::string &V) {
                  return parseCount(V, "max-frame-bytes",
                                    Opts.MaxFrameBytes);
                });
  Flags.addFlag("faults", "SPEC",
                "arm deterministic fault injection: seed[:permille[:names]] "
                "(names: comma list or 'all'; also via PETAL_FAULTS). "
                "Testing only",
                [&](const std::string &V) {
                  std::string Error;
                  if (!FaultInjector::instance().armFromSpec(V, Error)) {
                    std::cerr << "error: --faults: " << Error << "\n";
                    return false;
                  }
                  return true;
                });
  Flags.addSwitch("test-hooks",
                  "enable the $/test/* scheduling hooks (testing only)",
                  [&] {
                    Opts.EnableTestHooks = true;
                    return true;
                  });
  if (!Flags.parse(argc, argv))
    return Flags.exitCode();

  if (Opts.Workers == 0)
    Opts.Workers = 2;
  if (!BasePath.empty() && !BaseSnapshotPath.empty()) {
    std::cerr << "error: --base and --base-snapshot are exclusive\n";
    return 1;
  }

  if (!BasePath.empty()) {
    std::ifstream In(BasePath, std::ios::binary);
    if (!In) {
      std::cerr << "petal_serve: cannot read base corpus '" << BasePath
                << "'\n";
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Error;
    Opts.Base = baseCorpusFromSource(Buf.str(), Error);
    if (!Opts.Base) {
      // Unlike a stale snapshot, a broken base corpus is a configuration
      // error, not a cache miss — serving overlay-less would silently
      // change what completions mean, so refuse to start.
      std::cerr << "petal_serve: base corpus rejected: " << Error << "\n";
      return 1;
    }
    std::cerr << "petal_serve: base corpus '" << BasePath << "' ready ("
              << Opts.Base->TS->numTypes() << " types, "
              << Opts.Base->TS->numMethods() << " methods, "
              << Opts.Base->BuildMillis << " ms)\n";
  } else if (!BaseSnapshotPath.empty()) {
    std::string Error;
    auto Snap = snapshot::loadSnapshot(BaseSnapshotPath, Error);
    if (!Snap) {
      std::cerr << "petal_serve: base snapshot rejected: " << Error << "\n";
      return 1;
    }
    Opts.Base = baseCorpusFromSnapshot(Snap);
    std::cerr << "petal_serve: base corpus adopted from '"
              << BaseSnapshotPath << "' (" << Snap->Bytes << " bytes, "
              << (Snap->Mapped ? "mmap" : "buffered") << ", "
              << Snap->LoadMillis << " ms)\n";
  }

  if (UseTcp)
    return serveTcp(static_cast<uint16_t>(TcpPort), Opts);
  serveStream(std::cin, std::cout, Opts);
  return 0;
}
