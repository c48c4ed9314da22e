//===- tests/service_test.cpp - petald service + wire-layer tests ---------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Covers the completion service end to end: Content-Length framing
// (round-trips, truncated and oversized lengths), the JSON-RPC dispatch,
// session/version lifecycle, the result cache (hits byte-identical,
// invalidation on edit), interleaved cancellation and deadlines via the
// deterministic $/test gates, and a multi-client stress that checks every
// service answer against a direct CompletionEngine::complete on the same
// text. The concurrency cases run under ThreadSanitizer in scripts/ci.sh.
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "code/ExprPrinter.h"
#include "complete/Engine.h"
#include "service/Client.h"
#include "service/Transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace petal;
using json::Value;

namespace {

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(FramingTest, RoundTripsSeveralMessages) {
  std::stringstream SS;
  FramedWriter W(SS);
  W.write("{\"a\":1}");
  W.write("");
  std::string Big(100000, 'x');
  W.write(Big);

  FramedReader R(SS);
  std::string P;
  ASSERT_EQ(R.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, "{\"a\":1}");
  ASSERT_EQ(R.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, "");
  ASSERT_EQ(R.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, Big);
  EXPECT_EQ(R.read(P), FramedReader::Status::Eof);
}

TEST(FramingTest, ToleratesExtraHeadersAndBareNewlines) {
  std::stringstream SS;
  SS << "Content-Type: application/vscode-jsonrpc\r\n"
     << "Content-Length: 2\r\n\r\nhi";
  FramedReader R(SS);
  std::string P;
  ASSERT_EQ(R.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, "hi");

  std::stringstream SS2("Content-Length: 3\n\nabc"); // bare LF client
  FramedReader R2(SS2);
  ASSERT_EQ(R2.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, "abc");
}

TEST(FramingTest, TruncatedPayloadIsAnError) {
  std::stringstream SS("Content-Length: 50\r\n\r\nonly-10-by");
  FramedReader R(SS);
  std::string P;
  EXPECT_EQ(R.read(P), FramedReader::Status::Error);
  EXPECT_NE(R.message().find("truncated"), std::string::npos);
}

TEST(FramingTest, TruncatedHeaderBlockIsAnError) {
  std::stringstream SS("Content-Length: 5\r\n"); // EOF before blank line
  FramedReader R(SS);
  std::string P;
  EXPECT_EQ(R.read(P), FramedReader::Status::Error);
}

TEST(FramingTest, MissingContentLengthIsAnError) {
  std::stringstream SS("Content-Type: text/json\r\n\r\n{}");
  FramedReader R(SS);
  std::string P;
  EXPECT_EQ(R.read(P), FramedReader::Status::Error);
  EXPECT_NE(R.message().find("Content-Length"), std::string::npos);
}

TEST(FramingTest, NonNumericAndDuplicateLengthsAreErrors) {
  {
    std::stringstream SS("Content-Length: twelve\r\n\r\n");
    FramedReader R(SS);
    std::string P;
    EXPECT_EQ(R.read(P), FramedReader::Status::Error);
    EXPECT_NE(R.message().find("non-numeric"), std::string::npos);
  }
  {
    std::stringstream SS("Content-Length: 2\r\nContent-Length: 2\r\n\r\nhi");
    FramedReader R(SS);
    std::string P;
    EXPECT_EQ(R.read(P), FramedReader::Status::Error);
    EXPECT_NE(R.message().find("duplicate"), std::string::npos);
  }
}

TEST(FramingTest, OversizedContentLengthIsRejectedBeforeAllocation) {
  std::stringstream SS("Content-Length: 99999999999999999999\r\n\r\n");
  FramedReader R(SS);
  std::string P;
  EXPECT_EQ(R.read(P), FramedReader::Status::Error);
  EXPECT_NE(R.message().find("cap"), std::string::npos);
}

TEST(FramingTest, CleanEofAtMessageBoundary) {
  std::stringstream SS("");
  FramedReader R(SS);
  std::string P;
  EXPECT_EQ(R.read(P), FramedReader::Status::Eof);
}

//===----------------------------------------------------------------------===//
// Service harness
//===----------------------------------------------------------------------===//

PetalService::Options testOptions(size_t Workers = 2,
                                  bool TestHooks = false) {
  PetalService::Options O;
  O.Workers = Workers;
  O.CacheCapacity = 64;
  O.EnableTestHooks = TestHooks;
  return O;
}

Value openParams(const std::string &Doc, const std::string &Text,
                 int64_t V) {
  Value P = Value::object();
  P.set("doc", Doc);
  P.set("text", Text);
  P.set("version", V);
  return P;
}

Value completeParams(const std::string &Doc, const std::string &Class,
                     const std::string &Method, const std::string &Query,
                     int64_t N = 10, int64_t Version = -1) {
  Value P = Value::object();
  P.set("doc", Doc);
  P.set("class", Class);
  P.set("method", Method);
  P.set("query", Query);
  P.set("n", N);
  if (Version >= 0)
    P.set("version", Version);
  return P;
}

int errorCode(const Value &Response) {
  const Value *E = Response.find("error");
  return E ? static_cast<int>(E->getInt("code", 0)) : 0;
}

/// (expr, score) pairs from a petal/complete response.
std::vector<std::pair<std::string, int>> completionsOf(const Value &Resp) {
  std::vector<std::pair<std::string, int>> Out;
  const Value *R = Resp.find("result");
  if (!R)
    return Out;
  const Value *List = R->find("completions");
  if (!List || !List->isArray())
    return Out;
  for (const Value &Item : List->elements())
    Out.emplace_back(Item.getString("expr"),
                     static_cast<int>(Item.getInt("score", -1)));
  return Out;
}

/// The reference answer: a direct CompletionEngine::complete over a
/// private parse of the same text — what the service must be
/// bit-identical to.
std::vector<std::pair<std::string, int>>
directComplete(const char *Text, const std::string &Class,
               const std::string &Method, const std::string &Query,
               size_t N) {
  TypeSystem TS;
  Program P(TS);
  DiagnosticEngine Diags;
  EXPECT_TRUE(loadProgramText(Text, P, Diags));
  CompletionIndexes Idx(P);
  CompletionEngine Engine(P, Idx);

  const CodeClass *CC = findCodeClass(P, Class);
  EXPECT_NE(CC, nullptr);
  const CodeMethod *CM = findCodeMethod(P, *CC, Method);
  EXPECT_NE(CM, nullptr);
  QueryScope Scope = scopeAtEnd(CC, CM);
  const PartialExpr *Q = parseQueryText(Query, P, Scope, Diags);
  EXPECT_NE(Q, nullptr);

  std::vector<std::pair<std::string, int>> Out;
  CodeSite Site{CC, CM, Scope.StmtIndex};
  for (const Completion &C : Engine.complete(Q, Site, N))
    Out.emplace_back(printExpr(TS, C.E), C.Score);
  return Out;
}

//===----------------------------------------------------------------------===//
// Sessions, versions, cache
//===----------------------------------------------------------------------===//

TEST(ServiceTest, CompleteMatchesDirectEngineBitForBit) {
  InProcessClient C(testOptions());
  Value OpenResp =
      C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  ASSERT_EQ(errorCode(OpenResp), 0) << OpenResp.write();
  EXPECT_EQ(OpenResp.find("result")->getInt("version", -1), 1);

  Value Resp = C.call("petal/complete",
                      completeParams("geo.cs", "EllipseArc", "Examine",
                                     "Distance(point, ?)", 10));
  ASSERT_EQ(errorCode(Resp), 0) << Resp.write();
  auto Got = completionsOf(Resp);
  auto Want = directComplete(corpora::GeometryCorpus, "EllipseArc",
                             "Examine", "Distance(point, ?)", 10);
  EXPECT_EQ(Got, Want);
  ASSERT_FALSE(Got.empty());
  EXPECT_EQ(Got.front().first, "DynamicGeometry.Math.Distance(point, point)");
}

TEST(ServiceTest, CacheHitIsByteIdenticalAndCounted) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  Value P = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  Value First = C.call("petal/complete", P);
  Value Second = C.call("petal/complete", P);
  ASSERT_EQ(errorCode(First), 0);
  // The replayed result must be byte-identical, not merely equivalent.
  EXPECT_EQ(First.find("result")->write(), Second.find("result")->write());

  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.find("cache")->getInt("hits", -1), 1);
  EXPECT_EQ(Stats.find("cache")->getInt("misses", -1), 1);
  EXPECT_EQ(Stats.getInt("queries", -1), 2);
}

TEST(ServiceTest, DifferentOptionsMissTheCache) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  Value P1 = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  Value P2 = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  P2.set("rank", "none");
  C.call("petal/complete", P1);
  C.call("petal/complete", P2);
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.find("cache")->getInt("hits", -1), 0);
  EXPECT_EQ(Stats.find("cache")->getInt("misses", -1), 2);
}

TEST(ServiceTest, NoopEditRetargetsCacheEntriesToTheNewVersion) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  Value P = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  Value First = C.call("petal/complete", P);
  ASSERT_EQ(errorCode(First), 0);

  // Full-text change to version 2 with token-identical text: an
  // incremental no-op build. Scoped invalidation keeps the entry (the
  // abstract-type solution carried over), re-keyed to version 2.
  Value ChangeResp = C.call(
      "petal/change", openParams("geo.cs", corpora::GeometryCorpus, 2));
  ASSERT_EQ(errorCode(ChangeResp), 0);
  EXPECT_EQ(ChangeResp.find("result")->getString("build"),
            "incremental-noop");
  EXPECT_EQ(ChangeResp.find("result")->getInt("cacheRetained", -1), 1);

  Value Resp = C.call("petal/complete", P);
  ASSERT_EQ(errorCode(Resp), 0);
  // Replayed from cache with the *new* version stamped in, completions
  // untouched.
  EXPECT_EQ(Resp.find("result")->getInt("version", -1), 2);
  EXPECT_EQ(completionsOf(Resp), completionsOf(First));

  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.find("cache")->getInt("hits", -1), 1);
  EXPECT_EQ(Stats.find("cache")->getInt("misses", -1), 1);
  EXPECT_EQ(Stats.find("cache")->getInt("size", -1), 1);
}

TEST(ServiceTest, TypeGraphEditInvalidatesCacheAndBumpsVersion) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  Value P = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  C.call("petal/complete", P);

  // Adding a class changes the type graph: full rebuild, blanket
  // invalidation of the document's entries.
  std::string Edited = std::string(corpora::GeometryCorpus) +
                       "class Probe {\n"
                       "  System.Windows.Point Origin;\n"
                       "}\n";
  Value ChangeResp = C.call("petal/change", openParams("geo.cs", Edited, 2));
  ASSERT_EQ(errorCode(ChangeResp), 0);
  EXPECT_EQ(ChangeResp.find("result")->getString("build"), "full");
  EXPECT_EQ(ChangeResp.find("result")->getInt("cacheRetained", -1), 0);

  Value Resp = C.call("petal/complete", P);
  ASSERT_EQ(errorCode(Resp), 0);
  EXPECT_EQ(Resp.find("result")->getInt("version", -1), 2);

  Value Stats = C.callResult("$/stats", Value::object());
  // Both queries computed: the edit dropped the version-1 entry.
  EXPECT_EQ(Stats.find("cache")->getInt("hits", -1), 0);
  EXPECT_EQ(Stats.find("cache")->getInt("misses", -1), 2);
  EXPECT_EQ(Stats.find("cache")->getInt("size", -1), 1);
}

TEST(ServiceTest, BodyEditKeepsEntriesOfUntouchedUnits) {
  // Two body-bearing classes so a body edit can touch one declaration
  // unit and leave the other's cache entries provably unaffected.
  const std::string Scratch = "class Scratch {\n"
                              "  void Play(System.Windows.Point point) {\n"
                              "    return;\n"
                              "  }\n"
                              "}\n";
  const std::string ScratchEdited =
      "class Scratch {\n"
      "  void Play(System.Windows.Point point) {\n"
      "    var tmp = point;\n"
      "    return;\n"
      "  }\n"
      "}\n";
  const std::string Base = std::string(corpora::GeometryCorpus) + Scratch;
  const std::string Edited =
      std::string(corpora::GeometryCorpus) + ScratchEdited;

  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", Base, 1));

  // Entry A: untouched unit, ranking does not read the abstract-type
  // solution -> must survive the body edit.
  Value A = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  A.set("abstractTypes", false);
  // Entry B: same options but in the edited unit -> must be dropped.
  Value B = completeParams("geo.cs", "Scratch", "Play", "?({point})");
  B.set("abstractTypes", false);
  // Entry C: untouched unit but default options read the corpus-wide
  // abstract-type solution, which a body edit rebuilds -> dropped.
  Value Cq = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  ASSERT_EQ(errorCode(C.call("petal/complete", A)), 0);
  ASSERT_EQ(errorCode(C.call("petal/complete", B)), 0);
  ASSERT_EQ(errorCode(C.call("petal/complete", Cq)), 0);

  Value ChangeResp = C.call("petal/change", openParams("geo.cs", Edited, 2));
  ASSERT_EQ(errorCode(ChangeResp), 0) << ChangeResp.write();
  EXPECT_EQ(ChangeResp.find("result")->getString("build"),
            "incremental-body");
  EXPECT_EQ(ChangeResp.find("result")->getInt("cacheRetained", -1), 1);

  // A replays from the cache; the payload must be byte-identical to what
  // a cold service computes over the edited text at the same version.
  Value AResp = C.call("petal/complete", A);
  ASSERT_EQ(errorCode(AResp), 0);
  EXPECT_EQ(AResp.find("result")->getInt("version", -1), 2);
  InProcessClient Fresh(testOptions());
  Fresh.call("petal/open", openParams("geo.cs", Edited, 2));
  Value AFresh = Fresh.call("petal/complete", A);
  ASSERT_EQ(errorCode(AFresh), 0);
  EXPECT_EQ(AResp.find("result")->write(), AFresh.find("result")->write());

  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.find("cache")->getInt("hits", -1), 1);
  EXPECT_EQ(Stats.find("cache")->getInt("misses", -1), 3);
}

TEST(ServiceTest, PlainQueryIsServedFromExplainEntry) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  Value Plain = completeParams("geo.cs", "EllipseArc", "Examine",
                               "?({point})");
  Value Explained = Plain;
  Explained.set("explain", true);

  // Explain first: its payload strictly contains the plain answer, so the
  // later plain request replays from it with the breakdowns stripped.
  ASSERT_EQ(errorCode(C.call("petal/complete", Explained)), 0);
  Value PR = C.call("petal/complete", Plain);
  ASSERT_EQ(errorCode(PR), 0);
  const Value *List = PR.find("result")->find("completions");
  ASSERT_TRUE(List && !List->elements().empty());
  for (const Value &Item : List->elements())
    EXPECT_EQ(Item.find("terms"), nullptr) << Item.write();

  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.find("cache")->getInt("hits", -1), 1);
  EXPECT_EQ(Stats.find("cache")->getInt("misses", -1), 1);
  EXPECT_EQ(Stats.find("cache")->getInt("size", -1), 1);

  // The stripped replay is byte-identical to a computed plain answer.
  InProcessClient Fresh(testOptions());
  Fresh.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  Value PFresh = Fresh.call("petal/complete", Plain);
  ASSERT_EQ(errorCode(PFresh), 0);
  EXPECT_EQ(PR.find("result")->write(), PFresh.find("result")->write());
}

TEST(ServiceTest, DocumentBuildTelemetryInStats) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  // No-op edit: shares typesystem, indexes, and the abstract solution.
  C.call("petal/change", openParams("geo.cs", corpora::GeometryCorpus, 2));
  // Body edit: shares typesystem and indexes, rebuilds the solution.
  std::string BodyEdit = corpora::GeometryCorpus;
  size_t At = BodyEdit.find("return;");
  ASSERT_NE(At, std::string::npos);
  BodyEdit.replace(At, 7, "var tmp = point; return;");
  Value R3 = C.call("petal/change", openParams("geo.cs", BodyEdit, 3));
  ASSERT_EQ(errorCode(R3), 0) << R3.write();
  EXPECT_EQ(R3.find("result")->getString("build"), "incremental-body");

  Value Stats = C.callResult("$/stats", Value::object());
  const Value *Docs = Stats.find("documents");
  ASSERT_NE(Docs, nullptr);
  EXPECT_EQ(Docs->find("builds")->getInt("total", -1), 3);
  EXPECT_EQ(Docs->find("builds")->getInt("full", -1), 1);
  EXPECT_EQ(Docs->find("builds")->getInt("incremental", -1), 2);
  EXPECT_EQ(Docs->find("reuse")->getInt("typesystem", -1), 2);
  EXPECT_EQ(Docs->find("reuse")->getInt("indexes", -1), 2);
  EXPECT_EQ(Docs->find("reuse")->getInt("solution", -1), 1);
  EXPECT_EQ(Docs->find("buildMs")->getInt("count", -1), 3);
  EXPECT_GE(Docs->find("buildMs")->getNumber("p50", -1), 0.0);
  EXPECT_GE(Docs->find("buildMs")->getNumber("p95", -1),
            Docs->find("buildMs")->getNumber("p50", -1));
  EXPECT_EQ(Docs->getInt("cacheRetained", -1), 0);
}

TEST(ServiceTest, StaleVersionIsRejected) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  C.call("petal/change", openParams("geo.cs", corpora::GeometryCorpus, 5));

  Value Resp = C.call("petal/complete",
                      completeParams("geo.cs", "EllipseArc", "Examine",
                                     "?({point})", 10, /*Version=*/1));
  EXPECT_EQ(errorCode(Resp), rpc::ContentModified);

  Value Ok = C.call("petal/complete",
                    completeParams("geo.cs", "EllipseArc", "Examine",
                                   "?({point})", 10, /*Version=*/5));
  EXPECT_EQ(errorCode(Ok), 0);
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("staleRejected", -1), 1);
}

TEST(ServiceTest, NonMonotonicChangeIsRejected) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 3));
  Value Resp =
      C.call("petal/change", openParams("geo.cs", corpora::GeometryCorpus, 3));
  EXPECT_EQ(errorCode(Resp), rpc::InvalidParams);
}

TEST(ServiceTest, LifecycleErrors) {
  InProcessClient C(testOptions());
  // Complete before open.
  EXPECT_EQ(errorCode(C.call("petal/complete",
                             completeParams("nope.cs", "A", "B", "?"))),
            rpc::UnknownDocument);
  // Change before open.
  EXPECT_EQ(errorCode(C.call("petal/change",
                             openParams("nope.cs", "class A {}", 1))),
            rpc::UnknownDocument);
  // Unknown method.
  EXPECT_EQ(errorCode(C.call("petal/frobnicate", Value::object())),
            rpc::MethodNotFound);
  // Double open.
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  EXPECT_EQ(errorCode(C.call("petal/open",
                             openParams("geo.cs", corpora::GeometryCorpus, 2))),
            rpc::InvalidParams);
  // Close, then the document is gone and its cache entries with it.
  Value CloseParams = Value::object();
  CloseParams.set("doc", "geo.cs");
  EXPECT_EQ(errorCode(C.call("petal/close", CloseParams)), 0);
  EXPECT_EQ(errorCode(C.call("petal/complete",
                             completeParams("geo.cs", "EllipseArc", "Examine",
                                            "?({point})"))),
            rpc::UnknownDocument);
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("sessions", -1), 0);
  EXPECT_EQ(Stats.find("cache")->getInt("size", -1), 0);
}

TEST(ServiceTest, MaxSessionsEvictsTheLeastRecentlyUsedIdleSession) {
  PetalService::Options O = testOptions();
  O.MaxSessions = 2;
  InProcessClient C(O);
  C.call("petal/open", openParams("a.cs", corpora::GeometryCorpus, 1));
  C.call("petal/open", openParams("b.cs", corpora::GeometryCorpus, 1));
  // Touch a.cs so b.cs is the least recently used when the cap trips.
  ASSERT_EQ(errorCode(C.call("petal/complete",
                             completeParams("a.cs", "EllipseArc", "Examine",
                                            "?({point})"))),
            0);

  // Eviction spares sessions whose strand is still winding down (the
  // worker clears its scheduled flag after the response is written), so
  // drain the daemon before tripping the cap to make the victim — the
  // LRU among *idle* sessions — deterministic.
  C.service().waitIdle();
  Value Third = C.call("petal/open", openParams("c.cs",
                                                corpora::GeometryCorpus, 1));
  ASSERT_EQ(errorCode(Third), 0) << Third.write();
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("sessions", -1), 2);
  EXPECT_EQ(Stats.getInt("maxSessions", -1), 2);
  EXPECT_EQ(Stats.getInt("evictions", -1), 1);

  // b.cs was evicted exactly as if closed; a.cs (recently used) and c.cs
  // (the newcomer) still answer.
  EXPECT_EQ(errorCode(C.call("petal/complete",
                             completeParams("b.cs", "EllipseArc", "Examine",
                                            "?({point})"))),
            rpc::UnknownDocument);
  EXPECT_EQ(errorCode(C.call("petal/complete",
                             completeParams("a.cs", "EllipseArc", "Examine",
                                            "?({point})"))),
            0);
  EXPECT_EQ(errorCode(C.call("petal/complete",
                             completeParams("c.cs", "EllipseArc", "Examine",
                                            "?({point})"))),
            0);

  // An evicted document reopens cleanly (displacing the next victim).
  C.service().waitIdle();
  EXPECT_EQ(errorCode(C.call("petal/open",
                             openParams("b.cs", corpora::GeometryCorpus, 5))),
            0);
  Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("sessions", -1), 2);
  EXPECT_EQ(Stats.getInt("evictions", -1), 2);
}

TEST(ServiceTest, StatsSplitMemoryIntoSharedBaseAndPerSessionOverlay) {
  PetalService::Options O = testOptions();
  std::string Error;
  O.Base = baseCorpusFromSource(corpora::GeometryCorpus, Error);
  ASSERT_NE(O.Base, nullptr) << Error;
  InProcessClient C(O);

  const std::string Doc =
      "class Scratch {\n"
      "  void Play(System.Windows.Point point) {\n"
      "    return;\n"
      "  }\n"
      "}\n";
  ASSERT_EQ(errorCode(C.call("petal/open", openParams("doc.cs", Doc, 1))), 0);
  // A small edit: the session's accounted footprint is the overlay delta
  // of the *current* build, never a re-count of the shared base.
  const std::string Edited =
      "class Scratch {\n"
      "  void Play(System.Windows.Point point) {\n"
      "    var tmp = point;\n"
      "    return;\n"
      "  }\n"
      "}\n";
  ASSERT_EQ(errorCode(C.call("petal/change", openParams("doc.cs", Edited, 2))),
            0);

  Value Stats = C.callResult("$/stats", Value::object());
  const Value *Mem = Stats.find("memory");
  ASSERT_NE(Mem, nullptr);
  int64_t BaseBytes = Mem->getInt("baseBytes", 0);
  int64_t OverlayBytes = Mem->getInt("overlayBytes", 0);
  EXPECT_GT(BaseBytes, 0);
  EXPECT_GT(OverlayBytes, 0);
  EXPECT_EQ(Mem->getInt("totalBytes", 0), BaseBytes + OverlayBytes);
  // The point of the overlay design: a session costs a small fraction of
  // the shared corpus it reads.
  EXPECT_LT(OverlayBytes * 4, BaseBytes);

  // Closing the session releases its overlay accounting; the base stays.
  Value CloseParams = Value::object();
  CloseParams.set("doc", "doc.cs");
  ASSERT_EQ(errorCode(C.call("petal/close", CloseParams)), 0);
  Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.find("memory")->getInt("overlayBytes", -1), 0);
  EXPECT_EQ(Stats.find("memory")->getInt("baseBytes", 0), BaseBytes);
}

TEST(ServiceTest, MalformedJsonGetsParseErrorResponse) {
  InProcessClient C(testOptions());
  EXPECT_TRUE(C.service().handleMessage("{\"jsonrpc\": oops"));
  // The error response carries a null id, which the client counts as a
  // stray rather than matching it to a call.
  EXPECT_EQ(C.strayResponses(), 1u);
}

TEST(ServiceTest, ShutdownRejectsNewWork) {
  InProcessClient C(testOptions());
  EXPECT_EQ(errorCode(C.call("shutdown", Value())), 0);
  EXPECT_EQ(errorCode(C.call("petal/open",
                             openParams("geo.cs", corpora::GeometryCorpus, 1))),
            rpc::ShuttingDown);
}

//===----------------------------------------------------------------------===//
// Explain mode and the score ceiling
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ExplainAttachesTermBreakdownsThatSumToTheScore) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  Value P = completeParams("geo.cs", "EllipseArc", "Examine",
                           "Distance(point, ?)");
  P.set("explain", true);
  Value Resp = C.call("petal/complete", P);
  ASSERT_EQ(errorCode(Resp), 0) << Resp.write();

  const Value *List = Resp.find("result")->find("completions");
  ASSERT_TRUE(List && List->isArray() && !List->elements().empty());
  const char *Letters[] = {"t", "a", "d", "s", "n", "m"};
  std::map<std::string, int64_t> WantTotals;
  for (const Value &Item : List->elements()) {
    const Value *Terms = Item.find("terms");
    ASSERT_NE(Terms, nullptr) << Item.write();
    int64_t Sum = 0;
    for (const char *L : Letters) {
      int64_t T = Terms->getInt(L, -1);
      ASSERT_GE(T, 0) << Item.write(); // all six keys always present
      Sum += T;
      WantTotals[L] += T;
    }
    // The breakdown decomposes the reported score exactly; the subexpr
    // rollup is informational, not part of the sum.
    EXPECT_EQ(Sum, Item.getInt("score", -1)) << Item.write();
    EXPECT_GE(Item.getInt("subexpr", -1), 0) << Item.write();
  }

  // $/stats aggregates the same totals.
  Value Stats = C.callResult("$/stats", Value::object());
  const Value *Explain = Stats.find("explain");
  ASSERT_NE(Explain, nullptr);
  EXPECT_EQ(Explain->getInt("queries", -1), 1);
  const Value *Totals = Explain->find("termTotals");
  ASSERT_NE(Totals, nullptr);
  for (const char *L : Letters)
    EXPECT_EQ(Totals->getInt(L, -1), WantTotals[L]) << L;
}

TEST(ServiceTest, ExplainAndPlainQueriesCacheSeparately) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  Value Plain = completeParams("geo.cs", "EllipseArc", "Examine",
                               "?({point})");
  Value Explained = Plain;
  Explained.set("explain", true);

  Value P1 = C.call("petal/complete", Plain);
  Value E1 = C.call("petal/complete", Explained);
  ASSERT_EQ(errorCode(P1), 0);
  ASSERT_EQ(errorCode(E1), 0);

  // Same query text, different payload shape: two distinct cache entries.
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.find("cache")->getInt("hits", -1), 0);
  EXPECT_EQ(Stats.find("cache")->getInt("misses", -1), 2);

  // Plain responses carry no breakdown, and each variant replays
  // byte-identical from the cache.
  const Value *PlainList = P1.find("result")->find("completions");
  ASSERT_TRUE(PlainList && !PlainList->elements().empty());
  for (const Value &Item : PlainList->elements())
    EXPECT_EQ(Item.find("terms"), nullptr) << Item.write();
  Value E2 = C.call("petal/complete", Explained);
  EXPECT_EQ(E1.find("result")->write(), E2.find("result")->write());

  // Cache replays do not inflate the explain aggregates.
  Value Stats2 = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats2.find("explain")->getInt("queries", -1), 1);
}

TEST(ServiceTest, MaxScoreAboveTheCeilingIsReportedInStats) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  // A hostile maxScore cannot drive bucket growth past the engine's score
  // ceiling; asking for more results than exist under the ceiling reports
  // the truncation.
  Value P = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})",
                           /*N=*/1000);
  P.set("maxScore", int64_t(1) << 40);
  Value Resp = C.call("petal/complete", P);
  ASSERT_EQ(errorCode(Resp), 0) << Resp.write();
  ASSERT_LT(Resp.find("result")->find("completions")->elements().size(),
            1000u);

  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("scoreCeilingHits", -1), 1);

  // Equivalent oversized values canonicalize to one cache entry.
  P.set("maxScore", int64_t(123456789));
  C.call("petal/complete", P);
  Value Stats2 = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats2.find("cache")->getInt("hits", -1), 1);
  // The replay is not recounted as a ceiling hit.
  EXPECT_EQ(Stats2.getInt("scoreCeilingHits", -1), 1);
}

//===----------------------------------------------------------------------===//
// Cancellation and deadlines (deterministic via $/test gates)
//===----------------------------------------------------------------------===//

TEST(ServiceTest, InterleavedCancellationCancelsQueuedRequest) {
  // One worker: the gate occupies it, so the complete stays queued while
  // the cancel arrives — the interleaving the LSP flow produces.
  InProcessClient C(testOptions(/*Workers=*/1, /*TestHooks=*/true));
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  Value Block = Value::object();
  Block.set("token", "gate1");
  int64_t BlockId = C.send("$/test/block", std::move(Block));

  int64_t CompleteId = C.send(
      "petal/complete",
      completeParams("geo.cs", "EllipseArc", "Examine", "?({point})"));

  Value Cancel = Value::object();
  Cancel.set("id", CompleteId);
  C.notify("$/cancelRequest", std::move(Cancel));

  C.service().releaseGate("gate1");
  EXPECT_EQ(errorCode(C.await(BlockId)), 0);
  EXPECT_EQ(errorCode(C.await(CompleteId)), rpc::RequestCancelled);

  // The session is unaffected; later queries still work.
  Value Resp = C.call("petal/complete",
                      completeParams("geo.cs", "EllipseArc", "Examine",
                                     "?({point})"));
  EXPECT_EQ(errorCode(Resp), 0);
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("cancelled", -1), 1);
}

TEST(ServiceTest, CancellingFinishedRequestIsANoop) {
  InProcessClient C(testOptions());
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));
  Value Resp = C.call("petal/complete",
                      completeParams("geo.cs", "EllipseArc", "Examine",
                                     "?({point})"));
  ASSERT_EQ(errorCode(Resp), 0);
  Value Cancel = Value::object();
  Cancel.set("id", Resp.find("id")->intValue());
  C.notify("$/cancelRequest", std::move(Cancel));
  C.service().waitIdle();
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("cancelled", -1), 0);
}

TEST(ServiceTest, DeadlineExpiresWhileQueued) {
  InProcessClient C(testOptions(/*Workers=*/1, /*TestHooks=*/true));
  C.call("petal/open", openParams("geo.cs", corpora::GeometryCorpus, 1));

  Value Block = Value::object();
  Block.set("token", "gate2");
  int64_t BlockId = C.send("$/test/block", std::move(Block));

  Value P = completeParams("geo.cs", "EllipseArc", "Examine", "?({point})");
  P.set("deadlineMs", 1.0);
  int64_t CompleteId = C.send("petal/complete", std::move(P));

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  C.service().releaseGate("gate2");
  C.await(BlockId);
  EXPECT_EQ(errorCode(C.await(CompleteId)), rpc::DeadlineExceeded);
  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("deadlineExpired", -1), 1);
}

//===----------------------------------------------------------------------===//
// Concurrency: many clients, answers checked against the direct engine
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ConcurrentClientsGetDirectEngineAnswers) {
  constexpr size_t NumClients = 4;
  constexpr size_t QueriesPerClient = 6;
  const char *Queries[] = {"?({point})", "Distance(point, ?)",
                           "?({point, shapeStyle})"};

  InProcessClient C(testOptions(/*Workers=*/4));
  for (size_t I = 0; I != NumClients; ++I)
    ASSERT_EQ(errorCode(C.call("petal/open",
                               openParams("doc" + std::to_string(I) + ".cs",
                                          corpora::GeometryCorpus, 1))),
              0);

  // Reference answers, one per query family.
  std::vector<std::vector<std::pair<std::string, int>>> Want;
  for (const char *Q : Queries)
    Want.push_back(
        directComplete(corpora::GeometryCorpus, "EllipseArc", "Examine", Q,
                       10));

  std::vector<std::thread> Clients;
  std::vector<int> Failures(NumClients, 0);
  for (size_t I = 0; I != NumClients; ++I)
    Clients.emplace_back([&, I] {
      std::string Doc = "doc" + std::to_string(I) + ".cs";
      for (size_t K = 0; K != QueriesPerClient; ++K) {
        size_t QIdx = (I + K) % 3;
        Value Resp = C.call(
            "petal/complete",
            completeParams(Doc, "EllipseArc", "Examine", Queries[QIdx]));
        if (errorCode(Resp) != 0 || completionsOf(Resp) != Want[QIdx])
          ++Failures[I];
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (size_t I = 0; I != NumClients; ++I)
    EXPECT_EQ(Failures[I], 0) << "client " << I;

  Value Stats = C.callResult("$/stats", Value::object());
  EXPECT_EQ(Stats.getInt("queries", -1),
            static_cast<int64_t>(NumClients * QueriesPerClient));
  EXPECT_GT(Stats.find("cache")->getInt("hits", -1), 0);
}

TEST(ServiceTest, ConcurrentEditsAndQueriesStayConsistent) {
  // Two documents: one is edited continuously while the other is queried;
  // every answer must carry the version it was computed against. Run
  // under TSan this exercises dispatch/worker handoff and the cache.
  InProcessClient C(testOptions(/*Workers=*/3));
  C.call("petal/open", openParams("edit.cs", corpora::GeometryCorpus, 1));
  C.call("petal/open", openParams("read.cs", corpora::GeometryCorpus, 1));

  std::thread Editor([&] {
    for (int64_t V = 2; V <= 8; ++V)
      ASSERT_EQ(errorCode(C.call("petal/change",
                                 openParams("edit.cs",
                                            corpora::GeometryCorpus, V))),
                0);
  });
  std::thread Reader([&] {
    for (int K = 0; K != 10; ++K) {
      Value Resp = C.call("petal/complete",
                          completeParams("read.cs", "EllipseArc", "Examine",
                                         "?({point})"));
      EXPECT_EQ(errorCode(Resp), 0);
      EXPECT_EQ(Resp.find("result")->getInt("version", -1), 1);
    }
  });
  std::thread EditQuerier([&] {
    for (int K = 0; K != 10; ++K) {
      Value Resp = C.call("petal/complete",
                          completeParams("edit.cs", "EllipseArc", "Examine",
                                         "?({point})"));
      // Either a real answer at some version, or (never, with full-text
      // changes serialized per session) an error.
      EXPECT_EQ(errorCode(Resp), 0);
      EXPECT_GE(Resp.find("result")->getInt("version", -1), 1);
    }
  });
  Editor.join();
  Reader.join();
  EditQuerier.join();
}

//===----------------------------------------------------------------------===//
// FdStreamBuf: the fd <-> iostream bridge petal_serve's TCP mode uses
//===----------------------------------------------------------------------===//

TEST(FramingTest, FdStreamBufRoundTripsFramesOverAPipe) {
  // A payload much larger than both the 16 KiB FdStreamBuf buffer and the
  // kernel pipe buffer, so the writer must flush repeatedly and absorb
  // short writes while the reader drains concurrently.
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);

  std::string Big(1 << 20, 'x');
  for (size_t I = 0; I < Big.size(); I += 97)
    Big[I] = static_cast<char>('a' + (I / 97) % 26);
  const std::string Small = "{\"jsonrpc\":\"2.0\"}";

  std::thread Writer([&] {
    FdStreamBuf WB(Fds[1]);
    std::ostream Out(&WB);
    FramedWriter W(Out);
    W.write(Big);
    W.write(Small);
    W.write("");
    Out.flush();
    ::close(Fds[1]);
  });

  FdStreamBuf RB(Fds[0]);
  std::istream In(&RB);
  FramedReader R(In);
  std::string P;
  ASSERT_EQ(R.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, Big);
  ASSERT_EQ(R.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, Small);
  ASSERT_EQ(R.read(P), FramedReader::Status::Ok);
  EXPECT_EQ(P, "");
  EXPECT_EQ(R.read(P), FramedReader::Status::Eof);

  Writer.join();
  ::close(Fds[0]);
}

} // namespace
