//===- tests/robustness_test.cpp - Parser fuzz + report tests -------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "eval/Report.h"
#include "parser/Frontend.h"
#include "service/Client.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace petal;

namespace {

//===----------------------------------------------------------------------===//
// CsvReport
//===----------------------------------------------------------------------===//

TEST(CsvReportTest, BuildsHeaderAndRows) {
  CsvReport R({"a", "b"});
  R.addRow({"1", "2"});
  EXPECT_EQ(R.text(), "a,b\n1,2\n");
}

TEST(CsvReportTest, EscapesSpecialCharacters) {
  CsvReport R({"name", "value"});
  R.addRow({"has,comma", "has\"quote"});
  EXPECT_EQ(R.text(), "name,value\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(CsvReportTest, CdfRows) {
  RankDistribution D;
  D.add(1);
  D.add(3);
  D.add(0);
  CsvReport R(CsvReport::cdfColumns());
  R.addCdfRow("series1", D);
  // Header + one row, ending with the trial count.
  EXPECT_NE(R.text().find("series1"), std::string::npos);
  EXPECT_NE(R.text().find(",3\n"), std::string::npos);
}

TEST(CsvReportTest, NoFileWithoutEnvVar) {
  unsetenv("PETAL_CSV_DIR");
  CsvReport R({"x"});
  EXPECT_FALSE(R.writeIfRequested("nope"));
}

TEST(CsvReportTest, WritesWhenRequested) {
  setenv("PETAL_CSV_DIR", "/tmp", 1);
  CsvReport R({"x"});
  R.addRow({"1"});
  EXPECT_TRUE(R.writeIfRequested("petal_csv_test"));
  std::ifstream In("/tmp/petal_csv_test.csv");
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_EQ(Line, "x");
  unsetenv("PETAL_CSV_DIR");
}

//===----------------------------------------------------------------------===//
// Parser robustness: mutated inputs must produce diagnostics, not crashes
//===----------------------------------------------------------------------===//

/// Mutation fuzz-lite: randomly delete/duplicate/replace characters of a
/// valid corpus and require the frontend to terminate with diagnostics (or
/// succeed) — never crash or hang.
class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, MutatedSourcesNeverCrashTheFrontend) {
  std::string Base = corpora::GeometryCorpus;
  Rng R(GetParam());
  static const char Junk[] = "{}();.?*<>=,\"0x ";

  for (int Trial = 0; Trial != 60; ++Trial) {
    std::string Src = Base;
    int Mutations = static_cast<int>(R.range(1, 8));
    for (int M = 0; M != Mutations && !Src.empty(); ++M) {
      size_t Pos = R.below(Src.size());
      switch (R.below(3)) {
      case 0: // delete
        Src.erase(Pos, 1);
        break;
      case 1: // duplicate
        Src.insert(Pos, 1, Src[Pos]);
        break;
      default: // replace with junk
        Src[Pos] = Junk[R.below(sizeof(Junk) - 1)];
        break;
      }
    }
    DiagnosticEngine Diags;
    TypeSystem TS;
    Program P(TS);
    bool Ok = loadProgramText(Src, P, Diags);
    // Either it still parses, or it reports at least one diagnostic.
    ASSERT_TRUE(Ok || !Diags.diagnostics().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

/// Query-parser fuzz: mutated queries never crash and always either resolve
/// or diagnose.
class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, MutatedQueriesNeverCrash) {
  DiagnosticEngine LoadDiags;
  TypeSystem TS;
  Program P(TS);
  ASSERT_TRUE(loadProgramText(corpora::GeometryCorpus, P, LoadDiags));
  const CodeClass *Class = findCodeClass(P, "EllipseArc");
  const CodeMethod *Method = findCodeMethod(P, *Class, "Examine");
  QueryScope Scope{Class, Method, static_cast<size_t>(-1)};

  static const char *Bases[] = {
      "?({point, this})", "Distance(point, ?)", "point.?*m >= this.?*m",
      "this.?f = point.?f", "shapeStyle.?m.?m",
  };
  static const char Junk[] = "{}();.?*<>=, ";
  Rng R(GetParam());

  for (int Trial = 0; Trial != 120; ++Trial) {
    std::string Q = Bases[R.below(5)];
    int Mutations = static_cast<int>(R.range(1, 4));
    for (int M = 0; M != Mutations && !Q.empty(); ++M) {
      size_t Pos = R.below(Q.size());
      if (R.chance(0.5))
        Q.erase(Pos, 1);
      else
        Q[Pos] = Junk[R.below(sizeof(Junk) - 1)];
    }
    DiagnosticEngine Diags;
    const PartialExpr *PE = parseQueryText(Q, P, Scope, Diags);
    ASSERT_TRUE(PE != nullptr || !Diags.diagnostics().empty()) << Q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Values(7, 77, 777));

//===----------------------------------------------------------------------===//
// Service sessions under malformed edits
//===----------------------------------------------------------------------===//

namespace servicefuzz {

json::Value docParams(const char *Doc, const std::string &Text, int64_t V) {
  json::Value P = json::Value::object();
  P.set("doc", Doc);
  P.set("text", Text);
  P.set("version", V);
  return P;
}

json::Value geoComplete(const char *Doc, int64_t Version = -1) {
  json::Value P = json::Value::object();
  P.set("doc", Doc);
  P.set("class", "EllipseArc");
  P.set("method", "Examine");
  P.set("query", "?({point})");
  if (Version >= 0)
    P.set("version", Version);
  return P;
}

int errCode(const json::Value &Resp) {
  const json::Value *E = Resp.find("error");
  return E ? static_cast<int>(E->getInt("code", 0)) : 0;
}

} // namespace servicefuzz

TEST(ServiceRobustnessTest, MalformedChangeKeepsPreviousDocumentAlive) {
  using namespace servicefuzz;
  PetalService::Options Opts;
  Opts.Workers = 2;
  InProcessClient C(Opts);
  ASSERT_EQ(errCode(C.call("petal/open",
                           docParams("geo.cs", corpora::GeometryCorpus, 1))),
            0);
  json::Value Before = C.call("petal/complete", geoComplete("geo.cs"));
  ASSERT_EQ(errCode(Before), 0);

  // A change whose text does not parse must fail the request but leave the
  // session answering against version 1.
  json::Value Bad = C.call(
      "petal/change", docParams("geo.cs", "class Broken { oops((((", 2));
  EXPECT_EQ(errCode(Bad), rpc::BuildFailed);
  // The error names the version still being served.
  EXPECT_NE(Bad.find("error")->getString("message").find("1"),
            std::string::npos);

  json::Value After = C.call("petal/complete", geoComplete("geo.cs"));
  ASSERT_EQ(errCode(After), 0);
  EXPECT_EQ(After.find("result")->getInt("version", -1), 1);
  EXPECT_EQ(Before.find("result")->write(), After.find("result")->write());
  // Pinning the surviving version explicitly also still works.
  EXPECT_EQ(errCode(C.call("petal/complete", geoComplete("geo.cs", 1))), 0);

  json::Value Stats = C.callResult("$/stats", json::Value::object());
  EXPECT_EQ(Stats.getInt("sessions", -1), 1);
  EXPECT_EQ(Stats.getInt("buildFailures", -1), 1);
}

TEST(ServiceRobustnessTest, MalformedChangeParamsKeepSessionAndVersion) {
  using namespace servicefuzz;
  PetalService::Options Opts;
  InProcessClient C(Opts);
  C.call("petal/open", docParams("geo.cs", corpora::GeometryCorpus, 1));

  // Structurally broken change requests: wrong/missing fields. None of
  // them may tear down the session or bump the version.
  json::Value NoText = json::Value::object();
  NoText.set("doc", "geo.cs");
  NoText.set("version", 2);
  EXPECT_EQ(errCode(C.call("petal/change", NoText)), rpc::InvalidParams);

  json::Value NumberText = json::Value::object();
  NumberText.set("doc", "geo.cs");
  NumberText.set("text", 12345);
  NumberText.set("version", 2);
  EXPECT_EQ(errCode(C.call("petal/change", NumberText)),
            rpc::InvalidParams);

  json::Value NoVersion = json::Value::object();
  NoVersion.set("doc", "geo.cs");
  NoVersion.set("text", corpora::GeometryCorpus);
  EXPECT_EQ(errCode(C.call("petal/change", NoVersion)), rpc::InvalidParams);

  json::Value Resp = C.call("petal/complete", geoComplete("geo.cs"));
  ASSERT_EQ(errCode(Resp), 0);
  EXPECT_EQ(Resp.find("result")->getInt("version", -1), 1);
}

TEST(ServiceRobustnessTest, OutOfRangeLiteralsAreStructuredErrors) {
  using namespace servicefuzz;
  PetalService::Options Opts;
  InProcessClient C(Opts);

  // In a document: the open fails as a build error that locates the
  // literal, and no session is left behind.
  const std::string BigDoc = "class Big {\n"
                             "  void M() {\n"
                             "    var n = 99999999999999999999;\n"
                             "  }\n"
                             "}\n";
  json::Value Open = C.call("petal/open", docParams("big.cs", BigDoc, 1));
  EXPECT_EQ(errCode(Open), rpc::BuildFailed);
  EXPECT_NE(Open.find("error")->getString("message").find(
                "3:13: error: integer literal is out of range"),
            std::string::npos)
      << Open.write();

  // In query text: an invalid-params error, and the session serves on.
  ASSERT_EQ(errCode(C.call("petal/open",
                           docParams("geo.cs", corpora::GeometryCorpus, 1))),
            0);
  for (const std::string &Literal :
       {std::string("99999999999999999999"), std::string(400, '9') + ".5"}) {
    json::Value Q = geoComplete("geo.cs");
    Q.set("query", "Distance(point, " + Literal + ")");
    json::Value Resp = C.call("petal/complete", Q);
    EXPECT_EQ(errCode(Resp), rpc::InvalidParams);
    EXPECT_NE(Resp.find("error")->getString("message").find(
                  "1:17: error:"),
              std::string::npos)
        << Resp.write();
    EXPECT_NE(Resp.find("error")->getString("message").find(
                  "literal is out of range"),
              std::string::npos);
  }
  EXPECT_EQ(errCode(C.call("petal/complete", geoComplete("geo.cs"))), 0);
}

TEST(ServiceRobustnessTest, FailedOpenLeavesNoSessionBehind) {
  using namespace servicefuzz;
  PetalService::Options Opts;
  InProcessClient C(Opts);
  json::Value Resp = C.call(
      "petal/open", docParams("bad.cs", "this is not mini-C# at all", 1));
  EXPECT_EQ(errCode(Resp), rpc::BuildFailed);
  EXPECT_EQ(errCode(C.call("petal/complete", geoComplete("bad.cs"))),
            rpc::UnknownDocument);
  json::Value Stats = C.callResult("$/stats", json::Value::object());
  EXPECT_EQ(Stats.getInt("sessions", -1), 0);
  // A later open of the same name starts cleanly.
  EXPECT_EQ(errCode(C.call("petal/open",
                           docParams("bad.cs", corpora::GeometryCorpus, 1))),
            0);
  EXPECT_EQ(errCode(C.call("petal/complete", geoComplete("bad.cs"))), 0);
}

} // namespace
