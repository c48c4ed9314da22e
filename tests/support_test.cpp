//===- tests/support_test.cpp - Support-library unit tests ----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Checksum.h"
#include "support/CliArgs.h"
#include "support/Diagnostics.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>

using namespace petal;

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

namespace {
struct DtorCounter {
  explicit DtorCounter(int *Count) : Count(Count) {}
  ~DtorCounter() { ++*Count; }
  int *Count;
};
} // namespace

TEST(ArenaTest, AllocatesDistinctObjects) {
  Arena A;
  int *X = A.create<int>(1);
  int *Y = A.create<int>(2);
  EXPECT_NE(X, Y);
  EXPECT_EQ(*X, 1);
  EXPECT_EQ(*Y, 2);
}

TEST(ArenaTest, RunsDestructorsOnArenaDestruction) {
  int Count = 0;
  {
    Arena A;
    for (int I = 0; I != 100; ++I)
      A.create<DtorCounter>(&Count);
    EXPECT_EQ(Count, 0);
    EXPECT_EQ(A.numManagedObjects(), 100u);
  }
  EXPECT_EQ(Count, 100);
}

TEST(ArenaTest, TriviallyDestructibleTypesAreNotTracked) {
  Arena A;
  A.create<int>(7);
  A.create<double>(3.5);
  EXPECT_EQ(A.numManagedObjects(), 0u);
}

TEST(ArenaTest, HandlesLargeAllocations) {
  Arena A;
  // Larger than the initial slab; must not crash or overlap.
  struct Big {
    char Data[100000];
  };
  Big *B1 = A.create<Big>();
  Big *B2 = A.create<Big>();
  B1->Data[0] = 'x';
  B2->Data[0] = 'y';
  EXPECT_EQ(B1->Data[0], 'x');
  EXPECT_GE(A.bytesReserved(), 2 * sizeof(Big));
}

TEST(ArenaTest, RespectsAlignment) {
  Arena A;
  A.allocate(1, 1);
  void *P = A.allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 16, 0u);
  A.allocate(3, 1);
  void *Q = A.allocate(32, 32);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Q) % 32, 0u);
}

TEST(ArenaTest, StringsSurviveAndAreFreed) {
  Arena A;
  auto *S = A.create<std::string>(1000, 'a');
  EXPECT_EQ(S->size(), 1000u);
  EXPECT_EQ(A.numManagedObjects(), 1u);
}

//===----------------------------------------------------------------------===//
// UnionFind
//===----------------------------------------------------------------------===//

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind UF(5);
  for (uint32_t I = 0; I != 5; ++I)
    EXPECT_EQ(UF.find(I), I);
  EXPECT_EQ(UF.numSets(), 5u);
}

TEST(UnionFindTest, UniteMergesClasses) {
  UnionFind UF(6);
  UF.unite(0, 1);
  UF.unite(2, 3);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_TRUE(UF.connected(2, 3));
  EXPECT_FALSE(UF.connected(1, 2));
  UF.unite(1, 2);
  EXPECT_TRUE(UF.connected(0, 3));
  EXPECT_EQ(UF.numSets(), 3u); // {0,1,2,3}, {4}, {5}
}

TEST(UnionFindTest, GrowPreservesExistingSets) {
  UnionFind UF(2);
  UF.unite(0, 1);
  UF.grow(10);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_FALSE(UF.connected(0, 9));
  EXPECT_EQ(UF.size(), 10u);
}

/// Property: union-find agrees with a naive set-partition oracle under a
/// deterministic random workload.
TEST(UnionFindTest, MatchesNaivePartitionOracle) {
  constexpr uint32_t N = 200;
  UnionFind UF(N);
  std::vector<uint32_t> Label(N);
  for (uint32_t I = 0; I != N; ++I)
    Label[I] = I;

  Rng R(42);
  for (int Step = 0; Step != 500; ++Step) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    UF.unite(A, B);
    uint32_t LA = Label[A], LB = Label[B];
    if (LA != LB)
      for (uint32_t I = 0; I != N; ++I)
        if (Label[I] == LB)
          Label[I] = LA;
    // Spot-check a few pairs after each step.
    for (int Check = 0; Check != 5; ++Check) {
      uint32_t X = static_cast<uint32_t>(R.below(N));
      uint32_t Y = static_cast<uint32_t>(R.below(N));
      ASSERT_EQ(UF.connected(X, Y), Label[X] == Label[Y]);
    }
  }
  std::set<uint32_t> Labels(Label.begin(), Label.end());
  EXPECT_EQ(UF.numSets(), Labels.size());
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.range(3, 5);
    EXPECT_GE(V, 3);
    EXPECT_LE(V, 5);
    SawLo |= V == 3;
    SawHi |= V == 5;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, WeightedNeverPicksZeroWeight) {
  Rng R(11);
  for (int I = 0; I != 500; ++I) {
    size_t Pick = R.weighted({0.0, 1.0, 0.0, 2.0});
    EXPECT_TRUE(Pick == 1 || Pick == 3);
  }
}

TEST(RngTest, UnitInHalfOpenInterval) {
  Rng R(13);
  for (int I = 0; I != 1000; ++I) {
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, ForkIsDeterministicAndIndependent) {
  Rng A(5), B(5);
  Rng FA = A.fork(), FB = B.fork();
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(FA.next(), FB.next());
}

//===----------------------------------------------------------------------===//
// StrUtil
//===----------------------------------------------------------------------===//

TEST(StrUtilTest, SplitBasics) {
  EXPECT_EQ(splitString("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(splitString("", '.').empty());
  EXPECT_EQ(splitString("abc", '.'), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(splitString("a..b", '.'),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(StrUtilTest, JoinInvertsSplit) {
  std::vector<std::string> Parts = {"System", "Collections", "Generic"};
  EXPECT_EQ(splitString(joinStrings(Parts, '.'), '.'), Parts);
}

TEST(StrUtilTest, CommonPrefixLength) {
  using V = std::vector<std::string>;
  EXPECT_EQ(commonPrefixLength(V{"a", "b"}, V{"a", "c"}), 1u);
  EXPECT_EQ(commonPrefixLength(V{"a", "b"}, V{"a", "b"}), 2u);
  EXPECT_EQ(commonPrefixLength(V{}, V{"a"}), 0u);
  EXPECT_EQ(commonPrefixLength(V{"x"}, V{"y"}), 0u);
}

TEST(StrUtilTest, FormatHelpers) {
  EXPECT_EQ(formatFixed(1.2345, 2), "1.23");
  EXPECT_EQ(formatPercent(1, 2), "50.00%");
  EXPECT_EQ(formatPercent(0, 0), "n/a");
}

//===----------------------------------------------------------------------===//
// TextTable
//===----------------------------------------------------------------------===//

TEST(TextTableTest, AlignsColumns) {
  TextTable T;
  T.setHeader({"Name", "N"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Name    N"), std::string::npos);
  EXPECT_NE(Out.find("longer  22"), std::string::npos);
}

TEST(TextTableTest, ShortRowsArePadded) {
  TextTable T;
  T.setHeader({"A", "B", "C"});
  T.addRow({"1"});
  std::ostringstream OS;
  T.print(OS);
  EXPECT_NE(OS.str().find("1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, CountsOnlyErrors) {
  DiagnosticEngine D;
  D.warning({1, 1}, "something odd");
  EXPECT_FALSE(D.hasErrors());
  D.error({2, 3}, "something wrong");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 2u);
}

TEST(DiagnosticsTest, PrintIncludesLocationAndKind) {
  DiagnosticEngine D;
  D.error({12, 5}, "unexpected token");
  std::ostringstream OS;
  D.print(OS);
  EXPECT_EQ(OS.str(), "12:5: error: unexpected token\n");
}

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

namespace {

json::Value parseOk(const std::string &Text) {
  json::Value V;
  std::string Err;
  EXPECT_TRUE(json::parse(Text, V, Err)) << Text << ": " << Err;
  return V;
}

std::string parseErr(const std::string &Text) {
  json::Value V;
  std::string Err;
  EXPECT_FALSE(json::parse(Text, V, Err)) << Text;
  return Err;
}

} // namespace

TEST(JsonTest, ParsesScalarsAndContainers) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_EQ(parseOk("true").boolValue(), true);
  EXPECT_EQ(parseOk("-42").intValue(), -42);
  EXPECT_DOUBLE_EQ(parseOk("2.5e2").numberValue(), 250.0);
  EXPECT_EQ(parseOk("\"hi\\n\\\"there\\\"\"").stringValue(), "hi\n\"there\"");
  json::Value A = parseOk("[1, [2, 3], {\"k\": false}]");
  ASSERT_TRUE(A.isArray());
  ASSERT_EQ(A.elements().size(), 3u);
  EXPECT_EQ(A.elements()[1].elements()[1].intValue(), 3);
  EXPECT_EQ(A.elements()[2].getBool("k", true), false);
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  EXPECT_EQ(parseOk("\"\\u0041\"").stringValue(), "A");
  EXPECT_EQ(parseOk("\"\\u00e9\"").stringValue(), "\xc3\xa9"); // é
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").stringValue(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_NE(parseErr(""), "");
  EXPECT_NE(parseErr("{"), "");
  EXPECT_NE(parseErr("[1, 2,]"), "");
  EXPECT_NE(parseErr("{\"a\" 1}"), "");
  EXPECT_NE(parseErr("\"unterminated"), "");
  EXPECT_NE(parseErr("01"), "");
  EXPECT_NE(parseErr("{} trailing"), "");
  EXPECT_NE(parseErr("nul"), "");
  // Nesting past the depth cap.
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  EXPECT_NE(parseErr(Deep).find("deep"), std::string::npos);
}

TEST(JsonTest, WriteIsDeterministicAndRoundTrips) {
  json::Value O = json::Value::object();
  O.set("zeta", 1);
  O.set("alpha", json::Value::array());
  O.set("text", "a\\b\"c\n");
  O.set("pi", 3.5);
  O.set("count", 7.0); // integral double prints as integer
  std::string Wire = O.write();
  // Insertion order, not alphabetical.
  EXPECT_EQ(Wire, "{\"zeta\":1,\"alpha\":[],\"text\":\"a\\\\b\\\"c\\n\","
                  "\"pi\":3.5,\"count\":7}");
  EXPECT_EQ(parseOk(Wire), O);
}

TEST(JsonTest, LargeEscapedTextRoundTrips) {
  // A 256 KiB string mixing plain runs, every escape the writer emits,
  // raw control bytes and multi-byte UTF-8 (é, €, U+1F600), so the
  // parser's bulk run copy is cut at every kind of boundary.
  const std::vector<std::string> Pieces = {
      "plain ascii run ", "\"", "\\", "\n", "\r", "\t", "\b", "\f",
      std::string(1, '\x01'), std::string(1, '\x1f'), "\xc3\xa9",
      "\xe2\x82\xac", "\xf0\x9f\x98\x80", "/", "{\"k\": [1, 2]}", " "};
  Rng R(7);
  std::string Big;
  while (Big.size() < 256 * 1024)
    Big += R.pick(Pieces);
  json::Value O = json::Value::object();
  O.set("text", Big);
  EXPECT_EQ(parseOk(O.write()).getString("text"), Big);

  // The same characters spelled with \u escapes (a surrogate pair for
  // U+1F600, a lone high surrogate kept as-is) decode to the raw bytes.
  std::string Escaped = "\"", Want;
  for (int I = 0; I != 4096; ++I) {
    Escaped += "ab\\u00e9\\u20ac\\ud83d\\ude00\\/\\u0041";
    Want += "ab\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80/A";
  }
  Escaped += "\\ud83dz\"";
  Want += "\xed\xa0\xbdz";
  EXPECT_EQ(parseOk(Escaped).stringValue(), Want);

  // Error messages and their offsets are those of a character-at-a-time
  // scan.
  EXPECT_EQ(parseErr("\"ab\x01\""),
            "offset 4: unescaped control character in string");
  EXPECT_EQ(parseErr("\"abc"), "offset 4: unterminated string");
  EXPECT_EQ(parseErr("\"ab\\"), "offset 4: truncated escape");
  EXPECT_EQ(parseErr("\"ab\\q\""), "offset 5: invalid escape character");
}

//===----------------------------------------------------------------------===//
// ThreadPool PETAL_THREADS hardening
//===----------------------------------------------------------------------===//

namespace {

/// Sets PETAL_THREADS for one test and restores the old value after.
class ThreadsEnvGuard {
public:
  explicit ThreadsEnvGuard(const char *Value) {
    if (const char *Old = std::getenv("PETAL_THREADS")) {
      HadOld = true;
      OldValue = Old;
    }
    if (Value)
      setenv("PETAL_THREADS", Value, 1);
    else
      unsetenv("PETAL_THREADS");
  }
  ~ThreadsEnvGuard() {
    if (HadOld)
      setenv("PETAL_THREADS", OldValue.c_str(), 1);
    else
      unsetenv("PETAL_THREADS");
  }

private:
  bool HadOld = false;
  std::string OldValue;
};

size_t hardwareFallback() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

} // namespace

TEST(ThreadPoolEnvTest, UnsetFallsBackToHardwareConcurrency) {
  ThreadsEnvGuard G(nullptr);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), hardwareFallback());
}

TEST(ThreadPoolEnvTest, ValidValueIsUsed) {
  ThreadsEnvGuard G("3");
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
}

TEST(ThreadPoolEnvTest, GarbageValuesFallBack) {
  for (const char *Bad : {"abc", "", "8x", "3.5", " 4", "-3", "0",
                          "999999", "99999999999999999999"}) {
    ThreadsEnvGuard G(Bad);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), hardwareFallback())
        << "PETAL_THREADS='" << Bad << "'";
  }
}

TEST(ThreadPoolEnvTest, PoolConstructionHonorsHardenedCount) {
  ThreadsEnvGuard G("not-a-number");
  ThreadPool Pool(0); // 0 = use the environment/default
  EXPECT_EQ(Pool.numThreads(), hardwareFallback());
}

//===----------------------------------------------------------------------===//
// CliArgs
//===----------------------------------------------------------------------===//

namespace {

/// Runs a FlagParser over the given argv words; returns parse()'s result.
bool runParser(FlagParser &Flags, std::initializer_list<const char *> Words) {
  std::vector<std::string> Storage{"prog"};
  Storage.insert(Storage.end(), Words.begin(), Words.end());
  std::vector<char *> Argv;
  for (std::string &W : Storage)
    Argv.push_back(W.data());
  return Flags.parse(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(CliArgsTest, ParsesFlagsAndPositional) {
  size_t Threads = 0;
  std::string File;
  FlagParser Flags("prog", "test tool", "[file]");
  Flags.addFlag("threads", "N", "thread count", [&](const std::string &V) {
    return parseCount(V, "threads", Threads);
  });
  Flags.addPositional("the input file", [&](const std::string &V) {
    File = V;
    return true;
  });
  EXPECT_TRUE(runParser(Flags, {"--threads", "4", "input.cs"}));
  EXPECT_EQ(Threads, 4u);
  EXPECT_EQ(File, "input.cs");
}

TEST(CliArgsTest, UnknownFlagIsAHardError) {
  FlagParser Flags("prog", "test tool");
  EXPECT_FALSE(runParser(Flags, {"--bogus"}));
  EXPECT_EQ(Flags.exitCode(), 1);
}

TEST(CliArgsTest, HelpStopsParsingWithSuccessExit) {
  FlagParser Flags("prog", "test tool");
  EXPECT_FALSE(runParser(Flags, {"--help"}));
  EXPECT_EQ(Flags.exitCode(), 0);
}

TEST(CliArgsTest, MissingValueAndExtraPositionalFail) {
  size_t N = 0;
  FlagParser Flags("prog", "test tool", "[x]");
  Flags.addFlag("n", "N", "a count", [&](const std::string &V) {
    return parseCount(V, "n", N);
  });
  Flags.addPositional("x", [](const std::string &) { return true; });
  EXPECT_FALSE(runParser(Flags, {"--n"}));
  EXPECT_EQ(Flags.exitCode(), 1);

  FlagParser Flags2("prog", "test tool", "[x]");
  Flags2.addPositional("x", [](const std::string &) { return true; });
  EXPECT_FALSE(runParser(Flags2, {"one", "two"}));
  EXPECT_EQ(Flags2.exitCode(), 1);
}

namespace {

/// The textbook bit-at-a-time CRC32, the definition the sliced
/// implementation must match bit for bit (snapshot files checksummed by
/// either must verify under the other).
uint32_t referenceCrc32(const void *Data, size_t Size, uint32_t Seed = 0) {
  const auto *P = static_cast<const uint8_t *>(Data);
  uint32_t C = ~Seed;
  for (size_t I = 0; I != Size; ++I) {
    C ^= P[I];
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return ~C;
}

} // namespace

TEST(ChecksumTest, MatchesTheStandardTestVector) {
  // The IEEE 802.3 / zlib check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(ChecksumTest, SlicedFormMatchesTheReferenceAtEveryLength) {
  // Every length 0..64 plus a large buffer, so all alignments of the
  // 8-byte main loop and the byte tail are covered.
  std::vector<uint8_t> Buf(8192);
  uint32_t X = 0x12345678;
  for (uint8_t &B : Buf) {
    X = X * 1664525u + 1013904223u;
    B = static_cast<uint8_t>(X >> 24);
  }
  for (size_t Len = 0; Len <= 64; ++Len)
    EXPECT_EQ(crc32(Buf.data(), Len), referenceCrc32(Buf.data(), Len))
        << "length " << Len;
  EXPECT_EQ(crc32(Buf.data(), Buf.size()),
            referenceCrc32(Buf.data(), Buf.size()));
}

TEST(ChecksumTest, SeedContinuationEqualsOneShot) {
  const char *Text = "the quick brown fox jumps over the lazy dog";
  size_t N = std::strlen(Text);
  uint32_t Whole = crc32(Text, N);
  for (size_t Split = 0; Split <= N; ++Split) {
    uint32_t Part = crc32(Text, Split);
    EXPECT_EQ(crc32(Text + Split, N - Split, Part), Whole)
        << "split at " << Split;
  }
}

TEST(CliArgsTest, EqualsFormCarriesTheValueInline) {
  size_t Threads = 0;
  std::string Out;
  FlagParser Flags("prog", "test tool");
  Flags.addFlag("threads", "N", "thread count", [&](const std::string &V) {
    return parseCount(V, "threads", Threads);
  });
  Flags.addFlag("out", "FILE", "output path", [&](const std::string &V) {
    Out = V;
    return true;
  });
  EXPECT_TRUE(runParser(Flags, {"--threads=4", "--out=a.json"}));
  EXPECT_EQ(Threads, 4u);
  EXPECT_EQ(Out, "a.json");
}

TEST(CliArgsTest, EqualsFormValueMayBeEmptyOrContainEquals) {
  std::string Out = "unset";
  FlagParser Flags("prog", "test tool");
  Flags.addFlag("out", "FILE", "output path", [&](const std::string &V) {
    Out = V;
    return true;
  });
  // An inline value containing '=' splits at the *first* '=' only.
  EXPECT_TRUE(runParser(Flags, {"--out=key=value"}));
  EXPECT_EQ(Out, "key=value");
  // "--out=" passes an (explicitly present) empty value to the callback,
  // unlike "--out" alone which would consume the next word.
  EXPECT_TRUE(runParser(Flags, {"--out="}));
  EXPECT_EQ(Out, "");
}

TEST(CliArgsTest, EqualsFormOnASwitchIsAHardError) {
  bool Hit = false;
  FlagParser Flags("prog", "test tool");
  Flags.addSwitch("verbose", "say more", [&] {
    Hit = true;
    return true;
  });
  EXPECT_FALSE(runParser(Flags, {"--verbose=yes"}));
  EXPECT_EQ(Flags.exitCode(), 1);
  EXPECT_FALSE(Hit);

  FlagParser Flags2("prog", "test tool");
  bool Hit2 = false;
  Flags2.addSwitch("verbose", "say more", [&] {
    Hit2 = true;
    return true;
  });
  EXPECT_TRUE(runParser(Flags2, {"--verbose"}));
  EXPECT_TRUE(Hit2);
}

TEST(CliArgsTest, ParseCountRejectsGarbage) {
  size_t Out = 7;
  EXPECT_TRUE(parseCount("12", "n", Out));
  EXPECT_EQ(Out, 12u);
  for (const char *Bad : {"", "x", "1.5", "-2", "12abc"})
    EXPECT_FALSE(parseCount(Bad, "n", Out)) << Bad;
}
