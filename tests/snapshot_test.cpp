//===- tests/snapshot_test.cpp - snapshot store round trip + faults -------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// The correctness bar for the snapshot store (DESIGN.md §13): a corpus
// reconstituted from a snapshot must answer every query *bit-identically*
// to the same corpus built cold, for every ranking configuration, serially
// and from many threads (the concurrent case runs under ThreadSanitizer in
// scripts/ci.sh); and every way a snapshot file can be wrong — truncated,
// bit-flipped in any section, version-skewed, or stale relative to its
// embedded corpus — must be detected by loadSnapshot() with a diagnostic,
// after which a full build still works (the fallback petal_serve takes).
// The fault cases run under AddressSanitizer in ci.sh: validation must
// reject corrupt images before any table is adopted, never by crashing.
//
//===----------------------------------------------------------------------===//

#include "TestCorpora.h"

#include "complete/BaseCorpus.h"
#include "service/Session.h"
#include "support/Checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace petal;

namespace {

/// A body-bearing client class over the geometry framework types.
std::string scratchText() {
  return "class Scratch {\n"
         "  void Play(System.Windows.Point point,\n"
         "            DynamicGeometry.ShapeStyle style) {\n"
         "    return;\n"
         "  }\n"
         "}\n";
}

/// GeometryCorpus plus the Scratch class — the same corpus the
/// incremental-build property test uses, so the two suites police the same
/// tables from both ends.
std::string baseText() {
  return std::string(corpora::GeometryCorpus) + scratchText();
}

/// Replaces the last occurrence of \p From in \p S with \p To.
std::string replaceLast(std::string S, const std::string &From,
                        const std::string &To) {
  size_t At = S.rfind(From);
  EXPECT_NE(At, std::string::npos) << From;
  if (At != std::string::npos)
    S.replace(At, From.size(), To);
  return S;
}

CompleteSpec spec(const std::string &Class, const std::string &Method,
                  const std::string &Query) {
  CompleteSpec S;
  S.Class = Class;
  S.Method = Method;
  S.Query = Query;
  S.N = 10;
  return S;
}

/// The query battery, crossed with every ranking shape the snapshot can
/// influence: the full default, no ranking at all, one ordinary term off,
/// and *only* the two terms whose inputs live in the snapshot (type
/// distance reads the mapped distance matrix, abstract types the
/// deserialized solution).
std::vector<CompleteSpec> queryBattery() {
  std::vector<CompleteSpec> Qs;
  for (const char *RankSpec : {"all", "none", "-d", "+ta"}) {
    RankingOptions Rank = RankingOptions::fromSpec(RankSpec);
    CompleteSpec A = spec("EllipseArc", "Examine", "?({point})");
    A.Opts.Rank = Rank;
    Qs.push_back(A);
    CompleteSpec B = spec("EllipseArc", "Examine", "Distance(point, ?)");
    B.Opts.Rank = Rank;
    Qs.push_back(B);
    CompleteSpec C = spec("Scratch", "Play", "?({point})");
    C.Opts.Rank = Rank;
    Qs.push_back(C);
  }
  CompleteSpec Explained = spec("EllipseArc", "Examine", "?({point})");
  Explained.Opts.Explain = true;
  Qs.push_back(Explained);
  CompleteSpec NoAbs = spec("EllipseArc", "Examine", "?({point})");
  NoAbs.Opts.UseAbstractTypes = false;
  Qs.push_back(NoAbs);
  return Qs;
}

/// The same battery, every query moved to Scratch.Play: the code sites an
/// overlay document over a snapshot-backed base serves.
std::vector<CompleteSpec> overlayBattery() {
  std::vector<CompleteSpec> Qs = queryBattery();
  for (CompleteSpec &Q : Qs) {
    Q.Class = "Scratch";
    Q.Method = "Play";
  }
  return Qs;
}

/// Builds \p Text cold and writes its snapshot to \p Path, exactly as
/// corpus_explorer --save-snapshot does. \p Shape defaults to the parse's
/// own shape; tests pass a mismatched one to manufacture a stale file.
bool writeCorpusSnapshot(const std::string &Text, const std::string &Path,
                         std::string &Error,
                         const DocumentShape *ForcedShape = nullptr) {
  DiagnosticEngine Diags;
  SynFile File;
  if (!parseSourceFile(Text, File, Diags)) {
    Error = "parse failed";
    return false;
  }
  DocumentShape Shape = shapeOfFile(File);
  TypeSystem TS;
  Program P(TS);
  if (!resolveParsedFile(File, P, Diags)) {
    Error = "resolve failed";
    return false;
  }
  CompletionIndexes Idx(P);
  Idx.freeze(FreezeOptions{});
  AbsTypeSolution Solution = Idx.Infer.solve();
  return snapshot::writeSnapshot(Path, Text, ForcedShape ? *ForcedShape
                                                         : Shape,
                                 Idx, Solution, Error);
}

std::string tmpPath(const std::string &Name) {
  return testing::TempDir() + "petal_" + Name;
}

std::vector<char> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Recomputes Header::HeaderCrc per the documented rule (crc32 over the
/// header with HeaderCrc and Pad zeroed, continued over the section
/// table), so header-surgery tests corrupt exactly the field they mean to.
void restampHeaderCrc(std::vector<char> &Bytes) {
  ASSERT_GE(Bytes.size(), sizeof(snapshot::Header));
  snapshot::Header Hdr;
  std::memcpy(&Hdr, Bytes.data(), sizeof(Hdr));
  size_t TableBytes = Hdr.NumSections * sizeof(snapshot::SectionEntry);
  ASSERT_GE(Bytes.size(), sizeof(Hdr) + TableBytes);
  snapshot::Header Clean = Hdr;
  Clean.HeaderCrc = 0;
  Clean.Pad = 0;
  uint32_t Crc = crc32(&Clean, sizeof(Clean));
  Crc = crc32(Bytes.data() + sizeof(Hdr), TableBytes, Crc);
  Hdr.HeaderCrc = Crc;
  std::memcpy(Bytes.data(), &Hdr, sizeof(Hdr));
}

std::unique_ptr<DocumentState> build(const std::string &Text, int64_t V,
                                     const DocumentState *Prev) {
  std::string Error;
  std::unique_ptr<DocumentState> Doc =
      buildDocumentState("doc.cs", Text, V, /*DocThreads=*/1, Error, Prev);
  EXPECT_NE(Doc, nullptr) << Error;
  return Doc;
}

/// Writes a snapshot of \p Text and loads it back. Asserts on failure.
std::shared_ptr<const snapshot::LoadedSnapshot>
savedAndLoaded(const std::string &Name, bool ForceBufferedRead = false,
               const std::string &Text = baseText()) {
  const std::string Path = tmpPath(Name);
  std::string Error;
  EXPECT_TRUE(writeCorpusSnapshot(Text, Path, Error)) << Error;
  auto Snap = snapshot::loadSnapshot(Path, Error, ForceBufferedRead);
  EXPECT_NE(Snap, nullptr) << Error;
  return Snap;
}

/// The loaded corpus as a query-ready DocumentState, so runCompletion can
/// query its own code sites: the mapped TypeSystem and tables, and the
/// deserialized abstract-type solution.
std::unique_ptr<DocumentState>
loadedDocument(const snapshot::LoadedSnapshot &Snap) {
  auto Doc = std::make_unique<DocumentState>();
  Doc->Name = "<snapshot>";
  Doc->Text = Snap.SourceText;
  Doc->Parsed.Shape = Snap.Shape;
  Doc->TS = Snap.TS;
  Doc->P = Snap.P;
  Doc->Idx = Snap.Idx;
  Doc->Exec = std::make_shared<BatchExecutor>(*Doc->P, *Doc->Idx,
                                              /*DocThreads=*/1);
  Doc->Exec->adoptSolution(Snap.Solution);
  return Doc;
}

/// A snapshot of GeometryCorpus alone, adopted as a workspace base corpus
/// (the petal_serve --base-snapshot route); Scratch documents overlay it.
std::shared_ptr<const BaseCorpus> snapshotBase(const std::string &Name) {
  auto Snap = savedAndLoaded(Name, /*ForceBufferedRead=*/false,
                             corpora::GeometryCorpus);
  return Snap ? baseCorpusFromSnapshot(Snap) : nullptr;
}

std::unique_ptr<DocumentState>
buildOverlay(const std::string &Doc,
             const std::shared_ptr<const BaseCorpus> &Base,
             const DocumentState *Prev = nullptr) {
  std::string Error;
  std::unique_ptr<DocumentState> D = buildDocumentState(
      "doc.cs", Doc, Prev ? Prev->Version + 1 : 1, /*DocThreads=*/1, Error,
      Prev, Base);
  EXPECT_NE(D, nullptr) << Error;
  return D;
}

//===----------------------------------------------------------------------===//
// Round trip: snapshot-loaded corpus == cold-built corpus, bit for bit
//===----------------------------------------------------------------------===//

TEST(SnapshotTest, WarmStartOpenMatchesFullBuildBitForBit) {
  auto Snap = savedAndLoaded("roundtrip.snap");
  ASSERT_NE(Snap, nullptr);
  // Nothing is rebuilt: the loaded corpus answers from the mapped tables
  // and the deserialized solution.
  std::unique_ptr<DocumentState> Warm = loadedDocument(*Snap);
  EXPECT_TRUE(Warm->Idx->frozen());
  EXPECT_EQ(Warm->Exec->sharedSolution(), Snap->Solution);

  std::unique_ptr<DocumentState> Fresh = build(baseText(), 1, nullptr);
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(Fresh->Kind, DocumentState::BuildKind::Full);

  for (const CompleteSpec &Q : queryBattery()) {
    SCOPED_TRACE(Q.Class + "." + Q.Method + " " + Q.Query + " rank=" +
                 Q.Opts.Rank.spec());
    QueryOutcome A = runCompletion(*Warm, Q);
    QueryOutcome B = runCompletion(*Fresh, Q);
    ASSERT_TRUE(A.Ok && B.Ok) << A.ErrMsg << " / " << B.ErrMsg;
    EXPECT_EQ(A.Completions.write(), B.Completions.write());
    EXPECT_EQ(A.ClassQualName, B.ClassQualName);
  }
}

TEST(SnapshotTest, EditedOpenOverSnapshotStaysBitIdentical) {
  // A document open over a snapshot-backed base, then edited: a body edit
  // shares the overlay's type-graph tables and rebuilds only the code layer
  // and the solution; a type-graph edit rebuilds the overlay in full. Each
  // version must answer exactly like a monolithic cold build of base +
  // document.
  std::shared_ptr<const BaseCorpus> Base = snapshotBase("edited.snap");
  ASSERT_NE(Base, nullptr);

  const std::string BodyEdit =
      replaceLast(scratchText(), "return;", "var tmp = point;\n    return;");
  const std::string GraphEdit = scratchText() + "class Extra {\n"
                                                "  System.Windows.Point Spot;\n"
                                                "}\n";
  std::unique_ptr<DocumentState> Open = buildOverlay(scratchText(), Base);
  ASSERT_NE(Open, nullptr);
  EXPECT_EQ(Open->Kind, DocumentState::BuildKind::Full);
  EXPECT_EQ(Open->TS->baseLayer(), Base->TS.get());

  struct Case {
    const char *Name;
    const std::string *Text;
    DocumentState::BuildKind Want;
  } Cases[] = {
      {"body-edit", &BodyEdit, DocumentState::BuildKind::IncrementalBody},
      {"graph-edit", &GraphEdit, DocumentState::BuildKind::Full},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::unique_ptr<DocumentState> Edited =
        buildOverlay(*C.Text, Base, Open.get());
    std::unique_ptr<DocumentState> Fresh =
        build(std::string(corpora::GeometryCorpus) + *C.Text, 1, nullptr);
    ASSERT_TRUE(Edited && Fresh);
    EXPECT_EQ(Edited->Kind, C.Want);
    EXPECT_EQ(Edited->Base, Base);
    if (Edited->incremental())
      EXPECT_EQ(Edited->TS.get(), Open->TS.get());
    else
      EXPECT_NE(Edited->TS.get(), Open->TS.get());
    for (const CompleteSpec &Q : overlayBattery()) {
      SCOPED_TRACE(Q.Query + " rank=" + Q.Opts.Rank.spec());
      QueryOutcome A = runCompletion(*Edited, Q);
      QueryOutcome B = runCompletion(*Fresh, Q);
      ASSERT_TRUE(A.Ok && B.Ok) << A.ErrMsg << " / " << B.ErrMsg;
      EXPECT_EQ(A.Completions.write(), B.Completions.write());
    }
  }
}

TEST(SnapshotTest, AdoptedTablesAliasTheMappingZeroCopy) {
  auto Snap = savedAndLoaded("zerocopy.snap");
  ASSERT_NE(Snap, nullptr);
  ASSERT_TRUE(Snap->Mapped);
  ASSERT_NE(Snap->File, nullptr);
  EXPECT_TRUE(Snap->Idx->frozen());
  EXPECT_TRUE(Snap->TS->denseDistancesFrozen());

  // The dense distance matrix must point *into* the file image — adopted,
  // not copied. (The other tables go through the same adoption plumbing;
  // this is the observable witness.)
  const char *Begin = Snap->File->data();
  const char *End = Begin + Snap->File->size();
  const auto *Dist =
      reinterpret_cast<const char *>(Snap->TS->denseDistanceTable().data());
  EXPECT_GE(Dist, Begin);
  EXPECT_LT(Dist, End);
}

TEST(SnapshotTest, BufferedReadFallbackMatchesTheMapping) {
  // Exercise the no-mmap path end to end: identical answers, just a copy
  // instead of a mapping.
  auto Mapped = savedAndLoaded("buffered.snap");
  ASSERT_NE(Mapped, nullptr);
  std::string Error;
  auto Buffered = snapshot::loadSnapshot(tmpPath("buffered.snap"), Error,
                                         /*ForceBufferedRead=*/true);
  ASSERT_NE(Buffered, nullptr) << Error;
  EXPECT_FALSE(Buffered->Mapped);
  EXPECT_TRUE(Mapped->Mapped);
  EXPECT_EQ(Buffered->Bytes, Mapped->Bytes);

  std::unique_ptr<DocumentState> A = loadedDocument(*Mapped);
  std::unique_ptr<DocumentState> B = loadedDocument(*Buffered);
  for (const CompleteSpec &Q : queryBattery()) {
    QueryOutcome RA = runCompletion(*A, Q);
    QueryOutcome RB = runCompletion(*B, Q);
    ASSERT_TRUE(RA.Ok && RB.Ok);
    EXPECT_EQ(RA.Completions.write(), RB.Completions.write());
  }
}

TEST(SnapshotTest, ConcurrentQueriesOverOneMappingStayIdentical) {
  // Eight overlay documents over one snapshot-backed base, so all of them
  // read the same mapped tables and solution, each queried from its own
  // thread (sessions are strands: concurrency is across DocumentStates,
  // never within one), checked against monolithic cold-built twins
  // computed serially beforehand. TSan must observe no races on the
  // mapped tables or the shared solution.
  std::shared_ptr<const BaseCorpus> Base = snapshotBase("concurrent.snap");
  ASSERT_NE(Base, nullptr);

  constexpr int NumThreads = 8;
  const std::vector<CompleteSpec> Qs = overlayBattery();

  std::vector<std::unique_ptr<DocumentState>> Docs;
  std::vector<std::vector<std::string>> Want(NumThreads);
  for (int I = 0; I != NumThreads; ++I) {
    std::string Text = scratchText();
    if (I != 0) { // thread 0 queries the unedited document
      std::string Body = "var tmp = point;\n    ";
      for (int J = 1; J != I; ++J)
        Body += "var extra" + std::to_string(J) + " = point;\n    ";
      Text = replaceLast(Text, "return;", Body + "return;");
    }
    std::unique_ptr<DocumentState> D = buildOverlay(Text, Base);
    ASSERT_NE(D, nullptr);
    ASSERT_EQ(D->TS->baseLayer(), Base->TS.get());
    std::unique_ptr<DocumentState> Fresh =
        build(std::string(corpora::GeometryCorpus) + Text, 1, nullptr);
    ASSERT_NE(Fresh, nullptr);
    for (const CompleteSpec &Q : Qs) {
      QueryOutcome O = runCompletion(*Fresh, Q);
      ASSERT_TRUE(O.Ok) << O.ErrMsg;
      Want[I].push_back(O.Completions.write());
    }
    Docs.push_back(std::move(D));
  }

  std::vector<std::thread> Threads;
  for (int I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&, I] {
      for (int Round = 0; Round != 3; ++Round)
        for (size_t Q = 0; Q != Qs.size(); ++Q) {
          QueryOutcome O = runCompletion(*Docs[I], Qs[Q]);
          ASSERT_TRUE(O.Ok) << O.ErrMsg;
          EXPECT_EQ(O.Completions.write(), Want[I][Q])
              << "thread " << I << " query " << Q << " round " << Round;
        }
    });
  for (std::thread &T : Threads)
    T.join();
}

//===----------------------------------------------------------------------===//
// Fault injection: every defect is detected, every detection falls back
//===----------------------------------------------------------------------===//

/// After any load failure the caller's recourse is a cold build; assert it
/// actually works so "detected" always composes into "recovered".
void expectColdFallbackWorks() {
  std::unique_ptr<DocumentState> Doc = build(baseText(), 1, nullptr);
  ASSERT_NE(Doc, nullptr);
  QueryOutcome O =
      runCompletion(*Doc, spec("EllipseArc", "Examine", "?({point})"));
  EXPECT_TRUE(O.Ok) << O.ErrMsg;
}

TEST(SnapshotTest, TruncationAtEveryLayerIsDetected) {
  const std::string Good = tmpPath("trunc_good.snap");
  std::string Error;
  ASSERT_TRUE(writeCorpusSnapshot(baseText(), Good, Error)) << Error;
  const std::vector<char> Bytes = readFileBytes(Good);
  ASSERT_GT(Bytes.size(), sizeof(snapshot::Header) + 64);

  const size_t Cuts[] = {
      8,                            // not even a header
      sizeof(snapshot::Header) - 4, // header itself cut
      sizeof(snapshot::Header) + 4, // section table cut
      Bytes.size() / 2,             // mid-payload
      Bytes.size() - 3,             // last section short
  };
  const std::string Path = tmpPath("trunc.snap");
  for (size_t Cut : Cuts) {
    SCOPED_TRACE("cut at " + std::to_string(Cut));
    writeFileBytes(Path,
                   std::vector<char>(Bytes.begin(), Bytes.begin() + Cut));
    std::string LoadError;
    auto Snap = snapshot::loadSnapshot(Path, LoadError);
    EXPECT_EQ(Snap, nullptr);
    EXPECT_NE(LoadError.find("snapshot:"), std::string::npos) << LoadError;
  }
  expectColdFallbackWorks();
}

TEST(SnapshotTest, FlippedByteInEverySectionIsDetected) {
  const std::string Good = tmpPath("flip_good.snap");
  std::string Error;
  ASSERT_TRUE(writeCorpusSnapshot(baseText(), Good, Error)) << Error;
  snapshot::SnapshotInfo Info;
  ASSERT_TRUE(snapshot::readSnapshotInfo(Good, Info, Error)) << Error;
  ASSERT_EQ(Info.Sections.size(), 8u);

  const std::vector<char> Bytes = readFileBytes(Good);
  const std::string Path = tmpPath("flip.snap");
  for (const snapshot::SectionEntry &S : Info.Sections) {
    const char *Name = snapshot::sectionKindName(S.Kind);
    SCOPED_TRACE(Name);
    ASSERT_GT(S.Size, 0u);
    std::vector<char> Corrupt = Bytes;
    Corrupt[S.Offset + S.Size / 2] ^= 0x5A;
    writeFileBytes(Path, Corrupt);
    std::string LoadError;
    auto Snap = snapshot::loadSnapshot(Path, LoadError);
    EXPECT_EQ(Snap, nullptr);
    // The per-section CRC must finger the section it caught.
    EXPECT_NE(LoadError.find("checksum mismatch in section"),
              std::string::npos)
        << LoadError;
    EXPECT_NE(LoadError.find(Name), std::string::npos) << LoadError;
  }
  expectColdFallbackWorks();
}

TEST(SnapshotTest, HeaderFaultsAreDetected) {
  const std::string Good = tmpPath("hdr_good.snap");
  std::string Error;
  ASSERT_TRUE(writeCorpusSnapshot(baseText(), Good, Error)) << Error;
  const std::vector<char> Bytes = readFileBytes(Good);
  const std::string Path = tmpPath("hdr.snap");

  auto LoadExpectingFailure = [&](const std::vector<char> &Image,
                                  const char *WantInError) {
    writeFileBytes(Path, Image);
    std::string LoadError;
    auto Snap = snapshot::loadSnapshot(Path, LoadError);
    EXPECT_EQ(Snap, nullptr);
    EXPECT_NE(LoadError.find(WantInError), std::string::npos) << LoadError;
  };
  auto Patched = [&](auto &&Mutate) {
    std::vector<char> Image = Bytes;
    snapshot::Header Hdr;
    std::memcpy(&Hdr, Image.data(), sizeof(Hdr));
    Mutate(Hdr);
    std::memcpy(Image.data(), &Hdr, sizeof(Hdr));
    restampHeaderCrc(Image); // corrupt the field, not the checksum
    return Image;
  };

  LoadExpectingFailure(
      Patched([](snapshot::Header &H) { H.Version += 1; }),
      "format version mismatch");
  // Version 1 images carried four reachability matrices; a v1 header is
  // refused before any section is read.
  LoadExpectingFailure(Patched([](snapshot::Header &H) { H.Version = 1; }),
                       "format version mismatch");
  LoadExpectingFailure(
      Patched([](snapshot::Header &H) { H.TypeGraphHash ^= 1; }), "stale");
  LoadExpectingFailure(
      Patched([](snapshot::Header &H) { H.CodeHash ^= 1; }), "stale");
  LoadExpectingFailure(
      Patched([](snapshot::Header &H) { H.Endian = 0x04030201; }),
      "endianness mismatch");

  // Magic is checked before any checksum; no restamp needed.
  {
    std::vector<char> Image = Bytes;
    Image[0] = 'X';
    LoadExpectingFailure(Image, "bad magic");
  }
  // A corrupted checksum itself is also a detected fault.
  {
    std::vector<char> Image = Bytes;
    snapshot::Header Hdr;
    std::memcpy(&Hdr, Image.data(), sizeof(Hdr));
    Hdr.HeaderCrc ^= 0xDEADBEEF;
    std::memcpy(Image.data(), &Hdr, sizeof(Hdr));
    LoadExpectingFailure(Image, "header checksum mismatch");
  }
  expectColdFallbackWorks();
}

TEST(SnapshotTest, StaleShapeHashesAreDetected) {
  // A writer bug (or a file paired with the wrong corpus): the embedded
  // source parses fine but its hashes disagree with the header.
  DiagnosticEngine Diags;
  SynFile File;
  const std::string Other = std::string(corpora::GeometryCorpus);
  ASSERT_TRUE(parseSourceFile(Other, File, Diags));
  DocumentShape WrongShape = shapeOfFile(File);

  const std::string Path = tmpPath("stale.snap");
  std::string Error;
  ASSERT_TRUE(writeCorpusSnapshot(baseText(), Path, Error, &WrongShape))
      << Error;
  std::string LoadError;
  auto Snap = snapshot::loadSnapshot(Path, LoadError);
  EXPECT_EQ(Snap, nullptr);
  EXPECT_NE(LoadError.find("stale"), std::string::npos) << LoadError;
  expectColdFallbackWorks();
}

TEST(SnapshotTest, MissingAndGarbageFilesAreDetected) {
  std::string Error;
  EXPECT_EQ(snapshot::loadSnapshot(tmpPath("does_not_exist.snap"), Error),
            nullptr);
  EXPECT_FALSE(Error.empty());

  const std::string Path = tmpPath("garbage.snap");
  std::vector<char> Garbage(4096);
  for (size_t I = 0; I != Garbage.size(); ++I)
    Garbage[I] = static_cast<char>(I * 37 + 11);
  writeFileBytes(Path, Garbage);
  std::string LoadError;
  EXPECT_EQ(snapshot::loadSnapshot(Path, LoadError), nullptr);
  EXPECT_NE(LoadError.find("bad magic"), std::string::npos) << LoadError;
  expectColdFallbackWorks();
}

TEST(SnapshotTest, InfoReportsTheFullSectionTable) {
  const std::string Path = tmpPath("info.snap");
  std::string Error;
  ASSERT_TRUE(writeCorpusSnapshot(baseText(), Path, Error)) << Error;
  snapshot::SnapshotInfo Info;
  ASSERT_TRUE(snapshot::readSnapshotInfo(Path, Info, Error)) << Error;
  EXPECT_EQ(Info.Hdr.Version, snapshot::FormatVersion);
  EXPECT_EQ(Info.Sections.size(), 8u);
  EXPECT_GT(Info.FileBytes, sizeof(snapshot::Header));
  for (const snapshot::SectionEntry &S : Info.Sections) {
    EXPECT_EQ(S.Offset % 8, 0u) << snapshot::sectionKindName(S.Kind);
    EXPECT_LE(S.Offset + S.Size, Info.FileBytes);
    EXPECT_STRNE(snapshot::sectionKindName(S.Kind), "unknown");
  }
}

} // namespace
