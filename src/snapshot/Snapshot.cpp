//===- snapshot/Snapshot.cpp - Persistent frozen-index store --------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"

#include "support/Checksum.h"
#include "support/FaultInjector.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace petal;
using namespace petal::snapshot;

static_assert(sizeof(MethodId) == 4 && sizeof(TypeId) == 4,
              "snapshot CSR payloads assume 32-bit ids");
static_assert(sizeof(int16_t) == 2, "sanity");

const char *snapshot::sectionKindName(uint32_t Kind) {
  switch (Kind) {
  case SecSourceText:
    return "sourceText";
  case SecTypeDist:
    return "typeDist";
  case SecMemberOffsets:
    return "memberOffsets";
  case SecMemberEdges:
    return "memberEdges";
  case SecMemberFieldCounts:
    return "memberFieldCounts";
  case SecUnionOffsets:
    return "unionOffsets";
  case SecUnionData:
    return "unionData";
  case SecSolution:
    return "solution";
  default:
    return "unknown";
  }
}

static uint32_t headerCrc(const Header &Hdr,
                          const std::vector<SectionEntry> &Table) {
  Header Tmp = Hdr;
  Tmp.HeaderCrc = 0;
  Tmp.Pad = 0;
  uint32_t C = crc32(&Tmp, sizeof(Tmp));
  return crc32(Table.data(), Table.size() * sizeof(SectionEntry), C);
}

static size_t alignTo8(size_t N) { return (N + 7) & ~size_t(7); }

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

bool snapshot::writeSnapshot(const std::string &Path,
                             const std::string &SourceText,
                             const DocumentShape &Shape,
                             const CompletionIndexes &Idx,
                             const AbsTypeSolution &Solution,
                             std::string &Error) {
  const TypeSystem &TS = Idx.typeSystem();
  if (!Idx.frozen() || !TS.denseDistancesFrozen() || !Idx.Members.frozen() ||
      !Idx.Methods.frozen()) {
    Error = "snapshot: corpus is not fully frozen (dense tables missing); "
            "freeze() with a sufficient MaxDenseBytes budget first";
    return false;
  }
  if (Solution.parents().size() != Idx.Infer.numVars()) {
    Error = "snapshot: solution variable count does not match the corpus";
    return false;
  }

  size_t N = TS.numTypes();

  // Member edges are structs with padding holes; rebuild each through a
  // zeroed temporary so the file bytes are a pure function of the corpus
  // (byte-identical snapshots for identical sources).
  Span<const LookupEdge> Edges = Idx.Members.frozenEdges();
  std::vector<LookupEdge> CleanEdges(Edges.size());
  for (size_t I = 0; I != Edges.size(); ++I) {
    LookupEdge Tmp;
    std::memset(&Tmp, 0, sizeof(Tmp));
    Tmp.IsField = Edges[I].IsField;
    Tmp.Field = Edges[I].Field;
    Tmp.Method = Edges[I].Method;
    Tmp.ResultType = Edges[I].ResultType;
    CleanEdges[I] = Tmp;
  }

  // FieldCounts are size_t in memory; the file stores u64 so the format is
  // identical across 32/64-bit builds.
  Span<const size_t> FC = Idx.Members.frozenFieldCounts();
  std::vector<uint64_t> FieldCounts64(FC.begin(), FC.end());

  Span<const int16_t> TypeDist = TS.denseDistanceTable();
  Span<const uint32_t> MemberOffs = Idx.Members.frozenOffsets();
  Span<const uint32_t> UnionOffs = Idx.Methods.frozenUnionOffsets();
  Span<const MethodId> UnionData = Idx.Methods.frozenUnionData();
  Span<const uint32_t> Parents = Solution.parents();

  struct Payload {
    uint32_t Kind;
    const void *Data;
    size_t Size;
  };
  const Payload Payloads[] = {
      {SecSourceText, SourceText.data(), SourceText.size()},
      {SecTypeDist, TypeDist.data(), TypeDist.size() * sizeof(int16_t)},
      {SecMemberOffsets, MemberOffs.data(),
       MemberOffs.size() * sizeof(uint32_t)},
      {SecMemberEdges, CleanEdges.data(),
       CleanEdges.size() * sizeof(LookupEdge)},
      {SecMemberFieldCounts, FieldCounts64.data(),
       FieldCounts64.size() * sizeof(uint64_t)},
      {SecUnionOffsets, UnionOffs.data(),
       UnionOffs.size() * sizeof(uint32_t)},
      {SecUnionData, UnionData.data(), UnionData.size() * sizeof(MethodId)},
      {SecSolution, Parents.data(), Parents.size() * sizeof(uint32_t)},
  };
  constexpr size_t NumSecs = sizeof(Payloads) / sizeof(Payloads[0]);

  Header Hdr = {};
  std::memcpy(Hdr.Mag, Magic, sizeof(Magic));
  Hdr.Version = FormatVersion;
  Hdr.Endian = EndianTag;
  Hdr.LookupEdgeSize = static_cast<uint32_t>(sizeof(LookupEdge));
  Hdr.NumSections = static_cast<uint32_t>(NumSecs);
  Hdr.TypeGraphHash = Shape.TypeGraphHash;
  Hdr.CodeHash = Shape.CodeHash;
  Hdr.NumTypes = N;
  Hdr.NumFields = TS.numFields();
  Hdr.NumMethods = TS.numMethods();
  Hdr.NumNamespaces = TS.numNamespaces();
  Hdr.NumAbsVars = Parents.size();

  std::vector<SectionEntry> Table(NumSecs);
  size_t Offset = alignTo8(sizeof(Header) + NumSecs * sizeof(SectionEntry));
  for (size_t I = 0; I != NumSecs; ++I) {
    Table[I].Kind = Payloads[I].Kind;
    Table[I].Crc = crc32(Payloads[I].Data, Payloads[I].Size);
    Table[I].Offset = Offset;
    Table[I].Size = Payloads[I].Size;
    Offset = alignTo8(Offset + Payloads[I].Size);
  }
  Hdr.HeaderCrc = headerCrc(Hdr, Table);

  // Assemble the whole image in memory (zero-filled, so alignment padding
  // is deterministic), then write it in one go.
  std::vector<char> Image(Offset, 0);
  std::memcpy(Image.data(), &Hdr, sizeof(Hdr));
  std::memcpy(Image.data() + sizeof(Hdr), Table.data(),
              NumSecs * sizeof(SectionEntry));
  for (size_t I = 0; I != NumSecs; ++I)
    std::memcpy(Image.data() + Table[I].Offset, Payloads[I].Data,
                Payloads[I].Size);

  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS) {
    Error = "snapshot: cannot open '" + Path + "' for writing";
    return false;
  }
  OS.write(Image.data(), static_cast<std::streamsize>(Image.size()));
  OS.flush();
  if (!OS) {
    Error = "snapshot: write to '" + Path + "' failed";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Validation shared by the loader and readSnapshotInfo
//===----------------------------------------------------------------------===//

/// Validates everything that can be checked without reconstituting the
/// corpus: header fields, header checksum, section bounds/alignment, and
/// every section checksum. On success \p Hdr and \p Table are filled.
static bool validateImage(const char *Data, size_t Size, Header &Hdr,
                          std::vector<SectionEntry> &Table,
                          std::string &Error) {
  if (Size < sizeof(Header)) {
    Error = "snapshot: truncated file (smaller than the header)";
    return false;
  }
  std::memcpy(&Hdr, Data, sizeof(Hdr));
  if (std::memcmp(Hdr.Mag, Magic, sizeof(Magic)) != 0) {
    Error = "snapshot: bad magic (not a snapshot file)";
    return false;
  }
  if (Hdr.Version != FormatVersion) {
    Error = "snapshot: format version mismatch (file has " +
            std::to_string(Hdr.Version) + ", this build reads " +
            std::to_string(FormatVersion) + ")";
    return false;
  }
  if (Hdr.Endian != EndianTag) {
    Error = "snapshot: endianness mismatch";
    return false;
  }
  if (Hdr.LookupEdgeSize != sizeof(LookupEdge)) {
    Error = "snapshot: LookupEdge layout mismatch";
    return false;
  }
  if (Hdr.NumSections == 0 || Hdr.NumSections > 64) {
    Error = "snapshot: implausible section count";
    return false;
  }
  size_t TableBytes = Hdr.NumSections * sizeof(SectionEntry);
  if (Size < sizeof(Header) + TableBytes) {
    Error = "snapshot: truncated file (section table cut off)";
    return false;
  }
  Table.resize(Hdr.NumSections);
  std::memcpy(Table.data(), Data + sizeof(Header), TableBytes);
  if (headerCrc(Hdr, Table) != Hdr.HeaderCrc) {
    Error = "snapshot: header checksum mismatch";
    return false;
  }
  for (const SectionEntry &S : Table) {
    if (S.Offset % 8 != 0 || S.Offset > Size || Size - S.Offset < S.Size) {
      Error = std::string("snapshot: truncated or corrupt section '") +
              sectionKindName(S.Kind) + "'";
      return false;
    }
    if (crc32(Data + S.Offset, S.Size) != S.Crc) {
      Error = std::string("snapshot: checksum mismatch in section '") +
              sectionKindName(S.Kind) + "'";
      return false;
    }
  }
  return true;
}

static const SectionEntry *findSection(const std::vector<SectionEntry> &Table,
                                       uint32_t Kind) {
  for (const SectionEntry &S : Table)
    if (S.Kind == Kind)
      return &S;
  return nullptr;
}

bool snapshot::readSnapshotInfo(const std::string &Path, SnapshotInfo &Out,
                                std::string &Error) {
  auto File = MappedFile::open(Path, Error);
  if (!File)
    return false;
  if (!validateImage(File->data(), File->size(), Out.Hdr, Out.Sections,
                     Error))
    return false;
  Out.FileBytes = File->size();
  return true;
}

//===----------------------------------------------------------------------===//
// Loader
//===----------------------------------------------------------------------===//

std::shared_ptr<const LoadedSnapshot>
snapshot::loadSnapshot(const std::string &Path, std::string &Error,
                       bool ForceBufferedRead) {
  auto Start = std::chrono::steady_clock::now();

  // Fault: mmap "unavailable". Recovery is the buffered-read path the
  // loader already supports — same bytes, no mapping.
  bool Buffered = ForceBufferedRead;
  if (!Buffered && FaultInjector::armed() &&
      FaultInjector::instance().fire(Fault::SnapshotMmapFail)) {
    FaultInjector::instance().noteRecovered(Fault::SnapshotMmapFail);
    Buffered = true;
  }

  auto File = MappedFile::open(Path, Error, Buffered);
  if (!File)
    return nullptr;
  const char *Data = File->data();
  size_t Size = File->size();

  // Fault: the image appears cut in half (a partial write / partial
  // download). Validation must reject it; the caller's cold build is the
  // recovery. If the half-image somehow validated, adopting it would be a
  // correctness bug, so the injected case always rejects.
  bool Truncated = FaultInjector::armed() && Size > 1 &&
                   FaultInjector::instance().fire(Fault::SnapshotTruncate);
  if (Truncated)
    Size /= 2;

  Header Hdr;
  std::vector<SectionEntry> Table;

  // Fault: one flipped payload bit. Corrupt a local *copy* — the mapping
  // may be shared — and require the checksums to catch it; the clean
  // rejection (and the caller's cold build) is the recovery. The copy is
  // never adopted: even if the flip landed in slack the CRCs don't cover,
  // handing out corrupt-capable state would defeat the exercise.
  if (!Truncated && FaultInjector::armed() && Size > 0 &&
      FaultInjector::instance().fire(Fault::SnapshotCrcFlip)) {
    std::string Corrupt(Data, Size);
    Corrupt[Size / 2] = static_cast<char>(Corrupt[Size / 2] ^ 0x40);
    if (validateImage(Corrupt.data(), Size, Hdr, Table, Error))
      Error = "snapshot: injected bit flip landed outside checksummed "
              "payload";
    FaultInjector::instance().noteRecovered(Fault::SnapshotCrcFlip);
    return nullptr;
  }

  bool Valid = validateImage(Data, Size, Hdr, Table, Error);
  if (Truncated) {
    if (Valid)
      Error = "snapshot: truncated image unexpectedly validated";
    FaultInjector::instance().noteRecovered(Fault::SnapshotTruncate);
    return nullptr;
  }
  if (!Valid)
    return nullptr;

  // Every kind must appear exactly once.
  const SectionEntry *Secs[SecSolution + 1] = {};
  for (uint32_t K = SecSourceText; K <= SecSolution; ++K) {
    const SectionEntry *S = findSection(Table, K);
    if (!S) {
      Error = std::string("snapshot: missing section '") +
              sectionKindName(K) + "'";
      return nullptr;
    }
    Secs[K] = S;
  }

  auto Snap = std::make_shared<LoadedSnapshot>();
  Snap->Path = Path;
  Snap->SourceText.assign(Data + Secs[SecSourceText]->Offset,
                          Secs[SecSourceText]->Size);

  // Re-parse and re-resolve the embedded source. Id assignment is
  // deterministic, so the resulting TypeSystem matches the serialized
  // tables cell for cell — which the shape hashes and entity counts below
  // double-check before anything is adopted.
  DiagnosticEngine Diags;
  SynFile SF;
  if (!parseSourceFile(Snap->SourceText, SF, Diags)) {
    Error = "snapshot: embedded source failed to parse";
    return nullptr;
  }
  Snap->Shape = shapeOfFile(SF);
  if (Snap->Shape.TypeGraphHash != Hdr.TypeGraphHash ||
      Snap->Shape.CodeHash != Hdr.CodeHash) {
    Error = "snapshot: stale — embedded corpus hashes do not match the "
            "header";
    return nullptr;
  }

  Snap->TS = std::make_shared<TypeSystem>();
  Snap->P = std::make_shared<Program>(*Snap->TS);
  if (!resolveParsedFile(SF, *Snap->P, Diags)) {
    Error = "snapshot: embedded source failed to resolve";
    return nullptr;
  }

  size_t N = Snap->TS->numTypes();
  if (N != Hdr.NumTypes || Snap->TS->numFields() != Hdr.NumFields ||
      Snap->TS->numMethods() != Hdr.NumMethods ||
      Snap->TS->numNamespaces() != Hdr.NumNamespaces) {
    Error = "snapshot: stale — entity counts do not match the header";
    return nullptr;
  }

  // Shape-check every table against the resolved corpus before adoption.
  if (Secs[SecTypeDist]->Size != N * N * sizeof(int16_t)) {
    Error = "snapshot: section 'typeDist' has the wrong size for this corpus";
    return nullptr;
  }
  if (Secs[SecMemberOffsets]->Size != (N + 1) * sizeof(uint32_t) ||
      Secs[SecUnionOffsets]->Size != (N + 1) * sizeof(uint32_t) ||
      Secs[SecMemberFieldCounts]->Size != N * sizeof(uint64_t)) {
    Error = "snapshot: CSR offset sections have the wrong size for this "
            "corpus";
    return nullptr;
  }

  const auto *MemberOffs = reinterpret_cast<const uint32_t *>(
      Data + Secs[SecMemberOffsets]->Offset);
  const auto *UnionOffs = reinterpret_cast<const uint32_t *>(
      Data + Secs[SecUnionOffsets]->Offset);
  auto monotone = [N](const uint32_t *Offs) {
    for (size_t I = 0; I != N; ++I)
      if (Offs[I] > Offs[I + 1])
        return false;
    return true;
  };
  if (MemberOffs[0] != 0 || UnionOffs[0] != 0 || !monotone(MemberOffs) ||
      !monotone(UnionOffs) ||
      Secs[SecMemberEdges]->Size !=
          size_t(MemberOffs[N]) * sizeof(LookupEdge) ||
      Secs[SecUnionData]->Size != size_t(UnionOffs[N]) * sizeof(MethodId)) {
    Error = "snapshot: CSR payload inconsistent with its offsets";
    return nullptr;
  }

  // The solution parents array: one u32 per abstract-type variable, every
  // entry in range. The variable count must match the freshly harvested
  // inference (deterministic numbering) — checked after the indexes exist.
  const auto *Parents =
      reinterpret_cast<const uint32_t *>(Data + Secs[SecSolution]->Offset);
  size_t NumVars = Secs[SecSolution]->Size / sizeof(uint32_t);
  if (Secs[SecSolution]->Size % sizeof(uint32_t) != 0 ||
      NumVars != Hdr.NumAbsVars) {
    Error = "snapshot: solution section has the wrong size";
    return nullptr;
  }
  for (size_t I = 0; I != NumVars; ++I)
    if (Parents[I] >= NumVars) {
      Error = "snapshot: corrupt solution (parent out of range)";
      return nullptr;
    }

  Snap->Idx = std::make_shared<CompletionIndexes>(*Snap->P);
  if (Snap->Idx->Infer.numVars() != NumVars) {
    Error = "snapshot: stale — abstract-type variable count does not match "
            "this corpus";
    return nullptr;
  }

  // Everything checks out: adopt the mapped tables zero-copy. Each index
  // pins the mapping; the LoadedSnapshot's own File handle is for
  // telemetry, not lifetime.
  Snap->TS->adoptDenseDistances(
      reinterpret_cast<const int16_t *>(Data + Secs[SecTypeDist]->Offset), N,
      File);
  const auto *Counts64 = reinterpret_cast<const uint64_t *>(
      Data + Secs[SecMemberFieldCounts]->Offset);
  Snap->Idx->Members.adoptFrozen(
      reinterpret_cast<const LookupEdge *>(Data +
                                           Secs[SecMemberEdges]->Offset),
      MemberOffs[N], MemberOffs, N,
      std::vector<size_t>(Counts64, Counts64 + N), File);
  Snap->Idx->Methods.adoptFrozen(
      reinterpret_cast<const MethodId *>(Data + Secs[SecUnionData]->Offset),
      UnionOffs[N], UnionOffs, N, File);
  Snap->Idx->adoptFrozenTables();

  Snap->Solution = std::make_shared<AbsTypeSolution>(
      std::vector<uint32_t>(Parents, Parents + NumVars));

  Snap->File = File;
  Snap->Bytes = File->size();
  Snap->Mapped = File->mapped();
  Snap->LoadMillis = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
  return Snap;
}

//===----------------------------------------------------------------------===//
// Base-corpus builders (base/overlay workspace, DESIGN.md §14)
//===----------------------------------------------------------------------===//

std::shared_ptr<const BaseCorpus>
petal::baseCorpusFromSource(const std::string &Source, std::string &Error,
                            const FreezeOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  DiagnosticEngine Diags;
  SynFile File;
  if (!parseSourceFile(Source, File, Diags)) {
    std::ostringstream OS;
    Diags.print(OS);
    Error = OS.str();
    if (Error.empty())
      Error = "base corpus failed to parse";
    return nullptr;
  }

  auto Base = std::make_shared<BaseCorpus>();
  Base->SourceText = Source;
  Base->Shape = shapeOfFile(File);
  Base->TS = std::make_shared<TypeSystem>();
  Base->P = std::make_shared<Program>(*Base->TS);
  if (!resolveParsedFile(File, *Base->P, Diags)) {
    std::ostringstream OS;
    Diags.print(OS);
    Error = OS.str();
    if (Error.empty())
      Error = "base corpus failed to resolve";
    return nullptr;
  }

  Base->Idx = std::make_shared<CompletionIndexes>(*Base->P);
  Base->Idx->freeze(Opts);
  if (!Base->TS->denseDistancesFrozen()) {
    // Overlays read base×base conversions through the dense matrix only;
    // the lazy fallback mutates caches that would then be shared across
    // session threads. Refuse rather than build an unshareable base.
    Error = "base corpus exceeds the dense freeze budget (" +
            std::to_string(Opts.MaxDenseBytes) +
            " bytes); raise FreezeOptions::MaxDenseBytes";
    return nullptr;
  }
  Base->Solution = std::make_shared<AbsTypeSolution>(Base->Idx->Infer.solve());
  Base->BuildMillis = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
  return Base;
}

std::shared_ptr<const BaseCorpus> petal::baseCorpusFromSnapshot(
    std::shared_ptr<const snapshot::LoadedSnapshot> Snap) {
  if (!Snap)
    return nullptr;
  auto Base = std::make_shared<BaseCorpus>();
  Base->SourceText = Snap->SourceText;
  Base->Shape = Snap->Shape;
  Base->TS = Snap->TS;
  Base->P = Snap->P;
  Base->Idx = Snap->Idx;
  Base->Solution = Snap->Solution;
  Base->Backing = Snap; // pins the file mapping alongside the indexes
  Base->BuildMillis = Snap->LoadMillis;
  return Base;
}
