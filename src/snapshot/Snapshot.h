//===- snapshot/Snapshot.h - Persistent frozen-index store ------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot store: a versioned, checksummed, relocatable binary image of
/// a fully frozen corpus, written once (corpus_explorer --save-snapshot,
/// petal_snapshot_tool --from) and mapped read-only by any number of petald
/// processes afterwards as their shared base corpus (petal_serve
/// --base-snapshot, baseCorpusFromSnapshot below). Loading skips the O(N²)
/// dense distance matrix, the member and method-union CSR tables, and the
/// whole-corpus abstract-type solve by
/// adopting those tables straight out of the file mapping (zero-copy; the
/// indexes pin the mapping via shared_ptr keep-alives).
///
/// What the file does NOT contain is the AST: the Program and the
/// abstract-type constraint sets are pointer-keyed arena structures with no
/// stable serial form. The snapshot therefore embeds the corpus *source
/// text*, and the loader re-parses and re-resolves it — deterministic id
/// assignment guarantees the freshly resolved TypeSystem matches the tables
/// cell for cell, and the declaration-unit hashes stored in the header
/// (parser/DeclUnits.h) verify it. See DESIGN.md §13 for the layout and the
/// safety argument.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_SNAPSHOT_SNAPSHOT_H
#define PETAL_SNAPSHOT_SNAPSHOT_H

#include "complete/BaseCorpus.h"
#include "complete/Engine.h"
#include "parser/DeclUnits.h"
#include "parser/Frontend.h"
#include "support/MappedFile.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace petal {
namespace snapshot {

/// Bumped on any incompatible layout change; a mismatch makes the loader
/// refuse (the caller falls back to a full build).
inline constexpr uint32_t FormatVersion = 2;

/// First eight bytes of every snapshot file.
inline constexpr char Magic[8] = {'P', 'E', 'T', 'A', 'L', 'S', 'N', 'P'};

/// Stored in Header::Endian; a byte-swapped value means the file was
/// written on a machine with different endianness and cannot be adopted.
inline constexpr uint32_t EndianTag = 0x01020304;

/// The fixed-size file header. Public (rather than an implementation
/// detail) so tests can perform byte surgery — flip the version, plant a
/// stale hash — and recompute the checksum per the rule below.
///
/// HeaderCrc is crc32 over the header bytes with HeaderCrc and Pad zeroed,
/// continued (incremental seed) over the section table that immediately
/// follows the header.
struct Header {
  char Mag[8];             ///< Magic
  uint32_t Version;        ///< FormatVersion
  uint32_t Endian;         ///< EndianTag
  uint32_t LookupEdgeSize; ///< sizeof(LookupEdge) of the writer
  uint32_t NumSections;
  uint64_t TypeGraphHash; ///< DocumentShape::TypeGraphHash of the corpus
  uint64_t CodeHash;      ///< DocumentShape::CodeHash of the corpus
  uint64_t NumTypes;
  uint64_t NumFields;
  uint64_t NumMethods;
  uint64_t NumNamespaces;
  uint64_t NumAbsVars; ///< abstract-type variable count of the solution
  uint32_t HeaderCrc;
  uint32_t Pad; ///< zero; keeps the header 8-byte sized
};
static_assert(sizeof(Header) == 88, "snapshot header layout drifted");

/// Section identifiers, in file order. Every section payload is 8-byte
/// aligned in the file, so mapped pointers satisfy the alignment of every
/// element type they are reinterpreted as.
enum SectionKind : uint32_t {
  SecSourceText = 1,        ///< the corpus source (bytes, not NUL-terminated)
  SecTypeDist = 2,          ///< TypeSystem dense distances, N²×int16
  SecMemberOffsets = 3,     ///< member CSR offsets, (N+1)×uint32
  SecMemberEdges = 4,       ///< member CSR payload, E×LookupEdge
  SecMemberFieldCounts = 5, ///< leading-field-edge counts, N×uint64
  SecUnionOffsets = 6,      ///< method-union CSR offsets, (N+1)×uint32
  SecUnionData = 7,         ///< method-union CSR payload, U×MethodId
  SecSolution = 8,          ///< abstract-type solution parents, V×uint32
};

/// One entry of the section table (follows the header, NumSections rows).
struct SectionEntry {
  uint32_t Kind; ///< SectionKind
  uint32_t Crc;  ///< crc32 of the section payload bytes
  uint64_t Offset; ///< from file start; 8-byte aligned
  uint64_t Size;   ///< payload bytes (alignment padding not included)
};
static_assert(sizeof(SectionEntry) == 24, "section entry layout drifted");

/// Serializes a fully frozen corpus. \p Idx must be frozen with every dense
/// store populated (the default FreezeOptions guarantee this for any corpus
/// whose matrices fit the budget), \p Solution must be the full-corpus
/// solve with Idx.Infer.numVars() variables, and \p Shape must be
/// shapeOfFile() of (the parse of) \p SourceText. Returns false with a
/// description in \p Error on I/O failure or unmet preconditions.
bool writeSnapshot(const std::string &Path, const std::string &SourceText,
                   const DocumentShape &Shape, const CompletionIndexes &Idx,
                   const AbsTypeSolution &Solution, std::string &Error);

/// Everything loadSnapshot() reconstitutes: a query-ready corpus whose
/// expensive tables alias the (pinned) file mapping. Immutable; share
/// freely across threads — the indexes are frozen and the solution is
/// compressed.
struct LoadedSnapshot {
  std::string Path;
  std::string SourceText;
  DocumentShape Shape;
  std::shared_ptr<TypeSystem> TS;
  std::shared_ptr<Program> P;
  std::shared_ptr<CompletionIndexes> Idx;
  std::shared_ptr<const AbsTypeSolution> Solution;
  std::shared_ptr<const MappedFile> File; ///< pinned by the indexes too
  double LoadMillis = 0; ///< validate + parse + resolve + adopt time
  size_t Bytes = 0;      ///< file size
  bool Mapped = false;   ///< mmap'd (vs the buffered-read fallback)
};

/// Opens, validates, and reconstitutes a snapshot. Null with a reason in
/// \p Error on *any* defect — truncation, bad magic, version or endian
/// mismatch, checksum failure, or a corpus whose hashes disagree with the
/// header ("stale") — so the caller can always fall back to a full build.
/// \p ForceBufferedRead exercises the no-mmap path.
std::shared_ptr<const LoadedSnapshot>
loadSnapshot(const std::string &Path, std::string &Error,
             bool ForceBufferedRead = false);

/// Header + section table of a snapshot, validated (magic, version,
/// checksums) but without reconstituting the corpus. For tooling
/// (petal_snapshot_tool --info).
struct SnapshotInfo {
  Header Hdr;
  std::vector<SectionEntry> Sections;
  size_t FileBytes = 0;
};
bool readSnapshotInfo(const std::string &Path, SnapshotInfo &Out,
                      std::string &Error);

/// Human-readable name of a SectionKind ("sourceText", "typeDist", ...).
const char *sectionKindName(uint32_t Kind);

} // namespace snapshot

/// Parses, resolves, freezes, and solves \p Source as a base/overlay
/// workspace's shared base layer (complete/BaseCorpus.h). Fails — null with
/// a reason in \p Error — on parse/resolve errors, and also when the corpus
/// exceeds \p Opts' dense budget: overlays answer base-layer queries from
/// the base's dense distance matrix, and falling back to the base's lazy
/// caches would mutate shared state under concurrent readers.
std::shared_ptr<const BaseCorpus>
baseCorpusFromSource(const std::string &Source, std::string &Error,
                     const FreezeOptions &Opts = {});

/// Wraps a loaded snapshot as a base layer, zero-copy: the snapshot's
/// mapped TypeSystem, frozen tables, and deserialized solution become the
/// base's, and \p Snap is pinned for the base's lifetime. This is the
/// "a snapshot *is* the base layer" path — petald can serve any number of
/// overlay documents milliseconds after start.
std::shared_ptr<const BaseCorpus>
baseCorpusFromSnapshot(std::shared_ptr<const snapshot::LoadedSnapshot> Snap);

} // namespace petal

#endif // PETAL_SNAPSHOT_SNAPSHOT_H
