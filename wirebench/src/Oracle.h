//===- wirebench/src/Oracle.h - Direct-engine reference answers -*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference every petal/complete response is compared with, byte for
/// byte: a private parse of the same text (for an overlay document, of
/// the base source followed by the document, which the overlay bit-identity
/// guarantee of DESIGN.md §14 says answers identically), a fresh CompletionIndexes and
/// engine over it, and the service's serialization of the results. It
/// shares no state with the daemon and takes none of its incremental,
/// overlay or snapshot routes. Answers are computed after the measured
/// phase, on every CPU the process may use.
///
//===----------------------------------------------------------------------===//

#ifndef WIREBENCH_ORACLE_H
#define WIREBENCH_ORACLE_H

#include "Inputs.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace petal {
class Program;
} // namespace petal

namespace wirebench {

class Oracle {
public:
  Oracle();
  ~Oracle();
  Oracle(const Oracle &) = delete;
  Oracle &operator=(const Oracle &) = delete;

  /// Documents are parsed as `Base + "\n" + text` when a base is set.
  void setBase(std::string Base);

  /// The private parse of version \p Version of document \p Doc (built on
  /// first use from \p Text), or null when the text does not load.
  petal::Program *program(uint32_t Doc, uint32_t Version,
                          const std::string &Text);

  /// True if \p Q parses at the end of its method in that text.
  bool queryParses(uint32_t Doc, uint32_t Version, const std::string &Text,
                   const QuerySpec &Q);

  /// The serialized "completions" array the service must answer \p Q
  /// with (10 results), or an empty string if the query cannot run.
  const std::string &completions(uint32_t Doc, uint32_t Version,
                                 const std::string &Text, const QuerySpec &Q);

  /// One query completions() will be asked for.
  struct Ask {
    uint32_t Doc, Version;
    const std::string *Text;
    const QuerySpec *Q;
  };
  /// Computes the answers to \p Asks, one text per thread on up to
  /// \p Threads threads, and drops each text's parse once it is answered;
  /// completions() then only looks the answers up.
  void precompute(const std::vector<Ask> &Asks, size_t Threads);

  /// A private parse of one text.
  struct Entry;

private:
  using Key = std::pair<uint32_t, uint32_t>; ///< (document, version)
  Entry *entry(uint32_t Doc, uint32_t Version, const std::string &Text);
  std::string Base;
  std::map<Key, std::unique_ptr<Entry>> Entries;
  std::map<Key, std::unordered_map<std::string, std::string>> Answers;
};

/// Results per query, as every request asks for.
constexpr int64_t ResultsPerQuery = 10;

/// The exact response payload the daemon must send for a petal/complete
/// with id \p Id on document \p Doc at \p Version.
std::string expectedCompleteResponse(int64_t Id, const std::string &Doc,
                                     int64_t Version,
                                     const std::string &Completions);

} // namespace wirebench

#endif // WIREBENCH_ORACLE_H
