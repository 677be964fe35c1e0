// Per-file fact schema for the project-wide rules, plus the cache
// serialization.
//
// One FileFacts holds everything the interprocedural rules (BS008–BS012)
// need from a translation unit — #include sites, function definitions and
// declarations with their calls / throw sites / lock-acquisition order,
// util::Mutex declarations, statement-expression calls whose value is
// discarded — plus the already-evaluated per-file findings (BS001–BS007)
// and the file's suppression table. Facts are a pure function of
// (path, content, companion header), which is what makes the content-hash
// cache sound: a .bslint-cache hit replays serialize()d facts instead of
// re-lexing, and the merged report is byte-identical either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"
#include "rules/file_rules.hpp"

namespace booterscope::lint::index {

struct CallSite {
  std::string callee;    // unqualified last segment ("decode")
  std::size_t line = 0;  // 1-based
};

struct LockSite {
  std::string mutex_name;  // as written at the acquisition ("mutex_")
  std::size_t line = 0;    // 1-based
};

struct IncludeSite {
  std::string target;    // as written ("flow/batch.hpp")
  std::size_t line = 0;  // 1-based
};

struct FunctionFacts {
  std::string name;       // last segment ("decode")
  std::string qualified;  // best-effort qualification ("Ipfix::decode")
  std::size_t line = 0;   // 1-based definition/declaration line
  bool is_definition = false;
  bool returns_result = false;  // Result<...> in the return type
  std::vector<CallSite> calls;  // definition bodies only, in source order
  std::vector<std::size_t> throw_lines;
  std::vector<LockSite> locks;  // acquisition order within the body
};

struct FileFacts {
  std::string path;  // root-relative, forward slashes
  std::vector<IncludeSite> includes;
  std::vector<FunctionFacts> functions;
  std::vector<std::string> mutex_decls;  // util::Mutex member/variable names
  /// Statement-expression calls (`foo(x);` with the value unused); BS011
  /// fires when the callee resolves to a Result-returning function.
  std::vector<CallSite> discard_candidates;
  std::vector<Finding> local_findings;  // BS001–BS007, suppressions applied
  checks::Suppressions suppressions;     // consulted by the project rules
};

/// Lexes + indexes one in-memory file: facts and local findings.
[[nodiscard]] FileFacts index_file(const FileInput& input);

/// Cache payload round-trip. The format is line-oriented and versioned by
/// lint.hpp's kRuleSetVersion (checked by the cache layer, not here).
[[nodiscard]] std::string serialize(const FileFacts& facts);
[[nodiscard]] bool deserialize(std::string_view text, FileFacts& facts);

/// Content hash used as the cache key (stable across platforms/runs).
[[nodiscard]] std::string content_hash(std::string_view content);

}  // namespace booterscope::lint::index
