// Interprocedural rules (BS008–BS012) over the merged fact index. Each
// pass builds a deterministic graph (tools/bslint/graph) from the sorted
// file facts and reports violations; findings honour the suppression
// table of the file they are reported in.
#pragma once

#include <vector>

#include "index/facts.hpp"

namespace booterscope::lint::checks {

/// Runs BS008–BS012 over the whole-tree index. `files` must be sorted by
/// path (lint_tree_full guarantees it); output order is deterministic but
/// unsorted — the driver merges and sorts globally.
[[nodiscard]] std::vector<Finding> project_findings(
    const std::vector<index::FileFacts>& files);

}  // namespace booterscope::lint::checks
