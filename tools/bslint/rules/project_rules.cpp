// BS008–BS012: the interprocedural passes.
//
// BS008 (layering) resolves every quoted #include against the index and
// checks the edge against the layer map below; include cycles are Tarjan
// SCCs over the include digraph. BS009 (throw reachability) walks the
// name-matched call graph from Result-returning entry points in the
// decoder layers; depth-0 throws are BS003's job, and throw sites carrying
// a bslint:allow(BS003/BS009) are treated as quarantined and do not
// propagate. BS010 (lock order) builds an acquisition-order digraph over
// util::Mutex identities (declaring file + name — instance-blind, so
// self-edges are skipped) from within-function order plus the lock closure
// of callees invoked while a lock is held; an SCC is a potential deadlock.
// The closure only follows callee names with exactly one definition —
// homonyms would manufacture paths no execution can take.
// BS011 (discarded Result) resolves statement-expression calls against the
// indexed Result-returning names, firing only when every function of that
// name returns Result (name matching is approximate; ambiguity stays
// silent rather than noisy).
// BS012 (unused module) reads BS008's include digraph: a src/ header with
// no in-edge, apart from its own same-stem .cpp, has no caller in view.
#include "rules/project_rules.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "graph/graph.hpp"
#include "rules/file_rules.hpp"

namespace booterscope::lint::checks {

namespace {

using index::FileFacts;
using index::FunctionFacts;

// ---------------------------------------------------------------- layering

/// The architectural layer stack (DESIGN.md §16). Same-layer includes are
/// legal; an upward edge is a BS008 error. Directories outside src/ (and
/// src/ files without a subdirectory) are unlayered and exempt.
[[nodiscard]] int layer_of(std::string_view path) {
  if (path.rfind("src/", 0) != 0) return -1;
  const std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return -1;
  const std::string_view dir = rest.substr(0, slash);
  if (dir == "util") return 0;
  if (dir == "stats" || dir == "obs") return 1;
  if (dir == "net" || dir == "flow" || dir == "pcap" || dir == "exec" ||
      dir == "fault" || dir == "topo" || dir == "dnsobs" || dir == "sim") {
    return 2;
  }
  if (dir == "core") return 3;
  if (dir == "svc") return 4;
  return -1;
}

[[nodiscard]] std::string dirname_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(path.substr(0, slash));
}

/// Collapses "." and ".." segments ("src/flow/../util/x.hpp" ->
/// "src/util/x.hpp").
[[nodiscard]] std::string normalize(std::string_view path) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    std::size_t end = path.find('/', begin);
    if (end == std::string_view::npos) end = path.size();
    const std::string_view part = path.substr(begin, end - begin);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.emplace_back(part);
    }
    begin = end + 1;
  }
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += '/';
    out += part;
  }
  return out;
}

using FactsByPath = std::map<std::string, const FileFacts*, std::less<>>;

/// Resolves a quoted include target to an indexed path: the project
/// convention is include paths rooted at src/ ("flow/batch.hpp"), with
/// same-directory includes as the fallback. Returns "" when the target is
/// not part of the linted tree (system or third-party headers).
[[nodiscard]] std::string resolve_include(const FactsByPath& by_path,
                                          std::string_view from,
                                          std::string_view target) {
  const std::string rooted = normalize("src/" + std::string(target));
  if (by_path.count(rooted) != 0) return rooted;
  const std::string sibling =
      normalize(dirname_of(from) + "/" + std::string(target));
  if (by_path.count(sibling) != 0) return sibling;
  const std::string direct = normalize(target);
  if (by_path.count(direct) != 0) return direct;
  return {};
}

[[nodiscard]] bool suppressed(const FactsByPath& by_path,
                              std::string_view rule, std::string_view path,
                              std::size_t line) {
  const auto it = by_path.find(path);
  if (it == by_path.end()) return false;
  return it->second->suppressions.allows(rule, line == 0 ? 0 : line - 1);
}

[[nodiscard]] Finding make_finding(std::string_view rule,
                                   std::string_view path, std::size_t line,
                                   std::string message) {
  const RuleInfo& info = rule_info(rule);
  Finding finding;
  finding.rule = std::string(rule);
  finding.severity = info.severity;
  finding.path = std::string(path);
  finding.line = line;
  finding.message = std::move(message);
  finding.suggestion = std::string(info.suggestion);
  return finding;
}

/// Returns the resolved include digraph it checked; BS012 reads it too.
[[nodiscard]] graph::Digraph run_bs008(const std::vector<FileFacts>& files,
                                       const FactsByPath& by_path,
                                       std::vector<Finding>& out) {
  graph::Digraph includes;
  for (const FileFacts& file : files) {
    includes.add_node(file.path);
    for (const index::IncludeSite& inc : file.includes) {
      const std::string target =
          resolve_include(by_path, file.path, inc.target);
      if (target.empty() || target == file.path) continue;
      includes.add_edge(file.path, target);
      const int from_layer = layer_of(file.path);
      const int to_layer = layer_of(target);
      if (from_layer >= 0 && to_layer > from_layer) {
        if (suppressed(by_path, "BS008", file.path, inc.line)) continue;
        std::ostringstream msg;
        msg << "layering violation: " << file.path << " (layer " << from_layer
            << ") includes " << target << " (layer " << to_layer
            << ") — edges must point down the stack util -> stats/obs -> "
               "flow/pcap/net/sim/exec -> core -> svc";
        out.push_back(make_finding("BS008", file.path, inc.line, msg.str()));
      }
    }
  }
  for (const std::vector<std::string>& cycle : includes.cycles()) {
    // Report once per SCC, at the lexicographically smallest member's
    // first include edge that stays inside the component.
    const std::string& rep = cycle.front();
    const std::set<std::string> members(cycle.begin(), cycle.end());
    std::size_t line = 1;
    const auto it = by_path.find(rep);
    if (it != by_path.end()) {
      for (const index::IncludeSite& inc : it->second->includes) {
        const std::string target = resolve_include(by_path, rep, inc.target);
        if (members.count(target) != 0) {
          line = inc.line;
          break;
        }
      }
    }
    if (suppressed(by_path, "BS008", rep, line)) continue;
    std::ostringstream msg;
    msg << "include cycle among ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      msg << (i == 0 ? "" : ", ") << cycle[i];
    }
    out.push_back(make_finding("BS008", rep, line, msg.str()));
  }
  return includes;
}

// ---------------------------------------------------- call-graph plumbing

struct DefRef {
  const FileFacts* file = nullptr;
  const FunctionFacts* fn = nullptr;
};

/// Function *definitions* grouped by unqualified name, each group sorted by
/// (path, line) so name-matched resolution is deterministic.
[[nodiscard]] std::map<std::string, std::vector<DefRef>, std::less<>>
build_defs_by_name(const std::vector<FileFacts>& files) {
  std::map<std::string, std::vector<DefRef>, std::less<>> defs;
  for (const FileFacts& file : files) {
    for (const FunctionFacts& fn : file.functions) {
      if (fn.is_definition) defs[fn.name].push_back({&file, &fn});
    }
  }
  return defs;  // files are path-sorted and functions in source order
}

// ------------------------------------------------------------------ BS009

struct ThrowWitness {
  std::vector<std::string> chain;  // function names, entry first
  std::string file;
  std::size_t line = 0;
};

class ThrowReach {
 public:
  ThrowReach(const std::map<std::string, std::vector<DefRef>, std::less<>>&
                 defs_by_name)
      : defs_by_name_(defs_by_name) {}

  [[nodiscard]] std::optional<ThrowWitness> reach(const DefRef& def) {
    const auto memo = memo_.find(def.fn);
    if (memo != memo_.end()) return memo->second;
    if (visiting_.count(def.fn) != 0) return std::nullopt;  // cycle: assume ok
    visiting_.insert(def.fn);
    std::optional<ThrowWitness> result;
    for (const std::size_t line : def.fn->throw_lines) {
      // A throw annotated bslint:allow(BS003/BS009) is quarantined by its
      // author; it does not poison callers.
      if (def.file->suppressions.allows("BS003", line == 0 ? 0 : line - 1) ||
          def.file->suppressions.allows("BS009", line == 0 ? 0 : line - 1)) {
        continue;
      }
      result = ThrowWitness{{def.fn->name}, def.file->path, line};
      break;
    }
    if (!result) {
      for (const index::CallSite& call : def.fn->calls) {
        const auto defs = defs_by_name_.find(call.callee);
        if (defs == defs_by_name_.end()) continue;
        for (const DefRef& callee : defs->second) {
          if (callee.fn == def.fn) continue;
          if (std::optional<ThrowWitness> sub = reach(callee)) {
            sub->chain.insert(sub->chain.begin(), def.fn->name);
            result = std::move(sub);
            break;
          }
        }
        if (result) break;
      }
    }
    visiting_.erase(def.fn);
    memo_.emplace(def.fn, result);
    return result;
  }

 private:
  const std::map<std::string, std::vector<DefRef>, std::less<>>& defs_by_name_;
  std::map<const FunctionFacts*, std::optional<ThrowWitness>> memo_;
  std::set<const FunctionFacts*> visiting_;
};

void run_bs009(const std::vector<FileFacts>& files, const FactsByPath& by_path,
               const std::map<std::string, std::vector<DefRef>, std::less<>>&
                   defs_by_name,
               std::vector<Finding>& out) {
  ThrowReach reach(defs_by_name);
  for (const FileFacts& file : files) {
    const bool decoder_layer = file.path.rfind("src/flow/", 0) == 0 ||
                               file.path.rfind("src/pcap/", 0) == 0;
    if (!decoder_layer) continue;
    for (const FunctionFacts& fn : file.functions) {
      if (!fn.is_definition || !fn.returns_result) continue;
      const std::optional<ThrowWitness> witness = reach.reach({&file, &fn});
      // chain.size() == 1 means the throw is in this very body — that is
      // BS003's finding, at the throw line; BS009 owns the transitive case.
      if (!witness || witness->chain.size() <= 1) continue;
      if (suppressed(by_path, "BS009", file.path, fn.line)) continue;
      std::ostringstream msg;
      msg << "Result-returning entry point '" << fn.qualified
          << "' can transitively reach `throw` at " << witness->file << ":"
          << witness->line << " (call path: ";
      for (std::size_t i = 0; i < witness->chain.size(); ++i) {
        msg << (i == 0 ? "" : " -> ") << witness->chain[i];
      }
      msg << ")";
      out.push_back(make_finding("BS009", file.path, fn.line, msg.str()));
    }
  }
}

// ------------------------------------------------------------------ BS010

/// Swaps implementation/header extensions to find the companion file
/// ("src/exec/thread_pool.cpp" <-> "src/exec/thread_pool.hpp").
[[nodiscard]] std::vector<std::string> companion_paths(
    const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) return {};
  const std::string stem = path.substr(0, dot);
  const std::string ext = path.substr(dot);
  std::vector<std::string> out;
  if (ext == ".cpp" || ext == ".cc") {
    out.push_back(stem + ".hpp");
    out.push_back(stem + ".h");
  } else if (ext == ".hpp" || ext == ".h") {
    out.push_back(stem + ".cpp");
    out.push_back(stem + ".cc");
  }
  return out;
}

/// Resolves a lock-site name to a mutex identity "declaring-file::name",
/// looking in the acquiring file and then its companion. Unresolved names
/// (locals, parameters, non-util mutexes) return "" and are skipped —
/// instance identity is out of reach for a name-matched index.
[[nodiscard]] std::string resolve_mutex(const FactsByPath& by_path,
                                        const FileFacts& file,
                                        const std::string& name) {
  const auto declared_in = [&](const FileFacts& candidate) {
    return std::find(candidate.mutex_decls.begin(), candidate.mutex_decls.end(),
                     name) != candidate.mutex_decls.end();
  };
  if (declared_in(file)) return file.path + "::" + name;
  for (const std::string& companion : companion_paths(file.path)) {
    const auto it = by_path.find(companion);
    if (it != by_path.end() && declared_in(*it->second)) {
      return it->second->path + "::" + name;
    }
  }
  return {};
}

class LockClosure {
 public:
  LockClosure(const FactsByPath& by_path,
              const std::map<std::string, std::vector<DefRef>, std::less<>>&
                  defs_by_name)
      : by_path_(by_path), defs_by_name_(defs_by_name) {}

  [[nodiscard]] const std::set<std::string>& closure(const DefRef& def) {
    const auto memo = memo_.find(def.fn);
    if (memo != memo_.end()) return memo->second;
    static const std::set<std::string> kEmpty;
    if (visiting_.count(def.fn) != 0) return kEmpty;
    visiting_.insert(def.fn);
    std::set<std::string> ids;
    for (const index::LockSite& lock : def.fn->locks) {
      const std::string id = resolve_mutex(by_path_, *def.file, lock.mutex_name);
      if (!id.empty()) ids.insert(id);
    }
    for (const index::CallSite& call : def.fn->calls) {
      const auto defs = defs_by_name_.find(call.callee);
      // Only follow *unambiguous* names. Homonyms (add, check, reset —
      // this tree has eight unrelated add()s) would fan the closure out to
      // impossible paths and manufacture cycles no execution can take.
      if (defs == defs_by_name_.end() || defs->second.size() != 1) continue;
      const DefRef& callee = defs->second.front();
      if (callee.fn == def.fn) continue;
      const std::set<std::string>& sub = closure(callee);
      ids.insert(sub.begin(), sub.end());
    }
    visiting_.erase(def.fn);
    return memo_.emplace(def.fn, std::move(ids)).first->second;
  }

 private:
  const FactsByPath& by_path_;
  const std::map<std::string, std::vector<DefRef>, std::less<>>& defs_by_name_;
  std::map<const FunctionFacts*, std::set<std::string>> memo_;
  std::set<const FunctionFacts*> visiting_;
};

struct EdgeWitness {
  std::string file;
  std::size_t line = 0;
  std::string description;  // "'fn' acquires A then B"
};

void run_bs010(const std::vector<FileFacts>& files, const FactsByPath& by_path,
               const std::map<std::string, std::vector<DefRef>, std::less<>>&
                   defs_by_name,
               std::vector<Finding>& out) {
  LockClosure closures(by_path, defs_by_name);
  graph::Digraph order;
  std::map<std::pair<std::string, std::string>, EdgeWitness> witnesses;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            EdgeWitness witness) {
    if (from == to) return;  // instance-blind: same-id pairs are not order
    order.add_edge(from, to);
    witnesses.emplace(std::make_pair(from, to), std::move(witness));
  };

  for (const FileFacts& file : files) {
    for (const FunctionFacts& fn : file.functions) {
      if (!fn.is_definition) continue;
      std::vector<std::pair<std::string, std::size_t>> held;  // (id, line)
      for (const index::LockSite& lock : fn.locks) {
        const std::string id = resolve_mutex(by_path, file, lock.mutex_name);
        if (id.empty()) continue;
        for (const auto& [prior, prior_line] : held) {
          add_edge(prior, id,
                   {file.path, lock.line,
                    "'" + fn.qualified + "' acquires " + prior + " then " +
                        id});
        }
        held.emplace_back(id, lock.line);
      }
      if (held.empty()) continue;
      // Interprocedural: a call made while a lock is held inherits every
      // lock its closure can take (MutexLock is scoped RAII — approximate
      // the hold as lasting to the end of the function).
      for (const index::CallSite& call : fn.calls) {
        const auto defs = defs_by_name.find(call.callee);
        // Same unambiguity bar as the closure itself (see LockClosure).
        if (defs == defs_by_name.end() || defs->second.size() != 1) continue;
        std::set<std::string> callee_ids;
        {
          const DefRef& callee = defs->second.front();
          if (callee.fn == &fn) continue;
          const std::set<std::string>& sub = closures.closure(callee);
          callee_ids.insert(sub.begin(), sub.end());
        }
        for (const auto& [id, lock_line] : held) {
          if (call.line < lock_line) continue;  // call precedes acquisition
          for (const std::string& inner : callee_ids) {
            add_edge(id, inner,
                     {file.path, call.line,
                      "'" + fn.qualified + "' holds " + id + " across a call"
                          " to '" + call.callee + "' which locks " + inner});
          }
        }
      }
    }
  }

  for (const std::vector<std::string>& cycle : order.cycles()) {
    const std::set<std::string> members(cycle.begin(), cycle.end());
    // Deterministic report site: the smallest (file, line, edge) witness of
    // an intra-component edge.
    const EdgeWitness* best = nullptr;
    for (const std::string& from : cycle) {
      for (const std::string& to : order.successors(from)) {
        if (members.count(to) == 0) continue;
        const auto it = witnesses.find({from, to});
        if (it == witnesses.end()) continue;
        if (best == nullptr || it->second.file < best->file ||
            (it->second.file == best->file && it->second.line < best->line)) {
          best = &it->second;
        }
      }
    }
    if (best == nullptr) continue;
    if (suppressed(by_path, "BS010", best->file, best->line)) continue;
    std::ostringstream msg;
    msg << "potential deadlock: lock-order cycle among ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      msg << (i == 0 ? "" : ", ") << cycle[i];
    }
    msg << " (" << best->description << ")";
    out.push_back(make_finding("BS010", best->file, best->line, msg.str()));
  }
}

// ------------------------------------------------------------------ BS011

void run_bs011(const std::vector<FileFacts>& files, const FactsByPath& by_path,
               std::vector<Finding>& out) {
  // A name fires only when *every* indexed function of that name returns
  // Result — name matching cannot tell overloads apart, and a false "you
  // dropped a Result" is worse than a missed one.
  std::map<std::string, std::pair<bool, bool>> names;  // {any_result, any_plain}
  for (const FileFacts& file : files) {
    for (const FunctionFacts& fn : file.functions) {
      auto& [any_result, any_plain] = names[fn.name];
      (fn.returns_result ? any_result : any_plain) = true;
    }
  }
  for (const FileFacts& file : files) {
    for (const index::CallSite& call : file.discard_candidates) {
      const auto it = names.find(call.callee);
      if (it == names.end() || !it->second.first || it->second.second) continue;
      if (suppressed(by_path, "BS011", file.path, call.line)) continue;
      std::ostringstream msg;
      msg << "call to '" << call.callee
          << "' discards its Result<...> — the error (and the damage ledger "
             "entry it carries) is silently lost";
      out.push_back(make_finding("BS011", file.path, call.line, msg.str()));
    }
  }
}

// ------------------------------------------------------------------ BS012

[[nodiscard]] bool is_src_header(std::string_view path) {
  const auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
  };
  return path.rfind("src/", 0) == 0 && (ends_with(".hpp") || ends_with(".h"));
}

void run_bs012(const std::vector<FileFacts>& files, const FactsByPath& by_path,
               const graph::Digraph& includes, std::vector<Finding>& out) {
  // A header's callers are programs. With none in view (every linted file
  // under src/), headers used only by benches or examples would all read
  // as unused, so the rule stays silent.
  const bool programs_in_view =
      std::any_of(files.begin(), files.end(), [](const FileFacts& file) {
        return file.path.rfind("src/", 0) != 0;
      });
  if (!programs_in_view) return;
  std::set<std::string, std::less<>> included;
  for (const FileFacts& file : files) {
    const std::vector<std::string> own = companion_paths(file.path);
    for (const std::string& target : includes.successors(file.path)) {
      if (std::find(own.begin(), own.end(), target) == own.end()) {
        included.insert(target);
      }
    }
  }
  for (const FileFacts& file : files) {
    if (!is_src_header(file.path) || included.count(file.path) != 0) continue;
    if (suppressed(by_path, "BS012", file.path, 1)) continue;
    out.push_back(make_finding(
        "BS012", file.path, 1,
        "unused module: no linted file includes " + file.path +
            " (its own .cpp aside) — only tests reach it, or nothing does"));
  }
}

}  // namespace

std::vector<Finding> project_findings(const std::vector<FileFacts>& files) {
  FactsByPath by_path;
  for (const FileFacts& file : files) by_path.emplace(file.path, &file);
  const auto defs_by_name = build_defs_by_name(files);

  std::vector<Finding> out;
  const graph::Digraph includes = run_bs008(files, by_path, out);
  run_bs009(files, by_path, defs_by_name, out);
  run_bs010(files, by_path, defs_by_name, out);
  run_bs011(files, by_path, out);
  run_bs012(files, by_path, includes, out);
  return out;
}

}  // namespace booterscope::lint::checks
