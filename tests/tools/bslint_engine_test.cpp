// Engine suite for bslint v2: golden fixture *trees* for the
// interprocedural rules (BS008–BS012), the determinism contract (byte-
// identical reports at any thread count and across cold/warm cache runs),
// cache correctness (an edit re-indexes only the edited file), CLI exit
// codes, and the SARIF renderer. Drives lint_tree_full()/run_cli()
// in-process so failures point at the engine, not process plumbing.
#include "cli.hpp"
#include "lint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace booterscope::lint {
namespace {

namespace fs = std::filesystem;

std::string trees_root() {
  return std::string(BSLINT_FIXTURE_DIR) + "/trees";
}

TreeRun lint_tree_fixture(const std::string& tree, std::size_t threads = 1,
                          const std::string& cache_path = "") {
  TreeOptions options;
  options.threads = threads;
  options.cache_path = cache_path;
  return lint_tree_full(trees_root() + "/" + tree, {"src"}, options);
}

std::vector<Finding> rule_findings(const TreeRun& run,
                                   std::string_view rule) {
  std::vector<Finding> out;
  for (const Finding& f : run.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// --- golden trees: each seeded defect fires exactly once --------------------

TEST(BslintTrees, Bs008BadFiresUpwardEdgeAndCycleExactlyOnceEach) {
  const TreeRun run = lint_tree_fixture("bs008_bad");
  ASSERT_TRUE(run.error.empty()) << run.error;
  const auto findings = rule_findings(run, "BS008");
  ASSERT_EQ(findings.size(), 2u);
  // Sorted by path: the cycle report (ring_a) precedes the upward edge
  // (uplink). The cycle is reported once, at the smallest SCC member.
  EXPECT_EQ(findings[0].path, "src/flow/ring_a.hpp");
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("ring_b.hpp"), std::string::npos);
  EXPECT_EQ(findings[1].path, "src/util/uplink.hpp");
  EXPECT_EQ(findings[1].line, 4u);
  EXPECT_NE(findings[1].message.find("layering violation"), std::string::npos);
  EXPECT_EQ(run.findings.size(), 2u) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs008CleanTwinIsClean) {
  const TreeRun run = lint_tree_fixture("bs008_clean");
  EXPECT_TRUE(run.findings.empty()) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs009BadFiresExactlyOnceWithWitnessPath) {
  const TreeRun run = lint_tree_fixture("bs009_bad");
  const auto findings = rule_findings(run, "BS009");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/flow/parse_frame.hpp");
  EXPECT_NE(findings[0].message.find("parse_frame"), std::string::npos);
  EXPECT_NE(findings[0].message.find("unwrap_or_die"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/util/unwrap.hpp:9"),
            std::string::npos);
  EXPECT_EQ(run.findings.size(), 1u) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs009CleanTwinIsClean) {
  const TreeRun run = lint_tree_fixture("bs009_clean");
  EXPECT_TRUE(run.findings.empty()) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs010BadFiresExactlyOnceOnTheLockCycle) {
  const TreeRun run = lint_tree_fixture("bs010_bad");
  const auto findings = rule_findings(run, "BS010");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/exec/two_locks.hpp");
  EXPECT_NE(findings[0].message.find("ingest_mutex_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("publish_mutex_"), std::string::npos);
  EXPECT_EQ(run.findings.size(), 1u) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs010CleanTwinIsClean) {
  const TreeRun run = lint_tree_fixture("bs010_clean");
  EXPECT_TRUE(run.findings.empty()) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs011BadFiresExactlyOnceOnTheDiscardedResult) {
  const TreeRun run = lint_tree_fixture("bs011_bad");
  const auto findings = rule_findings(run, "BS011");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/flow/emit.hpp");
  EXPECT_EQ(findings[0].line, 15u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("publish_batch"), std::string::npos);
  EXPECT_EQ(run.findings.size(), 1u) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs011CleanTwinIsClean) {
  const TreeRun run = lint_tree_fixture("bs011_clean");
  EXPECT_TRUE(run.findings.empty()) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs012BadFiresExactlyOnceOnTheTestOnlyHeader) {
  const TreeRun run = lint_tree_full(trees_root() + "/bs012_bad",
                                     {"src", "examples"}, TreeOptions{});
  ASSERT_TRUE(run.error.empty()) << run.error;
  const auto findings = rule_findings(run, "BS012");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/flow/orphan.hpp");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("unused module"), std::string::npos);
  EXPECT_EQ(run.findings.size(), 1u) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs012CleanTwinIsClean) {
  const TreeRun run = lint_tree_full(trees_root() + "/bs012_clean",
                                     {"src", "examples"}, TreeOptions{});
  EXPECT_TRUE(run.findings.empty()) << render_report(run.findings, false);
}

TEST(BslintTrees, Bs012StaysSilentWithNoProgramInView) {
  // Linting src/ alone cannot see the programs that call its headers.
  const TreeRun run = lint_tree_fixture("bs012_bad");
  EXPECT_TRUE(rule_findings(run, "BS012").empty())
      << render_report(run.findings, false);
}

// --- determinism: thread counts ---------------------------------------------

TEST(BslintDeterminism, ReportBytesIdenticalAcrossThreadCounts) {
  const std::vector<std::string> trees = {"bs008_bad", "bs009_bad",
                                          "bs010_bad", "bs011_bad"};
  for (const std::string& tree : trees) {
    const TreeRun one = lint_tree_fixture(tree, 1);
    const std::string baseline = render_report(one.findings, false);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const TreeRun wide = lint_tree_fixture(tree, threads);
      EXPECT_EQ(render_report(wide.findings, false), baseline)
          << tree << " at --threads " << threads;
      EXPECT_EQ(wide.stats.files, one.stats.files);
    }
  }
}

// --- cache correctness -------------------------------------------------------

class BslintCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each test as its own process, possibly
    // in parallel — a shared directory would race.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    work_ = fs::temp_directory_path() /
            (std::string("bslint_engine_cache_test_") + info->name());
    fs::remove_all(work_);
    // A private copy of the bs008_bad tree, so edits cannot touch fixtures.
    fs::create_directories(work_);
    fs::copy(trees_root() + "/bs008_bad", work_ / "tree",
             fs::copy_options::recursive);
    cache_ = (work_ / "cache.bslint").string();
  }
  void TearDown() override { fs::remove_all(work_); }

  TreeRun run(std::size_t threads = 1) {
    TreeOptions options;
    options.threads = threads;
    options.cache_path = cache_;
    return lint_tree_full((work_ / "tree").string(), {"src"}, options);
  }

  fs::path work_;
  std::string cache_;
};

TEST_F(BslintCacheTest, ColdWarmAndIncrementalEditStayByteIdentical) {
  const TreeRun cold = run();
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  EXPECT_EQ(cold.stats.files, 4u);
  EXPECT_EQ(cold.stats.lexed, 4u);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  const std::string baseline = render_report(cold.findings, false);

  // Warm: every file served from the cache, identical report.
  const TreeRun warm = run();
  EXPECT_EQ(warm.stats.lexed, 0u);
  EXPECT_EQ(warm.stats.cache_hits, 4u);
  EXPECT_EQ(render_report(warm.findings, false), baseline);

  // Edit ONE file (a comment — findings must not change): exactly that
  // file re-indexes, everything else hits, and the report bytes hold.
  {
    std::ofstream edit(work_ / "tree/src/flow/ring_b.hpp", std::ios::app);
    edit << "// trailing note\n";
  }
  const TreeRun incremental = run();
  EXPECT_EQ(incremental.stats.lexed, 1u);
  EXPECT_EQ(incremental.stats.cache_hits, 3u);
  EXPECT_EQ(render_report(incremental.findings, false), baseline);

  // Warm cache + parallel indexing still byte-identical.
  const TreeRun wide = run(8);
  EXPECT_EQ(wide.stats.cache_hits, 4u);
  EXPECT_EQ(render_report(wide.findings, false), baseline);
}

TEST_F(BslintCacheTest, RuleSetVersionMismatchDiscardsTheCache) {
  (void)run();
  // Corrupt the version stamp: the next run must treat every entry as a
  // miss rather than replay stale facts.
  std::ifstream in(cache_);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string text = buffer.str();
  const std::size_t newline = text.find('\n');
  ASSERT_NE(newline, std::string::npos);
  std::ofstream out(cache_, std::ios::trunc | std::ios::binary);
  out << "bslint-cache some-older-rule-set r0" << text.substr(newline);
  out.close();

  const TreeRun rerun = run();
  EXPECT_EQ(rerun.stats.lexed, 4u);
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
}

// --- CLI exit codes ----------------------------------------------------------

int cli(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(BslintCli, CleanTreeExitsZero) {
  std::string out;
  EXPECT_EQ(cli({"--root", trees_root() + "/bs008_clean", "src"}, &out), 0);
  EXPECT_NE(out.find("clean"), std::string::npos);
}

TEST(BslintCli, FindingsExitOne) {
  std::string out;
  EXPECT_EQ(cli({"--root", trees_root() + "/bs008_bad", "src"}, &out), 1);
  EXPECT_NE(out.find("BS008"), std::string::npos);
}

TEST(BslintCli, FixDryRunReportsButExitsZero) {
  std::string out;
  EXPECT_EQ(
      cli({"--root", trees_root() + "/bs008_bad", "src", "--fix-dry-run"},
          &out),
      0);
  EXPECT_NE(out.find("would fix"), std::string::npos);
}

TEST(BslintCli, UnknownFlagExitsTwoWithUsage) {
  std::string err;
  EXPECT_EQ(cli({"--no-such-flag"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown option --no-such-flag"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(BslintCli, MissingExplicitPathExitsTwo) {
  std::string err;
  EXPECT_EQ(cli({"--root", trees_root() + "/bs008_clean", "no_such_dir"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("no such file or directory"), std::string::npos);
}

TEST(BslintCli, UnwritableReportExitsTwo) {
  std::string err;
  EXPECT_EQ(cli({"--root", trees_root() + "/bs008_clean", "src", "--report",
                 "/nonexistent-dir/report.txt"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("cannot write report"), std::string::npos);
}

TEST(BslintCli, ListRulesShowsTheFullTable) {
  std::string out;
  EXPECT_EQ(cli({"--list-rules"}, &out), 0);
  for (const RuleInfo& rule : rules()) {
    EXPECT_NE(out.find(std::string(rule.id)), std::string::npos);
  }
}

TEST(BslintCli, StatsFlagBeforePathDoesNotSwallowIt) {
  std::string out;
  EXPECT_EQ(cli({"--root", trees_root() + "/bs008_bad", "--stats", "src"},
                &out),
            1);
  EXPECT_NE(out.find("indexed 4 files"), std::string::npos);
}

// --- SARIF -------------------------------------------------------------------

TEST(BslintSarif, RendererEmitsRulesResultsAndLocations) {
  const TreeRun run = lint_tree_fixture("bs008_bad");
  const std::string sarif = render_sarif(run.findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"bslint\""), std::string::npos);
  // The full rule table is present, fired or not.
  for (const RuleInfo& rule : rules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos);
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"BS008\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/util/uplink.hpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 4"), std::string::npos);
}

TEST(BslintSarif, EmptyFindingsStillProduceAValidRun) {
  const std::string sarif = render_sarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
}

TEST(BslintSarif, CliWritesTheSarifFile) {
  const fs::path out_path =
      fs::temp_directory_path() / "bslint_engine_test.sarif";
  fs::remove(out_path);
  EXPECT_EQ(cli({"--root", trees_root() + "/bs008_bad", "src", "--quiet",
                 "--sarif", out_path.string()}),
            1);
  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"ruleId\": \"BS008\""), std::string::npos);
  fs::remove(out_path);
}

}  // namespace
}  // namespace booterscope::lint
