// Golden suite for bslint: every rule fires exactly once on its bad
// fixture, suppressions silence cleanly, and the path scoping matches the
// contracts in DESIGN.md §11. Drives the in-process lint_file()/lint_tree()
// API rather than the binary so failures point at the rule engine.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace booterscope::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(BSLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints a fixture as if it lived at `lint_path` inside the tree.
std::vector<Finding> lint_fixture(const std::string& fixture,
                                  const std::string& lint_path) {
  return lint_file({lint_path, read_fixture(fixture), ""});
}

TEST(BslintRules, TableHasTwelveRulesOrderedById) {
  const std::vector<RuleInfo>& table = rules();
  ASSERT_EQ(table.size(), 12u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    char expected[16];
    std::snprintf(expected, sizeof expected, "BS%03u",
                  static_cast<unsigned>(i + 1));
    EXPECT_EQ(table[i].id, expected);
    EXPECT_FALSE(table[i].summary.empty());
    EXPECT_FALSE(table[i].suggestion.empty());
  }
}

// --- one bad fixture per rule, firing exactly once --------------------------

TEST(BslintGolden, Bs001FiresOnceOnRandomDevice) {
  const auto findings =
      lint_fixture("bs001_random_device.cpp", "src/core/fixture.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BS001");
  EXPECT_EQ(findings[0].line, 5u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].excerpt.find("random_device"), std::string::npos);
}

TEST(BslintGolden, Bs002FiresOnceOnMemcpyInDecoderDir) {
  const auto findings =
      lint_fixture("bs002_memcpy.cpp", "src/flow/fixture.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BS002");
  EXPECT_EQ(findings[0].line, 8u);
  EXPECT_NE(findings[0].suggestion.find("byteio"), std::string::npos);
}

TEST(BslintGolden, Bs003FiresOnceOnThrowInDecoderDir) {
  const auto findings =
      lint_fixture("bs003_throw.cpp", "src/flow/decode_fixture.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BS003");
  EXPECT_EQ(findings[0].line, 8u);
}

TEST(BslintGolden, Bs004FiresOnceOnUnorderedRangeFor) {
  const auto findings =
      lint_fixture("bs004_unordered_iteration.cpp", "src/core/fixture.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BS004");
  EXPECT_EQ(findings[0].line, 11u);
  EXPECT_NE(findings[0].message.find("totals_by_name"), std::string::npos);
}

TEST(BslintGolden, Bs005FiresOnceOnNakedThread) {
  const auto findings =
      lint_fixture("bs005_thread.cpp", "src/core/fixture.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BS005");
  EXPECT_EQ(findings[0].line, 6u);
}

TEST(BslintGolden, Bs006FiresOnceOnSuffixlessCounter) {
  const auto findings =
      lint_fixture("bs006_metric_name.cpp", "src/obs/fixture.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BS006");
  EXPECT_EQ(findings[0].line, 12u);
  EXPECT_NE(findings[0].message.find("booterscope_fixture_events"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("unit suffix"), std::string::npos);
}

TEST(BslintGolden, Bs007FiresOnSocketAndBindOutsideSanctionedDirs) {
  const auto findings =
      lint_fixture("bs007_raw_socket.cpp", "src/core/fixture.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "BS007");
  EXPECT_EQ(findings[0].line, 15u);
  EXPECT_NE(findings[0].message.find("socket"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "BS007");
  EXPECT_EQ(findings[1].line, 16u);
  EXPECT_NE(findings[1].message.find("bind"), std::string::npos);
  EXPECT_NE(findings[0].suggestion.find("ScrapeServer"), std::string::npos);
}

TEST(BslintScope, Bs007SanctionedDirsMayOpenSockets) {
  const std::string fixture = read_fixture("bs007_raw_socket.cpp");
  EXPECT_TRUE(lint_file({"src/svc/udp.cpp", fixture, ""}).empty());
  EXPECT_TRUE(
      lint_file({"src/obs/live/scrape_server.cpp", fixture, ""}).empty());
  // bench code is NOT sanctioned: a bench that opens its own socket should
  // go through svc::UdpSender.
  EXPECT_EQ(lint_file({"bench/fixture.cpp", fixture, ""}).size(), 2u);
}

TEST(BslintScope, Bs006MetricNamesOutsideSrcAreNotLinted) {
  const std::string code =
      "struct R { int& counter(const char*); };\n"
      "void f(R& r) { r.counter(\"BadName\"); }\n";
  EXPECT_TRUE(lint_file({"bench/fixture.cpp", code, ""}).empty());
}

TEST(BslintScope, Bs006IgnoresCounterTotalReads) {
  // counter_total( is a read of summed series, not a registration; the
  // rule must not fire on it whatever the argument looks like.
  const std::string code =
      "struct R { unsigned counter_total(const char*) const; };\n"
      "unsigned f(const R& r) { return r.counter_total(\"Whatever Name\"); }\n";
  EXPECT_TRUE(lint_file({"src/obs/fixture.cpp", code, ""}).empty());
}

TEST(BslintGolden, SuppressedFixtureIsClean) {
  const auto findings =
      lint_fixture("suppressed.cpp", "src/core/suppressed.cpp");
  EXPECT_TRUE(findings.empty());
}

// --- path scoping -----------------------------------------------------------

TEST(BslintScope, MemcpyOutsideDecoderDirsIsAllowed) {
  const std::string code = "void f(char* d, const char* s) {\n"
                           "  memcpy(d, s, 4);\n"
                           "}\n";
  EXPECT_TRUE(lint_file({"src/util/hash.cpp", code, ""}).empty());
  const auto in_flow = lint_file({"src/flow/netflow.cpp", code, ""});
  ASSERT_EQ(in_flow.size(), 1u);
  EXPECT_EQ(in_flow[0].rule, "BS002");
  const auto in_pcap = lint_file({"src/pcap/packet.cpp", code, ""});
  ASSERT_EQ(in_pcap.size(), 1u);
  EXPECT_EQ(in_pcap[0].rule, "BS002");
}

TEST(BslintScope, ThreadPoolImplementationMaySpawnThreads) {
  const std::string code = "void spawn() { std::thread t([]{}); t.join(); }\n";
  EXPECT_TRUE(lint_file({"src/exec/thread_pool.cpp", code, ""}).empty());
  EXPECT_TRUE(lint_file({"src/exec/thread_pool.hpp", code, ""}).empty());
  // The pool moved to src/exec in the layering cleanup; the old util path
  // is no longer exempt.
  const auto old_home = lint_file({"src/util/thread_pool.cpp", code, ""});
  ASSERT_EQ(old_home.size(), 1u);
  EXPECT_EQ(old_home[0].rule, "BS005");
  const auto elsewhere = lint_file({"src/exec/pipeline.cpp", code, ""});
  ASSERT_EQ(elsewhere.size(), 1u);
  EXPECT_EQ(elsewhere[0].rule, "BS005");
}

TEST(BslintScope, WallClockAllowedOnlyInTimeAndManifest) {
  const std::string code =
      "auto now() { return std::chrono::system_clock::now(); }\n";
  EXPECT_TRUE(lint_file({"src/util/time.cpp", code, ""}).empty());
  EXPECT_TRUE(lint_file({"src/obs/manifest.cpp", code, ""}).empty());
  const auto elsewhere = lint_file({"src/core/analysis.cpp", code, ""});
  ASSERT_EQ(elsewhere.size(), 1u);
  EXPECT_EQ(elsewhere[0].rule, "BS001");
}

TEST(BslintScope, ThrowOutsideDecoderDirsIsAllowed) {
  const std::string code = "void f() { throw 1; }\n";
  EXPECT_TRUE(lint_file({"src/core/analysis.cpp", code, ""}).empty());
  const auto in_exec = lint_file({"src/exec/chain.cpp", code, ""});
  ASSERT_EQ(in_exec.size(), 1u);
  EXPECT_EQ(in_exec[0].rule, "BS003");
}

// --- matcher precision ------------------------------------------------------

TEST(BslintMatch, ThreadQualifiedUsesAreNotNakedThreads) {
  const std::string code =
      "auto id = std::this_thread::get_id();\n"
      "std::thread::id worker_id;\n"
      "unsigned n = std::thread::hardware_concurrency();\n";
  EXPECT_TRUE(lint_file({"src/exec/pipeline.cpp", code, ""}).empty());
}

TEST(BslintMatch, TimeInIdentifiersAndMembersIsNotCTime) {
  const std::string code =
      "auto a = wall_time();\n"
      "auto b = clock.time();\n"
      "auto c = clock->time();\n";
  EXPECT_TRUE(lint_file({"src/core/analysis.cpp", code, ""}).empty());
  const auto bare = lint_file({"src/core/analysis.cpp",
                               "auto t = time(nullptr);\n", ""});
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].rule, "BS001");
  const auto qualified = lint_file({"src/core/analysis.cpp",
                                    "auto t = std::time(nullptr);\n", ""});
  ASSERT_EQ(qualified.size(), 1u);
  EXPECT_EQ(qualified[0].rule, "BS001");
}

TEST(BslintMatch, CommentsAndStringsNeverTripRules) {
  const std::string code =
      "// rand() and std::random_device are banned in prose too\n"
      "const char* msg = \"call srand(42) for chaos\";\n"
      "/* std::thread t; memcpy(a, b, 4); throw; */\n";
  EXPECT_TRUE(lint_file({"src/flow/netflow.cpp", code, ""}).empty());
}

TEST(BslintMatch, CompanionHeaderDeclaresTheUnorderedMember) {
  const std::string header =
      "class Cache {\n"
      " private:\n"
      "  std::unordered_map<int, int> entries_;\n"
      "};\n";
  const std::string source =
      "void Cache::dump() {\n"
      "  for (const auto& [k, v] : entries_) { emit(k, v); }\n"
      "}\n";
  // Without the header the member's type is unknown — no finding.
  EXPECT_TRUE(lint_file({"src/flow/cache.cpp", source, ""}).empty());
  const auto with_header = lint_file({"src/flow/cache.cpp", source, header});
  ASSERT_EQ(with_header.size(), 1u);
  EXPECT_EQ(with_header[0].rule, "BS004");
  EXPECT_EQ(with_header[0].line, 2u);
}

TEST(BslintMatch, OrderedContainersAreFine) {
  const std::string code =
      "std::map<int, int> totals;\n"
      "for (const auto& [k, v] : totals) { emit(k, v); }\n";
  EXPECT_TRUE(lint_file({"src/core/analysis.cpp", code, ""}).empty());
}

// --- suppressions -----------------------------------------------------------

TEST(BslintSuppress, AllowCoversOwnAndNextLineOnly) {
  const std::string next_line =
      "// bslint:allow(BS005 justified)\n"
      "std::thread t([]{});\n";
  EXPECT_TRUE(lint_file({"src/exec/p.cpp", next_line, ""}).empty());

  const std::string same_line =
      "std::thread t([]{});  // bslint:allow(BS005 justified)\n";
  EXPECT_TRUE(lint_file({"src/exec/p.cpp", same_line, ""}).empty());

  const std::string too_far =
      "// bslint:allow(BS005 justified)\n"
      "\n"
      "std::thread t([]{});\n";
  EXPECT_EQ(lint_file({"src/exec/p.cpp", too_far, ""}).size(), 1u);
}

TEST(BslintSuppress, AllowIsRuleSpecific) {
  const std::string code =
      "// bslint:allow(BS001 wrong rule for this line)\n"
      "std::thread t([]{});\n";
  const auto findings = lint_file({"src/exec/p.cpp", code, ""});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BS005");
}

TEST(BslintSuppress, AllowFileCoversTheWholeFile) {
  const std::string code =
      "// bslint:allow-file(BS005 this driver owns its helper thread)\n"
      "std::thread a([]{});\n"
      "std::thread b([]{});\n";
  EXPECT_TRUE(lint_file({"src/exec/p.cpp", code, ""}).empty());
}

// --- report rendering -------------------------------------------------------

TEST(BslintReport, RendersFindingLinesAndSummary) {
  const auto findings =
      lint_fixture("bs001_random_device.cpp", "src/core/fixture.cpp");
  const std::string report = render_report(findings, /*fix_dry_run=*/false);
  EXPECT_NE(report.find("src/core/fixture.cpp:5"), std::string::npos);
  EXPECT_NE(report.find("BS001"), std::string::npos);
  EXPECT_EQ(report.find("would fix"), std::string::npos);
}

TEST(BslintReport, FixDryRunAddsRemediation) {
  const auto findings =
      lint_fixture("bs002_memcpy.cpp", "src/flow/fixture.cpp");
  const std::string report = render_report(findings, /*fix_dry_run=*/true);
  EXPECT_NE(report.find("would fix"), std::string::npos);
  EXPECT_NE(report.find("byteio"), std::string::npos);
}

TEST(BslintReport, CleanRunSaysClean) {
  const std::string report = render_report({}, false);
  EXPECT_NE(report.find("clean"), std::string::npos);
}

// --- tree walking -----------------------------------------------------------

TEST(BslintTree, FixtureDirectoryFindingsAreSortedAndComplete) {
  // The fixture dir holds one bad file per rule plus the suppressed file.
  // lint_tree paths are root-relative; fixtures are scoped as a plain tree,
  // so only the rules whose scope matches "." apply — drive it through a
  // fake src/ prefix instead by linting files individually above. Here we
  // only assert the walk finds files and stays byte-stable.
  const auto first = lint_tree(BSLINT_FIXTURE_DIR, {"."});
  const auto second = lint_tree(BSLINT_FIXTURE_DIR, {"."});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].path, second[i].path);
    EXPECT_EQ(first[i].line, second[i].line);
    EXPECT_EQ(first[i].rule, second[i].rule);
  }
}

}  // namespace
}  // namespace booterscope::lint
