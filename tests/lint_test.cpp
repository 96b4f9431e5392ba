// Tests for tools/lint (rropt_lint): unit tests on snippets, then the
// fixture corpus — every file under lint_corpus/bad/ must trip its rule
// and every file under lint_corpus/good/ must come back clean.
#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rr::lint {
namespace {

namespace fs = std::filesystem;

std::set<std::string> rules_of(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const auto& finding : findings) rules.insert(finding.rule);
  return rules;
}

// ---------------------------------------------------------------- units

TEST(LintRules, FlagsRandInSim) {
  const auto findings =
      lint_file("src/sim/x.cpp", "int f() { return std::rand(); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-rand");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintRules, RandScopeIsPathBased) {
  // Same content, non-deterministic subsystem: clean.
  const auto findings =
      lint_file("src/analysis/x.cpp", "int f() { return std::rand(); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, MemberNamedRandIsClean) {
  const auto findings = lint_file(
      "src/sim/x.cpp", "int f(const Cfg& c) { return c.rand + c->random; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, TimeCallFlaggedButTimeVariableClean) {
  EXPECT_EQ(rules_of(lint_file("src/measure/x.cpp",
                               "long f() { return time(nullptr); }\n")),
            (std::set<std::string>{"no-wallclock"}));
  EXPECT_EQ(rules_of(lint_file("src/measure/x.cpp",
                               "long f() { return std::time(nullptr); }\n")),
            (std::set<std::string>{"no-wallclock"}));
  EXPECT_TRUE(lint_file("src/measure/x.cpp",
                        "double f(S s) { double time = s.time; return time; }\n")
                  .empty());
}

TEST(LintRules, UnseededEngineHeuristic) {
  EXPECT_EQ(rules_of(lint_file("src/routing/x.cpp", "std::mt19937 g;\n")),
            (std::set<std::string>{"no-unseeded-rng"}));
  EXPECT_EQ(rules_of(lint_file("src/routing/x.cpp", "std::mt19937 g{};\n")),
            (std::set<std::string>{"no-unseeded-rng"}));
  EXPECT_TRUE(
      lint_file("src/routing/x.cpp", "std::mt19937 g{seed};\n").empty());
  EXPECT_TRUE(
      lint_file("src/routing/x.cpp", "std::mt19937 g(seed ^ k);\n").empty());
}

TEST(LintRules, CommentsAndStringsNeverTrip) {
  const auto findings = lint_file(
      "src/sim/x.cpp",
      "// std::rand() in a comment\n"
      "/* system_clock in a block comment */\n"
      "const char* s = \"rand() time( mt19937 std::cout\";\n"
      "const char* r = R\"(std::random_device)\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, StreamIoIncludeAndCallsite) {
  const auto findings = lint_file("src/packet/x.cpp",
                                  "#include <iostream>\n"
                                  "void f() { std::cout << 1; }\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "no-stream-io");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].rule, "no-stream-io");
  EXPECT_EQ(findings[1].line, 2);
}

TEST(LintRules, StreamIoAllowedOutsideHotSubsystems) {
  EXPECT_TRUE(lint_file("src/data/x.cpp",
                        "#include <iostream>\nvoid f() { std::cout << 1; }\n")
                  .empty());
}

TEST(LintRules, HotRegionAllocAndWaiver) {
  const std::string hot =
      "void f(std::vector<int>& v) {\n"
      "  // RROPT_HOT_BEGIN(x)\n"
      "  v.push_back(1);\n"
      "  // RROPT_HOT_END(x)\n"
      "  v.push_back(2);\n"
      "}\n";
  const auto findings = lint_file("src/probe/x.cpp", hot);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-hot-alloc");
  EXPECT_EQ(findings[0].line, 3);

  const std::string waived =
      "void f(std::vector<int>& v) {\n"
      "  // RROPT_HOT_BEGIN(x)\n"
      "  v.push_back(1);  // RROPT_HOT_OK: capacity recycled\n"
      "  // RROPT_HOT_END(x)\n"
      "}\n";
  EXPECT_TRUE(lint_file("src/probe/x.cpp", waived).empty());
}

TEST(LintRules, ElementProcessBodyIsImplicitlyHot) {
  const std::string body =
      "struct E {\n"
      "  int process(Ctx& ctx) const noexcept {\n"
      "    ctx.v.push_back(1);\n"
      "    return 0;\n"
      "  }\n"
      "};\n";
  const auto findings = lint_file("src/sim/x.h", "#pragma once\n" + body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-hot-alloc");
  EXPECT_EQ(findings[0].line, 4);
  // The same body outside the determinism subsystems is not implicitly hot.
  EXPECT_TRUE(lint_file("src/analysis/x.h", "#pragma once\n" + body).empty());
}

TEST(LintRules, HopWalkIsImplicitlyHot) {
  const std::string body =
      "WalkResult walk_hops(Ctx& c, int p) {\n"
      "  c.v.push_back(p);\n"
      "  int* s = new int[4];\n"
      "  delete[] s;\n"
      "}\n";
  const auto findings = lint_file("src/sim/x.cpp", body);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "no-hot-alloc");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].rule, "no-hot-alloc");
  EXPECT_EQ(findings[1].line, 3);
  // Call sites do not open hot regions.
  EXPECT_TRUE(lint_file("src/measure/x.cpp",
                        "void f(Ctx& c) {\n"
                        "  walk_hops(c, 1);\n"
                        "  c.v.push_back(1);\n"
                        "}\n")
                  .empty());
}

TEST(LintRules, ProcessBodyWaiversAndNonDefinitions) {
  // RROPT_HOT_OK waives a line inside the implicit hot body as usual.
  EXPECT_TRUE(lint_file("src/sim/x.h",
                        "#pragma once\n"
                        "struct E {\n"
                        "  int process(Ctx& ctx) const {\n"
                        "    ctx.v.push_back(1);  // RROPT_HOT_OK: recycled\n"
                        "    return 0;\n"
                        "  }\n"
                        "};\n")
                  .empty());
  // Calls and declarations named process do not open hot regions.
  EXPECT_TRUE(lint_file("src/sim/x.cpp",
                        "int f(E& e, Ctx& c) {\n"
                        "  c.v.push_back(e.process(c));\n"
                        "  return g(e.process(c), 1);\n"
                        "}\n"
                        "struct F { int process(Ctx& ctx) const; };\n"
                        "void h(V& v) { v.push_back(2); }\n")
                  .empty());
}

TEST(LintRules, RawMutexOutsideUtil) {
  EXPECT_EQ(
      rules_of(lint_file("src/routing/x.h",
                         "#pragma once\nstruct S { std::mutex mu; };\n")),
      (std::set<std::string>{"raw-mutex"}));
  EXPECT_TRUE(lint_file("src/util/x.h",
                        "#pragma once\nstruct S { std::mutex mu; };\n")
                  .empty());
}

TEST(LintRules, UmbrellaIncludeAndSelfExemption) {
  EXPECT_EQ(rules_of(lint_file("src/measure/x.cpp", "#include \"rropt.h\"\n")),
            (std::set<std::string>{"umbrella-include"}));
  // The umbrella header itself may do whatever it likes with its own name.
  EXPECT_TRUE(
      lint_file("src/rropt.h", "#pragma once\n#include \"packet/rr.h\"\n")
          .empty());
}

TEST(LintRules, PragmaOnce) {
  EXPECT_EQ(rules_of(lint_file("src/packet/x.h", "struct S {};\n")),
            (std::set<std::string>{"pragma-once"}));
  EXPECT_TRUE(lint_file("src/packet/x.h", "#pragma once\nstruct S {};\n")
                  .empty());
  // .cpp files are exempt from the header rule.
  EXPECT_TRUE(lint_file("src/packet/x.cpp", "struct S {};\n").empty());
}

TEST(LintRules, AllowCommentWaivesExactRuleOnly) {
  EXPECT_TRUE(lint_file("src/sim/x.cpp",
                        "int f() { return std::rand(); }  "
                        "// rropt-lint: allow(no-rand)\n")
                  .empty());
  // Waiving a different rule does not help.
  EXPECT_FALSE(lint_file("src/sim/x.cpp",
                         "int f() { return std::rand(); }  "
                         "// rropt-lint: allow(no-wallclock)\n")
                   .empty());
}

TEST(LintRules, TaintWallclockReachingHashSink) {
  // The clock read itself trips no-wallclock in determinism subsystems;
  // the taint pass additionally tracks the value through two assignments
  // into the hash sink.
  const auto findings = lint_file(
      "src/sim/x.cpp",
      "std::uint64_t f() {\n"
      "  const auto stamp = "
      "std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "  const auto mixed = static_cast<std::uint64_t>(stamp) * 31u;\n"
      "  return content_hash(mixed);\n"
      "}\n");
  EXPECT_EQ(rules_of(findings),
            (std::set<std::string>{"no-wallclock", "taint"}));
  // data/ has no no-wallclock rule, but frozen bytes still must not
  // depend on the clock: only taint fires there.
  EXPECT_EQ(rules_of(lint_file(
                "src/data/x.cpp",
                "std::uint64_t f() {\n"
                "  const auto stamp = "
                "std::chrono::system_clock::now().time_since_epoch().count();"
                "\n"
                "  return content_hash(static_cast<std::uint64_t>(stamp));\n"
                "}\n")),
            (std::set<std::string>{"taint"}));
}

TEST(LintRules, TaintUnorderedIterationOrderIntoTelemetry) {
  const std::string unordered =
      "void f(const std::unordered_map<std::string, double>& counters) {\n"
      "  for (const auto& [name, value] : counters) {\n"
      "    record_value(name, value);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(rules_of(lint_file("src/measure/x.cpp", unordered)),
            (std::set<std::string>{"taint"}));
  // Ordered iteration is deterministic: same shape over std::map is clean.
  const std::string ordered =
      "void f(const std::map<std::string, double>& counters) {\n"
      "  for (const auto& [name, value] : counters) {\n"
      "    record_value(name, value);\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(lint_file("src/measure/x.cpp", ordered).empty());
}

TEST(LintRules, TaintPointerAsIntegerCast) {
  // A pointer-as-integer cast fed straight into a hash sink is flagged,
  // even with no intermediate variable.
  EXPECT_EQ(rules_of(lint_file(
                "src/sim/x.cpp",
                "std::uint64_t f(const int* p) {\n"
                "  return rr::util::mix64("
                "reinterpret_cast<std::uintptr_t>(p));\n"
                "}\n")),
            (std::set<std::string>{"taint"}));
  // The same cast whose value never reaches a sink is clean.
  EXPECT_TRUE(lint_file("src/sim/x.cpp",
                        "bool f(const int* p) {\n"
                        "  const auto raw = "
                        "reinterpret_cast<std::uintptr_t>(p);\n"
                        "  return raw % 2 == 0;\n"
                        "}\n")
                  .empty());
}

TEST(LintRules, TaintScopeAndWaiver) {
  const std::string flow =
      "std::uint64_t f(const int* p) {\n"
      "  const auto raw = reinterpret_cast<std::uintptr_t>(p);\n"
      "  return rr::util::mix64(raw);\n"
      "}\n";
  // Outside the determinism subsystems and data/, the taint pass is off.
  EXPECT_TRUE(lint_file("src/analysis/x.cpp", flow).empty());
  // allow(taint) on the sink line waives the flow.
  EXPECT_TRUE(lint_file("src/sim/x.cpp",
                        "std::uint64_t f(const int* p) {\n"
                        "  const auto raw = "
                        "reinterpret_cast<std::uintptr_t>(p);\n"
                        "  return rr::util::mix64(raw);  "
                        "// rropt-lint: allow(taint)\n"
                        "}\n")
                  .empty());
}

TEST(LintRules, HotClosureReachesHelpersOneLevelDeep) {
  // A helper called from an implicitly hot process() body inherits the
  // no-allocation rule; the finding lands on the helper's alloc line.
  const std::string body =
      "inline void note_hop(std::vector<int>& log, int hop) {\n"
      "  log.push_back(hop);\n"
      "}\n"
      "struct E {\n"
      "  std::vector<int> hops;\n"
      "  int process(Ctx& ctx) {\n"
      "    note_hop(hops, ctx.hop);\n"
      "    return 0;\n"
      "  }\n"
      "};\n";
  const auto findings = lint_file("src/sim/x.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-hot-alloc");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("note_hop"), std::string::npos);
  // RROPT_HOT_OK waives the inherited rule the same way as in a marked
  // region, and the same helper is clean when nothing hot calls it.
  const std::string waived =
      "inline void note_hop(std::vector<int>& log, int hop) {\n"
      "  log.push_back(hop);  // RROPT_HOT_OK: capacity recycled\n"
      "}\n"
      "struct E {\n"
      "  std::vector<int> hops;\n"
      "  int process(Ctx& ctx) {\n"
      "    note_hop(hops, ctx.hop);\n"
      "    return 0;\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(lint_file("src/sim/x.cpp", waived).empty());
  EXPECT_TRUE(lint_file("src/sim/x.cpp",
                        "inline void note_hop(std::vector<int>& log, int h) "
                        "{\n"
                        "  log.push_back(h);\n"
                        "}\n")
                  .empty());
}

TEST(LintFormat, CompilerStyle) {
  const Finding finding{"src/sim/x.cpp", 12, "no-rand", "msg"};
  EXPECT_EQ(format(finding), "src/sim/x.cpp:12: [no-rand] msg");
}

TEST(LintRules, EveryRuleHasADescription) {
  const auto descriptions = rule_descriptions();
  EXPECT_EQ(descriptions.size(), 9u);
}

// --------------------------------------------------------------- corpus

std::vector<std::string> corpus_files(const std::string& subdir) {
  std::vector<std::string> files;
  const fs::path root = fs::path{RROPT_LINT_CORPUS_DIR} / subdir;
  for (const auto& entry : fs::recursive_directory_iterator{root}) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(LintCorpus, EveryBadFixtureFails) {
  const auto files = corpus_files("bad");
  ASSERT_GE(files.size(), 12u) << "bad corpus went missing";
  for (const auto& file : files) {
    const auto findings = lint_paths({file});
    EXPECT_FALSE(findings.empty()) << file << " should trip its rule";
  }
}

TEST(LintCorpus, EveryGoodFixtureIsClean) {
  const auto files = corpus_files("good");
  ASSERT_GE(files.size(), 10u) << "good corpus went missing";
  for (const auto& file : files) {
    const auto findings = lint_paths({file});
    for (const auto& finding : findings) {
      ADD_FAILURE() << "unexpected finding: " << format(finding);
    }
  }
}

TEST(LintCorpus, BadCorpusCoversEveryRule) {
  const auto findings = lint_paths({(fs::path{RROPT_LINT_CORPUS_DIR} / "bad")
                                        .string()});
  const auto rules = rules_of(findings);
  for (const char* rule :
       {"no-rand", "no-wallclock", "no-unseeded-rng", "no-stream-io",
        "no-hot-alloc", "raw-mutex", "umbrella-include", "pragma-once",
        "taint"}) {
    EXPECT_TRUE(rules.count(rule) > 0) << "no bad fixture trips " << rule;
  }
}

}  // namespace
}  // namespace rr::lint
