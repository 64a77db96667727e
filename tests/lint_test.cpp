// knor_lint as a ctest gate (DESIGN.md §14): the real tree must lint
// clean, and every rule must demonstrably fire on its seeded fixture in
// tools/lint_fixtures/ — a linter whose rules have silently stopped
// matching is worse than no linter.
//
// KNOR_LINT_BIN / KNOR_LINT_SRC_ROOT are injected by CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

LintResult run_lint(const std::string& args) {
  const std::string cmd = std::string(KNOR_LINT_BIN) + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  LintResult res;
  if (pipe == nullptr) return res;
  std::array<char, 512> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr)
    res.output += buf.data();
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

std::string fixture(const char* name) {
  return std::string(KNOR_LINT_SRC_ROOT) + "/tools/lint_fixtures/" + name;
}

TEST(KnorLint, TreeIsClean) {
  const LintResult res =
      run_lint("--root " + std::string(KNOR_LINT_SRC_ROOT));
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

struct RuleCase {
  const char* file;
  const char* rule;
  int min_hits;
};

class KnorLintRule : public ::testing::TestWithParam<RuleCase> {};

TEST_P(KnorLintRule, FiresOnSeededFixture) {
  const RuleCase& rc = GetParam();
  const LintResult res = run_lint(fixture(rc.file));
  EXPECT_EQ(res.exit_code, 1) << res.output;
  // Count `[KLxxx]` occurrences — each flagged line carries exactly one.
  const std::string tag = std::string("[") + rc.rule + "]";
  int hits = 0;
  for (std::size_t p = res.output.find(tag); p != std::string::npos;
       p = res.output.find(tag, p + 1))
    ++hits;
  EXPECT_GE(hits, rc.min_hits) << res.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, KnorLintRule,
    ::testing::Values(RuleCase{"kl001_atoi.cpp", "KL001", 2},
                      RuleCase{"kl002_set_isa.cpp", "KL002", 1},
                      RuleCase{"kl003_entropy.cpp", "KL003", 4},
                      RuleCase{"kl004_raw_alloc.cpp", "KL004", 2},
                      RuleCase{"kl005_metric.cpp", "KL005", 2},
                      RuleCase{"kl006_condvar.cpp", "KL006", 2}),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      return std::string(info.param.rule);
    });

TEST(KnorLint, InlineSuppressionsAreHonored) {
  const LintResult res = run_lint(fixture("suppressed_ok.cpp"));
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(KnorLint, CommentsStringsAndIdentifiersDoNotFire) {
  const LintResult res = run_lint(fixture("clean_ok.cpp"));
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(KnorLint, MissingFileIsAnIoError) {
  const LintResult res = run_lint(fixture("no_such_file.cpp"));
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

}  // namespace
