// knor_lint — dependency-free source linter enforcing the repo's
// determinism and safety invariants (DESIGN.md §14).
//
// The invariants it guards are exactly the ones a compiler cannot:
//
//   KL001  locale/overflow-unsafe number parsing (atoi/strtol family)
//          anywhere but the blessed CLI helper.  Everything else must go
//          through common/strict_parse.hpp, whose rejection behaviour the
//          fuzz harness pins.
//   KL002  kernels::set_isa() outside the SIMD layer or tool entry
//          points — a library TU that pins the global ISA silently breaks
//          the cross-ISA bitwise-conformance oracle for every caller.
//   KL003  ambient entropy (rand/srand/std::random_device/time) outside
//          common/prng.hpp — any other source of randomness breaks run
//          reproducibility in a way no test can bisect.
//   KL004  raw new[]/malloc of float/double/value_t SIMD buffers outside
//          common/aligned_buffer.hpp — unaligned rows fault under the
//          aligned-load kernels on exactly one ISA.
//   KL005  obs metric registered without an explicit Det::kDeterministic /
//          Det::kTiming class — unclassified metrics leak timing noise
//          into the deterministic export partition.
//   KL006  condition_variable outside the one producer/consumer hand-off
//          (common/bounded_queue.hpp) and the scheduler's, barrier's and
//          collectives' own wake-ups — a hand-rolled queue duplicates
//          close/drain logic and tends to lose its errors.
//
// Usage:
//   knor_lint [--root DIR]          lint the default tree (src tools bench
//                                   tests examples under DIR; default: cwd)
//   knor_lint FILE...               lint exactly these files (fixtures)
//
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.
// Per-line opt-out: a comment containing `knor_lint: allow KLxxx`.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string message;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Blank out comments and string/char literal *contents* (quotes stay, so
/// `.counter("` is still recognisable), preserving newlines so offsets map
/// back to line numbers.  Handles //, /* */, escapes, and R"(...)".
std::string strip(const std::string& src) {
  std::string out = src;
  enum class St { kCode, kLine, kBlock, kStr, kChr, kRaw };
  St st = St::kCode;
  std::string raw_delim;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(src[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t p = i + 2;
          raw_delim = ")";
          while (p < src.size() && src[p] != '(') raw_delim += src[p++];
          raw_delim += '"';
          st = St::kRaw;
          for (std::size_t j = i; j <= p && j < src.size(); ++j)
            if (out[j] != '\n') out[j] = ' ';
          i = p;
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChr;
        }
        break;
      case St::kLine:
        if (c == '\n')
          st = St::kCode;
        else
          out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChr:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j)
            if (out[i + j] != '\n') out[i + j] = ' ';
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

/// True when `path` (generic, forward-slash form) ends with `suffix`.
bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

struct Token {
  const char* name;
  bool need_paren;  // function-like: must be followed by '('
};

struct TokenRule {
  const char* rule;
  std::vector<Token> tokens;
  std::vector<const char*> allowed_suffixes;
  const char* message;
};

const TokenRule kTokenRules[] = {
    {"KL001",
     {{"atoi", true},
      {"atof", true},
      {"atol", true},
      {"atoll", true},
      {"strtol", true},
      {"strtoul", true},
      {"strtoll", true},
      {"strtoull", true},
      {"strtod", true},
      {"strtof", true},
      {"strtold", true},
      {"sscanf", true}},
     {"tools/cli_args.hpp"},
     "locale/overflow-unsafe parse; use common/strict_parse.hpp"},
    {"KL002",
     {{"set_isa", true}},
     {"core/kernels/simd.cpp", "core/kernels/simd.hpp",
      "tests/simd_kernel_test.cpp", "tools/knor_cli.cpp",
      "tools/knor_bench.cpp", "tools/knor_stream.cpp",
      "tools/knor_serve.cpp"},
     "global ISA pin outside the SIMD layer breaks cross-ISA conformance"},
    {"KL003",
     {{"rand", true},
      {"srand", true},
      {"time", true},
      {"random_device", false}},
     {"common/prng.hpp"},
     "ambient entropy; use the seeded PRNG in common/prng.hpp"},
    {"KL006",
     {{"condition_variable", false}},
     {"common/bounded_queue.hpp", "sched/barrier.hpp", "sched/scheduler.hpp",
      "dist/comm.hpp"},
     "hand-rolled hand-off; build it on common/bounded_queue.hpp"},
};

/// KL004 trigger spellings: raw allocation of SIMD-fed element buffers.
const char* const kRawAllocPatterns[] = {"new float[", "new double[",
                                         "new value_t[", "malloc("};

/// Find the matching ')' for the '(' at `open` in stripped text.
std::size_t match_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

class Linter {
 public:
  explicit Linter(std::vector<Violation>* out) : out_(out) {}

  bool lint_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "knor_lint: cannot read %s\n",
                   path.string().c_str());
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string src = ss.str();
    const std::string text = strip(src);
    const std::string generic = fs::path(path).generic_string();

    // Line starts, for offset -> line mapping and suppression lookup.
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < src.size(); ++i)
      if (src[i] == '\n') starts.push_back(i + 1);
    const auto line_of = [&](std::size_t off) {
      return static_cast<std::size_t>(
          std::upper_bound(starts.begin(), starts.end(), off) -
          starts.begin());
    };
    // `knor_lint: allow KLxxx` on the flagged line or the line above it.
    const auto suppressed = [&](std::size_t line, const char* rule) {
      const std::size_t b = starts[line > 1 ? line - 2 : 0];
      const std::size_t e =
          line < starts.size() ? starts[line] : src.size();
      const std::string want = std::string("knor_lint: allow ") + rule;
      return src.substr(b, e - b).find(want) != std::string::npos;
    };
    const auto report = [&](std::size_t off, const char* rule,
                            const std::string& msg) {
      const std::size_t line = line_of(off);
      if (!suppressed(line, rule))
        out_->push_back({generic, line, rule, msg});
    };

    for (const TokenRule& r : kTokenRules) {
      bool allowed = false;
      for (const char* suf : r.allowed_suffixes)
        if (path_ends_with(generic, suf)) allowed = true;
      if (allowed) continue;
      for (const Token& tok : r.tokens) {
        const std::size_t len = std::string(tok.name).size();
        for (std::size_t p = text.find(tok.name); p != std::string::npos;
             p = text.find(tok.name, p + 1)) {
          if (p > 0 && ident_char(text[p - 1])) continue;
          std::size_t q = p + len;
          if (q < text.size() && ident_char(text[q])) continue;
          if (tok.need_paren) {
            while (q < text.size() && text[q] == ' ') ++q;
            if (q >= text.size() || text[q] != '(') continue;
          }
          report(p, r.rule,
                 std::string(tok.name) + (tok.need_paren ? "()" : "") +
                     ": " + r.message);
        }
      }
    }

    if (!path_ends_with(generic, "common/aligned_buffer.hpp")) {
      for (const char* pat : kRawAllocPatterns) {
        for (std::size_t p = text.find(pat); p != std::string::npos;
             p = text.find(pat, p + 1)) {
          if (p > 0 && ident_char(text[p - 1])) continue;
          report(p, "KL004",
                 std::string(pat) +
                     ": raw SIMD buffer; use common/aligned_buffer.hpp");
        }
      }
    }

    // KL005: literal metric registration must carry an explicit Det class.
    for (const char* method :
         {".counter(", ".gauge(", ".histogram(", ".timer("}) {
      const std::size_t mlen = std::string(method).size();
      for (std::size_t p = text.find(method); p != std::string::npos;
           p = text.find(method, p + 1)) {
        const std::size_t open = p + mlen - 1;
        std::size_t q = open + 1;
        while (q < text.size() &&
               (text[q] == ' ' || text[q] == '\n'))
          ++q;
        if (q >= text.size() || text[q] != '"') continue;  // not a literal
        const std::size_t close = match_paren(text, open);
        if (close == std::string::npos) continue;
        const std::string args = text.substr(open, close - open);
        if (args.find("kDeterministic") == std::string::npos &&
            args.find("kTiming") == std::string::npos)
          report(p, "KL005",
                 std::string(method) +
                     "\"...\"): metric registered without explicit "
                     "Det::kDeterministic / Det::kTiming");
      }
    }
    return true;
  }

 private:
  std::vector<Violation>* out_;
};

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == "lint_fixtures" || name == "corpus" || name == ".git" ||
         name.rfind("build", 0) == 0 || name == "third_party";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (++i >= argc) {
        std::fprintf(stderr, "knor_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "usage: knor_lint [--root DIR] [FILE...]\n");
      return 0;
    } else {
      files.emplace_back(arg);
    }
  }

  if (files.empty()) {
    for (const char* sub :
         {"src", "tools", "bench", "tests", "examples"}) {
      const fs::path dir = root / sub;
      if (!fs::exists(dir)) continue;
      for (auto it = fs::recursive_directory_iterator(dir);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory() && skip_dir(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable(it->path()))
          files.push_back(it->path());
      }
    }
    std::sort(files.begin(), files.end());
  }

  std::vector<Violation> violations;
  Linter linter(&violations);
  bool io_ok = true;
  for (const fs::path& f : files) io_ok = linter.lint_file(f) && io_ok;
  if (!io_ok) return 2;

  for (const Violation& v : violations)
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  if (!violations.empty()) {
    std::printf("knor_lint: %zu violation(s) in %zu file(s) checked\n",
                violations.size(), files.size());
    return 1;
  }
  return 0;
}
