// Text utilities under the repo's static checker (tools/mmhar_check).
//
// Header-only and dependency-free on purpose: the checker must build and
// run standalone (one g++/clang++ invocation, see the CI lint job) even
// when src/ itself does not compile.
#pragma once

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace mmhar_tools {

// What carries from one line to the next while stripping a file: an open
// block comment, or an open raw string literal R"delim( ... )delim".
struct LexState {
  bool in_block_comment = false;
  std::string raw_close;  // `)delim"` inside a raw string; empty outside
};

// True when the '"' at `quote` opens a raw string literal: it follows R,
// u8R, uR, UR or LR as a whole token.
inline bool opens_raw_string(const std::string& line, std::size_t quote) {
  if (quote == 0 || line[quote - 1] != 'R') return false;
  std::size_t b = quote - 1;
  while (b > 0 && (std::isalnum(static_cast<unsigned char>(line[b - 1])) ||
                   line[b - 1] == '_'))
    --b;
  const std::string prefix = line.substr(b, quote - b);
  return prefix == "R" || prefix == "u8R" || prefix == "uR" ||
         prefix == "UR" || prefix == "LR";
}

// One line with comments removed. Literal contents (ordinary, character
// and raw strings) are kept with `keep_strings`, else blanked to spaces;
// `state` carries block comments and raw strings across lines.
inline std::string strip_line(const std::string& line, LexState& state,
                              bool keep_strings) {
  std::string out;
  out.reserve(line.size());
  const auto literal = [&](char c) { out.push_back(keep_strings ? c : ' '); };
  char quote = '\0';  // the open ordinary literal's quote character
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    const char next = i + 1 < line.size() ? line[i + 1] : '\0';
    if (state.in_block_comment) {
      if (c == '*' && next == '/') {
        state.in_block_comment = false;
        ++i;
      }
      continue;
    }
    if (!state.raw_close.empty()) {
      if (line.compare(i, state.raw_close.size(), state.raw_close) == 0) {
        for (const char r : state.raw_close) literal(r);
        i += state.raw_close.size() - 1;
        state.raw_close.clear();
      } else {
        literal(c);
      }
      continue;
    }
    if (quote != '\0') {
      literal(c);
      if (c == '\\') {
        if (keep_strings && i + 1 < line.size()) out.push_back(next);
        ++i;
      } else if (c == quote) {
        quote = '\0';
      }
      continue;
    }
    if (c == '/' && next == '/') break;
    if (c == '/' && next == '*') {
      state.in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"' && opens_raw_string(line, i)) {
      // The delimiter is at most 16 characters before the '('.
      const std::size_t open = line.find('(', i + 1);
      if (open != std::string::npos && open - i - 1 <= 16) {
        state.raw_close = ")" + line.substr(i + 1, open - i - 1) + "\"";
        for (std::size_t j = i; j <= open; ++j) literal(line[j]);
        i = open;
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      quote = c;
      literal(c);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// Strip // and /* */ comments; literal *contents* are blanked (the quotes'
// positions are preserved as spaces) so rule regexes never fire on prose.
inline std::string code_only(const std::string& line, LexState& state) {
  return strip_line(line, state, false);
}

// As code_only, but literal contents survive — used where a rule must read
// names out of literals (env-var call sites, registry rows).
inline std::string code_keeping_strings(const std::string& line,
                                        LexState& state) {
  return strip_line(line, state, true);
}

// Trim ASCII whitespace from both ends.
inline std::string trim(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

// Blank the interior of balanced template-argument lists so later paren /
// name scans don't trip over std::function<void()> and friends. A '<' only
// opens a list when it directly follows an identifier character or '>'.
inline std::string blank_template_args(const std::string& s) {
  std::string out = s;
  std::vector<std::size_t> opens;
  char prev = '\0';
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (c == '<' &&
        (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_' ||
         prev == '>')) {
      opens.push_back(i);
    } else if (c == '>' && !opens.empty() && prev != '-') {
      const std::size_t open = opens.back();
      opens.pop_back();
      if (opens.empty()) {
        for (std::size_t j = open + 1; j < i; ++j) out[j] = ' ';
      }
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev = c;
  }
  return out;
}

// The one suppression syntax: `// mmhar: allow(<rule>[, <rule>...]) <reason>`.
// It applies to the line that carries it, and from a line in the run of
// //-comment lines directly above, so one justified comment can cover a
// multi-line statement. Each listed rule must match exactly: "loc" is
// neither "lock" nor "alloc".
inline bool suppressed(const std::vector<std::string>& raw_lines,
                       std::size_t idx, const std::string& rule) {
  static const std::string needle = "mmhar: allow(";
  const auto line_allows = [&](const std::string& line) {
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return false;
    const std::size_t open = at + needle.size();
    const std::size_t close = line.find(')', open);
    if (close == std::string::npos) return false;
    std::size_t start = open;
    while (start < close) {
      std::size_t comma = line.find(',', start);
      if (comma == std::string::npos || comma > close) comma = close;
      std::size_t a = start;
      std::size_t b = comma;
      while (a < b && std::isspace(static_cast<unsigned char>(line[a]))) ++a;
      while (b > a && std::isspace(static_cast<unsigned char>(line[b - 1])))
        --b;
      if (b - a == rule.size() && line.compare(a, b - a, rule) == 0)
        return true;
      start = comma + 1;
    }
    return false;
  };
  if (idx >= raw_lines.size()) return false;
  if (line_allows(raw_lines[idx])) return true;
  for (std::size_t k = idx; k > 0;) {
    --k;
    const std::string& t = raw_lines[k];
    const std::size_t a = t.find_first_not_of(" \t");
    if (a == std::string::npos || t.compare(a, 2, "//") != 0) break;
    if (line_allows(t)) return true;
  }
  return false;
}

// Read a file into lines; false when unreadable.
inline bool read_lines(const std::filesystem::path& path,
                       std::vector<std::string>& lines) {
  lines.clear();
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return true;
}

// All C++ sources under `root`, sorted for deterministic reports.
inline std::vector<std::filesystem::path> collect_sources(
    const std::filesystem::path& root) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cpp" || ext == ".hpp" || ext == ".cc")
      files.push_back(entry.path());
  }
  // Directory iteration order is unspecified; sort on the portable string
  // form so reports are byte-identical across platforms and filesystems.
  std::sort(files.begin(), files.end(),
            [](const std::filesystem::path& a, const std::filesystem::path& b) {
              return a.generic_string() < b.generic_string();
            });
  return files;
}

// Display key for a file under `root`: "<root-basename>/<relative-path>",
// so multi-root runs ("src", "bench", "tools") stay unambiguous and
// findings read the same regardless of where the checker runs from.
inline std::string display_path(const std::filesystem::path& root,
                                const std::filesystem::path& file) {
  const std::string base = root.filename().string();
  const std::string rel =
      std::filesystem::relative(file, root).generic_string();
  return base.empty() ? rel : base + "/" + rel;
}

}  // namespace mmhar_tools
