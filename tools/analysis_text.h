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

// Strip // and /* */ comments; string and char literal *contents* are
// blanked (the quotes' positions are preserved as spaces) so rule regexes
// never fire on prose. Block-comment state carries across lines via
// `in_block_comment`.
inline std::string code_only(const std::string& line, bool& in_block_comment) {
  std::string out;
  out.reserve(line.size());
  bool in_string = false;
  bool in_char = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    const char next = i + 1 < line.size() ? line[i + 1] : '\0';
    if (in_block_comment) {
      if (c == '*' && next == '/') {
        in_block_comment = false;
        ++i;
      }
      continue;
    }
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      out.push_back(' ');
      continue;
    }
    if (in_char) {
      if (c == '\\') {
        ++i;
      } else if (c == '\'') {
        in_char = false;
      }
      out.push_back(' ');
      continue;
    }
    if (c == '/' && next == '/') break;
    if (c == '/' && next == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      out.push_back(' ');
      continue;
    }
    if (c == '\'') {
      in_char = true;
      out.push_back(' ');
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// As code_only, but string-literal contents survive — used where a rule
// must read names out of literals (env-var call sites, registry rows).
inline std::string code_keeping_strings(const std::string& line,
                                        bool& in_block_comment) {
  std::string out;
  out.reserve(line.size());
  bool in_string = false;
  bool in_char = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    const char next = i + 1 < line.size() ? line[i + 1] : '\0';
    if (in_block_comment) {
      if (c == '*' && next == '/') {
        in_block_comment = false;
        ++i;
      }
      continue;
    }
    if (in_string) {
      out.push_back(c);
      if (c == '\\' && i + 1 < line.size()) {
        out.push_back(next);
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (in_char) {
      out.push_back(c);
      if (c == '\\' && i + 1 < line.size()) {
        out.push_back(next);
        ++i;
      } else if (c == '\'') {
        in_char = false;
      }
      continue;
    }
    if (c == '/' && next == '/') break;
    if (c == '/' && next == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '\'') in_char = true;
    out.push_back(c);
  }
  return out;
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
