// Tiny command-line parser for the bench binaries and examples.
// Supports `--flag`, `--key value` and `--key=value`; unknown arguments
// are collected as positionals.  No external dependencies on purpose.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tifl::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  // Every `--key` parsed, in sorted order, so a program can reject the
  // ones it does not know.
  std::vector<std::string> keys() const;
  const std::vector<std::string>& positionals() const { return positionals_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positionals_;
};

}  // namespace tifl::util
