// What a unit produced, in the form the reference check compares.
//
// Every value is kept as text that round-trips its bits: doubles as
// "%.17g", integers in decimal, digests as 16 hex digits. Two outputs are
// equal exactly when every bit of every value is.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Checked values of one unit execution, in insertion order.
struct Outputs {
  std::vector<std::pair<std::string, std::string>> values;

  void add(std::string key, double v) {
    values.emplace_back(std::move(key), exact(v));
  }
  void add_count(std::string key, std::uint64_t v) {
    values.emplace_back(std::move(key), std::to_string(v));
  }
  void add_text(std::string key, std::string v) {
    values.emplace_back(std::move(key), std::move(v));
  }
  [[nodiscard]] bool operator==(const Outputs&) const = default;
};

/// Work counts a unit reports for the per-layer metrics (never checked).
using Counts = std::vector<std::pair<std::string, double>>;

/// FNV-1a over the raw bytes of the values fed to it: a bit-exact digest
/// of a structure too large to list value by value.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64s(std::span<const double> vs) {
    u64(vs.size());
    for (double v : vs) f64(v);
  }
  void text(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
