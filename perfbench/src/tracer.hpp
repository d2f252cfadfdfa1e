// Span recorder for the traced benchmark run.
//
// The benchmark wraps every call it makes into a lumos layer in a span:
// name, start, end, parent span, and the id of the unit execution the span
// belongs to. Spans stay in memory and are written out when the run ends;
// run.py turns them into per-layer self times. When the tracer is disabled
// a span is one untaken branch, so the untraced passes that give the
// end-to-end numbers pay for nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::uint32_t unit = 0;  ///< unit execution id shared by its spans
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, std::int32_t index)
        : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Spans opened from now on carry this unit execution id.
  void set_unit(std::uint32_t unit) { unit_ = unit; }

  /// Opens a span that closes when the returned scope is destroyed.
  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return {};
    const auto index = static_cast<std::int32_t>(spans_.size());
    Span s;
    s.name = name;
    s.unit = unit_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(index);
    return {this, index};
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_ = false;
  std::uint32_t unit_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
