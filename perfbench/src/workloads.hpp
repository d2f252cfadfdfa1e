// The benchmark's workloads: set-up that synthesises the inputs, and the
// units the timed phase runs over them, one after another.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "outputs.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Full is the benchmark; Tiny runs the same code paths in well under a
/// second, for the self-tests.
enum class Size { Full, Tiny };

struct UnitResult {
  Outputs outputs;
  Counts counts;
};

/// Turns what a unit kept from its calls into checked outputs. It runs
/// after the unit's clock has stopped.
using Check = std::function<UnitResult()>;

/// One call sequence into the program, timed and checked as a whole.
struct Unit {
  std::string name;
  std::uint64_t jobs = 0;  ///< input job records the unit consumes
  std::function<Check(Tracer&)> run;
};

/// A workload after set-up: it owns its inputs, and its units refer to
/// them, so it is never copied or moved.
struct Workload {
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;
  virtual ~Workload() = default;

  std::vector<Unit> units;
  Counts setup_counts;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Synthesises (and where needed serialises) the inputs of `name` from
/// `seed`. Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> set_up(const std::string& name,
                                               std::uint64_t seed, Size size,
                                               Tracer& tracer);

}  // namespace perfbench
