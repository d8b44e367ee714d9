// Shared types of the wall-clock benchmark: command-line arguments, the
// result a workload hands back, and small statistics helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Test hook: "digest", "bytes" or "projection" corrupts one recorded
  /// output after the measurement so the gate's detection can be tested.
  std::string corrupt;
  /// Size knobs; the defaults are the benchmark's sizes, tests shrink them.
  std::size_t corpus = 64;         // distinct images reused across epochs
  std::size_t catalog = 5000;      // parametric samples per what-if query
  std::size_t min_batches = 100;   // keep measuring until this many batches
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `correct` is false when any gate failed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why the gate failed, one line each (printed to stderr).
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

/// Linear-interpolated percentile, `p` in [0, 100]. Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Threads for set-up and verification: the machine's cores, at most 4.
[[nodiscard]] unsigned helper_threads();

Result run_loader_workload(const Args& args, bool offload);
Result run_whatif_workload(const Args& args);

}  // namespace perfbench
