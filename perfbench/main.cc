// Wall-clock benchmark of the real byte path and the planning path.
//
//   perfbench --workload raw|sophon|whatif-sweep --seed N --seconds S
//             --trace 0|1 [--commit SHA] [--corrupt digest|bytes|projection]
//             [--corpus N] [--catalog N] [--min-batches N]
//
// Prints a fingerprint line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, measured with no timing decorators; with
// --trace 1 they are the per-layer set from a separate traced run, which
// also reports its overhead against an untraced run. Exits 1 when the
// correctness gate fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned helper_threads() { return std::clamp(std::thread::hardware_concurrency(), 1u, 4u); }

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; perfbench/test_perfbench.py checks both ways.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"samples_per_s", "1/s"},         {"wait_p50_ms", "ms"},
    {"wait_p90_ms", "ms"},     {"wire_bytes_per_sample", "B"},   {"peak_rss_mb", "MB"},
    {"success_rate", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"pipeline.decode.storage.calls", "count"},     {"pipeline.decode.storage.busy_ms", "ms"},
    {"pipeline.decode.compute.calls", "count"},     {"pipeline.decode.compute.busy_ms", "ms"},
    {"pipeline.crop.storage.calls", "count"},       {"pipeline.crop.storage.busy_ms", "ms"},
    {"pipeline.crop.compute.calls", "count"},       {"pipeline.crop.compute.busy_ms", "ms"},
    {"pipeline.flip.storage.calls", "count"},       {"pipeline.flip.storage.busy_ms", "ms"},
    {"pipeline.flip.compute.calls", "count"},       {"pipeline.flip.compute.busy_ms", "ms"},
    {"pipeline.to_tensor.storage.calls", "count"},  {"pipeline.to_tensor.storage.busy_ms", "ms"},
    {"pipeline.to_tensor.compute.calls", "count"},  {"pipeline.to_tensor.compute.busy_ms", "ms"},
    {"pipeline.normalize.storage.calls", "count"},  {"pipeline.normalize.storage.busy_ms", "ms"},
    {"pipeline.normalize.compute.calls", "count"},  {"pipeline.normalize.compute.busy_ms", "ms"},
    {"codec.decode_mpix_per_s", "Mpx/s"},
    {"storage.fetch.calls", "count"},               {"storage.fetch.busy_ms", "ms"},
    {"storage.fetch.p50_ms", "ms"},                 {"storage.fetch.p99_ms", "ms"},
    {"storage.blob_read.calls", "count"},           {"storage.blob_read.busy_ms", "ms"},
    {"net.unpack.calls", "count"},                  {"net.unpack.busy_ms", "ms"},
    {"net.unpack.mb_per_s", "MB/s"},                {"net.frame_bytes.blob", "B"},
    {"net.frame_bytes.image", "B"},                 {"net.frame_bytes.tensor", "B"},
    {"loader.wait_share", "ratio"},                 {"loader.degraded", "count"},
    {"loader.coverage", "ratio"},                   {"loader.utilization", "ratio"},
    {"core.profile_stage2.busy_ms", "ms"},          {"core.decide_offloading.busy_ms", "ms"},
    {"sim.simulate_epoch.busy_ms", "ms"},           {"sim.simulate_epoch_sharded.busy_ms", "ms"},
    {"sim.multijob.busy_ms", "ms"},                 {"sim.samples_per_s", "1/s"},
    {"prefetch.replay_epoch.busy_ms", "ms"},        {"critpath.analyze_epoch.busy_ms", "ms"},
    {"critpath.project.busy_ms", "ms"},             {"critpath.validation_misses", "count"},
    {"trace.overhead", "ratio"},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

/// JSON string literal for the plain ASCII text this program emits.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20) ? c : ' ';
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload raw|sophon|whatif-sweep --seed N "
               "--seconds S --trace 0|1 [--commit SHA] [--corrupt digest|bytes|projection] "
               "[--corpus N] [--catalog N] [--min-batches N]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage(("bad argument " + key).c_str());
    flags[key.substr(2)] = argv[++i];
  }
  Args args;
  std::string commit = "unknown";
  try {
    for (const auto& [key, value] : flags) {
      if (key == "workload") args.workload = value;
      else if (key == "seed") args.seed = std::stoull(value);
      else if (key == "seconds") args.seconds = std::stod(value);
      else if (key == "trace") args.trace = std::stoi(value) != 0;
      else if (key == "commit") commit = value;
      else if (key == "corrupt") args.corrupt = value;
      else if (key == "corpus") args.corpus = std::stoull(value);
      else if (key == "catalog") args.catalog = std::stoull(value);
      else if (key == "min-batches") args.min_batches = std::stoull(value);
      else return usage(("unknown flag --" + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("flag value is not a number");
  }
  if (!flags.count("seed") || !flags.count("seconds") || !flags.count("trace")) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (args.seconds <= 0.0 || args.corpus == 0 || args.catalog == 0) {
    return usage("--seconds, --corpus and --catalog must be positive");
  }
  if (args.workload != "raw" && args.workload != "sophon" && args.workload != "whatif-sweep") {
    return usage(("unknown workload " + args.workload).c_str());
  }

  std::printf(
      "fingerprint {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), quoted(cpu_model()).c_str(),
      quoted(PERFBENCH_COMPILER).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
      quoted(commit).c_str(), quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  const Result result = args.workload == "whatif-sweep"
                            ? run_whatif_workload(args)
                            : run_loader_workload(args, /*offload=*/args.workload == "sophon");

  std::map<std::string, Metric> measured;
  for (auto& metric : result.metrics) measured[metric.name] = metric;
  if (!args.trace) {
    const double attempted = static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
    measured["success_rate"] = {"success_rate",
                                (attempted - static_cast<double>(result.failed)) / attempted,
                                "ratio"};
  }
  std::string metrics;
  std::size_t emitted = 0;
  const auto emit = [&](const MetricSpec& spec) {
    // A layer the workload never calls reads as zero calls and zero time.
    const auto it = measured.find(spec.name);
    const double value = it == measured.end() ? 0.0 : it->second.value;
    if (it != measured.end()) {
      ++emitted;
      if (it->second.unit != spec.unit) {
        std::fprintf(stderr, "perfbench: %s has unit %s, expected %s\n", spec.name,
                     it->second.unit.c_str(), spec.unit);
        std::abort();
      }
    } else if (!args.trace) {
      std::fprintf(stderr, "perfbench: workload did not measure %s\n", spec.name);
      std::abort();
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(spec.name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(spec.unit) + "}";
  };
  if (args.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  if (emitted != measured.size()) {
    std::fprintf(stderr, "perfbench: workload measured metrics outside the %s set\n",
                 args.trace ? "per-layer" : "end-to-end");
    std::abort();
  }

  for (const auto& why : result.failures) std::fprintf(stderr, "gate: %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}
