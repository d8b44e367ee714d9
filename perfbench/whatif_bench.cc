// The `whatif-sweep` workload: the planning path, single-threaded, with no
// pixels. Each query takes one cell of a fixed grid over link bandwidth x
// storage cores x scheduling discipline and runs profile_stage2 ->
// decide_offloading -> a simulation of the plan -> critpath::analyze_epoch
// + critpath::project, validating every projection against a simulator
// re-run under the projection's own parameters.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "core/decision.h"
#include "core/profiler.h"
#include "dataset/catalog.h"
#include "model/gpu_model.h"
#include "net/wire.h"
#include "obs/critpath/whatif.h"
#include "prefetch/replay.h"
#include "probes.h"
#include "sim/multijob.h"
#include "sim/trainer.h"
#include "storage/sharding.h"

namespace perfbench {
namespace {

namespace cp = sophon::obs::critpath;
using sophon::Seconds;

/// A projection may differ from the simulator re-run by this share (the
/// default of `sophonctl whatif --tolerance`).
constexpr double kTolerance = 0.05;
constexpr int kShardNodes = 2;
constexpr std::size_t kJobs = 2;
constexpr std::size_t kReplayWorkers = 4;
constexpr int kSetupRepeats = 5;

enum class Discipline { kBatchWindow, kReplayDepth0, kReplayDepth4, kSharded, kMultiJob };

struct Cell {
  double mbps = 0.0;
  int storage_cores = 0;
  Discipline discipline = Discipline::kBatchWindow;
};

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (double mbps : {100.0, 500.0}) {
    for (int cores : {4, 16}) {
      for (auto d : {Discipline::kBatchWindow, Discipline::kReplayDepth0,
                     Discipline::kReplayDepth4, Discipline::kSharded, Discipline::kMultiJob}) {
        cells.push_back({mbps, cores, d});
      }
    }
  }
  return cells;
}

/// Probes of the planning layers; null in the untraced run.
struct PlanProbes {
  Probe profile_stage2;
  Probe decide_offloading;
  Probe simulate_epoch;
  Probe simulate_epoch_sharded;
  Probe multijob;
  Probe replay_epoch;
  Probe analyze_epoch;
  Probe project;
  std::uint64_t simulated_samples = 0;
  std::uint64_t validation_misses = 0;
};

/// Time `fn` into `probe` when probes are installed, else just call it.
template <typename Fn>
auto maybe_timed(PlanProbes* probes, Probe PlanProbes::*probe, Fn&& fn) {
  if (probes == nullptr) return std::forward<Fn>(fn)();
  return timed(probes->*probe, std::forward<Fn>(fn));
}

struct Planner {
  const sophon::dataset::Catalog& catalog;
  const sophon::pipeline::Pipeline& pipe;
  const sophon::pipeline::CostModel& cost_model;
  const sophon::model::GpuModel& gpu;
  const sophon::storage::ShardMap& shards;
  std::uint64_t seed;
};

struct QueryOutcome {
  bool ok = true;
  sophon::Bytes traffic;  // simulated link bytes of the planned epoch
  std::size_t samples = 0;
  std::string why;
};

using Flow = std::function<sophon::sim::SampleFlow(std::size_t)>;

/// Run the simulator the critpath retimer mirrors under `params`.
sophon::sim::EpochStats simulate(const cp::EpochParams& params, const Flow& flow,
                                 PlanProbes* probes) {
  if (probes != nullptr) probes->simulated_samples += params.num_samples;
  if (params.discipline == cp::Discipline::kWorkerReplay) {
    return maybe_timed(probes, &PlanProbes::replay_epoch, [&] {
      return sophon::prefetch::replay_epoch(params.num_samples, flow, params.cluster,
                                            params.gpu_batch_time, params.seed,
                                            params.epoch_index, params.replay)
          .epoch;
    });
  }
  return maybe_timed(probes, &PlanProbes::simulate_epoch, [&] {
    return sophon::sim::simulate_epoch_flows(params.num_samples, flow, params.cluster,
                                             params.gpu_batch_time, params.seed,
                                             params.epoch_index);
  });
}

QueryOutcome run_query(const Planner& planner, const Cell& cell, PlanProbes* probes,
                       bool corrupt) {
  const std::size_t n = planner.catalog.size();
  sophon::sim::ClusterConfig cluster;
  cluster.bandwidth = sophon::Bandwidth::mbps(cell.mbps);
  cluster.storage_cores = cell.storage_cores;
  const Seconds gpu_batch = planner.gpu.batch_time(cluster.batch_size);
  const double batches =
      std::ceil(static_cast<double>(n) / static_cast<double>(cluster.batch_size));

  const auto profiles = maybe_timed(probes, &PlanProbes::profile_stage2, [&] {
    return sophon::core::profile_stage2(planner.catalog, planner.pipe, planner.cost_model);
  });
  const auto decision = maybe_timed(probes, &PlanProbes::decide_offloading, [&] {
    return sophon::core::decide_offloading(profiles, cluster, gpu_batch * batches);
  });
  const auto& plan = decision.plan;
  const Flow flow = [&](std::size_t i) {
    const auto& meta = planner.catalog.sample(i);
    const std::size_t prefix = plan.prefix(i);
    sophon::sim::SampleFlow f;
    if (prefix > 0) {
      f.storage_cpu = planner.pipe.prefix_cost(meta.raw, prefix, planner.cost_model);
    }
    f.wire = sophon::net::wire_size(planner.pipe.shape_at(meta.raw, prefix));
    f.compute_cpu = planner.pipe.suffix_cost(meta.raw, prefix, planner.cost_model);
    f.stage = static_cast<std::uint8_t>(prefix);
    return f;
  };

  cp::EpochParams params;
  params.cluster = cluster;
  params.gpu_batch_time = gpu_batch;
  params.seed = planner.seed;
  params.num_samples = n;
  if (cell.discipline == Discipline::kReplayDepth0 ||
      cell.discipline == Discipline::kReplayDepth4) {
    params.discipline = cp::Discipline::kWorkerReplay;
    params.replay.workers = kReplayWorkers;
    params.replay.prefetch.depth = cell.discipline == Discipline::kReplayDepth4 ? 4 : 0;
  }

  // Simulate the plan under the cell's discipline. The retimer mirrors the
  // batch-window and worker-replay simulators, so their epoch time is the
  // reconcile reference; sharded and multi-job epochs have no mirror.
  QueryOutcome outcome;
  Seconds observed;
  switch (cell.discipline) {
    case Discipline::kBatchWindow:
    case Discipline::kReplayDepth0:
    case Discipline::kReplayDepth4: {
      const auto stats = simulate(params, flow, probes);
      observed = stats.epoch_time;
      outcome.traffic = stats.traffic;
      outcome.samples = n;
      break;
    }
    case Discipline::kSharded: {
      if (probes != nullptr) probes->simulated_samples += n;
      const auto stats = maybe_timed(probes, &PlanProbes::simulate_epoch_sharded, [&] {
        return sophon::sim::simulate_epoch_sharded(n, flow, planner.shards, cluster, gpu_batch,
                                                   planner.seed);
      });
      outcome.traffic = stats.totals.traffic;
      outcome.samples = n;
      break;
    }
    case Discipline::kMultiJob: {
      std::vector<sophon::sim::JobSpec> jobs;
      for (std::size_t j = 0; j < kJobs; ++j) {
        sophon::sim::JobSpec job;
        job.num_samples = n;
        job.flow = flow;
        job.gpu_batch_time = gpu_batch;
        job.batch_size = cluster.batch_size;
        job.compute_cores = cluster.compute_cores;
        job.seed = planner.seed + j;
        jobs.push_back(std::move(job));
      }
      if (probes != nullptr) probes->simulated_samples += n * kJobs;
      const auto stats = maybe_timed(probes, &PlanProbes::multijob, [&] {
        return sophon::sim::simulate_multijob_epoch(jobs, cluster);
      });
      outcome.traffic = stats.total_traffic;
      outcome.samples = n * kJobs;
      break;
    }
  }

  const cp::DemandFn demand = [&flow](std::size_t i) {
    const auto f = flow(i);
    return cp::SampleDemand{f.storage_cpu, f.compute_cpu, f.wire, f.delay};
  };
  const auto analysis = maybe_timed(probes, &PlanProbes::analyze_epoch,
                                    [&] { return cp::analyze_epoch(demand, params, observed); });
  auto report = maybe_timed(probes, &PlanProbes::project, [&] {
    return cp::project(demand, params, cp::default_scenarios(params));
  });
  if (corrupt && !report.ranked.empty()) {
    report.ranked.front().projected_epoch_time = report.ranked.front().projected_epoch_time * 1.1;
  }

  std::uint64_t misses = 0;
  if (observed.value() > 0.0 && analysis.reconcile_error > kTolerance) {
    ++misses;
    outcome.why = "baseline reconcile error " + std::to_string(analysis.reconcile_error);
  }
  for (const auto& projection : report.ranked) {
    const Seconds actual = simulate(projection.params, flow, probes).epoch_time;
    const double error = std::fabs(projection.projected_epoch_time.value() - actual.value()) /
                         std::max(actual.value(), 1e-12);
    if (error > kTolerance) {
      ++misses;
      outcome.why = projection.name + " projected " +
                    std::to_string(projection.projected_epoch_time.value()) + " s, simulated " +
                    std::to_string(actual.value()) + " s";
    }
  }
  if (probes != nullptr) probes->validation_misses += misses;
  outcome.ok = misses == 0;
  return outcome;
}

/// Whole passes over the grid until `seconds` have passed and at least
/// `min_batches` queries ran.
struct Sweep {
  double wall_s = 0.0;
  std::vector<double> query_ms;
  sophon::Bytes traffic;
  std::uint64_t samples = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

Sweep sweep(const Planner& planner, const Args& args, PlanProbes* probes) {
  const auto cells = grid();
  Sweep out;
  const auto start = Clock::now();
  while (out.wall_s < args.seconds || out.query_ms.size() < args.min_batches) {
    for (const auto& cell : cells) {
      const bool corrupt = args.corrupt == "projection" && out.query_ms.empty();
      const auto query_start = Clock::now();
      const auto outcome = run_query(planner, cell, probes, corrupt);
      out.query_ms.push_back(seconds_since(query_start) * 1e3);
      out.traffic += outcome.traffic;
      out.samples += outcome.samples;
      if (!outcome.ok) {
        ++out.failed;
        out.failures.push_back("query " + std::to_string(out.query_ms.size()) + ": " +
                               outcome.why);
      }
    }
    out.wall_s = seconds_since(start);
  }
  return out;
}

}  // namespace

Result run_whatif_workload(const Args& args) {
  Result result;
  const auto pipe = sophon::pipeline::Pipeline::standard();
  const sophon::pipeline::CostModel cost_model;
  const auto gpu =
      sophon::model::GpuModel::lookup(sophon::model::NetKind::kAlexNet,
                                      sophon::model::GpuKind::kRtx6000);
  // Set-up (the parametric catalog and the shard placement) takes about a
  // millisecond, so it is repeated and the median reported.
  std::vector<double> setups;
  sophon::dataset::Catalog catalog;
  sophon::storage::ShardMap shards;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto setup_start = Clock::now();
    catalog = sophon::dataset::Catalog::generate(
        sophon::dataset::openimages_profile(args.catalog), args.seed);
    shards = sophon::storage::ShardMap::hashed(catalog.size(), kShardNodes, args.seed);
    setups.push_back(seconds_since(setup_start));
  }
  const double setup_s = percentile(setups, 50);
  const Planner planner{catalog, pipe, cost_model, gpu, shards, args.seed};

  const auto record = [&](const Sweep& run) {
    result.attempted += run.query_ms.size();
    result.failed += run.failed;
    for (const auto& why : run.failures) result.fail(why);
  };
  const Sweep plain = sweep(planner, args, nullptr);
  record(plain);
  const double queries = static_cast<double>(plain.query_ms.size());
  std::fprintf(stderr, "whatif-sweep: %zu queries in %.2f s\n", plain.query_ms.size(),
               plain.wall_s);

  if (!args.trace) {
    result.add("setup_s", setup_s, "s");
    result.add("samples_per_s", queries * static_cast<double>(catalog.size()) / plain.wall_s,
               "1/s");
    result.add("wait_p50_ms", percentile(plain.query_ms, 50), "ms");
    result.add("wait_p90_ms", percentile(plain.query_ms, 90), "ms");
    result.add("wire_bytes_per_sample",
               plain.traffic.as_double() / static_cast<double>(plain.samples), "B");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  PlanProbes probes;
  const Sweep traced = sweep(planner, args, &probes);
  record(traced);
  result.add("core.profile_stage2.busy_ms", probes.profile_stage2.busy_ms(), "ms");
  result.add("core.decide_offloading.busy_ms", probes.decide_offloading.busy_ms(), "ms");
  result.add("sim.simulate_epoch.busy_ms", probes.simulate_epoch.busy_ms(), "ms");
  result.add("sim.simulate_epoch_sharded.busy_ms", probes.simulate_epoch_sharded.busy_ms(), "ms");
  result.add("sim.multijob.busy_ms", probes.multijob.busy_ms(), "ms");
  const double sim_s = probes.simulate_epoch.busy_s() + probes.simulate_epoch_sharded.busy_s() +
                       probes.multijob.busy_s() + probes.replay_epoch.busy_s();
  result.add("sim.samples_per_s", static_cast<double>(probes.simulated_samples) / sim_s, "1/s");
  result.add("prefetch.replay_epoch.busy_ms", probes.replay_epoch.busy_ms(), "ms");
  result.add("critpath.analyze_epoch.busy_ms", probes.analyze_epoch.busy_ms(), "ms");
  result.add("critpath.project.busy_ms", probes.project.busy_ms(), "ms");
  result.add("critpath.validation_misses", static_cast<double>(probes.validation_misses),
             "count");
  const double overhead =
      (traced.wall_s / static_cast<double>(traced.query_ms.size())) / (plain.wall_s / queries) -
      1.0;
  result.add("trace.overhead", overhead, "ratio");
  std::fprintf(stderr, "traced: %zu queries in %.2f s, overhead %+.1f%% vs untraced\n",
               traced.query_ms.size(), traced.wall_s, 100.0 * overhead);
  return result;
}

}  // namespace perfbench
