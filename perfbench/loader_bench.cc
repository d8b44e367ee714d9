// The `raw` and `sophon` workloads: the real DataLoader over the real byte
// path, a closed loop of 3 loader workers plus the consumer thread, with
// prefetch off, completion-order delivery and no simulated GPU step.
//
// Every delivered tensor is checked bit for bit against an uncut,
// single-threaded Pipeline::run_seeded reference, and every epoch's bytes
// are reconciled three ways (meter, loader, per-sample sums).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/policy.h"
#include "dataset/catalog.h"
#include "dataset/synth.h"
#include "loader/loader.h"
#include "probes.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/crc32.h"

namespace perfbench {
namespace {

namespace pl = sophon::pipeline;
using sophon::Bytes;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kBatch = 8;
// The corpus geometry and texture (hence its size mix) are part of the
// workload's definition and drawn from this fixed seed; the workload seed
// draws pixel content, visit order and augmentations. A per-seed geometry
// would swing throughput and bytes by a lucky draw of small images.
constexpr std::uint64_t kGeometrySeed = 7;

struct Corpus {
  std::vector<std::vector<std::uint8_t>> blobs;
  sophon::dataset::Catalog catalog;
  int quality = 0;
};

/// Run `fn(i)` for i in [0, n) on helper_threads() threads.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < helper_threads(); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (auto& thread : threads) thread.join();
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, bytes, size);
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Render and encode every sample of `geometry` in a child process and read
/// the blobs back over a pipe. The generator's large transient buffers stand
/// in for a dataset prepared offline; keeping them out of this process keeps
/// peak_rss_mb about the store, server and loader. Call before any thread
/// of this process starts.
std::vector<std::vector<std::uint8_t>> materialize_in_child(
    const sophon::dataset::Catalog& geometry, std::uint64_t seed, int quality) {
  const std::size_t n = geometry.size();
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::vector<std::vector<std::uint8_t>> blobs(n);
    parallel_for(n, [&](std::size_t i) {
      blobs[i] = sophon::dataset::materialize_encoded(geometry.sample(i), seed, quality);
    });
    bool ok = true;
    for (const auto& blob : blobs) {
      const std::uint64_t size = blob.size();
      ok = ok && write_all(fds[1], &size, sizeof(size)) && write_all(fds[1], blob.data(), size);
    }
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  std::vector<std::vector<std::uint8_t>> blobs(n);
  bool ok = true;
  for (auto& blob : blobs) {
    std::uint64_t size = 0;
    ok = ok && read_all(fds[0], &size, sizeof(size)) && size <= (std::uint64_t{1} << 30);
    if (!ok) break;
    blob.resize(size);
    ok = read_all(fds[0], blob.data(), size);
  }
  ::close(fds[0]);
  int status = 0;
  const bool reaped = ::waitpid(pid, &status, 0) == pid;
  if (!ok || !reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("corpus materialisation failed");
  }
  return blobs;
}

/// An OpenImages-like corpus clamped to 1e5–1e6 px, materialised as real
/// SJPG blobs.
Corpus build_corpus(std::size_t n, std::uint64_t seed) {
  auto profile = sophon::dataset::openimages_profile(n);
  profile.min_pixels = 1.0e5;
  profile.max_pixels = 1.0e6;
  const auto geometry = sophon::dataset::Catalog::generate(profile, kGeometrySeed);
  Corpus corpus;
  corpus.quality = profile.quality;
  corpus.blobs = materialize_in_child(geometry, seed, profile.quality);
  corpus.catalog = sophon::dataset::Catalog::from_blobs(corpus.blobs);
  return corpus;
}

struct Delivery {
  std::uint32_t sample_id = 0;
  std::uint32_t epoch = 0;
  std::uint32_t digest = 0;
};

std::uint32_t tensor_digest(const sophon::image::Tensor& tensor) {
  const auto& values = tensor.data();
  return sophon::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()), values.size() * sizeof(float)));
}

/// What a sequence of epochs measured.
struct Loop {
  double wall_s = 0.0;
  double blocked_s = 0.0;          // consumer time inside next()
  std::vector<double> batch_wait_ms;  // blocked time per batch of kBatch
  std::vector<Delivery> deliveries;
  Bytes wire;
  std::uint64_t degraded = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // samples of epochs whose bytes did not reconcile
  std::vector<std::string> failures;

  /// The reported loader rate: delivered samples per wall-clock second.
  [[nodiscard]] double samples_per_s() const {
    return static_cast<double>(deliveries.size()) / wall_s;
  }
};

/// Run whole epochs of the corpus through a fresh DataLoader each until
/// `seconds` have passed and at least `min_batches` batches were consumed.
Loop run_epochs(sophon::net::StorageService& service, const pl::Pipeline& pipe,
                const sophon::core::OffloadPlan& plan, const Corpus& corpus, const Args& args) {
  const std::size_t n = corpus.blobs.size();
  Loop loop;
  const auto start = Clock::now();
  for (std::uint32_t epoch = 0;; ++epoch) {
    sophon::net::MeteringStorageService meter(service);
    sophon::loader::DataLoader loader(meter, pipe, plan, n,
                                      {.num_workers = kWorkers,
                                       .queue_capacity = 16,
                                       .seed = args.seed,
                                       .epoch = epoch});
    loader.start();
    Bytes epoch_wire;
    Bytes raw_wire;  // what the same samples cost shipped as raw blob frames
    std::size_t delivered = 0;
    bool exhausted = false;
    try {
      while (!exhausted) {
        double blocked = 0.0;
        std::size_t in_batch = 0;
        for (; in_batch < kBatch; ++in_batch) {
          const auto wait_start = Clock::now();
          auto sample = loader.next();
          blocked += seconds_since(wait_start);
          if (!sample) {
            exhausted = true;
            break;
          }
          loop.deliveries.push_back({static_cast<std::uint32_t>(sample->sample_id), epoch,
                                     tensor_digest(sample->tensor)});
          epoch_wire += sample->wire_bytes;
          raw_wire += sophon::net::wire_size(corpus.catalog.sample(sample->sample_id).raw);
          loop.degraded += sample->degraded ? 1 : 0;
          ++delivered;
        }
        loop.blocked_s += blocked;
        if (in_batch > 0) loop.batch_wait_ms.push_back(blocked * 1e3);
      }
    } catch (const std::exception& error) {
      loop.failures.push_back(std::string("epoch ") + std::to_string(epoch) + ": " + error.what());
    }
    loop.attempted += n;
    if (args.corrupt == "bytes" && epoch == 0) epoch_wire += Bytes(1);
    const bool reconciled = delivered == n && meter.traffic() == loader.traffic() &&
                            loader.traffic() == epoch_wire;
    const bool no_worse_than_raw =
        plan.offloaded_count() > 0 ? epoch_wire <= raw_wire : epoch_wire == raw_wire;
    if (!reconciled || !no_worse_than_raw) {
      loop.failed += n;
      loop.failures.push_back(
          "epoch " + std::to_string(epoch) + ": delivered " + std::to_string(delivered) + "/" +
          std::to_string(n) + ", meter " + std::to_string(meter.traffic().count()) +
          " B, loader " + std::to_string(loader.traffic().count()) + " B, samples " +
          std::to_string(epoch_wire.count()) + " B, raw frames " +
          std::to_string(raw_wire.count()) + " B");
    }
    loop.wire += epoch_wire;
    loop.wall_s = seconds_since(start);
    if (loop.wall_s >= args.seconds && loop.batch_wait_ms.size() >= args.min_batches) break;
  }
  return loop;
}

/// Reference digests of an uncut, single-threaded run of the whole plain
/// pipeline, keyed by (epoch, sample id); computes only the missing ones.
class Reference {
 public:
  Reference(const Corpus& corpus, const pl::Pipeline& pipe, std::uint64_t seed)
      : corpus_(corpus), pipe_(pipe), seed_(seed) {}

  /// Number of deliveries whose tensor differs from the reference.
  std::uint64_t mismatches(const std::vector<Delivery>& deliveries) {
    std::vector<std::uint64_t> missing;
    for (const auto& d : deliveries) {
      const auto key = (std::uint64_t{d.epoch} << 32) | d.sample_id;
      if (digests_.emplace(key, 0).second) missing.push_back(key);
    }
    std::vector<std::uint32_t> computed(missing.size());
    parallel_for(missing.size(), [&](std::size_t i) {
      const auto epoch = missing[i] >> 32;
      const auto id = missing[i] & 0xffffffffu;
      auto out = pipe_.run_seeded(pl::SampleData(pl::EncodedBlob{corpus_.blobs[id]}), 0,
                                  pipe_.size(),
                                  sophon::storage::augmentation_seed(seed_, epoch, id));
      computed[i] = tensor_digest(std::get<sophon::image::Tensor>(out));
    });
    for (std::size_t i = 0; i < missing.size(); ++i) digests_[missing[i]] = computed[i];
    std::uint64_t bad = 0;
    for (const auto& d : deliveries) {
      bad += digests_.at((std::uint64_t{d.epoch} << 32) | d.sample_id) != d.digest ? 1 : 0;
    }
    return bad;
  }

 private:
  const Corpus& corpus_;
  const pl::Pipeline& pipe_;
  std::uint64_t seed_;
  std::map<std::uint64_t, std::uint32_t> digests_;
};

/// Fold one loop's gate outcome into the result.
void gate(Result& result, Loop& loop, Reference& reference, const Args& args) {
  if (args.corrupt == "digest" && !loop.deliveries.empty()) loop.deliveries.front().digest ^= 1u;
  const auto bad = reference.mismatches(loop.deliveries);
  if (bad > 0) loop.failures.push_back(std::to_string(bad) + " tensors differ from the reference");
  result.attempted += loop.attempted;
  result.failed += std::min(loop.attempted, loop.failed + bad);
  for (auto& why : loop.failures) result.fail(std::move(why));
}

}  // namespace

Result run_loader_workload(const Args& args, bool offload) {
  Result result;
  const auto setup_start = Clock::now();
  const Corpus corpus = build_corpus(args.corpus, args.seed);
  const auto pipe = pl::Pipeline::standard();
  const pl::CostModel cost_model;
  sophon::storage::DatasetStore store(corpus.catalog, args.seed, corpus.quality);
  for (std::size_t i = 0; i < corpus.blobs.size(); ++i) store.put(i, corpus.blobs[i]);
  sophon::core::OffloadPlan plan(corpus.blobs.size());
  if (offload) {
    // The planning context of examples/real_path_comparison.cpp.
    sophon::core::PlanContext ctx;
    ctx.catalog = &corpus.catalog;
    ctx.pipeline = &pipe;
    ctx.cost_model = &cost_model;
    ctx.cluster.bandwidth = sophon::Bandwidth::mbps(6.0);
    ctx.cluster.storage_cores = 4;
    ctx.gpu_batch_time = sophon::Seconds::millis(20.0);
    ctx.seed = args.seed;
    plan = sophon::core::make_policy(sophon::core::PolicyKind::kSophon)->plan(ctx).plan;
  }
  const double setup_s = seconds_since(setup_start);

  Reference reference(corpus, pipe, args.seed);

  // Untraced: the plain server and pipeline, only the gate's byte meter on.
  sophon::storage::StorageServer server(store, pipe, cost_model, {.seed = args.seed});
  Loop plain = run_epochs(server, pipe, plan, corpus, args);
  const double rss_mb = peak_rss_mb();  // before the verifier's own allocations
  gate(result, plain, reference, args);
  std::fprintf(stderr, "%s: %zu samples in %.2f s, %zu batches, %zu of %zu offloaded\n",
               args.workload.c_str(), plain.deliveries.size(), plain.wall_s,
               plain.batch_wait_ms.size(), plan.offloaded_count(), plan.size());

  if (!args.trace) {
    result.add("setup_s", setup_s, "s");
    result.add("samples_per_s", plain.samples_per_s(), "1/s");
    result.add("wait_p50_ms", percentile(plain.batch_wait_ms, 50), "ms");
    result.add("wait_p90_ms", percentile(plain.batch_wait_ms, 90), "ms");
    result.add("wire_bytes_per_sample",
               plain.wire.as_double() / static_cast<double>(plain.deliveries.size()), "B");
    result.add("peak_rss_mb", rss_mb, "MB");
    return result;
  }

  // Traced: timing decorators on every layer, same epochs and seeds.
  PipelineProbes storage_ops;
  PipelineProbes compute_ops;
  const auto storage_pipe = timed_standard_pipeline(storage_ops);
  const auto compute_pipe = timed_standard_pipeline(compute_ops);
  TimedBlobSource timed_store(store);
  sophon::storage::StorageServer timed_server(timed_store, storage_pipe, cost_model,
                                              {.seed = args.seed});
  TimedStorageService service(timed_server);
  Loop traced = run_epochs(service, compute_pipe, plan, corpus, args);

  static constexpr const char* kOpNames[] = {"decode", "crop", "flip", "to_tensor", "normalize"};
  double compute_busy_s = 0.0;
  for (std::size_t op = 0; op < 5; ++op) {
    for (const auto& [side, probes] :
         {std::pair{"storage", &storage_ops}, std::pair{"compute", &compute_ops}}) {
      const auto& probe = probes->ops[op];
      const std::string prefix = std::string("pipeline.") + kOpNames[op] + "." + side;
      result.add(prefix + ".calls", static_cast<double>(probe.calls.load()), "count");
      result.add(prefix + ".busy_ms", probe.busy_ms(), "ms");
    }
    compute_busy_s += compute_ops.ops[op].busy_s();
  }
  const double decode_s = storage_ops.ops[0].busy_s() + compute_ops.ops[0].busy_s();
  const auto decoded_px = storage_ops.decoded_pixels.load() + compute_ops.decoded_pixels.load();
  result.add("codec.decode_mpix_per_s", static_cast<double>(decoded_px) / 1e6 / decode_s, "Mpx/s");

  const auto fetch_ms = service.latencies_ms();
  result.add("storage.fetch.calls", static_cast<double>(service.fetch_probe.calls.load()),
             "count");
  result.add("storage.fetch.busy_ms", service.fetch_probe.busy_ms(), "ms");
  result.add("storage.fetch.p50_ms", percentile(fetch_ms, 50), "ms");
  result.add("storage.fetch.p99_ms", percentile(fetch_ms, 99), "ms");
  result.add("storage.blob_read.calls", static_cast<double>(timed_store.probe.calls.load()),
             "count");
  result.add("storage.blob_read.busy_ms", timed_store.probe.busy_ms(), "ms");

  result.add("net.unpack.calls", static_cast<double>(service.unpack_probe.calls.load()), "count");
  result.add("net.unpack.busy_ms", service.unpack_probe.busy_ms(), "ms");
  result.add("net.unpack.mb_per_s",
             static_cast<double>(service.unpack_bytes.load()) / 1e6 /
                 service.unpack_probe.busy_s(),
             "MB/s");
  result.add("net.frame_bytes.blob", static_cast<double>(service.frame_bytes[0].load()), "B");
  result.add("net.frame_bytes.image", static_cast<double>(service.frame_bytes[1].load()), "B");
  result.add("net.frame_bytes.tensor", static_cast<double>(service.frame_bytes[2].load()), "B");

  // Worker time the decorators account for: fetches (which include the
  // storage-side ops) and the compute-side ops.
  const double timed_busy_s = service.fetch_probe.busy_s() + compute_busy_s;
  const auto traced_samples = static_cast<double>(traced.deliveries.size());
  const double coverage = timed_busy_s / (static_cast<double>(kWorkers) * traced.wall_s);
  // The reported rate times the per-sample busy time is the share of worker
  // capacity that rate implies. It equals the coverage when the rate is a
  // wall-clock rate; a rate computed over CPU time reads far above 1.
  const double utilization =
      traced.samples_per_s() * (timed_busy_s / traced_samples) / static_cast<double>(kWorkers);
  result.add("loader.wait_share", traced.blocked_s / traced.wall_s, "ratio");
  result.add("loader.degraded", static_cast<double>(traced.degraded), "count");
  result.add("loader.coverage", coverage, "ratio");
  result.add("loader.utilization", utilization, "ratio");
  const double overhead = plain.samples_per_s() / traced.samples_per_s() - 1.0;
  result.add("trace.overhead", overhead, "ratio");
  std::fprintf(stderr,
               "traced: %zu samples in %.2f s, overhead %+.1f%% vs untraced, coverage %.3f, "
               "utilization %.3f\n",
               traced.deliveries.size(), traced.wall_s, 100.0 * overhead, coverage, utilization);
  if (!(utilization > 0.0 && utilization <= 1.05)) {
    result.fail("utilization " + std::to_string(utilization) + " outside (0, 1.05]");
  }
  gate(result, traced, reference, args);
  return result;
}

}  // namespace perfbench
