// Timing decorators around the library's public interfaces.
//
// The benchmark measures every layer from outside: each decorator forwards
// to the real implementation and adds the call's wall time to a Probe. No
// tracing lives inside src/; the untraced run simply does not install these
// wrappers.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "net/rpc.h"
#include "net/wire.h"
#include "pipeline/pipeline.h"
#include "storage/blob_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Call count and summed busy time of one layer. Thread-safe.
struct Probe {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> busy_ns{0};

  void add(Clock::duration elapsed) {
    calls.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
                      std::memory_order_relaxed);
  }
  [[nodiscard]] double busy_ms() const { return static_cast<double>(busy_ns.load()) / 1e6; }
  [[nodiscard]] double busy_s() const { return static_cast<double>(busy_ns.load()) / 1e9; }
};

/// Time one call of `fn` into `probe` and return its result.
template <typename Fn>
auto timed(Probe& probe, Fn&& fn) {
  const auto start = Clock::now();
  auto result = std::forward<Fn>(fn)();
  probe.add(Clock::now() - start);
  return result;
}

/// One probe per op of the standard five-op pipeline, plus the pixels the
/// decode op produced (for the codec's Mpx/s).
struct PipelineProbes {
  std::array<Probe, 5> ops;
  std::atomic<std::int64_t> decoded_pixels{0};
};

/// A PreprocessOp that times its inner op. Everything but apply delegates
/// untouched, so the analytic path (planning, costs) is unchanged.
class TimedOp final : public sophon::pipeline::PreprocessOp {
 public:
  TimedOp(std::unique_ptr<sophon::pipeline::PreprocessOp> inner, PipelineProbes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  [[nodiscard]] sophon::pipeline::OpKind kind() const override { return inner_->kind(); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] bool is_random() const override { return inner_->is_random(); }
  [[nodiscard]] sophon::pipeline::SampleShape out_shape(
      const sophon::pipeline::SampleShape& in) const override {
    return inner_->out_shape(in);
  }
  [[nodiscard]] sophon::Seconds cost(const sophon::pipeline::SampleShape& in,
                                     const sophon::pipeline::CostModel& model) const override {
    return inner_->cost(in, model);
  }

  [[nodiscard]] sophon::pipeline::SampleData apply(sophon::pipeline::SampleData in,
                                                   sophon::Rng& rng) const override {
    auto out = timed(probes_.ops[static_cast<std::size_t>(kind())],
                     [&] { return inner_->apply(std::move(in), rng); });
    if (kind() == sophon::pipeline::OpKind::kDecode) {
      if (const auto* img = std::get_if<sophon::image::Image>(&out)) {
        probes_.decoded_pixels.fetch_add(static_cast<std::int64_t>(img->width()) * img->height(),
                                         std::memory_order_relaxed);
      }
    }
    return out;
  }

 private:
  std::unique_ptr<sophon::pipeline::PreprocessOp> inner_;
  PipelineProbes& probes_;
};

/// The standard pipeline built from the make_*_op() factories, each op
/// wrapped in a TimedOp feeding `probes`.
[[nodiscard]] inline sophon::pipeline::Pipeline timed_standard_pipeline(PipelineProbes& probes) {
  namespace pl = sophon::pipeline;
  std::vector<std::unique_ptr<pl::PreprocessOp>> ops;
  ops.push_back(pl::make_decode_op());
  ops.push_back(pl::make_random_resized_crop_op(224));
  ops.push_back(pl::make_random_horizontal_flip_op());
  ops.push_back(pl::make_to_tensor_op());
  ops.push_back(pl::make_normalize_op());
  for (auto& op : ops) op = std::make_unique<TimedOp>(std::move(op), probes);
  return pl::Pipeline(std::move(ops));
}

/// A BlobSource that times every read of its inner source.
class TimedBlobSource final : public sophon::storage::BlobSource {
 public:
  explicit TimedBlobSource(sophon::storage::BlobSource& inner) : inner_(inner) {}

  [[nodiscard]] const std::vector<std::uint8_t>* get(std::uint64_t sample_id) override {
    return timed(probe, [&] { return inner_.get(sample_id); });
  }

  Probe probe;

 private:
  sophon::storage::BlobSource& inner_;
};

/// A StorageService that times every fetch of its inner service, keeps each
/// fetch's latency, and unpacks each response once more (timed, result
/// discarded) to measure net::unpack_response and count frame bytes by the
/// payload's representation.
class TimedStorageService final : public sophon::net::StorageService {
 public:
  explicit TimedStorageService(sophon::net::StorageService& inner) : inner_(inner) {}

  [[nodiscard]] sophon::net::FetchResponse fetch(
      const sophon::net::FetchRequest& request) override {
    const auto start = Clock::now();
    auto response = inner_.fetch(request);
    const auto elapsed = Clock::now() - start;
    fetch_probe.add(elapsed);
    const auto unpacked =
        timed(unpack_probe, [&] { return sophon::net::unpack_response(response); });
    const auto bytes = static_cast<std::int64_t>(response.payload.size());
    unpack_bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (unpacked) frame_bytes[unpacked->index()].fetch_add(bytes, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mutex_);
    latencies_ms_.push_back(std::chrono::duration<double, std::milli>(elapsed).count());
    return response;
  }

  [[nodiscard]] std::vector<double> latencies_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return latencies_ms_;
  }

  Probe fetch_probe;
  Probe unpack_probe;
  std::atomic<std::int64_t> unpack_bytes{0};
  /// Indexed like pipeline::SampleData: blob, image, tensor.
  std::array<std::atomic<std::int64_t>, 3> frame_bytes{};

 private:
  sophon::net::StorageService& inner_;
  mutable std::mutex mutex_;
  std::vector<double> latencies_ms_;
};

}  // namespace perfbench
