// Overloaded campaign: replay a flash-crowd burst schedule against the
// overload-robust serving stack (DESIGN.md section 14) and export the run
// as a Chrome trace showing the degradation ladder engage and release.
//
// The recipe:
//   1. build a SurrogateDispatcher over a deliberately heavy model, with
//      a learned-lookup cache, a cheap "quantized" brownout tier
//      (set_degraded_surrogate), and a DegradationLadder whose thresholds
//      scale from the measured batch time;
//   2. put a deadline-aware serve::BatchQueue in front of it with an
//      AdmissionController (bounded depth + CoDel sojourn controller);
//   3. draw an open-loop schedule from serve::LoadGenerator — Poisson
//      arrivals at 10x capacity with 3x flash-crowd bursts and hot-key
//      skew — and replay it: every request is submitted at its scheduled
//      time with a deadline, no matter how earlier ones fared;
//   4. each batched forward runs under a TraceSpan named after the
//      service level the ladder held ("batch_full", "batch_quantized",
//      ...), so the brownout episodes are visible as colored phases on
//      the timeline;
//   5. write overloaded_campaign_trace.json — open it in ui.perfetto.dev
//      or chrome://tracing to watch the ladder walk down under the bursts
//      and back up between them.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "le/core/surrogate.hpp"
#include "le/obs/timer.hpp"
#include "le/obs/trace_export.hpp"
#include "le/serve/admission.hpp"
#include "le/serve/batch_queue.hpp"
#include "le/serve/degradation.hpp"
#include "le/serve/load_gen.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/serve/overload.hpp"
#include "le/stats/rng.hpp"
#include "le/uq/uq_model.hpp"

using namespace le;
using Clock = std::chrono::steady_clock;

namespace {

/// Spin work standing in for model depth, so one batched forward has a
/// real, tunable cost.
void spin(std::size_t units) {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (std::size_t i = 0; i < units; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sink = sink + x;
  }
}

/// The serving model: an analytic response surface behind `spin_units` of
/// compute per batch.  The brownout tier is the same surface at a quarter
/// of the work — a stand-in for the int8 quantized surrogate.
class BrownoutModel final : public uq::UqModel {
 public:
  explicit BrownoutModel(std::size_t spin_units) : spin_units_(spin_units) {}

  uq::Prediction predict(std::span<const double> input) override {
    spin(spin_units_);
    return {value(input), {0.0, 0.0}};
  }
  std::vector<uq::Prediction> predict_batch(
      const tensor::Matrix& inputs) override {
    spin(spin_units_);
    std::vector<uq::Prediction> preds(inputs.rows());
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      preds[r].mean = value(inputs.row(r));
      preds[r].stddev = {0.0, 0.0};
    }
    return preds;
  }
  std::size_t input_dim() const override { return 2; }
  std::size_t output_dim() const override { return 2; }

 private:
  static std::vector<double> value(std::span<const double> p) {
    return {std::sin(2.0 * p[0]) * std::cos(p[1]) + 0.3 * p[0], p[0] * p[1]};
  }
  std::size_t spin_units_;
};

const char* level_span_name(serve::ServiceLevel level) {
  switch (level) {
    case serve::ServiceLevel::kFull: return "batch_full";
    case serve::ServiceLevel::kQuantized: return "batch_quantized";
    case serve::ServiceLevel::kCacheOnly: return "batch_cache_only";
    case serve::ServiceLevel::kShedAll: return "batch_shed_all";
  }
  return "batch";
}

}  // namespace

int main() {
  obs::set_tracing_enabled(true);
  std::printf("Overloaded campaign: 10x Poisson load with 3x flash-crowd "
              "bursts\n");

  // Calibrate spin units so one full-fidelity batch costs ~6 ms, then
  // derive every control threshold from the measured batch time.
  const auto cal0 = Clock::now();
  spin(1u << 20);
  const double per_unit =
      std::chrono::duration<double>(Clock::now() - cal0).count() /
      static_cast<double>(1u << 20);
  const auto spin_units =
      static_cast<std::size_t>(6e-3 / std::max(per_unit, 1e-12));
  constexpr std::size_t kMaxBatch = 16;

  core::SurrogateDispatcher dispatcher(
      std::make_shared<BrownoutModel>(spin_units),
      [](std::span<const double> p) {
        return std::vector<double>{0.3 * p[0], p[0] * p[1]};
      },
      0.5);
  serve::LookupCacheConfig cache_config;
  cache_config.capacity = 1024;
  cache_config.resolution = 1e-9;
  dispatcher.enable_lookup_cache(cache_config);
  dispatcher.set_degraded_surrogate(
      std::make_shared<BrownoutModel>(spin_units / 4), 0.0);

  double t_batch = 0.0;
  {
    tensor::Matrix probe(kMaxBatch, 2);
    stats::Rng rng(3);
    for (std::size_t r = 0; r < kMaxBatch; ++r) {
      probe(r, 0) = rng.uniform(-1.0, 1.0);
      probe(r, 1) = rng.uniform(-1.0, 1.0);
    }
    const auto t0 = Clock::now();
    (void)dispatcher.query_batch(probe);
    t_batch = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  const double capacity = static_cast<double>(kMaxBatch) / t_batch;
  // Budget sits above the worst queue residence (6 batches of depth plus
  // the in-flight batch, ~7 x t_batch), so admitted requests are served,
  // not expired: this demo sheds at the door and browns out — the
  // deadline-expiry machinery is bench_overload's subject.
  const double budget = 10.0 * t_batch;
  std::printf("one batch-%zu forward: %.1f ms -> capacity %.0f q/s, "
              "deadline budget %.0f ms\n",
              kMaxBatch, t_batch * 1e3, capacity, budget * 1e3);

  auto ladder = std::make_shared<serve::DegradationLadder>([&] {
    serve::DegradationConfig dc;
    dc.window = 128;
    dc.quantile = 0.95;
    dc.engage = {3.5 * t_batch, 5.5 * t_batch, 9.0 * t_batch};
    dc.release_fraction = 0.5;
    dc.release_windows = 2;
    return dc;
  }());
  dispatcher.attach_degradation(ladder);

  auto admission = std::make_shared<serve::AdmissionController>([&] {
    serve::AdmissionConfig ac;
    // Six batches of depth: a full queue stands ~6 x t_batch of wait, past
    // the ladder's 3.5x / 5.5x engage rungs — deep enough to brown out
    // instead of shedding everything at the door (contrast bench_overload,
    // which bounds depth at 2 batches to cap p99).
    ac.max_queue_depth = 6 * kMaxBatch;
    ac.target_sojourn = std::chrono::microseconds(
        static_cast<long long>(3.5 * t_batch * 1e6));
    ac.interval = std::chrono::microseconds(
        static_cast<long long>(10.0 * t_batch * 1e6));
    return ac;
  }());

  serve::BatchQueueConfig qc;
  qc.max_batch = kMaxBatch;
  qc.input_dim = 2;
  serve::BatchQueue queue(
      [&dispatcher, &ladder](const tensor::Matrix& inputs,
                             std::span<const serve::Deadline> deadlines,
                             std::span<serve::ShedReason> shed) {
        obs::TraceSpan span(level_span_name(ladder->level()));
        const auto answers = dispatcher.query_batch(inputs, deadlines);
        tensor::Matrix out(inputs.rows(), 2);
        for (std::size_t r = 0; r < inputs.rows(); ++r) {
          if (answers[r].source == core::AnswerSource::kShed) {
            shed[r] = answers[r].shed_reason;
            continue;
          }
          out(r, 0) = answers[r].values[0];
          out(r, 1) = answers[r].values[1];
        }
        return out;
      },
      qc);
  queue.set_admission(admission);
  queue.set_degradation(ladder);

  // The open-loop schedule: 10x capacity, bursts to 30x, 85% of traffic
  // on 16 hot state points (what makes the cache tier earn its keep).
  serve::LoadGenConfig lg;
  lg.rate_qps = 10.0 * capacity;
  lg.duration_seconds = 1.2;
  lg.burst_factor = 3.0;
  lg.burst_period = 0.4;
  lg.burst_length = 0.12;
  lg.key_pool = 512;
  lg.hot_keys = 16;
  lg.hot_fraction = 0.85;
  lg.seed = 7;
  const auto schedule = serve::LoadGenerator(lg).schedule();

  stats::Rng key_rng(5);
  tensor::Matrix keys(lg.key_pool, 2);
  for (std::size_t r = 0; r < lg.key_pool; ++r) {
    keys(r, 0) = key_rng.uniform(-1.0, 1.0);
    keys(r, 1) = key_rng.uniform(-1.0, 1.0);
  }

  std::printf("replaying %zu arrivals over %.1f s...\n", schedule.size(),
              lg.duration_seconds);
  std::size_t door_shed = 0, served = 0, shed = 0;
  std::vector<std::future<std::vector<double>>> futures;
  futures.reserve(schedule.size());
  // Deadlines anchor to the *scheduled* arrival via serve::ReplayClock, so
  // a replay that falls behind spends budget instead of minting more.
  const serve::ReplayClock replay_clock(Clock::now() +
                                        std::chrono::milliseconds(5));
  {
    obs::TraceSpan span("replay");
    for (const auto& arrival : schedule) {
      const auto target = replay_clock.submit_time(arrival);
      while (Clock::now() < target) std::this_thread::yield();
      const auto deadline = replay_clock.deadline(arrival, budget);
      try {
        futures.push_back(queue.submit(keys.row(arrival.key), deadline));
      } catch (const serve::ShedError&) {
        ++door_shed;
      }
    }
    for (auto& fut : futures) {
      try {
        (void)fut.get();
        ++served;
      } catch (const serve::ShedError&) {
        ++shed;
      }
    }
  }
  queue.stop();

  const auto lstats = ladder->stats();
  const auto astats = admission->stats();
  const auto dstats = dispatcher.stats();
  std::printf("\noffered %zu: served %zu, shed %zu at the door + %zu "
              "resolved\n",
              schedule.size(), served, door_shed, shed);
  std::printf("admission: %llu depth-shed, %llu sojourn-shed, %llu probes\n",
              static_cast<unsigned long long>(astats.shed_queue_full),
              static_cast<unsigned long long>(astats.shed_overload),
              static_cast<unsigned long long>(astats.probes));
  std::printf("ladder: %llu engages, %llu releases, final level %s\n",
              static_cast<unsigned long long>(lstats.engages),
              static_cast<unsigned long long>(lstats.releases),
              serve::service_level_name(lstats.level));
  std::printf("dispatcher: %zu answers (%zu degraded, %zu cache hits), "
              "%zu shed — every refusal typed, none billed in S_eff\n",
              dstats.surrogate_answers, dstats.degraded_answers,
              dstats.cache_hits, dstats.shed_total());

  const char* trace_path = "overloaded_campaign_trace.json";
  if (obs::write_chrome_trace(trace_path)) {
    std::printf("\nwrote %s — open it in ui.perfetto.dev to see the "
                "brownout episodes\n(batch_quantized / batch_cache_only "
                "spans) inside the burst windows.\n",
                trace_path);
  } else {
    std::printf("failed to write %s\n", trace_path);
    return 1;
  }
  return 0;
}
