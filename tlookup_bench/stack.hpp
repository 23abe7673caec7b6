// The serving stack under measurement, built the way OPERATIONS.md deploys
// it: the paper's 5-32-32-3 tanh MLP with dropout 0.1, served as an
// MC-dropout ensemble (T = 32) behind a SurrogateDispatcher with lookup
// cache, circuit breaker, UQ gate and MD fallback.  Also the two
// injection points the ledger times: a UqModel decorator and the
// SimulationFn, plus the ShardBackend each shard worker runs.
#pragma once

#include <atomic>
#include <bit>
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "le/core/resilient.hpp"
#include "le/core/surrogate.hpp"
#include "le/md/nanoconfinement.hpp"
#include "le/net/sharded_service.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/nn/train.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/uq/acquisition.hpp"
#include "le/uq/mc_dropout.hpp"

namespace ledger {

inline constexpr std::size_t kPasses = 32;       // MC-dropout T
inline constexpr double kGateThreshold = 0.17;   // max accepted MC spread
inline constexpr std::size_t kMaxBatch = 64;

/// The set-up MD corpus and the surrogate trained on it.
struct Trained {
  data::Dataset corpus{5, 3};
  std::vector<double> md_seconds;  ///< wall time of each corpus MD run
  double learn_seconds = 0.0;      ///< surrogate training wall time
  nn::Network net;
};

/// Runs the 8-point corpus (h x c x z_p corners, d = 0.5) and trains the
/// surrogate on it, as bench_serving does.  Deterministic: fixed MD and
/// init seeds, so every set-up serves the same model.
inline Trained train_surrogate() {
  Trained t;
  std::uint64_t seed = 1;
  for (double h : {2.4, 3.2}) {
    for (double c : {0.2, 0.5}) {
      for (double zp : {1.0, 2.0}) {
        const std::vector<double> x{h, zp, -1.0, c, 0.5};
        const md::NanoconfinementResult r =
            md::run_nanoconfinement(md_params(x, seed++));
        t.corpus.add(x, r.targets());
        t.md_seconds.push_back(r.wall_seconds);
      }
    }
  }
  stats::Rng rng(7);
  nn::MlpConfig mlp;
  mlp.input_dim = 5;
  mlp.hidden = {32, 32};
  mlp.output_dim = 3;
  mlp.activation = nn::Activation::kTanh;
  mlp.dropout_rate = 0.1;
  t.net = nn::make_mlp(mlp, rng);
  nn::AdamOptimizer opt(1e-2);
  const nn::MseLoss loss;
  nn::TrainConfig tc;
  tc.epochs = 120;
  tc.batch_size = 4;
  const double t0 = now_s();
  nn::fit(t.net, t.corpus, loss, opt, tc, rng);
  t.learn_seconds = now_s() - t0;
  t.net.set_training(false);
  return t;
}

/// Benchmark-owned UqModel decorator: forwards to the MC ensemble and,
/// when timing is on, records each call's wall time, rows and spread.
/// `inject` > 0 busy-waits that share of every call's measured time on top
/// (the layer-sensitivity self-test; never set in measured runs).
/// Single-threaded like the ensemble it wraps.
class TimedUq final : public uq::UqModel {
 public:
  TimedUq(std::shared_ptr<uq::McDropoutEnsemble> inner, bool timing,
          double inject)
      : inner_(std::move(inner)), timing_(timing || inject > 0.0),
        inject_(inject) {}

  uq::Prediction predict(std::span<const double> input) override {
    const double t0 = timing_ ? now_s() : 0.0;
    uq::Prediction p = inner_->predict(input);
    if (timing_) finish(t0, 1, uq::uncertainty_score(p));
    return p;
  }

  std::vector<uq::Prediction> predict_batch(
      const tensor::Matrix& inputs) override {
    const double t0 = timing_ ? now_s() : 0.0;
    std::vector<uq::Prediction> preds = inner_->predict_batch(inputs);
    if (timing_) {
      double spread = 0.0;
      for (const uq::Prediction& p : preds) spread += uq::uncertainty_score(p);
      finish(t0, preds.size(), spread);
    }
    return preds;
  }

  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t output_dim() const override { return inner_->output_dim(); }
  std::vector<nn::LayerPlanChoice> autotune_inference(
      std::size_t batch_hint) override {
    return inner_->autotune_inference(batch_hint);
  }

  uq::McDropoutEnsemble& inner() { return *inner_; }

  /// Switches call timing on or off between phases (never mid-call).
  void set_timing(bool on) { timing_ = on || inject_ > 0.0; }

  // Last call and running totals (read by the caller on the same thread).
  std::uint64_t calls = 0;
  std::uint64_t rows = 0;
  double last_t0 = 0.0, last_t1 = 0.0;
  double busy_seconds = 0.0;
  double spread_sum = 0.0;

 private:
  void finish(double t0, std::size_t n, double spread) {
    double t1 = now_s();
    if (inject_ > 0.0) {
      const double until = t1 + inject_ * (t1 - t0);
      while (now_s() < until) {
      }
      t1 = now_s();
    }
    ++calls;
    rows += n;
    last_t0 = t0;
    last_t1 = t1;
    busy_seconds += t1 - t0;
    spread_sum += spread;
  }

  std::shared_ptr<uq::McDropoutEnsemble> inner_;
  bool timing_;
  double inject_;
};

/// The MD fallback as the dispatcher's SimulationFn, timed the same way.
struct TimedSimulation {
  std::uint64_t calls = 0;
  double busy_seconds = 0.0;
  double last_seconds = 0.0;

  core::SimulationFn fn() {
    return [this](std::span<const double> x) {
      const std::vector<double> in(x.begin(), x.end());
      std::uint64_t seed = 0x5eed;
      for (double v : in) seed = mix(seed ^ std::bit_cast<std::uint64_t>(v));
      const double t0 = now_s();
      const md::NanoconfinementResult r =
          md::run_nanoconfinement(md_params(in, seed));
      last_seconds = now_s() - t0;
      busy_seconds += last_seconds;
      ++calls;
      return r.targets();
    };
  }
};

/// One dispatcher over its own MC ensemble, configured as deployed:
/// gate threshold, lookup cache, circuit breaker, le::obs metrics on,
/// kernels autotuned for batch-64 forwards.
struct Served {
  std::shared_ptr<TimedUq> model;
  TimedSimulation sim;
  std::unique_ptr<core::SurrogateDispatcher> dispatcher;
  std::vector<nn::LayerPlanChoice> plans;
};

inline std::unique_ptr<Served> make_served(const nn::Network& net,
                                           double inject) {
  auto s = std::make_unique<Served>();
  auto ens = std::make_shared<uq::McDropoutEnsemble>(net.clone(), kPasses);
  s->model = std::make_shared<TimedUq>(ens, false, inject);
  s->dispatcher = std::make_unique<core::SurrogateDispatcher>(
      s->model, s->sim.fn(), kGateThreshold);
  serve::LookupCacheConfig cache;
  cache.capacity = 4096;
  s->dispatcher->enable_lookup_cache(cache);
  s->dispatcher->enable_circuit_breaker(core::CircuitBreakerConfig{});
  s->dispatcher->enable_metrics(obs::MetricsRegistry::global());
  s->plans = s->dispatcher->autotune_serving(kMaxBatch);
  return s;
}

/// The ShardBackend each shard worker runs: a dispatcher over its own MC
/// ensemble.  Every row of a batch reports the whole backend call as its
/// worker-side time — a row's answer is ready only when its batch is.
class DispatcherBackend final : public net::ShardBackend {
 public:
  explicit DispatcherBackend(const nn::Network& net)
      : served_(make_served(net, 0.0)) {
    served_->dispatcher->set_speedup_meter(&meter_);
  }

  std::vector<net::NetAnswer> query_batch(
      const tensor::Matrix& inputs,
      std::span<const serve::Deadline> deadlines) override {
    const double t0 = now_s();
    const std::vector<core::Answer> answers =
        served_->dispatcher->query_batch(inputs, deadlines);
    const double seconds = now_s() - t0;
    std::vector<net::NetAnswer> out(answers.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const core::Answer& a = answers[i];
      out[i].values = a.values;
      out[i].uncertainty = a.uncertainty;
      out[i].seconds = seconds;
      out[i].source = a.source == core::AnswerSource::kSurrogate
                          ? net::NetAnswerSource::kSurrogate
                      : a.source == core::AnswerSource::kSimulation
                          ? net::NetAnswerSource::kSimulation
                          : net::NetAnswerSource::kShed;
      out[i].shed_reason = a.shed_reason;
    }
    return out;
  }

  obs::EffectiveSpeedupMeter& meter() override { return meter_; }
  std::vector<double> export_params() override {
    return served_->model->inner().network().get_weights();
  }
  void import_params(std::span<const double> params) override {
    served_->model->inner().network().set_weights(params);
  }

 private:
  std::unique_ptr<Served> served_;
  obs::EffectiveSpeedupMeter meter_;
};

}  // namespace ledger
