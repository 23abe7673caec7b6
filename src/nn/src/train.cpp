#include "le/nn/train.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "le/obs/metrics.hpp"
#include "le/obs/timer.hpp"

namespace le::nn {

namespace {

/// Gathers the rows `idx` of the dataset's inputs (or targets) into `m`,
/// which the training loop reuses across steps.
void gather_rows(const data::Dataset& ds, std::span<const std::size_t> idx,
                 bool inputs, tensor::Matrix& m) {
  const std::size_t dim = inputs ? ds.input_dim() : ds.target_dim();
  m.resize(idx.size(), dim);
  for (std::size_t r = 0; r < idx.size(); ++r) {
    auto row = inputs ? ds.input(idx[r]) : ds.target(idx[r]);
    std::copy(row.begin(), row.end(), m.row(r).begin());
  }
}

void clip_gradients(const std::vector<ParamView>& params, double clip) {
  for (const auto& p : params) {
    for (double& g : p.grads) g = std::clamp(g, -clip, clip);
  }
}

}  // namespace

TrainResult fit(Network& net, const data::Dataset& train_data,
                const Loss& loss, Optimizer& optimizer,
                const TrainConfig& config, stats::Rng& rng) {
  if (train_data.empty()) throw std::invalid_argument("fit: empty dataset");
  if (config.batch_size == 0) throw std::invalid_argument("fit: batch_size == 0");

  // Optional validation holdout; without one, train on the caller's data
  // in place.
  const data::Dataset* train = &train_data;
  data::Dataset train_split;
  data::Dataset val;
  const bool has_val = config.validation_fraction > 0.0;
  if (has_val) {
    auto [tr, va] = train_data.split(1.0 - config.validation_fraction, rng);
    train_split = std::move(tr);
    val = std::move(va);
    if (train_split.empty() || val.empty()) {
      throw std::invalid_argument("fit: validation split produced empty set");
    }
    train = &train_split;
  }

  TrainResult result;
  result.history.reserve(config.epochs);
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<double> best_weights;
  std::size_t epochs_without_improvement = 0;

  std::vector<std::size_t> order(train->size());
  std::iota(order.begin(), order.end(), 0);

  // Per-step buffers and parameter views, reused for the whole fit: after
  // the first step has sized them, a step allocates nothing.
  tensor::Matrix x;
  tensor::Matrix y;
  tensor::Matrix grad;
  const std::vector<ParamView> params = net.parameters();

  // Per-epoch wall time feeds the observability layer (T_learn in the
  // Section III-D model); both handles stay null when metrics are off.
  obs::Histogram* epoch_seconds = nullptr;
  obs::Counter* epochs_counter = nullptr;
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    epoch_seconds = &registry.histogram("nn.fit.epoch_seconds");
    epochs_counter = &registry.counter("nn.fit.epochs");
  }

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(epoch_seconds);
    if (epochs_counter) epochs_counter->add();
    net.set_training(true);
    rng.shuffle(std::span<std::size_t>{order});

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t count = std::min(config.batch_size, order.size() - start);
      const std::span<const std::size_t> idx{order.data() + start, count};
      gather_rows(*train, idx, /*inputs=*/true, x);
      gather_rows(*train, idx, /*inputs=*/false, y);

      net.zero_grad();
      const double value = loss.evaluate(net.forward(x), y, grad);
      net.backward(grad);
      if (config.gradient_clip > 0.0) clip_gradients(params, config.gradient_clip);
      optimizer.step(params);
      ++result.steps;
      epoch_loss += value;
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(batches, 1));

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = epoch_loss;
    result.final_train_loss = epoch_loss;

    if (has_val) {
      const double vloss = evaluate(net, val, loss);
      stats.validation_loss = vloss;
      if (vloss < best_val) {
        best_val = vloss;
        best_weights = net.get_weights();
        epochs_without_improvement = 0;
      } else {
        ++epochs_without_improvement;
      }
      if (config.early_stopping_patience > 0 &&
          epochs_without_improvement >= config.early_stopping_patience) {
        result.history.push_back(stats);
        result.stopped_early = true;
        break;
      }
    }
    result.history.push_back(stats);

    if (config.lr_decay != 1.0) {
      optimizer.set_learning_rate(optimizer.learning_rate() * config.lr_decay);
    }
  }

  if (has_val && !best_weights.empty()) {
    net.set_weights(best_weights);
    result.best_validation_loss = best_val;
  }
  net.set_training(false);
  return result;
}

double evaluate(Network& net, const data::Dataset& dataset, const Loss& loss) {
  if (dataset.empty()) throw std::invalid_argument("evaluate: empty dataset");
  net.set_training(false);
  tensor::Matrix pred = predict_all(net, dataset);
  return loss.evaluate(pred, dataset.target_matrix()).value;
}

tensor::Matrix predict_all(Network& net, const data::Dataset& dataset) {
  net.set_training(false);
  return net.forward(dataset.input_matrix());
}

}  // namespace le::nn
