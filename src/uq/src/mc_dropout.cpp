#include "le/uq/mc_dropout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace le::uq {

namespace {
bool has_active_dropout(nn::Network& net) {
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* d = dynamic_cast<nn::DropoutLayer*>(&net.layer(i))) {
      if (d->rate() > 0.0) return true;
    }
  }
  return false;
}

/// Index of the first DropoutLayer: the layers before it draw no
/// randomness, so their output is the same on every MC pass.
std::size_t first_dropout(nn::Network& net) {
  std::size_t i = 0;
  while (i < net.layer_count() &&
         !dynamic_cast<nn::DropoutLayer*>(&net.layer(i))) {
    ++i;
  }
  return i;
}
}  // namespace

McDropoutEnsemble::McDropoutEnsemble(nn::Network network,
                                     std::size_t forward_passes)
    : network_(std::move(network)), passes_(forward_passes) {
  if (passes_ < 2) {
    throw std::invalid_argument("McDropoutEnsemble: need >= 2 forward passes");
  }
  if (!has_active_dropout(network_)) {
    throw std::invalid_argument(
        "McDropoutEnsemble: network has no active dropout layer; "
        "its MC spread would be identically zero");
  }
  network_.set_training(false);
}

Prediction McDropoutEnsemble::predict(std::span<const double> input) {
  row_.resize(1, input.size());
  std::copy(input.begin(), input.end(), row_.data());
  return std::move(predict_batch(row_).front());
}

std::vector<Prediction> McDropoutEnsemble::predict_batch(
    const tensor::Matrix& inputs) {
  if (inputs.cols() != network_.input_dim()) {
    throw std::invalid_argument(
        "McDropoutEnsemble::predict_batch: input dim mismatch");
  }
  network_.set_training(false);
  network_.set_mc_dropout(true);
  const std::size_t rows = inputs.rows();
  const std::size_t out_dim = network_.output_dim();
  // The deterministic prefix runs once; only the stochastic suffix runs T
  // times.  Each pass sees exactly the activations it would have computed
  // itself, so every mean and spread is bitwise that of T whole passes.
  const std::size_t split = first_dropout(network_);
  const std::size_t depth = network_.layer_count();
  const tensor::Matrix* suffix_in = &inputs;
  if (split > 0) {
    network_.predict_layers(0, split, inputs, prefix_);
    suffix_in = &prefix_;
  }
  tensor::Matrix sum(rows, out_dim), sum_sq(rows, out_dim), y;
  for (std::size_t t = 0; t < passes_; ++t) {
    network_.predict_layers(split, depth, *suffix_in, y);
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double v = y.data()[i];
      sum.data()[i] += v;
      sum_sq.data()[i] += v * v;
    }
  }
  network_.set_mc_dropout(false);

  std::vector<Prediction> out(rows);
  const double n = static_cast<double>(passes_);
  for (std::size_t r = 0; r < rows; ++r) {
    Prediction& p = out[r];
    p.mean.resize(out_dim);
    p.stddev.resize(out_dim);
    for (std::size_t k = 0; k < out_dim; ++k) {
      p.mean[k] = sum(r, k) / n;
      const double var =
          std::max(0.0, (sum_sq(r, k) - n * p.mean[k] * p.mean[k]) / (n - 1.0));
      p.stddev[k] = std::sqrt(var);
    }
  }
  return out;
}

std::size_t McDropoutEnsemble::input_dim() const { return network_.input_dim(); }

std::size_t McDropoutEnsemble::output_dim() const { return network_.output_dim(); }

std::vector<double> McDropoutEnsemble::predict_mean_only(
    std::span<const double> input) {
  network_.set_training(false);
  network_.set_mc_dropout(false);
  return network_.predict(input);
}

}  // namespace le::uq
