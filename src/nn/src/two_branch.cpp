#include "le/nn/two_branch.hpp"

#include <algorithm>
#include <stdexcept>

namespace le::nn {

TwoBranchLayer::TwoBranchLayer(Network branch_a, Network branch_b)
    : a_(std::move(branch_a)), b_(std::move(branch_b)) {
  if (a_.layer_count() == 0 || b_.layer_count() == 0) {
    throw std::invalid_argument("TwoBranchLayer: branches must be non-empty");
  }
}

namespace {

/// Splits each row of `m` at column `split` into `left` and `right`.
void split_columns(const tensor::Matrix& m, std::size_t split,
                   tensor::Matrix& left, tensor::Matrix& right) {
  left.resize(m.rows(), split);
  right.resize(m.rows(), m.cols() - split);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    std::copy(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(split),
              left.row(r).begin());
    std::copy(row.begin() + static_cast<std::ptrdiff_t>(split), row.end(),
              right.row(r).begin());
  }
}

/// out = [left | right], row by row.
void concat_columns(const tensor::Matrix& left, const tensor::Matrix& right,
                    tensor::Matrix& out) {
  out.resize(left.rows(), left.cols() + right.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto lrow = left.row(r);
    auto rrow = right.row(r);
    auto orow = out.row(r);
    std::copy(lrow.begin(), lrow.end(), orow.begin());
    std::copy(rrow.begin(), rrow.end(),
              orow.begin() + static_cast<std::ptrdiff_t>(lrow.size()));
  }
}

}  // namespace

const tensor::Matrix& TwoBranchLayer::forward(const tensor::Matrix& input) {
  const std::size_t split = a_.input_dim();
  if (input.cols() != split + b_.input_dim()) {
    throw std::invalid_argument("TwoBranchLayer::forward: input dim mismatch");
  }
  split_columns(input, split, in_a_, in_b_);
  concat_columns(a_.forward(in_a_), b_.forward(in_b_), output_);
  return output_;
}

const tensor::Matrix& TwoBranchLayer::backward(
    const tensor::Matrix& grad_output) {
  const std::size_t a_out = a_.output_dim();
  const std::size_t b_out = b_.output_dim();
  if (grad_output.cols() != a_out + b_out) {
    throw std::invalid_argument("TwoBranchLayer::backward: grad dim mismatch");
  }
  split_columns(grad_output, a_out, grad_a_, grad_b_);
  concat_columns(a_.backward(grad_a_), b_.backward(grad_b_), grad_input_);
  return grad_input_;
}

std::vector<ParamView> TwoBranchLayer::parameters() {
  auto views = a_.parameters();
  auto vb = b_.parameters();
  views.insert(views.end(), vb.begin(), vb.end());
  return views;
}

void TwoBranchLayer::zero_grad() {
  a_.zero_grad();
  b_.zero_grad();
}

void TwoBranchLayer::set_training(bool training) {
  Layer::set_training(training);
  a_.set_training(training);
  b_.set_training(training);
}

std::size_t TwoBranchLayer::input_dim() const {
  return a_.input_dim() + b_.input_dim();
}

std::size_t TwoBranchLayer::output_dim() const {
  return a_.output_dim() + b_.output_dim();
}

std::unique_ptr<Layer> TwoBranchLayer::clone() const {
  return std::make_unique<TwoBranchLayer>(a_.clone(), b_.clone());
}

Network make_two_branch_network(const TwoBranchConfig& config, stats::Rng& rng) {
  stats::Rng rng_a = rng.split(11);
  stats::Rng rng_b = rng.split(22);
  stats::Rng rng_h = rng.split(33);
  Network branch_a = make_mlp(config.branch_a, rng_a);
  Network branch_b = make_mlp(config.branch_b, rng_b);
  const std::size_t merged =
      branch_a.output_dim() + branch_b.output_dim();

  Network model;
  model.add(std::make_unique<TwoBranchLayer>(std::move(branch_a),
                                             std::move(branch_b)));
  MlpConfig head;
  head.input_dim = merged;
  head.hidden = config.head_hidden;
  head.output_dim = config.output_dim;
  head.activation = config.head_activation;
  head.dropout_rate = config.head_dropout;
  Network head_net = make_mlp(head, rng_h);
  for (std::size_t i = 0; i < head_net.layer_count(); ++i) {
    model.add(head_net.layer(i).clone());
  }
  return model;
}

}  // namespace le::nn
