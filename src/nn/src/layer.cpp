#include "le/nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "le/tensor/ops.hpp"

namespace le::nn {

// ---------------------------------------------------------------------------
// DenseLayer

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, stats::Rng& rng)
    : weights_(in_dim, out_dim),
      weight_grads_(in_dim, out_dim),
      bias_(out_dim, 0.0),
      bias_grads_(out_dim, 0.0) {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("DenseLayer: zero dimension");
  }
  // Glorot-uniform: U(-limit, limit), limit = sqrt(6 / (fan_in + fan_out)).
  const double limit =
      std::sqrt(6.0 / static_cast<double>(in_dim + out_dim));
  for (double& w : weights_.flat()) w = rng.uniform(-limit, limit);
}

const tensor::Matrix& DenseLayer::forward(const tensor::Matrix& input) {
  infer(input, output_);
  cached_input_ = input;
  return output_;
}

void DenseLayer::infer(const tensor::Matrix& input, tensor::Matrix& out) {
  if (input.cols() != weights_.rows()) {
    throw std::invalid_argument("DenseLayer::infer: input dim mismatch");
  }
  out.resize(input.rows(), weights_.cols());
  tensor::gemm(input, weights_, out, infer_plan_);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias_[c];
  }
}

const tensor::Matrix& DenseLayer::backward(const tensor::Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != weights_.cols()) {
    throw std::invalid_argument("DenseLayer::backward: grad shape mismatch");
  }
  // dW += X^T * dY ; db += colsum(dY) ; dX = dY * W^T.  Each product runs
  // in whichever orientation gives the GEMM the wider column count, because
  // the AVX2 register tile is 8 columns wide and a 3- or 5-column product
  // would run in its scalar tail: dW directly or as (dY^T * X)^T, dX
  // directly or as (W * dY^T)^T.  Both orientations sum the same products
  // over the same index in the same order, so the scalar kernel rounds
  // identically either way.  This batch's dW is formed apart and then
  // added, so accumulation across backward() calls rounds as it always has.
  const std::size_t batch = grad_output.rows();
  const std::size_t in = weights_.rows(), out = weights_.cols();
  const bool need_grad_t = out < in || in < batch;
  if (need_grad_t) tensor::transpose(grad_output, grad_output_t_);
  if (out < in) {
    batch_weight_grads_.resize(out, in);
    tensor::gemm(grad_output_t_, cached_input_, batch_weight_grads_);
    for (std::size_t i = 0; i < in; ++i) {
      for (std::size_t j = 0; j < out; ++j) {
        weight_grads_(i, j) += batch_weight_grads_(j, i);
      }
    }
  } else {
    tensor::transpose(cached_input_, input_t_);
    batch_weight_grads_.resize(in, out);
    tensor::gemm(input_t_, grad_output, batch_weight_grads_);
    for (std::size_t i = 0; i < batch_weight_grads_.size(); ++i) {
      weight_grads_.data()[i] += batch_weight_grads_.data()[i];
    }
  }
  for (std::size_t r = 0; r < batch; ++r) {
    auto row = grad_output.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) bias_grads_[c] += row[c];
  }
  if (in < batch) {
    grad_input_t_.resize(in, batch);
    tensor::gemm(weights_, grad_output_t_, grad_input_t_);
    tensor::transpose(grad_input_t_, grad_input_);
  } else {
    tensor::transpose(weights_, weights_t_);
    grad_input_.resize(batch, in);
    tensor::gemm(grad_output, weights_t_, grad_input_);
  }
  return grad_input_;
}

std::vector<ParamView> DenseLayer::parameters() {
  return {
      {weights_.flat(), weight_grads_.flat()},
      {std::span<double>{bias_}, std::span<double>{bias_grads_}},
  };
}

void DenseLayer::zero_grad() {
  weight_grads_.fill(0.0);
  bias_grads_.assign(bias_grads_.size(), 0.0);
}

std::unique_ptr<Layer> DenseLayer::clone() const {
  auto copy = std::make_unique<DenseLayer>(*this);
  return copy;
}

// ---------------------------------------------------------------------------
// ActivationLayer

std::string to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kLeakyRelu: return "leaky_relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  return "unknown";
}

Activation activation_from_string(const std::string& s) {
  if (s == "identity") return Activation::kIdentity;
  if (s == "relu") return Activation::kRelu;
  if (s == "leaky_relu") return Activation::kLeakyRelu;
  if (s == "tanh") return Activation::kTanh;
  if (s == "sigmoid") return Activation::kSigmoid;
  throw std::invalid_argument("unknown activation: " + s);
}

double activation_apply(Activation kind, double x) {
  switch (kind) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kLeakyRelu: return x > 0.0 ? x : 0.01 * x;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

namespace {

/// dx = dy * f'(x) with f'(x) expressed through the output y = f(x), so no
/// transcendental is recomputed: for every kind this is the value the
/// input-based derivative takes (y > 0 exactly when x > 0).  One loop per
/// kind keeps the switch out of the element loop.
void activation_backward(Activation kind, const double* y, const double* dy,
                         double* dx, std::size_t n) {
  switch (kind) {
    case Activation::kIdentity:
      std::copy(dy, dy + n, dx);
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        const double slope = y[i] > 0.0 ? 1.0 : 0.0;
        dx[i] = dy[i] * slope;
      }
      return;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) {
        const double slope = y[i] > 0.0 ? 1.0 : 0.01;
        dx[i] = dy[i] * slope;
      }
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0 - y[i] * y[i]);
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) dx[i] = dy[i] * (y[i] * (1.0 - y[i]));
      return;
  }
}

}  // namespace

const tensor::Matrix& ActivationLayer::forward(const tensor::Matrix& input) {
  infer(input, output_);
  return output_;
}

void ActivationLayer::infer(const tensor::Matrix& input, tensor::Matrix& out) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("ActivationLayer::infer: dim mismatch");
  }
  out.resize(input.rows(), input.cols());
  // tanh and relu dominate the serving hot path; route them through the
  // kernel layer (AVX2 when active, scalar std::tanh otherwise).  The other
  // activations stay on the scalar reference.
  const std::span<const double> in_flat{input.data(), input.size()};
  const std::span<double> out_flat{out.data(), out.size()};
  switch (kind_) {
    case Activation::kTanh:
      tensor::vtanh(in_flat, out_flat);
      return;
    case Activation::kRelu:
      tensor::vrelu(in_flat, out_flat);
      return;
    default:
      break;
  }
  for (std::size_t i = 0; i < input.size(); ++i) {
    out.data()[i] = activation_apply(kind_, input.data()[i]);
  }
}

const tensor::Matrix& ActivationLayer::backward(
    const tensor::Matrix& grad_output) {
  if (grad_output.rows() != output_.rows() ||
      grad_output.cols() != output_.cols()) {
    throw std::invalid_argument("ActivationLayer::backward: shape mismatch");
  }
  grad_input_.resize(grad_output.rows(), grad_output.cols());
  activation_backward(kind_, output_.data(), grad_output.data(),
                      grad_input_.data(), grad_output.size());
  return grad_input_;
}

// ---------------------------------------------------------------------------
// DropoutLayer

DropoutLayer::DropoutLayer(double rate, std::size_t dim, stats::Rng rng)
    : rate_(rate), dim_(dim), rng_(rng) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("DropoutLayer: rate must be in [0,1)");
  }
}

const tensor::Matrix& DropoutLayer::forward(const tensor::Matrix& input) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("DropoutLayer::forward: dim mismatch");
  }
  output_.resize(input.rows(), input.cols());
  masked_ = stochastic() && rate_ != 0.0;
  if (!masked_) {
    // Identity pass; backward passes grads through.
    std::copy(input.data(), input.data() + input.size(), output_.data());
    return output_;
  }
  const double keep = 1.0 - rate_;
  mask_.resize(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double m = rng_.bernoulli(keep) ? 1.0 / keep : 0.0;
    mask_.data()[i] = m;
    output_.data()[i] = input.data()[i] * m;
  }
  return output_;
}

void DropoutLayer::infer(const tensor::Matrix& input, tensor::Matrix& out) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("DropoutLayer::infer: dim mismatch");
  }
  out.resize(input.rows(), input.cols());
  if (!stochastic() || rate_ == 0.0) {
    std::copy(input.data(), input.data() + input.size(), out.data());
    return;
  }
  const double keep = 1.0 - rate_;
  for (std::size_t i = 0; i < input.size(); ++i) {
    out.data()[i] = input.data()[i] * (rng_.bernoulli(keep) ? 1.0 / keep : 0.0);
  }
}

const tensor::Matrix& DropoutLayer::backward(
    const tensor::Matrix& grad_output) {
  if (masked_ && (grad_output.rows() != mask_.rows() ||
                  grad_output.cols() != mask_.cols())) {
    throw std::invalid_argument("DropoutLayer::backward: shape mismatch");
  }
  grad_input_.resize(grad_output.rows(), grad_output.cols());
  if (!masked_) {
    std::copy(grad_output.data(), grad_output.data() + grad_output.size(),
              grad_input_.data());
    return grad_input_;
  }
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input_.data()[i] = grad_output.data()[i] * mask_.data()[i];
  }
  return grad_input_;
}

std::unique_ptr<Layer> DropoutLayer::clone() const {
  return std::make_unique<DropoutLayer>(*this);
}

}  // namespace le::nn
