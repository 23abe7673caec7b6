#include "le/nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace le::nn {

namespace {
void check_shapes(const tensor::Matrix& p, const tensor::Matrix& t) {
  if (p.rows() != t.rows() || p.cols() != t.cols()) {
    throw std::invalid_argument("loss: prediction/target shape mismatch");
  }
  if (p.empty()) throw std::invalid_argument("loss: empty batch");
}
}  // namespace

double MseLoss::evaluate(const tensor::Matrix& predicted,
                         const tensor::Matrix& target,
                         tensor::Matrix& grad) const {
  check_shapes(predicted, target);
  const double n = static_cast<double>(predicted.size());
  grad.resize(predicted.rows(), predicted.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double d = predicted.data()[i] - target.data()[i];
    acc += d * d;
    grad.data()[i] = 2.0 * d / n;
  }
  return acc / n;
}

double MaeLoss::evaluate(const tensor::Matrix& predicted,
                         const tensor::Matrix& target,
                         tensor::Matrix& grad) const {
  check_shapes(predicted, target);
  const double n = static_cast<double>(predicted.size());
  grad.resize(predicted.rows(), predicted.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double d = predicted.data()[i] - target.data()[i];
    acc += std::abs(d);
    grad.data()[i] = (d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0)) / n;
  }
  return acc / n;
}

HuberLoss::HuberLoss(double delta) : delta_(delta) {
  if (delta <= 0.0) throw std::invalid_argument("HuberLoss: delta must be > 0");
}

double HuberLoss::evaluate(const tensor::Matrix& predicted,
                           const tensor::Matrix& target,
                           tensor::Matrix& grad) const {
  check_shapes(predicted, target);
  const double n = static_cast<double>(predicted.size());
  grad.resize(predicted.rows(), predicted.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double d = predicted.data()[i] - target.data()[i];
    if (std::abs(d) <= delta_) {
      acc += 0.5 * d * d;
      grad.data()[i] = d / n;
    } else {
      acc += delta_ * (std::abs(d) - 0.5 * delta_);
      grad.data()[i] = delta_ * (d > 0.0 ? 1.0 : -1.0) / n;
    }
  }
  return acc / n;
}

}  // namespace le::nn
