#include "le/nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace le::nn {

namespace {

void ensure_state(std::vector<std::vector<double>>& state,
                  const std::vector<ParamView>& params) {
  if (state.empty()) {
    state.reserve(params.size());
    for (const auto& p : params) state.emplace_back(p.values.size(), 0.0);
    return;
  }
  if (state.size() != params.size()) {
    throw std::invalid_argument("optimizer: parameter list changed between steps");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (state[i].size() != params[i].values.size()) {
      throw std::invalid_argument("optimizer: parameter shape changed between steps");
    }
  }
}

}  // namespace

SgdOptimizer::SgdOptimizer(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("SgdOptimizer: lr must be > 0");
  if (momentum < 0.0 || momentum >= 1.0) {
    throw std::invalid_argument("SgdOptimizer: momentum must be in [0,1)");
  }
  if (weight_decay < 0.0) {
    throw std::invalid_argument("SgdOptimizer: weight_decay must be >= 0");
  }
}

void SgdOptimizer::step(const std::vector<ParamView>& params) {
  ensure_state(velocity_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& vel = velocity_[i];
    const auto& p = params[i];
    for (std::size_t j = 0; j < p.values.size(); ++j) {
      vel[j] = momentum_ * vel[j] - lr_ * p.grads[j];
      p.values[j] += vel[j];
      if (weight_decay_ > 0.0) p.values[j] *= 1.0 - lr_ * weight_decay_;
    }
  }
}

AdamOptimizer::AdamOptimizer(double lr, double beta1, double beta2, double eps,
                             double weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("AdamOptimizer: lr must be > 0");
  if (weight_decay < 0.0) {
    throw std::invalid_argument("AdamOptimizer: weight_decay must be >= 0");
  }
}

void AdamOptimizer::step(const std::vector<ParamView>& params) {
  ensure_state(m_, params);
  ensure_state(v_, params);
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // Without weight decay the factor is exactly 1.0, and x * 1.0 == x, so
  // applying it unconditionally keeps the loop branch-free (vectorizable;
  // this file is built with -fno-math-errno so std::sqrt is too) without
  // changing a single rounding.
  const double decay = weight_decay_ > 0.0 ? 1.0 - lr_ * weight_decay_ : 1.0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto& p = params[i];
    double* m = m_[i].data();
    double* v = v_[i].data();
    for (std::size_t j = 0; j < p.values.size(); ++j) {
      const double g = p.grads[j];
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g * g;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      p.values[j] = (p.values[j] - lr_ * mhat / (std::sqrt(vhat) + eps_)) * decay;
    }
  }
}

}  // namespace le::nn
