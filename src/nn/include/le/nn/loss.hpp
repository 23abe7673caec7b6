/// @file
/// Regression losses.  The surrogate problems in the paper are regression
/// problems (density values, optimal timesteps, weekly incidence), so the
/// default is mean-squared error; Huber is provided for the noisy
/// surveillance targets in the DEFSI experiment.
#pragma once

#include "le/tensor/matrix.hpp"

namespace le::nn {

/// Value and gradient of a batch loss. grad has the prediction's shape and
/// is already divided by the batch size.
struct LossResult {
  double value = 0.0;
  tensor::Matrix grad;
};

class Loss {
 public:
  virtual ~Loss() = default;
  /// Both matrices are (batch x outputs) and must have identical shape.
  /// Returns the loss value and writes its gradient into `grad`, resized
  /// to the prediction's shape (no allocation once it has held that many
  /// elements; the training loop reuses one buffer across steps).
  virtual double evaluate(const tensor::Matrix& predicted,
                          const tensor::Matrix& target,
                          tensor::Matrix& grad) const = 0;
  /// Allocating convenience over the three-argument form.
  [[nodiscard]] LossResult evaluate(const tensor::Matrix& predicted,
                                    const tensor::Matrix& target) const {
    LossResult res;
    res.value = evaluate(predicted, target, res.grad);
    return res;
  }
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Mean squared error averaged over batch and output dimensions.
class MseLoss final : public Loss {
 public:
  using Loss::evaluate;
  double evaluate(const tensor::Matrix& predicted, const tensor::Matrix& target,
                  tensor::Matrix& grad) const override;
  [[nodiscard]] const char* name() const override { return "mse"; }
};

/// Mean absolute error; gradient is the (sub)gradient sign/n.
class MaeLoss final : public Loss {
 public:
  using Loss::evaluate;
  double evaluate(const tensor::Matrix& predicted, const tensor::Matrix& target,
                  tensor::Matrix& grad) const override;
  [[nodiscard]] const char* name() const override { return "mae"; }
};

/// Huber loss with transition point delta.
class HuberLoss final : public Loss {
 public:
  explicit HuberLoss(double delta = 1.0);
  using Loss::evaluate;
  double evaluate(const tensor::Matrix& predicted, const tensor::Matrix& target,
                  tensor::Matrix& grad) const override;
  [[nodiscard]] const char* name() const override { return "huber"; }
  [[nodiscard]] double delta() const noexcept { return delta_; }

 private:
  double delta_;
};

}  // namespace le::nn
