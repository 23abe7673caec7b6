/// @file
/// Two-branch composite layer, the architecture of DEFSI (Section II-A).
///
/// DEFSI feeds two signal groups through separate sub-networks whose
/// embeddings are concatenated before a shared head.  Here the branches are
/// themselves Networks and the composite is itself a Layer, so a full DEFSI
/// model is an ordinary Network:
///
///   Network model;
///   model.add(make_two_branch(branch_a, branch_b, split));
///   model.add(... head layers ...);
///
/// and trains with the ordinary fit() loop.
#pragma once

#include <memory>

#include "le/nn/network.hpp"

namespace le::nn {

/// Splits each input row at `split_index`: columns [0, split) feed branch A,
/// the rest feed branch B; the output row is concat(A(x_a), B(x_b)).
class TwoBranchLayer final : public Layer {
 public:
  /// Both branches must be non-empty networks; split_index must equal
  /// branch_a.input_dim().
  TwoBranchLayer(Network branch_a, Network branch_b);

  const tensor::Matrix& forward(const tensor::Matrix& input) override;
  const tensor::Matrix& backward(const tensor::Matrix& grad_output) override;
  std::vector<ParamView> parameters() override;
  void zero_grad() override;
  void set_training(bool training) override;

  [[nodiscard]] std::size_t input_dim() const override;
  [[nodiscard]] std::size_t output_dim() const override;
  [[nodiscard]] std::string name() const override { return "two_branch"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] Network& branch_a() noexcept { return a_; }
  [[nodiscard]] Network& branch_b() noexcept { return b_; }

 private:
  Network a_;
  Network b_;
  // Column-split inputs/gradients per branch and the concatenated results,
  // reused across steps.
  tensor::Matrix in_a_, in_b_, output_;
  tensor::Matrix grad_a_, grad_b_, grad_input_;
};

/// Configuration for the standard DEFSI-style model: two MLP branches plus
/// an MLP head over the concatenated embeddings.
struct TwoBranchConfig {
  MlpConfig branch_a;
  MlpConfig branch_b;
  std::vector<std::size_t> head_hidden = {32};
  std::size_t output_dim = 1;
  Activation head_activation = Activation::kRelu;
  double head_dropout = 0.0;
};

/// Builds the full two-branch network (branches + head) as one Network.
[[nodiscard]] Network make_two_branch_network(const TwoBranchConfig& config,
                                              stats::Rng& rng);

}  // namespace le::nn
