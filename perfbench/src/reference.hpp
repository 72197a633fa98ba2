// Plain-loop float forward written from a snapshot's tensors, apart from
// the program's kernels: direct 3x3 convolution, eval batch norm, ReLU,
// the option-A shortcut, explicit Euler steps, average pool and the
// linear head. It shares no code with src/ beyond reading the snapshot,
// so the served logits are checked against an independent computation.
#pragma once

#include <vector>

#include "core/tensor.hpp"
#include "models/snapshot.hpp"

namespace perfbench {

class ReferenceNet {
 public:
  explicit ReferenceNet(const odenet::models::ModelSnapshot& snapshot);

  /// Logits [classes] of one [3,32,32] image. With per_image_ode_bn the
  /// ODE stage's batch norms normalise with the image's own per-channel
  /// statistics, the arithmetic the simulated PL implements.
  std::vector<double> forward(const float* image,
                              bool per_image_ode_bn = false) const;

  /// Logits of the first `count` images of a [N,3,32,32] pool, computed
  /// on up to four threads.
  std::vector<std::vector<double>> forward_first(
      const odenet::core::Tensor& pool, int count,
      bool per_image_ode_bn = false) const;

  int classes() const { return classes_; }

 private:
  struct Bn {
    std::vector<float> gamma, beta, mean, var;
  };
  struct Block {
    int in_ch = 0, out_ch = 0, stride = 1;
    bool time_channel = false;
    std::vector<float> w1, w2;  // [out][in(+1)][3][3]
    Bn bn1, bn2;
  };
  struct StageRef {
    std::vector<Block> blocks;
    int executions = 1;  // > 1: one weight-shared block, Euler-integrated
  };
  using Fmap = std::vector<double>;  // [C][S][S]

  static Fmap conv3x3(const Fmap& x, int in_ch, int size,
                      const std::vector<float>& w, int w_in_ch, int out_ch,
                      int stride, double t);
  static void batch_norm(Fmap& x, int ch, int size, const Bn& bn,
                         bool per_image);
  static void relu(Fmap& x);
  Fmap block_branch(const Fmap& x, int size, const Block& b, double t,
                    bool per_image_bn) const;

  int in_ch_ = 3, in_size_ = 32, classes_ = 100;
  std::vector<float> stem_w_;
  Bn stem_bn_;
  int stem_out_ = 16;
  std::vector<StageRef> stages_;
  std::vector<float> fc_w_, fc_b_;
  int fc_in_ = 64;
};

}  // namespace perfbench
