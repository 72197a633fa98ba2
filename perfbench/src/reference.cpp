#include "reference.hpp"

#include <cmath>
#include <thread>

#include "util/check.hpp"

namespace perfbench {

namespace models = odenet::models;

namespace {

/// BatchNorm2d's default epsilon (the snapshot carries no eps).
constexpr double kBnEps = 1e-5;

/// Reads the snapshot's parameter and batch-norm records in their fixed
/// walk order, checking each name as it goes.
class Cursor {
 public:
  explicit Cursor(const models::ModelSnapshot& s) : s_(s) {}
  const std::vector<float>& param(const std::string& name) {
    ODENET_CHECK(p_ < s_.params().size(), "snapshot ended before " << name);
    const auto& rec = s_.params()[p_++];
    ODENET_CHECK(rec.name == name,
                 "snapshot order: expected " << name << ", found " << rec.name);
    return rec.values;
  }
  const models::ModelSnapshot::BnRecord& bn() {
    ODENET_CHECK(b_ < s_.bn_stats().size(), "snapshot ended before a BN");
    return s_.bn_stats()[b_++];
  }
  bool done() const {
    return p_ == s_.params().size() && b_ == s_.bn_stats().size();
  }

 private:
  const models::ModelSnapshot& s_;
  std::size_t p_ = 0, b_ = 0;
};

}  // namespace

ReferenceNet::ReferenceNet(const models::ModelSnapshot& snapshot) {
  const models::NetworkSpec& spec = snapshot.spec();
  in_ch_ = spec.width.input_channels;
  in_size_ = spec.width.input_size;
  classes_ = spec.width.num_classes;
  stem_out_ = spec.width.base_channels;
  fc_in_ = 4 * spec.width.base_channels;
  Cursor cur(snapshot);
  auto read_bn = [&](const std::string& prefix, Bn& bn) {
    bn.gamma = cur.param(prefix + ".gamma");
    bn.beta = cur.param(prefix + ".beta");
    const auto& stats = cur.bn();
    bn.mean = stats.mean;
    bn.var = stats.var;
  };
  stem_w_ = cur.param("conv1.weight");
  read_bn("conv1.bn", stem_bn_);
  for (const models::StageSpec& st : spec.stages) {
    if (st.stacked_blocks == 0) continue;
    StageRef stage;
    stage.executions = st.executions;
    const std::string name = models::stage_name(st.id);
    for (int i = 0; i < st.stacked_blocks; ++i) {
      Block b;
      b.in_ch = i == 0 ? st.in_channels : st.out_channels;
      b.out_ch = st.out_channels;
      b.stride = i == 0 ? st.stride : 1;
      b.time_channel = st.is_ode();
      const std::string prefix =
          name + (st.is_ode() ? ".block" : "." + std::to_string(i));
      b.w1 = cur.param(prefix + ".conv1.weight");
      read_bn(prefix + ".bn1", b.bn1);
      b.w2 = cur.param(prefix + ".conv2.weight");
      read_bn(prefix + ".bn2", b.bn2);
      const std::size_t extra = b.time_channel ? 1 : 0;
      ODENET_CHECK(b.w1.size() == b.out_ch * (b.in_ch + extra) * 9 &&
                       b.w2.size() == b.out_ch * (b.out_ch + extra) * 9,
                   prefix << ": unexpected weight shapes");
      stage.blocks.push_back(std::move(b));
    }
    stages_.push_back(std::move(stage));
  }
  fc_w_ = cur.param("fc.weight");
  fc_b_ = cur.param("fc.bias");
  ODENET_CHECK(cur.done(), "snapshot holds tensors the reference ignores");
}

ReferenceNet::Fmap ReferenceNet::conv3x3(const Fmap& x, int in_ch, int size,
                                         const std::vector<float>& w,
                                         int w_in_ch, int out_ch, int stride,
                                         double t) {
  // w_in_ch may exceed in_ch by one: the time plane, constant t inside
  // the image and zero in the padding like every other input plane.
  const int out_size = (size + 2 - 3) / stride + 1;
  Fmap y(static_cast<std::size_t>(out_ch) * out_size * out_size, 0.0);
  for (int co = 0; co < out_ch; ++co) {
    for (int oh = 0; oh < out_size; ++oh) {
      for (int ow = 0; ow < out_size; ++ow) {
        double acc = 0.0;
        for (int ci = 0; ci < w_in_ch; ++ci) {
          for (int kh = 0; kh < 3; ++kh) {
            const int ih = oh * stride - 1 + kh;
            if (ih < 0 || ih >= size) continue;
            for (int kw = 0; kw < 3; ++kw) {
              const int iw = ow * stride - 1 + kw;
              if (iw < 0 || iw >= size) continue;
              const double v =
                  ci < in_ch
                      ? x[(static_cast<std::size_t>(ci) * size + ih) * size + iw]
                      : t;
              acc += v * w[((static_cast<std::size_t>(co) * w_in_ch + ci) * 3 +
                            kh) * 3 + kw];
            }
          }
        }
        y[(static_cast<std::size_t>(co) * out_size + oh) * out_size + ow] = acc;
      }
    }
  }
  return y;
}

void ReferenceNet::batch_norm(Fmap& x, int ch, int size, const Bn& bn,
                              bool per_image) {
  const std::size_t plane = static_cast<std::size_t>(size) * size;
  for (int c = 0; c < ch; ++c) {
    double* p = x.data() + static_cast<std::size_t>(c) * plane;
    double mean = bn.mean[c], var = bn.var[c];
    if (per_image) {
      double s = 0.0, sq = 0.0;
      for (std::size_t i = 0; i < plane; ++i) {
        s += p[i];
        sq += p[i] * p[i];
      }
      mean = s / static_cast<double>(plane);
      var = sq / static_cast<double>(plane) - mean * mean;
    }
    const double inv = 1.0 / std::sqrt(var + kBnEps);
    for (std::size_t i = 0; i < plane; ++i) {
      p[i] = (p[i] - mean) * inv * bn.gamma[c] + bn.beta[c];
    }
  }
}

void ReferenceNet::relu(Fmap& x) {
  for (double& v : x) v = v > 0.0 ? v : 0.0;
}

ReferenceNet::Fmap ReferenceNet::block_branch(const Fmap& x, int size,
                                              const Block& b, double t,
                                              bool per_image_bn) const {
  const int extra = b.time_channel ? 1 : 0;
  Fmap h = conv3x3(x, b.in_ch, size, b.w1, b.in_ch + extra, b.out_ch,
                   b.stride, t);
  const int out_size = (size + 2 - 3) / b.stride + 1;
  batch_norm(h, b.out_ch, out_size, b.bn1, per_image_bn);
  relu(h);
  Fmap y = conv3x3(h, b.out_ch, out_size, b.w2, b.out_ch + extra,
                   b.out_ch, 1, t);
  batch_norm(y, b.out_ch, out_size, b.bn2, per_image_bn);
  return y;
}

std::vector<double> ReferenceNet::forward(const float* image,
                                          bool per_image_ode_bn) const {
  int size = in_size_;
  Fmap x(static_cast<std::size_t>(in_ch_) * size * size);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = image[i];
  Fmap h = conv3x3(x, in_ch_, size, stem_w_, in_ch_, stem_out_, 1, 0.0);
  batch_norm(h, stem_out_, size, stem_bn_, false);
  relu(h);
  int ch = stem_out_;
  for (const StageRef& stage : stages_) {
    if (stage.executions > 1) {
      // ODE stage: z_{k+1} = z_k + h * f(z_k, t_k), t_k = k, h = 1 (the
      // ResNet-compatible time span: M steps over [0, M]).
      const Block& b = stage.blocks.front();
      for (int k = 0; k < stage.executions; ++k) {
        const Fmap f = block_branch(h, size, b, static_cast<double>(k),
                                    per_image_ode_bn);
        for (std::size_t i = 0; i < h.size(); ++i) h[i] += f[i];
      }
      continue;
    }
    for (const Block& b : stage.blocks) {
      Fmap y = block_branch(h, size, b, 0.0, false);
      // Option-A shortcut: subsample by the stride, zero-pad new channels.
      const int out_size = (size + 2 - 3) / b.stride + 1;
      for (int c = 0; c < std::min(ch, b.out_ch); ++c) {
        for (int oh = 0; oh < out_size; ++oh) {
          for (int ow = 0; ow < out_size; ++ow) {
            y[(static_cast<std::size_t>(c) * out_size + oh) * out_size + ow] +=
                h[(static_cast<std::size_t>(c) * size + oh * b.stride) * size +
                  ow * b.stride];
          }
        }
      }
      h = std::move(y);
      size = out_size;
      ch = b.out_ch;
    }
  }
  ODENET_CHECK(ch == fc_in_, "reference: head expects " << fc_in_
                                 << " channels, got " << ch);
  std::vector<double> pooled(static_cast<std::size_t>(ch), 0.0);
  const std::size_t plane = static_cast<std::size_t>(size) * size;
  for (int c = 0; c < ch; ++c) {
    for (std::size_t i = 0; i < plane; ++i) pooled[c] += h[c * plane + i];
    pooled[c] /= static_cast<double>(plane);
  }
  std::vector<double> logits(static_cast<std::size_t>(classes_));
  for (int o = 0; o < classes_; ++o) {
    double acc = fc_b_[o];
    for (int i = 0; i < ch; ++i) {
      acc += fc_w_[static_cast<std::size_t>(o) * ch + i] * pooled[i];
    }
    logits[o] = acc;
  }
  return logits;
}

std::vector<std::vector<double>> ReferenceNet::forward_first(
    const odenet::core::Tensor& pool, int count, bool per_image_ode_bn) const {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(count));
  const std::size_t stride = pool.numel() / static_cast<std::size_t>(pool.dim(0));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < count; i += kThreads) {
        out[i] = forward(pool.data() + i * stride, per_image_ode_bn);
      }
    });
  }
  for (auto& th : threads) th.join();
  return out;
}

}  // namespace perfbench
