// Output checks. Each compares a served output with a value computed
// apart from the serving path and returns whether it passes; the
// self-tests feed each check a real output with one logit nudged (or one
// cycle count moved by one) and require the check to reject it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Allowed |got - ref| per logit: abs + rel * max|ref|.
struct Tolerance {
  double abs = 0.0;
  double rel = 0.0;
  double limit(const std::vector<double>& ref) const;
};

// Each budget sits two to five times above the largest error measured
// per image on the model that comes closest to it (README.md, "Output
// checks"); Hybrid-3-56 figures are over seeds 11-15.

/// Served float logits against the plain-loop reference (float32 kernels
/// against a double-precision direct loop). Measured: <= 1.1e-5 on
/// rODENet-3-56 (logits up to ~33), <= 3.1e-6 on Hybrid-3-56.
inline constexpr Tolerance kFloatVsReference{2e-5, 1e-6};
/// The same image served in two different micro-batches. Measured: 0
/// (bitwise equal).
inline constexpr Tolerance kBatchInvariance{1e-6, 1e-6};
/// Fixed-point (Q11.20 activations, int16 GEMM) logits against float.
/// Measured: <= 0.185 on rODENet-3-56 (logits ~32-33), <= 0.044 on
/// Hybrid-3-56 (limit ~0.14), <= 0.024 on ResNet-56 (logits 0.9-3.4,
/// 0.016 at a largest logit of ~1.1, so the error has a floor).
inline constexpr Tolerance kFixedBudget{0.05, 0.012};
/// Hybrid PL-simulator logits against the per-image float reference.
/// Measured: <= 3.1e-5 on rODENet-3-56 (per-image-BN logits up to ~1),
/// <= 1.3e-5 on Hybrid-3-56.
inline constexpr Tolerance kFpgaVsReference{1e-4, 0.0};

/// The paper's Table 5 overall speedup of rODENet-3-56 with layer3_2 on
/// the PL, and how far the closed-form model may sit from it.
inline constexpr double kPaperTable5Speedup = 2.66;
inline constexpr double kTable5RelTolerance = 0.05;

/// max |got - ref| over the logits; `ok` when within the tolerance.
struct Comparison {
  bool ok = false;
  double max_err = 0.0;
  double limit = 0.0;
};
Comparison compare_logits(const float* got, const std::vector<double>& ref,
                          const Tolerance& tol);

std::vector<double> to_double(const float* v, std::size_t n);

/// True when compare_logits rejects `got` after one logit (the largest
/// in magnitude) is moved by twice the tolerance — the check can see a
/// perturbation of the size it is meant to catch.
bool rejects_nudged_logit(const float* got, const std::vector<double>& ref,
                          const Tolerance& tol);

bool table5_within(double modeled_speedup);

}  // namespace perfbench
