#include "checks.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Tolerance::limit(const std::vector<double>& ref) const {
  double peak = 0.0;
  for (double v : ref) peak = std::max(peak, std::fabs(v));
  return abs + rel * peak;
}

Comparison compare_logits(const float* got, const std::vector<double>& ref,
                          const Tolerance& tol) {
  Comparison c;
  c.limit = tol.limit(ref);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double err = std::fabs(static_cast<double>(got[i]) - ref[i]);
    // A NaN logit never passes.
    if (!(err <= c.max_err)) c.max_err = std::isnan(err) ? INFINITY : err;
  }
  c.ok = c.max_err <= c.limit;
  return c;
}

std::vector<double> to_double(const float* v, std::size_t n) {
  return std::vector<double>(v, v + n);
}

bool rejects_nudged_logit(const float* got, const std::vector<double>& ref,
                          const Tolerance& tol) {
  std::vector<float> nudged(got, got + ref.size());
  std::size_t at = 0;
  for (std::size_t i = 1; i < nudged.size(); ++i) {
    if (std::fabs(nudged[i]) > std::fabs(nudged[at])) at = i;
  }
  nudged[at] += static_cast<float>(2.0 * tol.limit(ref));
  return !compare_logits(nudged.data(), ref, tol).ok;
}

bool table5_within(double modeled_speedup) {
  return std::fabs(modeled_speedup - kPaperTable5Speedup) <=
         kTable5RelTolerance * kPaperTable5Speedup;
}

}  // namespace perfbench
