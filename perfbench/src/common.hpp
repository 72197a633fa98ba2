// Shared pieces of the benchmark program: arguments, seeded inputs, the
// calibrated snapshot, small statistics helpers and the result record.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "models/architecture.hpp"
#include "models/network.hpp"
#include "models/snapshot.hpp"

namespace perfbench {

using odenet::core::Tensor;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event file.
  std::string trace_out;
  /// Working directory inside the build tree (snapshot file of the isolated
  /// 128-image probe, its logits).
  std::string work_dir;
  /// This executable, for the fresh-process probe.
  std::string self_path;
};

/// Model weights and calibration inputs come from these fixed seeds; only
/// the served images come from --seed, so every seed serves the same model.
inline constexpr std::uint64_t kWeightSeed = 20210517;
inline constexpr std::uint64_t kCalibrationSeed = 977;
inline constexpr int kCalibrationPasses = 10;
inline constexpr int kCalibrationBatch = 16;

/// Paper width: 3x32x32 CIFAR-sized input, 16 base channels, 100 classes.
odenet::models::NetworkSpec paper_spec(odenet::models::Arch arch, int n);

/// `n` synthetic CIFAR-100 stand-in images, [n,3,32,32], pixels in [0,1]
/// shifted to zero mean (data::make_synthetic prototypes + noise).
Tensor make_images(int n, std::uint64_t seed);

/// Image i of a [N,C,H,W] batch as [C,H,W].
Tensor image_at(const Tensor& batch, int i);

/// Rows `idx` of a [N,C,H,W] pool stacked into a new batch.
Tensor gather(const Tensor& pool, const std::vector<int>& idx);

/// Randomly initialised network whose batch-norm running statistics are
/// calibrated with training-mode forwards over seeded synthetic images,
/// exported as the served snapshot.
odenet::models::ModelSnapshot::Ptr calibrated_snapshot(
    odenet::models::Arch arch, int n);

/// An eval-mode network holding the snapshot's weights.
std::unique_ptr<odenet::models::Network> replica(
    const odenet::models::ModelSnapshot& snapshot);

/// `perfbench --calibrate <arch> <n> --out <file>`: writes the calibrated
/// snapshot. Returns the process exit code.
int run_calibrate(odenet::models::Arch arch, int n, const std::string& out);

/// The calibrated snapshot, made in a fresh process and read back from
/// work_dir/<name>.snapshot, so the training-mode calibration forwards do
/// not count in this process's peak resident memory. Also returns the
/// file's path (the isolated probe loads it too).
odenet::models::ModelSnapshot::Ptr load_calibrated_snapshot(
    const Args& args, odenet::models::Arch arch, int n, std::string* path);

/// Runs this executable with `argv` in a fresh process (posix_spawn, not a
/// fork of the threaded parent), with env_overrides ("NAME=value")
/// replacing inherited variables of the same name; waits for it and
/// returns the wait status.
int spawn_self(const Args& args, const std::vector<std::string>& argv,
               const std::vector<std::string>& env_overrides);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0,1].
double quantile(std::vector<double> v, double q);
/// The highest percentile with at least ten samples beyond it, as a
/// fraction (0.99 for >= 1000 samples); 0.5 when n < 40 (no tail).
double tail_quantile(std::size_t n);

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();

double now_seconds();
/// CPU seconds consumed so far by every thread of this process, live or
/// ended. Time the hypervisor takes a vCPU away (steal) is not in it.
double cpu_seconds();

/// One metric of the final line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check: prints why and clears `correct`.
  void fail_check(const std::string& what);
  std::string to_json() const;
};

/// Prints a check's self-test line; a check that did not reject its
/// perturbed output fails the run.
void report_selftest(Result& res, const std::string& check, bool rejects);

/// Host fingerprint line: cores, GEMM ISA, kernel-pool size, compiler and
/// build type, plus the run's seed.
void print_fingerprint(const Args& args);

}  // namespace perfbench
