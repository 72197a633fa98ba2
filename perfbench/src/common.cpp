#include "common.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/gemm_kernels.hpp"
#include "data/synthetic.hpp"
#include "util/rng.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace models = odenet::models;

models::NetworkSpec paper_spec(models::Arch arch, int n) {
  return models::make_spec(arch, n, models::WidthConfig{});
}

Tensor make_images(int n, std::uint64_t seed) {
  odenet::data::SyntheticConfig cfg;
  cfg.images_per_class = (n + cfg.num_classes - 1) / cfg.num_classes;
  cfg.seed = seed;
  const odenet::data::Dataset ds = odenet::data::make_synthetic(cfg);
  // The generator emits images grouped by class; a seeded permutation
  // mixes classes so every micro-batch sees several.
  std::vector<int> order(ds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  odenet::util::Rng rng(seed ^ 0x5bd1e995ULL);
  rng.shuffle(order);
  Tensor out({n, ds.channels, ds.height, ds.width});
  const std::size_t stride = ds.image_bytes();
  for (int i = 0; i < n; ++i) {
    const Tensor img = ds.image(static_cast<std::size_t>(order[i]));
    float* dst = out.data() + static_cast<std::size_t>(i) * stride;
    for (std::size_t j = 0; j < stride; ++j) dst[j] = img.data()[j] - 0.5f;
  }
  return out;
}

Tensor image_at(const Tensor& batch, int i) {
  const int c = batch.dim(1), h = batch.dim(2), w = batch.dim(3);
  const std::size_t stride = static_cast<std::size_t>(c) * h * w;
  Tensor out({c, h, w});
  std::copy_n(batch.data() + static_cast<std::size_t>(i) * stride, stride,
              out.data());
  return out;
}

Tensor gather(const Tensor& pool, const std::vector<int>& idx) {
  const int c = pool.dim(1), h = pool.dim(2), w = pool.dim(3);
  const std::size_t stride = static_cast<std::size_t>(c) * h * w;
  Tensor out({static_cast<int>(idx.size()), c, h, w});
  for (std::size_t k = 0; k < idx.size(); ++k) {
    std::copy_n(pool.data() + static_cast<std::size_t>(idx[k]) * stride,
                stride, out.data() + k * stride);
  }
  return out;
}

models::ModelSnapshot::Ptr calibrated_snapshot(models::Arch arch, int n) {
  models::Network net(paper_spec(arch, n));
  odenet::util::Rng rng(kWeightSeed + static_cast<std::uint64_t>(n));
  net.init(rng);
  const Tensor calib =
      make_images(kCalibrationPasses * kCalibrationBatch, kCalibrationSeed);
  net.set_training(true);
  for (int p = 0; p < kCalibrationPasses; ++p) {
    std::vector<int> idx;
    for (int i = 0; i < kCalibrationBatch; ++i) {
      idx.push_back(p * kCalibrationBatch + i);
    }
    (void)net.forward(gather(calib, idx));
  }
  net.set_training(false);
  return net.export_snapshot();
}

std::unique_ptr<models::Network> replica(const models::ModelSnapshot& snapshot) {
  auto net = std::make_unique<models::Network>(snapshot.spec(),
                                               snapshot.solver_config());
  net->apply_snapshot(snapshot);
  net->set_training(false);
  return net;
}

int run_calibrate(models::Arch arch, int n, const std::string& out) {
  std::ofstream os(out, std::ios::binary);
  calibrated_snapshot(arch, n)->save(os);
  return os.good() ? 0 : 1;
}

models::ModelSnapshot::Ptr load_calibrated_snapshot(const Args& args,
                                                    models::Arch arch, int n,
                                                    std::string* path) {
  const std::string file = args.work_dir + "/" + args.workload + ".snapshot";
  const int status =
      spawn_self(args,
                 {"--calibrate", std::to_string(static_cast<int>(arch)),
                  "--depth", std::to_string(n), "--out", file},
                 {});
  ODENET_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "calibration process failed (status " << status << ")");
  std::ifstream is(file, std::ios::binary);
  if (path != nullptr) *path = file;
  return models::ModelSnapshot::load(is);
}

int spawn_self(const Args& args, const std::vector<std::string>& argv,
               const std::vector<std::string>& env_overrides) {
  std::vector<std::string> argv_s = {args.self_path};
  argv_s.insert(argv_s.end(), argv.begin(), argv.end());
  std::vector<char*> argv_p;
  for (auto& a : argv_s) argv_p.push_back(a.data());
  argv_p.push_back(nullptr);
  std::vector<std::string> env_s;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var = *e;
    bool overridden = false;
    for (const std::string& o : env_overrides) {
      const std::string key = o.substr(0, o.find('=') + 1);
      if (var.compare(0, key.size(), key) == 0) overridden = true;
    }
    if (!overridden) env_s.push_back(var);
  }
  env_s.insert(env_s.end(), env_overrides.begin(), env_overrides.end());
  std::vector<char*> env_p;
  for (auto& e : env_s) env_p.push_back(e.data());
  env_p.push_back(nullptr);
  std::fflush(stdout);
  pid_t pid = 0;
  ODENET_CHECK(posix_spawn(&pid, args.self_path.c_str(), nullptr, nullptr,
                           argv_p.data(), env_p.data()) == 0,
               "posix_spawn of " << args.self_path << " failed");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  return status;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_quantile(std::size_t n) {
  if (n < 40) return 0.5;
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if ((1.0 - q) * static_cast<double>(n) >= 10.0) return q;
  }
  return 0.75;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Result::fail_check(const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
  correct = false;
}

void report_selftest(Result& res, const std::string& check, bool rejects) {
  std::printf("selftest: %-30s rejects perturbed output: %s\n", check.c_str(),
              rejects ? "yes" : "NO");
  if (!rejects) res.fail_check("self-test of " + check);
}

std::string Result::to_json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void print_fingerprint(const Args& args) {
  std::printf(
      "host: cores=%ld gemm_isa=%s kernel_pool=%zu compiler=\"%s\" "
      "build=%s\n",
      sysconf(_SC_NPROCESSORS_ONLN), odenet::core::gemm_isa_name(),
      odenet::core::kernel_pool().worker_count(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%.1f trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);
}

}  // namespace perfbench
