// rodenet3-offline and hybrid3-offline: one snapshot served in closed loop
// by an InferenceEngine, in whole rounds of fixed operations (RoundPlan)
// until the run's seconds are spent:
//   float    images through the float backend (micro-batch 16, one
//            producer keeping kWindow requests outstanding);
//   fixed    images through the fixed-point backend, same loop;
//   fpga_sim one micro-batch through the hybrid backend (layer3_2 on the
//            simulated PL);
//   single   images one at a time through a micro-batch-1 float engine
//            with nothing else outstanding;
//   probe    Hybrid-3 only: one 128-image float forward in a fresh
//            process, on images that do not depend on the seed.
// Every round attempts the same operations, so the failed share of a run
// does not depend on its length.
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "models/network.hpp"
#include "reference.hpp"
#include "runtime/engine.hpp"
#include "sched/latency_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace models = odenet::models;
namespace runtime = odenet::runtime;
namespace core = odenet::core;
namespace sched = odenet::sched;

namespace {

constexpr int kMicroBatch = 16;
constexpr int kWindow = 2 * kMicroBatch;
constexpr int kSampleImages = 8;
constexpr int kSetupRepeats = 25;

struct RoundPlan {
  int float_images = 0;
  int fixed_images = 0;
  int fpga_images = 0;
  int single_images = 0;
  bool probe = false;
};

RoundPlan plan_for(models::Arch arch) {
  return {64, 32, kMicroBatch, 8, arch == models::Arch::kHybrid3};
}

/// The probe's images come from this fixed seed, so the operation that
/// fails today fails on the same inputs in every run.
constexpr std::uint64_t kProbeSeed = 128;

}  // namespace

runtime::EngineConfig batch_engine_config() {
  runtime::EngineConfig cfg;
  cfg.max_batch = kMicroBatch;
  cfg.max_delay = std::chrono::microseconds(2000);
  cfg.route_policy = runtime::RoutePolicy::kStatic;
  runtime::BackendConfig fl;
  fl.backend = core::ExecBackend::kFloat;
  runtime::BackendConfig fx;
  fx.backend = core::ExecBackend::kFixed;
  runtime::BackendConfig pl;
  pl.backend = core::ExecBackend::kFpgaSim;
  pl.offloaded = {models::StageId::kLayer3_2};
  cfg.backends = {fl, fx, pl};
  return cfg;
}

namespace {

runtime::EngineConfig single_engine_config() {
  runtime::EngineConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay = std::chrono::microseconds(0);
  return cfg;
}

constexpr std::size_t kFloatBackend = 0;
constexpr std::size_t kFixedBackend = 1;
constexpr std::size_t kFpgaBackend = 2;

struct Served {
  int image = 0;
  runtime::InferenceResult result;
};

/// Wall and process CPU seconds of one timed piece of work.
struct Elapsed {
  double wall = 0.0, cpu = 0.0;
};

/// Closed loop: keeps `window` requests outstanding, pinned to one
/// backend. Returns the time from first submit to last result; failed
/// requests are counted, not returned.
Elapsed closed_loop(runtime::InferenceEngine& engine, std::size_t backend,
                   const Tensor& pool, const std::vector<int>& images,
                   int window, std::vector<Served>& out,
                   std::uint64_t& failed) {
  runtime::SubmitOptions opts;
  opts.backend = backend;
  std::deque<std::pair<int, std::future<runtime::InferenceResult>>> pending;
  const double t0 = now_seconds(), c0 = cpu_seconds();
  auto drain_one = [&] {
    auto& [image, fut] = pending.front();
    try {
      out.push_back({image, fut.get()});
    } catch (const std::exception& e) {
      std::printf("request failed: %s\n", e.what());
      ++failed;
    }
    pending.pop_front();
  };
  for (int image : images) {
    if (static_cast<int>(pending.size()) >= window) drain_one();
    pending.emplace_back(image, engine.submit(image_at(pool, image), opts));
  }
  while (!pending.empty()) drain_one();
  return {now_seconds() - t0, cpu_seconds() - c0};
}

std::vector<int> image_range(int start, int count) {
  std::vector<int> v;
  for (int i = 0; i < count; ++i) v.push_back((start + i) % kPoolImages);
  return v;
}

/// Runs the isolated probe in a fresh process; returns its logits or an
/// empty vector when the process did not exit cleanly. The probe runs on
/// a kernel pool as wide as the host, the library's default, whatever
/// pool size the measured phases use.
std::vector<float> spawn_probe(const Args& args,
                               const std::string& snapshot_path) {
  const std::string out_path = args.work_dir + "/probe-logits.bin";
  std::remove(out_path.c_str());
  const int status = spawn_self(
      args,
      {"--probe", snapshot_path, "--out", out_path},
      {"ODENET_THREADS=" + std::to_string(std::thread::hardware_concurrency())});
  if (WIFSIGNALED(status)) {
    std::printf("probe: 128-image float batch killed by signal %d\n",
                WTERMSIG(status));
    return {};
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::printf("probe: exited with status %d\n", WEXITSTATUS(status));
    return {};
  }
  std::ifstream is(out_path, std::ios::binary);
  std::vector<float> logits;
  float v = 0.0f;
  while (is.read(reinterpret_cast<char*>(&v), sizeof(v))) logits.push_back(v);
  return logits;
}

/// Per-image PL cycles the closed-form model predicts for the offloaded
/// stage: executions x (block cycles + one fmap AXI round trip).
std::uint64_t expected_pl_cycles(const models::NetworkSpec& spec) {
  const models::StageSpec& st = spec.stage(models::StageId::kLayer3_2);
  const std::size_t words =
      static_cast<std::size_t>(st.out_channels) * st.in_size * st.in_size;
  const std::uint64_t per_exec =
      sched::LatencyModel::pl_block_cycles(st, 16) +
      odenet::fpga::roundtrip_cycles(words, words, odenet::fpga::AxiConfig{});
  return per_exec * static_cast<std::uint64_t>(st.executions);
}

/// One named logit check: compares every output it is given, keeps the
/// largest error, and self-tests on the first output it sees.
class LogitCheck {
 public:
  LogitCheck(std::string name, const Tolerance& tol)
      : name_(std::move(name)), tol_(tol) {}

  void operator()(Result& res, int image, const float* got,
                  const std::vector<double>& ref) {
    const Comparison c = compare_logits(got, ref, tol_);
    max_err_ = std::max(max_err_, c.max_err);
    limit_ = std::max(limit_, c.limit);
    ++count_;
    if (!c.ok) {
      res.fail_check(name_ + ": image " + std::to_string(image) + " off by " +
                     std::to_string(c.max_err) + " (limit " +
                     std::to_string(c.limit) + ")");
    }
    if (!selftested_) {
      report_selftest(res, name_, rejects_nudged_logit(got, ref, tol_));
      selftested_ = true;
    }
  }

  void print() const {
    if (count_ == 0) return;
    std::printf("check: %-30s n=%llu max_err=%.3g limit<=%.3g\n", name_.c_str(),
                static_cast<unsigned long long>(count_), max_err_, limit_);
  }

 private:
  std::string name_;
  Tolerance tol_;
  double max_err_ = 0.0, limit_ = 0.0;
  std::uint64_t count_ = 0;
  bool selftested_ = false;
};

}  // namespace

Result run_offline(const Args& args, models::Arch arch, int n) {
  Result res;
  const RoundPlan plan = plan_for(arch);
  const models::NetworkSpec spec = paper_spec(arch, n);
  std::printf("model: %s-%d, %d stage(s), micro-batch %d, window %d\n",
              models::arch_name(arch).c_str(), n,
              static_cast<int>(spec.stages.size()), kMicroBatch, kWindow);

  std::string snapshot_path;
  const models::ModelSnapshot::Ptr snapshot =
      load_calibrated_snapshot(args, arch, n, &snapshot_path);
  const Tensor pool = make_images(kPoolImages, args.seed);
  const ReferenceNet ref(*snapshot);
  const auto ref_logits = ref.forward_first(pool, kSampleImages);
  const auto pl_ref_logits = ref.forward_first(pool, kSampleImages, true);
  // The probe's reference logits, made once a probe first succeeds.
  std::vector<std::vector<double>> probe_ref_logits;

  // Set-up: engines (replicas, BRAM image) to the first warm-up result on
  // every backend, repeated; the last set is kept for the measured phases.
  std::unique_ptr<runtime::InferenceEngine> batch_engine, single_engine;
  std::vector<double> setup_s, setup_wall_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    batch_engine.reset();
    single_engine.reset();
    const double t0 = now_seconds(), c0 = cpu_seconds();
    batch_engine = std::make_unique<runtime::InferenceEngine>(
        snapshot, batch_engine_config());
    single_engine = std::make_unique<runtime::InferenceEngine>(
        snapshot, single_engine_config());
    std::vector<std::future<runtime::InferenceResult>> warm;
    for (std::size_t b = 0; b < batch_engine->backend_count(); ++b) {
      runtime::SubmitOptions opts;
      opts.backend = b;
      warm.push_back(batch_engine->submit(image_at(pool, 0), opts));
    }
    warm.push_back(single_engine->submit(image_at(pool, 0)));
    for (auto& f : warm) (void)f.get();
    setup_s.push_back(cpu_seconds() - c0);
    setup_wall_s.push_back(now_seconds() - t0);
  }

  const std::uint64_t pl_expected = expected_pl_cycles(spec);
  std::map<int, std::vector<float>> first_float;
  // Throughputs per process CPU second (gated) and per wall second
  // (printed): see README.md, "Steadiness".
  std::vector<double> float_ips, fixed_ips, fpga_ips, single_ms;
  std::vector<double> float_wall_ips, fixed_wall_ips, fpga_wall_ips;
  std::uint64_t pl_cycles_sum = 0, pl_images = 0;
  int round = 0;
  const double deadline = now_seconds() + args.seconds;

  LogitCheck vs_reference("float vs plain-loop reference",
                          kFloatVsReference);
  LogitCheck invariance("batch-composition invariance", kBatchInvariance);
  LogitCheck fixed_budget("fixed error budget", kFixedBudget);
  LogitCheck pl_reference("fpga_sim vs per-image reference", kFpgaVsReference);
  LogitCheck probe_reference("probe vs plain-loop reference",
                             kFloatVsReference);
  const std::size_t classes = static_cast<std::size_t>(ref.classes());
  auto check_float = [&](int image, const float* logits) {
    auto it = first_float.find(image);
    if (it == first_float.end()) {
      first_float[image] = std::vector<float>(logits, logits + classes);
    } else {
      invariance(res, image, logits, to_double(it->second.data(), classes));
    }
    if (image < kSampleImages) {
      vs_reference(res, image, logits, ref_logits[image]);
    }
  };
  bool cycles_selftested = false;

  do {
    const int start = (round * plan.float_images) % kPoolImages;
    std::vector<Served> served;

    // float
    served.clear();
    const auto fl_images = image_range(start, plan.float_images);
    Elapsed t = closed_loop(*batch_engine, kFloatBackend, pool, fl_images,
                            kWindow, served, res.failed);
    res.attempted += fl_images.size();
    float_ips.push_back(fl_images.size() / t.cpu);
    float_wall_ips.push_back(fl_images.size() / t.wall);
    for (const Served& s : served) {
      check_float(s.image, s.result.logits.data());
    }

    // fixed: the first images of this round's float phase, so every
    // answer has float logits to be compared with.
    served.clear();
    const auto fx_images = image_range(start, plan.fixed_images);
    t = closed_loop(*batch_engine, kFixedBackend, pool, fx_images, kWindow,
                    served, res.failed);
    res.attempted += fx_images.size();
    fixed_ips.push_back(fx_images.size() / t.cpu);
    fixed_wall_ips.push_back(fx_images.size() / t.wall);
    for (const Served& s : served) {
      auto it = first_float.find(s.image);
      if (it == first_float.end()) continue;  // its float request failed
      fixed_budget(res, s.image, s.result.logits.data(),
                   to_double(it->second.data(), classes));
    }

    // fpga_sim: one full micro-batch, the sample images (checked against
    // the per-image reference) and this round's first float images, each
    // with the exact cycle count.
    {
      served.clear();
      std::vector<int> pl_batch = image_range(0, kSampleImages);
      for (int image : image_range(start, plan.fpga_images - kSampleImages)) {
        pl_batch.push_back(image);
      }
      t = closed_loop(*batch_engine, kFpgaBackend, pool, pl_batch, kWindow,
                      served, res.failed);
      res.attempted += pl_batch.size();
      fpga_ips.push_back(pl_batch.size() / t.cpu);
      fpga_wall_ips.push_back(pl_batch.size() / t.wall);
      for (const Served& s : served) {
        if (s.image < kSampleImages) {
          pl_reference(res, s.image, s.result.logits.data(),
                       pl_ref_logits[s.image]);
        }
        if (s.result.pl_cycles != pl_expected) {
          res.fail_check("fpga_sim: " + std::to_string(s.result.pl_cycles) +
                         " PL cycles per image, closed form says " +
                         std::to_string(pl_expected));
        }
        if (!cycles_selftested) {
          report_selftest(res, "pl cycles closed form",
                          s.result.pl_cycles + 1 != pl_expected);
          cycles_selftested = true;
        }
        pl_cycles_sum += s.result.pl_cycles;
        ++pl_images;
      }
    }

    // single: one sample image at a time, nothing else outstanding.
    for (int k = 0; k < plan.single_images; ++k) {
      const int image = (round * plan.single_images + k) % kSampleImages;
      const double t0 = now_seconds();
      try {
        runtime::InferenceResult r =
            single_engine->submit(image_at(pool, image)).get();
        single_ms.push_back((now_seconds() - t0) * 1e3);
        check_float(image, r.logits.data());
      } catch (const std::exception& e) {
        std::printf("single request failed: %s\n", e.what());
        ++res.failed;
      }
      ++res.attempted;
    }

    // probe: the 128-image float batch in a fresh process.
    if (plan.probe) {
      const std::vector<float> logits = spawn_probe(args, snapshot_path);
      res.attempted += kProbeBatch;
      if (logits.size() != kProbeBatch * classes) {
        res.failed += kProbeBatch;
      } else {
        if (probe_ref_logits.empty()) {
          probe_ref_logits =
              ref.forward_first(make_images(kProbeBatch, kProbeSeed),
                                kSampleImages);
        }
        for (int i = 0; i < kSampleImages; ++i) {
          probe_reference(res, i, logits.data() + i * classes,
                          probe_ref_logits[i]);
        }
      }
    }
    ++round;
  } while (now_seconds() < deadline);

  if (arch == models::Arch::kROdeNet3) {
    const sched::LatencyModel model;
    const double speedup =
        model.evaluate(spec, sched::Partition::single(models::StageId::kLayer3_2))
            .overall_speedup;
    std::printf("table5: modeled speedup %.4f vs paper %.2f\n", speedup,
                kPaperTable5Speedup);
    if (!table5_within(speedup)) res.fail_check("Table 5 speedup");
    report_selftest(res, "table5 speedup", !table5_within(speedup * 1.06));
  }

  for (const LogitCheck* c : {&vs_reference, &invariance, &fixed_budget,
                              &pl_reference, &probe_reference}) {
    c->print();
  }
  const double tail_q = tail_quantile(single_ms.size());
  std::printf(
      "phases: rounds=%d float_img_s=%.2f fixed_img_s=%.2f fpga_sim_img_s=%.2f "
      "(per CPU s; per wall s %.2f %.2f %.2f) "
      "single_img_ms p50=%.3f p%g=%.3f n=%zu setup_s=[",
      round, median(float_ips), median(fixed_ips), median(fpga_ips),
      median(float_wall_ips), median(fixed_wall_ips), median(fpga_wall_ips),
      median(single_ms), tail_q * 100.0, quantile(single_ms, tail_q),
      single_ms.size());
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" ] setup wall s median=%.4f\n", median(setup_wall_s));

  res.add("setup_s", median(setup_s), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  res.add("float_img_s", median(float_ips), "images/cpu-s");
  res.add("fixed_img_s", median(fixed_ips), "images/cpu-s");
  res.add("fpga_sim_img_s", median(fpga_ips), "images/cpu-s");
  res.add("pl_cycles_per_img",
          static_cast<double>(pl_cycles_sum) / static_cast<double>(pl_images),
          "cycles");
  res.add("single_img_ms", median(single_ms), "ms");
  return res;
}

int run_probe(const std::string& snapshot_path, const std::string& out_path) {
  std::ifstream is(snapshot_path, std::ios::binary);
  const auto net = replica(*models::ModelSnapshot::load(is));
  const Tensor logits = net->forward(make_images(kProbeBatch, kProbeSeed));
  std::ofstream os(out_path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(logits.data()),
           static_cast<std::streamsize>(logits.numel() * sizeof(float)));
  return os.good() ? 0 : 1;
}

}  // namespace perfbench
