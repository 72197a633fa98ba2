// Traced run of the offline workloads: per-layer metrics, each timed with a
// span around one public call.
//   models  stem_forward / StageExecutor::run / head_forward per backend at
//           the served micro-batch, against an untraced forward_with of the
//           same batch (the residual no stage span covers);
//   core    the eval-mode fused conv call of each stage geometry, at batch
//           16 and 1, and on a 1-worker against the default kernel pool;
//   fpga    OdeBlockAccelerator::solve_euler over the stage's Euler steps,
//           and the cycle breakdown it reports;
//   sched   FpgaStageExecutor::requantize;
//   runtime InferenceEngine construction;
//   serving runtime and cluster layers through the socket front end and
//           EngineCluster::submit (serve.cpp), the same in every workload.
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "checks.hpp"
#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/init.hpp"
#include "fpga/accelerator.hpp"
#include "models/network.hpp"
#include "sched/fpga_executor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace models = odenet::models;
namespace core = odenet::core;
namespace sched = odenet::sched;
namespace fpga = odenet::fpga;

namespace {

constexpr int kServedBatch = 16;

/// Stages reported as models.stage_ms metrics: the ones both workloads'
/// models have (rODENet-3 has no layer2_2). Other stages are still timed,
/// count towards the residual and are printed in the breakdown line.
bool reported_stage(const std::string& stage) { return stage != "layer2_2"; }

/// Calls fn until both `min_reps` calls and `budget_s` seconds are spent
/// (after `warmup` untimed calls); returns each call's seconds.
std::vector<double> time_reps(const std::function<void()>& fn, int warmup,
                              int min_reps, double budget_s) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> out;
  const double stop = now_seconds() + budget_s;
  while (static_cast<int>(out.size()) < min_reps || now_seconds() < stop) {
    const double t0 = now_seconds();
    fn();
    out.push_back(now_seconds() - t0);
  }
  return out;
}

/// One backend's stage decomposition. Alternates an untraced
/// forward_with of the batch with a traced pass that calls the same
/// pieces one by one, each inside its own span. The traced pieces must
/// compute what forward_with computes: their logits are checked against
/// it with the batch-invariance tolerance.
void stage_breakdown(Tracer& tracer, Result& res, const std::string& backend,
                     models::Network& net, const models::StagePlan& plan,
                     const Tensor& batch, int passes) {
  models::FloatStageExecutor fallback;
  std::vector<double> untraced, outer, covered;
  std::map<std::string, std::vector<double>> stage_s;
  for (int p = 0; p < passes + 1; ++p) {
    Tensor expected, logits;
    double t_untraced = 0.0, t_outer = 0.0, sum = 0.0;
    auto untraced_pass = [&] {
      const double t0 = now_seconds();
      expected = net.forward_with(batch, plan);
      t_untraced = now_seconds() - t0;
    };
    auto traced_pass = [&] {
      const std::uint64_t id = static_cast<std::uint64_t>(p) + 1;
      const double o0 = now_seconds();
      Tracer::Scope whole(tracer, "models.forward." + backend, id);
      auto piece = [&](const std::string& stage,
                       const std::function<void()>& fn) {
        const double s0 = now_seconds();
        {
          Tracer::Scope span(tracer, "models.stage." + backend + "." + stage,
                             id);
          fn();
        }
        const double dt = now_seconds() - s0;
        sum += dt;
        if (p > 0) stage_s[stage].push_back(dt);
      };
      Tensor h;
      piece("stem", [&] { h = net.stem_forward(batch); });
      for (auto& stage : net.stages()) {
        if (stage->is_empty()) continue;
        models::StageExecutor* exec = plan.executor_for(stage->spec().id);
        if (exec == nullptr) exec = &fallback;
        piece(models::stage_name(stage->spec().id),
              [&] { h = exec->run(*stage, h, nullptr); });
      }
      piece("head", [&] { logits = net.head_forward(h); });
      t_outer = now_seconds() - o0;
    };
    // Alternate which pass goes first, so neither carries an order bias.
    if (p % 2 == 0) {
      untraced_pass();
      traced_pass();
    } else {
      traced_pass();
      untraced_pass();
    }
    res.attempted += 2 * static_cast<std::uint64_t>(batch.dim(0));
    const int classes = expected.dim(1);
    for (int i = 0; i < batch.dim(0); ++i) {
      const float* want = expected.data() + static_cast<std::size_t>(i) * classes;
      if (!compare_logits(logits.data() + static_cast<std::size_t>(i) * classes,
                          to_double(want, classes), kBatchInvariance)
               .ok) {
        res.fail_check(backend + ": traced pieces differ from forward_with");
        break;
      }
    }
    if (p == 0) continue;  // warm-up pass
    outer.push_back(t_outer);
    untraced.push_back(t_untraced);
    covered.push_back(sum);
  }
  const double n = static_cast<double>(batch.dim(0));
  double stage_total_ms = 0.0;
  std::string unreported;
  for (const auto& [stage, v] : stage_s) {
    const double ms = median(v) / n * 1e3;
    stage_total_ms += ms;
    if (reported_stage(stage)) {
      res.add("models.stage_ms." + backend + "." + stage, ms, "ms");
    } else {
      unreported += " " + stage + "=" + std::to_string(ms) + "ms/img";
    }
  }
  const double base = median(untraced);
  const double residual = (base - median(covered)) / base * 100.0;
  res.add("models.stage_residual_pct." + backend, residual, "%");
  std::printf("breakdown %-8s batch=%d passes=%d forward_with=%.3f ms/img "
              "stage_sum=%.3f ms/img residual=%.2f%% tracing_overhead=%.2f%%%s\n",
              backend.c_str(), batch.dim(0), passes, base / n * 1e3,
              stage_total_ms, residual, (median(outer) - base) / base * 100.0,
              unreported.c_str());
}

struct ConvGeom {
  std::string name;
  int in_ch, out_ch, in_size, stride;
};

const std::vector<ConvGeom>& conv_geoms() {
  static const std::vector<ConvGeom> g = {
      {"c16h32", 16, 16, 32, 1},   {"c32h16", 32, 32, 16, 1},
      {"c64h8", 64, 64, 8, 1},     {"c32h16s2", 16, 32, 32, 2},
      {"c64h8s2", 32, 64, 16, 2}};
  return g;
}

/// Median seconds of one fused conv+BN+ReLU eval call (the call a float
/// stage makes for conv1 of every block) on `batch` images.
double time_conv(Tracer& tracer, const ConvGeom& g, int batch,
                 const std::string& span) {
  core::Conv2d conv({.in_channels = g.in_ch,
                     .out_channels = g.out_ch,
                     .kernel = 3,
                     .stride = g.stride,
                     .pad = 1,
                     .time_channel = false},
                    "bench." + g.name);
  odenet::util::Rng rng(11);
  core::init_conv(conv, rng);
  conv.set_training(false);
  conv.set_weight_version(1);
  std::vector<float> scale(static_cast<std::size_t>(g.out_ch)),
      shift(static_cast<std::size_t>(g.out_ch));
  for (int c = 0; c < g.out_ch; ++c) {
    scale[c] = static_cast<float>(0.5 + rng.uniform());
    shift[c] = static_cast<float>(rng.normal(0.0, 0.1));
  }
  Tensor x({batch, g.in_ch, g.in_size, g.in_size});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal());
  }
  const core::ConvEpilogue ep{scale.data(), shift.data(), true};
  Tensor out;
  std::uint64_t id = 0;
  const auto reps = time_reps(
      [&] {
        Tracer::Scope s(tracer, span, ++id);
        conv.forward_fused(x, ep, out, false);
      },
      3, 15, 0.25);
  return median(reps);
}

double conv_flops(const ConvGeom& g, int batch) {
  const double out = g.in_size / g.stride;
  return 2.0 * batch * g.out_ch * g.in_ch * 9.0 * out * out;
}

/// conv_gflops* run on the kernel pool the workload runs with;
/// pool_scaling compares a 1-worker pool with one as wide as the host.
void conv_layers(Tracer& tracer, Result& res) {
  odenet::util::ThreadPool one(1);
  odenet::util::ThreadPool wide(std::thread::hardware_concurrency());
  for (const ConvGeom& g : conv_geoms()) {
    const double t16 = time_conv(tracer, g, kServedBatch, "core.conv." + g.name);
    res.add("core.conv_gflops." + g.name, conv_flops(g, kServedBatch) / t16 / 1e9,
            "GFLOP/s");
    if (g.stride != 1) continue;
    const double t1 = time_conv(tracer, g, 1, "core.conv_b1." + g.name);
    res.add("core.conv_gflops_b1." + g.name, conv_flops(g, 1) / t1 / 1e9,
            "GFLOP/s");
    core::set_kernel_pool(&one);
    const double t_one =
        time_conv(tracer, g, kServedBatch, "core.conv_1worker." + g.name);
    core::set_kernel_pool(&wide);
    const double t_wide =
        time_conv(tracer, g, kServedBatch, "core.conv_wide." + g.name);
    core::set_kernel_pool(nullptr);
    res.add("core.pool_scaling." + g.name, t_one / t_wide, "ratio");
  }
}

void fpga_layers(Tracer& tracer, Result& res,
                 const models::ModelSnapshot& snapshot, const Tensor& pool) {
  auto net = replica(snapshot);
  models::Stage& stage = *net->stage(models::StageId::kLayer3_2);
  const models::StageSpec& st = stage.spec();
  // The stage's input for one image, from the float software path.
  Tensor z = net->stem_forward(gather(pool, {0}));
  for (auto& s : net->stages()) {
    if (s->is_empty() || s->spec().id == st.id) continue;
    z = s->forward(z);
  }
  fpga::OdeBlockAccelerator acc({.channels = st.out_channels,
                                 .extent = st.in_size,
                                 .parallelism = 16,
                                 .frac_bits = 20,
                                 .clock_mhz = 100.0});
  acc.load_weights(stage.ode()->block());
  fpga::AcceleratorReport report;
  std::uint64_t id = 0;
  const auto solve = time_reps(
      [&] {
        Tracer::Scope s(tracer, "fpga.solve_euler", ++id);
        (void)acc.solve_euler(z, st.executions, 1.0f, &report);
      },
      1, 5, 1.0);
  const double macs = static_cast<double>(st.executions) * 2.0 *
                      st.out_channels * st.in_channels * 9.0 * st.in_size *
                      st.in_size;
  res.add("fpga.solve_ms_per_img", median(solve) * 1e3, "ms");
  res.add("fpga.host_ns_per_mac", median(solve) * 1e9 / macs, "ns");
  res.add("fpga.cycles.conv1", static_cast<double>(report.per_execution.conv1),
          "cycles");
  res.add("fpga.cycles.bn1", static_cast<double>(report.per_execution.bn1),
          "cycles");
  res.add("fpga.cycles.conv2", static_cast<double>(report.per_execution.conv2),
          "cycles");
  res.add("fpga.cycles.bn2", static_cast<double>(report.per_execution.bn2),
          "cycles");
  res.add("fpga.cycles.axi",
          static_cast<double>(report.transfer_cycles_per_execution), "cycles");

  sched::FpgaStageExecutor exec(stage, sched::FpgaStageExecutor::Config{});
  std::uint64_t version = snapshot.version();
  const auto requant = time_reps(
      [&] {
        Tracer::Scope s(tracer, "sched.requantize", ++id);
        exec.requantize(stage, ++version);
      },
      1, 5, 0.3);
  res.add("sched.requantize_ms", median(requant) * 1e3, "ms");
}

}  // namespace

Result trace_offline(const Args& args, models::Arch arch, int n,
                     Tracer& tracer) {
  Result res;
  const models::ModelSnapshot::Ptr snapshot =
      load_calibrated_snapshot(args, arch, n, nullptr);
  const Tensor pool = make_images(kPoolImages, args.seed);
  std::vector<int> idx;
  for (int i = 0; i < kServedBatch; ++i) idx.push_back(i);
  const Tensor batch = gather(pool, idx);

  std::vector<double> build_s;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    {
      Tracer::Scope s(tracer, "runtime.engine_build", static_cast<std::uint64_t>(rep));
      odenet::runtime::InferenceEngine engine(snapshot, batch_engine_config());
      build_s.push_back(now_seconds() - t0);
    }
  }
  res.add("runtime.engine_build_s", median(build_s), "s");

  {
    auto net = replica(*snapshot);
    models::FloatStageExecutor float_exec;
    stage_breakdown(tracer, res, "float", *net, models::StagePlan(&float_exec),
                    batch, 12);
    models::FixedStageExecutor fixed_exec(20);
    stage_breakdown(tracer, res, "fixed", *net, models::StagePlan(&fixed_exec),
                    batch, 12);
  }
  {
    auto net = replica(*snapshot);
    models::FloatStageExecutor float_exec;
    sched::FpgaStageExecutor pl_exec(*net->stage(models::StageId::kLayer3_2),
                                     sched::FpgaStageExecutor::Config{});
    models::StagePlan plan(&float_exec);
    plan.assign(models::StageId::kLayer3_2, &pl_exec);
    stage_breakdown(tracer, res, "fpga_sim", *net, plan, batch, 2);
    fpga_layers(tracer, res, *snapshot, pool);
  }
  {
    // The serving path (runtime and cluster layers), on rODENet-3-20
    // (serve.cpp).
    const Result serving = serving_layers(args, tracer);
    res.correct = res.correct && serving.correct;
    res.attempted += serving.attempted;
    res.failed += serving.failed;
    res.metrics.insert(res.metrics.end(), serving.metrics.begin(),
                       serving.metrics.end());
  }
  conv_layers(tracer, res);
  tracer.print_self_times();
  return res;
}

}  // namespace perfbench
