// The benchmark's workloads and per-layer measurements.
#pragma once

#include "common.hpp"
#include "trace.hpp"
#include "runtime/engine.hpp"

namespace perfbench {

/// rodenet3-offline / hybrid3-offline: closed-loop engine phases, end to
/// end metrics.
Result run_offline(const Args& args, odenet::models::Arch arch, int n);

/// Traced runs: per-layer metrics, spans recorded into `tracer`.
Result trace_offline(const Args& args, odenet::models::Arch arch, int n,
                     Tracer& tracer);
/// The serving path's per-layer metrics (runtime and cluster layers):
/// rODENet-3-20 behind the 2-shard cluster, a fixed 10 s arrival window,
/// half through the socket front end and half in-process through
/// EngineCluster::submit. Part of every workload's traced run.
Result serving_layers(const Args& args, Tracer& tracer);

/// The isolated 128-image float forward on seed-independent images, run
/// in a fresh process: `perfbench --probe <snapshot> --out <logits>`.
int run_probe(const std::string& snapshot_path, const std::string& out_path);

/// The offline workloads' batch engine: float, fixed and the hybrid
/// fpga_sim backend (the model's layer3_2 ODE stage on the simulated PL),
/// micro-batch 16, requests pinned per phase.
odenet::runtime::EngineConfig batch_engine_config();

/// Number of distinct images each offline run serves from (not a
/// multiple of the micro-batch, so batch compositions shift between
/// rounds and batch-composition invariance is exercised).
inline constexpr int kPoolImages = 250;
inline constexpr int kProbeBatch = 128;

}  // namespace perfbench
