// The benchmark program. run.py builds it and runs
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --trace-out <file>
// The last line of standard output is the run's JSON result. The program
// also re-executes itself in two helper modes, each in a fresh process:
//   --calibrate <arch> --depth <n> --out <file>   write the snapshot
//   --probe <snapshot> --out <file>               the 128-image forward
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace models = odenet::models;

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rodenet3-offline|hybrid3-offline --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.self_path = argv[0];
  std::string probe_snapshot, probe_out;
  int calibrate_arch = -1, depth = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(val.c_str());
    else if (key == "--trace") args.trace = val == "1";
    else if (key == "--work-dir") args.work_dir = val;
    else if (key == "--trace-out") args.trace_out = val;
    else if (key == "--probe") probe_snapshot = val;
    else if (key == "--out") probe_out = val;
    else if (key == "--calibrate") calibrate_arch = std::atoi(val.c_str());
    else if (key == "--depth") depth = std::atoi(val.c_str());
    else return usage(("unknown flag " + key).c_str());
  }
  try {
    if (calibrate_arch >= 0) {
      if (calibrate_arch >= static_cast<int>(models::all_archs().size())) {
        return usage("--calibrate: unknown architecture");
      }
      return run_calibrate(static_cast<models::Arch>(calibrate_arch), depth,
                           probe_out);
    }
    if (!probe_snapshot.empty()) {
      return run_probe(probe_snapshot, probe_out);
    }
    if (args.seconds <= 0.0) return usage("--seconds must be positive");
    if (args.work_dir.empty()) return usage("--work-dir is required");
    print_fingerprint(args);
    Result res;
    Tracer tracer;
    if (args.workload == "rodenet3-offline" ||
        args.workload == "hybrid3-offline") {
      const models::Arch arch = args.workload == "hybrid3-offline"
                                    ? models::Arch::kHybrid3
                                    : models::Arch::kROdeNet3;
      res = args.trace ? trace_offline(args, arch, 56, tracer)
                       : run_offline(args, arch, 56);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
    if (args.trace) {
      const std::string out = args.trace_out.empty()
                                  ? args.work_dir + "/trace.json"
                                  : args.trace_out;
      tracer.write_chrome(out);
      std::printf("trace: %zu spans written to %s\n", tracer.size(),
                  out.c_str());
    }
    std::printf("ops: attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    std::printf("%s\n", res.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
