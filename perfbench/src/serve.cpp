// The serving path's per-layer measurements, part of rodenet3-offline's
// traced run: rODENet-3-20 behind a 2-shard EngineCluster (float and fixed
// backends per shard, default routing, micro-batch 8), reached through
// SocketFrontend on loopback. Open loop: Poisson arrivals at one fixed
// rate, 8 tenants with unequal weights, a 10/80/10 high/normal/low
// priority mix, no deadlines and no queue bound. Half the arrival window
// goes through two client connections (a sender and a receiver thread
// each), half in-process through EngineCluster::submit, whose results
// carry the queue and compute times a wire reply does not.
#include <algorithm>
#include <condition_variable>
#include <functional>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "cluster/frontend.hpp"
#include "cluster/protocol.hpp"
#include "models/network.hpp"
#include "reference.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace models = odenet::models;
namespace runtime = odenet::runtime;
namespace cluster = odenet::cluster;
namespace core = odenet::core;

namespace {

/// Offered load, requests/s: about half of what the 2-shard cluster
/// completes at saturation on the reference host (4 cores) with the
/// library's default 4-worker kernel pool (~600/s), a quarter of the
/// ~1300/s it reaches with the 1-worker pool the benchmark runs with.
/// Fixed here, never re-derived per run.
constexpr double kArrivalRate = 300.0;
constexpr int kShards = 2;
constexpr int kConnections = 2;
constexpr int kServeImages = 64;
/// Arrival window (half through the socket, half in-process),
/// independent of --seconds.
constexpr double kServingTraceSeconds = 10.0;

const std::vector<std::pair<std::string, double>>& tenant_weights() {
  static const std::vector<std::pair<std::string, double>> t = {
      {"tenant-a", 4.0}, {"tenant-b", 3.0}, {"tenant-c", 2.0},
      {"tenant-d", 2.0}, {"tenant-e", 1.0}, {"tenant-f", 1.0},
      {"tenant-g", 1.0}, {"tenant-h", 1.0}};
  return t;
}

runtime::EngineConfig shard_config() {
  runtime::EngineConfig cfg;
  cfg.max_batch = 8;
  runtime::BackendConfig fl;
  fl.backend = core::ExecBackend::kFloat;
  runtime::BackendConfig fx;
  fx.backend = core::ExecBackend::kFixed;
  cfg.backends = {fl, fx};
  for (const auto& [name, w] : tenant_weights()) {
    runtime::TenantSpec spec;
    spec.weight = w;
    cfg.tenants.emplace_back(name, spec);
  }
  return cfg;
}

struct Arrival {
  double due_s = 0.0;
  int image = 0;
  int tenant = 0;
  runtime::Priority priority = runtime::Priority::kNormal;
};

/// The seeded open-loop schedule over [0, window_s): a Poisson process
/// conditioned on exactly rate x window arrivals (uniform arrival times,
/// sorted), so every seed offers the same number of requests.
std::vector<Arrival> make_schedule(std::uint64_t seed, double window_s) {
  odenet::util::Rng rng(seed * 7919 + 17);
  const std::size_t n =
      static_cast<std::size_t>(std::llround(kArrivalRate * window_s));
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform() * window_s;
  std::sort(due.begin(), due.end());
  std::vector<Arrival> out;
  for (double t : due) {
    Arrival a;
    a.due_s = t;
    a.image = static_cast<int>(rng.uniform_int(kServeImages));
    a.tenant = static_cast<int>(rng.uniform_int(tenant_weights().size()));
    const double p = rng.uniform();
    a.priority = p < 0.1   ? runtime::Priority::kHigh
                 : p < 0.9 ? runtime::Priority::kNormal
                           : runtime::Priority::kLow;
    out.push_back(a);
  }
  return out;
}

cluster::WireRequest wire_request(std::uint64_t id, const Arrival& a,
                                  const Tensor& pool) {
  cluster::WireRequest req;
  req.id = id;
  req.priority = a.priority;
  req.tenant = tenant_weights()[static_cast<std::size_t>(a.tenant)].first;
  req.channels = static_cast<std::uint16_t>(pool.dim(1));
  req.height = static_cast<std::uint16_t>(pool.dim(2));
  req.width = static_cast<std::uint16_t>(pool.dim(3));
  const Tensor img = image_at(pool, a.image);
  req.pixels.assign(img.data(), img.data() + img.numel());
  return req;
}

/// Everything the serving path needs, built in set-up order.
struct Stack {
  std::unique_ptr<cluster::EngineCluster> cluster;
  std::unique_ptr<cluster::SocketFrontend> frontend;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (frontend) frontend->stop();
    if (cluster) cluster->shutdown();
  }
};

/// Builds the cluster and front end and waits for one warm-up answer
/// from every backend of every shard and one socket round trip.
std::unique_ptr<Stack> build_stack(const models::ModelSnapshot::Ptr& snapshot,
                                   const Tensor& pool) {
  auto stack = std::make_unique<Stack>();
  std::vector<cluster::ShardSpec> shards;
  for (int i = 0; i < kShards; ++i) {
    cluster::ShardSpec spec;
    spec.snapshot = snapshot;
    spec.engine = shard_config();
    shards.push_back(std::move(spec));
  }
  stack->cluster = std::make_unique<cluster::EngineCluster>(std::move(shards));
  stack->frontend = std::make_unique<cluster::SocketFrontend>(*stack->cluster);
  stack->frontend->start();
  std::vector<std::future<runtime::InferenceResult>> warm;
  for (std::size_t s = 0; s < stack->cluster->shard_count(); ++s) {
    runtime::InferenceEngine& engine = stack->cluster->shard(s);
    for (std::size_t b = 0; b < engine.backend_count(); ++b) {
      runtime::SubmitOptions opts;
      opts.backend = b;
      warm.push_back(engine.submit(image_at(pool, 0), opts));
    }
  }
  for (auto& f : warm) (void)f.get();
  cluster::FrontendClient client("127.0.0.1", stack->frontend->port());
  Arrival a;
  client.send(wire_request(0, a, pool));
  const cluster::WireResponse r = client.recv();
  ODENET_CHECK(r.status == cluster::ResponseStatus::kOk,
               "warm-up request failed: " << r.message);
  return stack;
}

struct Reply {
  bool seen = false;
  double sent_s = 0.0;   // actual send time, relative to start
  double recv_s = 0.0;
  cluster::WireResponse res;
};

struct SocketRun {
  std::vector<Arrival> schedule;
  std::vector<Reply> replies;
  std::uint64_t duplicates = 0;
  std::uint64_t unknown = 0;
};

/// Replays the schedule through the front end; returns when every request
/// was answered or the drain time ran out.
SocketRun run_socket_phase(Stack& stack, const Tensor& pool,
                           std::uint64_t seed, double window_s,
                           Tracer* tracer) {
  SocketRun run;
  run.schedule = make_schedule(seed, window_s);
  const std::size_t n = run.schedule.size();
  run.replies.resize(n);
  std::vector<std::unique_ptr<cluster::FrontendClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<cluster::FrontendClient>(
        "127.0.0.1", stack.frontend->port()));
  }
  std::mutex mu;
  const double start = now_seconds() + 0.05;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = static_cast<std::size_t>(c); i < n;
             i += kConnections) {
          // Encoded ahead of its send time, so the send itself is on time.
          const std::vector<std::uint8_t> frame = cluster::encode_request(
              wire_request(static_cast<std::uint64_t>(i) + 1, run.schedule[i],
                           pool));
          const double due = start + run.schedule[i].due_s;
          const double wait = due - now_seconds();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            run.replies[i].sent_s = now_seconds() - start;
          }
          if (tracer != nullptr) {
            Tracer::Scope span(*tracer, "cluster.client_send", i + 1);
            clients[c]->send_raw(frame.data(), frame.size());
          } else {
            clients[c]->send_raw(frame.data(), frame.size());
          }
        }
      } catch (const std::exception& e) {
        // Unsent requests stay unanswered and count as missing.
        std::printf("connection %d: send failed: %s\n", c, e.what());
      }
    });
    threads.emplace_back([&, c] {
      std::size_t expected = 0;
      for (std::size_t i = static_cast<std::size_t>(c); i < n;
           i += kConnections) {
        ++expected;
      }
      for (std::size_t k = 0; k < expected; ++k) {
        cluster::WireResponse res;
        try {
          res = clients[c]->recv();
        } catch (const std::exception& e) {
          std::printf("connection %d: %s\n", c, e.what());
          return;
        }
        const double t = now_seconds() - start;
        std::lock_guard<std::mutex> lock(mu);
        if (res.id == 0 || res.id > n) {
          ++run.unknown;
          continue;
        }
        Reply& r = run.replies[res.id - 1];
        if (r.seen) {
          ++run.duplicates;
          continue;
        }
        r.seen = true;
        r.recv_s = t;
        r.res = std::move(res);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& c : clients) c->close();
  return run;
}

struct ServeSetup {
  models::ModelSnapshot::Ptr snapshot;
  Tensor pool;
  std::vector<std::vector<double>> reference;
};

ServeSetup prepare(const Args& args) {
  ServeSetup s;
  s.snapshot = load_calibrated_snapshot(args, models::Arch::kROdeNet3, 20,
                                        nullptr);
  s.pool = make_images(kServeImages, args.seed);
  s.reference = ReferenceNet(*s.snapshot).forward_first(s.pool, kServeImages);
  return s;
}

std::uint64_t count_missing(const std::vector<bool>& seen) {
  return static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), false));
}

/// Checks every reply: each id answered exactly once, status OK, logits
/// within the fixed-point budget of the plain-loop reference (a request
/// may be routed to either backend). Counts attempted and failed.
void check_replies(const SocketRun& run, const ServeSetup& setup,
                   Result& res) {
  res.attempted += run.schedule.size();
  std::uint64_t not_ok = 0, wrong = 0;
  double max_err = 0.0, limit = 0.0;
  bool selftested = false;
  for (std::size_t i = 0; i < run.replies.size(); ++i) {
    const Reply& r = run.replies[i];
    if (!r.seen) continue;
    if (r.res.status != cluster::ResponseStatus::kOk) {
      ++not_ok;
      continue;
    }
    const auto& ref = setup.reference[run.schedule[i].image];
    if (r.res.logits.size() != ref.size()) {
      ++wrong;
      continue;
    }
    const Comparison c = compare_logits(r.res.logits.data(), ref, kFixedBudget);
    max_err = std::max(max_err, c.max_err);
    limit = std::max(limit, c.limit);
    if (!c.ok) ++wrong;
    if (!selftested) {
      report_selftest(res, "socket reply logits",
                      rejects_nudged_logit(r.res.logits.data(), ref,
                                           kFixedBudget));
      selftested = true;
    }
  }
  // The exactly-once ledger's self-test: the same replies with one id
  // dropped must show as missing.
  std::vector<bool> seen;
  for (const Reply& r : run.replies) seen.push_back(r.seen);
  const std::uint64_t missing = count_missing(seen);
  if (!seen.empty()) seen.front() = false;
  report_selftest(res, "exactly-once ledger",
                  count_missing(seen) == missing + 1);
  std::printf("check: socket replies n=%zu missing=%llu duplicate=%llu "
              "unknown=%llu not_ok=%llu wrong_logits=%llu max_err=%.3g "
              "limit<=%.3g\n",
              run.replies.size(), static_cast<unsigned long long>(missing),
              static_cast<unsigned long long>(run.duplicates),
              static_cast<unsigned long long>(run.unknown),
              static_cast<unsigned long long>(not_ok),
              static_cast<unsigned long long>(wrong), max_err, limit);
  res.failed += missing + not_ok;
  if (wrong > 0) res.fail_check("socket replies with wrong logits");
  if (run.duplicates > 0 || run.unknown > 0) {
    res.fail_check("socket replies answered more than once or unknown ids");
  }
}

void print_generator_lag(const SocketRun& run) {
  std::vector<double> lag;
  for (std::size_t i = 0; i < run.replies.size(); ++i) {
    lag.push_back((run.replies[i].sent_s - run.schedule[i].due_s) * 1e3);
  }
  std::printf("generator: requests=%zu offered=%.1f/s late_ms p50=%.3f "
              "p99=%.3f max=%.3f\n",
              run.schedule.size(), kArrivalRate, median(lag),
              quantile(lag, 0.99), quantile(lag, 1.0));
}

/// Prints the client latency summary, timed from each request's
/// scheduled send time.
void print_latency(const SocketRun& run) {
  std::vector<double> lat;
  for (std::size_t i = 0; i < run.replies.size(); ++i) {
    const Reply& r = run.replies[i];
    if (r.seen) lat.push_back((r.recv_s - run.schedule[i].due_s) * 1e3);
  }
  std::printf("latency_ms: n=%zu p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
              lat.size(), median(lat), quantile(lat, 0.9), quantile(lat, 0.99),
              quantile(lat, 1.0));
}

/// Median microseconds of one call, timed in groups of `group` calls.
double per_call_us(const std::function<void()>& fn, int group, int groups) {
  std::vector<double> v;
  for (int g = 0; g < groups; ++g) {
    const double t0 = now_seconds();
    for (int i = 0; i < group; ++i) fn();
    v.push_back((now_seconds() - t0) / group * 1e6);
  }
  return median(v);
}

struct Direct {
  std::vector<double> submit_us, queue_ms, compute_ms, reply_ms;
  double batch_sum = 0.0;
  std::uint64_t served = 0, fixed = 0, failed = 0, wrong = 0;
};

/// The same open-loop schedule submitted in-process through
/// EngineCluster::submit, so the engine's own timings are visible.
Direct run_direct_phase(Stack& stack, const ServeSetup& setup,
                        std::uint64_t seed, double window_s, Tracer& tracer) {
  Direct d;
  const std::vector<Arrival> schedule = make_schedule(seed + 1000, window_s);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<runtime::InferenceResult>>> q;
  bool done = false;
  std::thread collector([&] {
    while (true) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done || !q.empty(); });
      if (q.empty()) return;
      auto [i, fut] = std::move(q.front());
      q.pop_front();
      lock.unlock();
      try {
        const runtime::InferenceResult r = fut.get();
        const auto& ref = setup.reference[schedule[i].image];
        if (!compare_logits(r.logits.data(), ref, kFixedBudget).ok) ++d.wrong;
        d.queue_ms.push_back(r.queue_seconds * 1e3);
        d.compute_ms.push_back(r.compute_seconds * 1e3);
        d.reply_ms.push_back(
            (r.total_seconds - r.queue_seconds - r.compute_seconds) * 1e3);
        d.batch_sum += r.batch_size;
        ++d.served;
        if (r.backend == core::ExecBackend::kFixed) ++d.fixed;
      } catch (const std::exception& e) {
        std::printf("direct request failed: %s\n", e.what());
        ++d.failed;
      }
    }
  });
  const double start = now_seconds() + 0.05;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double wait = start + schedule[i].due_s - now_seconds();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    runtime::SubmitOptions opts;
    opts.tenant = tenant_weights()[static_cast<std::size_t>(schedule[i].tenant)].first;
    opts.priority = schedule[i].priority;
    Tensor img = image_at(setup.pool, schedule[i].image);
    const double t0 = now_seconds();
    std::future<runtime::InferenceResult> fut;
    {
      Tracer::Scope span(tracer, "runtime.submit", i + 1);
      fut = stack.cluster->submit(std::move(img), opts);
    }
    d.submit_us.push_back((now_seconds() - t0) * 1e6);
    {
      std::lock_guard<std::mutex> lock(mu);
      q.emplace_back(i, std::move(fut));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  return d;
}

}  // namespace

Result serving_layers(const Args& args, Tracer& tracer) {
  Result res;
  Args serve_args = args;
  serve_args.workload = "serving";
  const ServeSetup setup = prepare(serve_args);

  Arrival a;
  const cluster::WireRequest req = wire_request(1, a, setup.pool);
  res.add("cluster.encode_us",
          per_call_us([&] { (void)cluster::encode_request(req); }, 200, 15),
          "us");
  cluster::WireResponse reply;
  reply.id = 1;
  reply.status = cluster::ResponseStatus::kOk;
  reply.logits.assign(setup.reference[0].begin(), setup.reference[0].end());
  const std::vector<std::uint8_t> frame = cluster::encode_response(reply);
  res.add("cluster.decode_us",
          per_call_us(
              [&] {
                (void)cluster::decode_response(
                    frame.data() + cluster::kFrameHeaderBytes,
                    frame.size() - cluster::kFrameHeaderBytes);
              },
              200, 15),
          "us");

  std::unique_ptr<Stack> stack = build_stack(setup.snapshot, setup.pool);
  const double half = kServingTraceSeconds / 2.0;
  const double socket_start = now_seconds() + 0.05;
  const SocketRun run =
      run_socket_phase(*stack, setup.pool, args.seed, half, &tracer);
  print_generator_lag(run);
  check_replies(run, setup, res);
  print_latency(run);
  std::vector<double> frontend_ms;
  for (std::size_t i = 0; i < run.replies.size(); ++i) {
    const Reply& r = run.replies[i];
    if (!r.seen) continue;
    tracer.record("cluster.round_trip", socket_start + r.sent_s,
                  socket_start + r.recv_s, i + 1);
    frontend_ms.push_back((r.recv_s - r.sent_s) * 1e3 - r.res.latency_ms);
  }
  res.add("cluster.frontend_ms.p50", median(frontend_ms), "ms");
  res.add("cluster.frontend_ms.p99", quantile(frontend_ms, 0.99), "ms");
  const cluster::ClusterStats stats = stack->cluster->stats();
  double max_share = 0.0;
  for (const cluster::ShardStats& s : stats.shards) {
    max_share = std::max(max_share, static_cast<double>(s.placed + s.spilled_in) /
                                        static_cast<double>(stats.submitted));
  }
  res.add("cluster.spilled", static_cast<double>(stats.spilled), "count");
  res.add("cluster.shard_share.max", max_share, "ratio");

  const Direct d = run_direct_phase(*stack, setup, args.seed, half, tracer);
  res.attempted += d.served + d.failed;
  res.failed += d.failed;
  if (d.wrong > 0) res.fail_check("direct phase: results with wrong logits");
  std::printf("direct: served=%llu failed=%llu\n",
              static_cast<unsigned long long>(d.served),
              static_cast<unsigned long long>(d.failed));
  res.add("runtime.submit_us.p50", median(d.submit_us), "us");
  res.add("runtime.queue_ms.p50", median(d.queue_ms), "ms");
  res.add("runtime.queue_ms.p99", quantile(d.queue_ms, 0.99), "ms");
  res.add("runtime.compute_ms.p50", median(d.compute_ms), "ms");
  res.add("runtime.reply_ms.p50", median(d.reply_ms), "ms");
  res.add("runtime.batch_size.mean",
          d.served > 0 ? d.batch_sum / static_cast<double>(d.served) : 0.0,
          "images");
  res.add("runtime.backend_share.fixed",
          d.served > 0 ? static_cast<double>(d.fixed) / d.served : 0.0, "ratio");
  return res;
}

}  // namespace perfbench
