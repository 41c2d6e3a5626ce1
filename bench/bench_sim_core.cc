// Sim-core microbenchmark: how fast the discrete-event scheduler itself
// runs, independent of any protocol model. Three seeded phases:
//
//   timers   a storm of sleeping tasks whose durations span nanoseconds to
//            several simulated days, ~64 timers pending -> events/sec
//   shallow  a handful of sleepers firing many short timers, at most a few
//            pending at once: the sparse-storm shape that dominates the
//            protocol benches                          -> events/sec
//   cancels  timed waiters that are always notified before their deadline,
//            so every wait cancels its timer           -> cancels/sec
//   rpc      a small Eager-SendRecv echo workload, the end-to-end shape the
//            ROADMAP scalability sweeps care about     -> ops/sec
//
// Not a google-benchmark binary: wall-clock rates are machine-dependent, so
// --out JSON is informational, while --trace-out gets a byte-identical
// digest of the virtual-time outcome (end times, event counts, a counter
// hash) that CI runs twice with the same seed and cmp's. The cancels phase
// doubles as a correctness gate: if a cancelled timer ever fired, the run's
// virtual end time would land on the abandoned deadlines.
//
//   bench_sim_core --seed 1 --out BENCH_sim_core.json \
//                  --trace-out BENCH_sim_core.trace
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "proto/channel.h"
#include "sim/rng.h"
#include "sim/sync.h"
#include "verbs/fabric.h"

namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using sim::Task;

struct Options {
  uint64_t seed = 1;
  uint32_t timer_tasks = 64;
  uint32_t timers_per_task = 4000;
  uint32_t shallow_tasks = 8;  // at most 8 timers pending
  uint32_t shallow_timers_per_task = 50000;
  uint32_t cancel_waiters = 2000;
  uint32_t cancel_rounds = 10;
  uint32_t rpc_clients = 4;
  uint32_t rpc_ops = 20000;  // total across clients
  uint32_t rpc_bytes = 64;
  std::string out = "BENCH_sim_core.json";
  std::string trace_out;  // empty = skip the digest file
};

/// Wall-clock + virtual-time outcome of one phase. The Run fields are
/// deterministic for a given seed; wall_s is not.
struct PhaseResult {
  const char* name;
  sim::Simulator::RunResult run;
  double wall_s = 0;
  uint64_t units = 0;       // phase-specific numerator (events/cancels/ops)
  uint64_t counters_fnv = 0;  // rpc phase only: hash of the obs counter dump
};

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --- phase 1: timer storm -------------------------------------------------

Task<void> ticker(sim::Simulator& sim, uint64_t seed, uint32_t sleeps) {
  sim::Rng rng(seed);
  for (uint32_t i = 0; i < sleeps; ++i) {
    uint64_t r = rng.next();
    sim::Duration d;
    switch (r % 16) {
      case 0:
        // Far future: 4 to 5 simulated days ahead.
        d = std::chrono::nanoseconds((r % 86'400'000'000'000ull) +
                                     4 * 86'400'000'000'000ull);
        break;
      case 1:
      case 2:
        d = std::chrono::nanoseconds(r % 10'000'000);  // up to 10 ms
        break;
      default:
        d = std::chrono::nanoseconds(r % 4096);  // a few microseconds
    }
    co_await sim.sleep(d);
  }
}

PhaseResult run_timer_phase(const Options& opt) {
  sim::Simulator sim;
  for (uint32_t t = 0; t < opt.timer_tasks; ++t)
    sim.spawn(ticker(sim, opt.seed * 1000003ull + t, opt.timers_per_task));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  PhaseResult res{"timers", r, wall_since(t0), r.events_processed, 0};
  return res;
}

// --- phase 2: shallow storm -----------------------------------------------

Task<void> shallow_ticker(sim::Simulator& sim, uint64_t seed, uint32_t sleeps) {
  sim::Rng rng(seed);
  for (uint32_t i = 0; i < sleeps; ++i)
    co_await sim.sleep(std::chrono::nanoseconds(rng.next() % 2048));
}

PhaseResult run_shallow_phase(const Options& opt) {
  sim::Simulator sim;
  for (uint32_t t = 0; t < opt.shallow_tasks; ++t)
    sim.spawn(shallow_ticker(sim, opt.seed * 900001ull + t,
                             opt.shallow_timers_per_task));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  return PhaseResult{"shallow", r, wall_since(t0), r.events_processed, 0};
}

// --- phase 3: cancel storm ------------------------------------------------

struct CancelShared {
  sim::WaitQueue q;
  uint64_t notified = 0;
  uint64_t timed_out = 0;
  explicit CancelShared(sim::Simulator& sim) : q(sim) {}
};

Task<void> cancel_waiter(sim::Simulator& sim, CancelShared& sh,
                         uint32_t rounds) {
  for (uint32_t r = 0; r < rounds; ++r) {
    // The driver notifies long before this deadline, so the wait always
    // wins and the deadline timer is always cancelled.
    bool ok = co_await sh.q.wait_until(sim.now() + 1ms);
    if (ok)
      ++sh.notified;
    else
      ++sh.timed_out;
  }
}

Task<void> cancel_driver(sim::Simulator& sim, CancelShared& sh,
                         uint32_t rounds) {
  for (uint32_t r = 0; r < rounds; ++r) {
    // Let every waiter re-link at the current timestamp, then release them.
    co_await sim.sleep(200ns);
    sh.q.notify_all();
  }
}

PhaseResult run_cancel_phase(const Options& opt) {
  sim::Simulator sim;
  CancelShared sh(sim);
  for (uint32_t w = 0; w < opt.cancel_waiters; ++w)
    sim.spawn(cancel_waiter(sim, sh, opt.cancel_rounds));
  sim.spawn(cancel_driver(sim, sh, opt.cancel_rounds));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  PhaseResult res{"cancels", r, wall_since(t0), r.timers_cancelled, 0};
  // Correctness gate: every wait was notified, every deadline timer was
  // cancelled, and no cancelled timer fired (virtual time never reached the
  // 1ms deadlines — the run ends at rounds * 200ns).
  const uint64_t expect =
      uint64_t(opt.cancel_waiters) * opt.cancel_rounds;
  const sim::Time last_notify{int64_t(opt.cancel_rounds) * 200};
  if (sh.timed_out != 0 || sh.notified != expect ||
      r.timers_cancelled < expect || sim.now() != last_notify) {
    std::fprintf(stderr,
                 "cancel phase violation: notified=%llu/%llu timed_out=%llu "
                 "cancelled=%llu end_ns=%lld (cancelled timer fired?)\n",
                 (unsigned long long)sh.notified, (unsigned long long)expect,
                 (unsigned long long)sh.timed_out,
                 (unsigned long long)r.timers_cancelled,
                 (long long)sim.now().count());
    std::exit(1);
  }
  return res;
}

// --- phase 4: RPC echo ----------------------------------------------------

Task<void> rpc_client(proto::RpcChannel& ch, uint32_t bytes, uint32_t iters) {
  proto::Buffer payload(bytes, std::byte{0x2a});
  for (uint32_t i = 0; i < iters; ++i)
    (co_await ch.call(payload, bytes)).value();
  ch.shutdown();
}

PhaseResult run_rpc_phase(const Options& opt) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server = fabric.add_node();
  std::vector<verbs::Node*> clients;
  std::vector<std::unique_ptr<proto::RpcChannel>> channels;
  proto::ChannelConfig cfg;
  cfg.with_poll(sim::PollMode::kBusy);
  proto::Handler echo = [server](proto::View req,
                                 proto::MemoryBuffer& out) -> Task<void> {
    co_await server->cpu().compute(1000ns);
    out.write(req.data(), req.size());
  };
  for (uint32_t c = 0; c < opt.rpc_clients; ++c) {
    clients.push_back(fabric.add_node());
    channels.push_back(
        proto::make_channel(proto::ProtocolKind::kEagerSendRecv, *clients[c],
                            *server, echo, cfg));
  }
  const uint32_t per_client = opt.rpc_ops / std::max(1u, opt.rpc_clients);
  for (uint32_t c = 0; c < opt.rpc_clients; ++c)
    sim.spawn(rpc_client(*channels[c], opt.rpc_bytes, per_client));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  PhaseResult res{"rpc", r, wall_since(t0),
                  uint64_t(per_client) * opt.rpc_clients, 0};
  // The counter dump covers every charge the workload made (doorbells,
  // WQEs, copies...) — one hash pins the whole data path's behavior.
  res.counters_fnv = fnv1a(fabric.obs().counters.dump());
  return res;
}

// --- output ---------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double rate(uint64_t units, double secs) {
  return secs > 0 ? double(units) / secs : 0.0;
}

std::string phase_json(const PhaseResult& p) {
  std::string j = std::string("\"") + p.name + "\":{";
  j += "\"wall_s\":" + fmt(p.wall_s);
  j += ",\"units\":" + std::to_string(p.units);
  j += ",\"per_sec\":" + fmt(rate(p.units, p.wall_s));
  j += ",\"virtual_end_ns\":" + std::to_string(p.run.end_time.count());
  j += ",\"events_processed\":" + std::to_string(p.run.events_processed);
  j += ",\"timers_cancelled\":" + std::to_string(p.run.timers_cancelled);
  j += ",\"peak_queue_depth\":" + std::to_string(p.run.peak_queue_depth);
  j += ",\"live_tasks\":" + std::to_string(p.run.live_tasks);
  if (p.counters_fnv) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                  (unsigned long long)p.counters_fnv);
    j += std::string(",\"counters_fnv\":") + buf;
  }
  j += "}";
  return j;
}

/// Deterministic digest line: everything about the phase EXCEPT wall time.
std::string phase_trace(const PhaseResult& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s end_ns=%lld processed=%llu cancelled=%llu peak=%llu "
                "live=%llu units=%llu counters_fnv=0x%016llx\n",
                p.name, (long long)p.run.end_time.count(),
                (unsigned long long)p.run.events_processed,
                (unsigned long long)p.run.timers_cancelled,
                (unsigned long long)p.run.peak_queue_depth,
                (unsigned long long)p.run.live_tasks,
                (unsigned long long)p.units,
                (unsigned long long)p.counters_fnv);
  return buf;
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto eat = [&](const char* flag, auto set) {
      if (a != flag) return false;
      const char* v = next(i);
      if (!v) throw std::runtime_error(a + " needs a value");
      try {
        set(v);
      } catch (const std::logic_error&) {  // std::sto* rejected the value
        throw std::runtime_error("bad value for " + a + ": " + v);
      }
      return true;
    };
    bool ok =
        eat("--seed", [&](const char* v) { opt.seed = std::stoull(v); }) ||
        eat("--timer-tasks",
            [&](const char* v) { opt.timer_tasks = std::stoul(v); }) ||
        eat("--timers-per-task",
            [&](const char* v) { opt.timers_per_task = std::stoul(v); }) ||
        eat("--shallow-tasks",
            [&](const char* v) { opt.shallow_tasks = std::stoul(v); }) ||
        eat("--shallow-timers-per-task",
            [&](const char* v) { opt.shallow_timers_per_task = std::stoul(v); }) ||
        eat("--cancel-waiters",
            [&](const char* v) { opt.cancel_waiters = std::stoul(v); }) ||
        eat("--cancel-rounds",
            [&](const char* v) { opt.cancel_rounds = std::stoul(v); }) ||
        eat("--rpc-clients",
            [&](const char* v) { opt.rpc_clients = std::stoul(v); }) ||
        eat("--rpc-ops", [&](const char* v) { opt.rpc_ops = std::stoul(v); }) ||
        eat("--rpc-bytes",
            [&](const char* v) { opt.rpc_bytes = std::stoul(v); }) ||
        eat("--out", [&](const char* v) { opt.out = v; }) ||
        eat("--trace-out", [&](const char* v) { opt.trace_out = v; });
    if (!ok) {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) return 2;
  } catch (const std::runtime_error& e) {  // a flag value it cannot use
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  PhaseResult phases[] = {run_timer_phase(opt), run_shallow_phase(opt),
                          run_cancel_phase(opt), run_rpc_phase(opt)};
  constexpr size_t kPhases = sizeof(phases) / sizeof(phases[0]);

  std::string json = "{\"bench\":\"sim_core\",\"config\":{";
  json += "\"seed\":" + std::to_string(opt.seed);
  json += ",\"timer_tasks\":" + std::to_string(opt.timer_tasks);
  json += ",\"timers_per_task\":" + std::to_string(opt.timers_per_task);
  json += ",\"shallow_tasks\":" + std::to_string(opt.shallow_tasks);
  json += ",\"shallow_timers_per_task\":" +
          std::to_string(opt.shallow_timers_per_task);
  json += ",\"cancel_waiters\":" + std::to_string(opt.cancel_waiters);
  json += ",\"cancel_rounds\":" + std::to_string(opt.cancel_rounds);
  json += ",\"rpc_clients\":" + std::to_string(opt.rpc_clients);
  json += ",\"rpc_ops\":" + std::to_string(opt.rpc_ops);
  json += ",\"rpc_bytes\":" + std::to_string(opt.rpc_bytes);
  json += ",\"frame_arena_pooled\":";
  json += sim::FrameArena::pooling_enabled() ? "true" : "false";
  json += "},";
  std::string trace = "sim_core_trace_v1 seed=" + std::to_string(opt.seed) +
                      "\n";
  for (size_t i = 0; i < kPhases; ++i) {
    if (i) json += ",";
    json += phase_json(phases[i]);
    trace += phase_trace(phases[i]);
    std::printf("%-7s %12llu units in %7.3fs = %12.0f/s  (virtual end %lld ns)\n",
                phases[i].name, (unsigned long long)phases[i].units,
                phases[i].wall_s, rate(phases[i].units, phases[i].wall_s),
                (long long)phases[i].run.end_time.count());
  }
  json += "}\n";
  std::ofstream(opt.out) << json;
  std::printf("wrote %s\n", opt.out.c_str());
  if (!opt.trace_out.empty()) {
    std::ofstream(opt.trace_out) << trace;
    std::printf("wrote %s\n", opt.trace_out.c_str());
  }
  return 0;
}
