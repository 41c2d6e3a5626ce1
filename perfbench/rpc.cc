// rpc-small and rpc-mix: closed-loop ATB clients calling the hatrpc-gen
// stubs of bench/atb.hatrpc over core::HatConnection, served by
// core::HatServer with the benchmark's own AtbIf handler.
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "atb_gen.h"
#include "core/engine.h"
#include "round.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using sim::Task;

struct RpcSpec {
  double ping_share;       // the rest are Stream calls
  size_t ping_bytes;
  size_t stream_bytes;
  sim::Duration window;    // timed virtual window
};

constexpr int kClients = 16;  // == the IDL's concurrency=16 service hint

RpcSpec spec_of(const std::string& workload) {
  if (workload == "rpc-small") return {1.0, 64, 0, 30ms};
  if (workload == "rpc-mix") return {0.5, 512, 128 << 10, 80ms};
  throw std::invalid_argument("unknown rpc workload " + workload);
}

constexpr const char* kStubPing = "stub.Ping";
constexpr const char* kStubStream = "stub.Stream";
constexpr const char* kCall = "core.call";
constexpr const char* kHandler = "handler";

/// Spans of a traced round plus the request -> core.call span index the
/// handler needs to name its parent.
struct Tracing {
  SpanLog log;
  std::vector<int64_t> call_span;
};

/// Every payload carries its request id in its first 8 bytes, so the
/// server-side handler span can be joined to the client's spans.
void stamp(std::string& payload, uint64_t request) {
  std::memcpy(payload.data(), &request, sizeof request);
}

uint64_t request_of(const std::string& payload) {
  uint64_t id = 0;
  if (payload.size() >= sizeof id) std::memcpy(&id, payload.data(), sizeof id);
  return id;
}

/// Echo check: full compare when traced; otherwise size, id and tail.
bool echo_ok(const std::string& sent, const std::string& got, bool full) {
  if (full) return sent == got;
  if (got.size() != sent.size() || request_of(got) != request_of(sent))
    return false;
  const size_t tail = std::min<size_t>(8, sent.size());
  return std::memcmp(got.data() + got.size() - tail,
                     sent.data() + sent.size() - tail, tail) == 0;
}

class AtbHandler : public atb::AtbIf {
 public:
  AtbHandler(verbs::Node& node, Tracing* tracing)
      : node_(node), tracing_(tracing) {}

  Task<std::string> Ping(const std::string& payload) override {
    return serve(payload);
  }
  Task<std::string> Stream(const std::string& payload) override {
    return serve(payload);
  }

 private:
  // Checksum-style work that scales with the payload (the paper's §5.3).
  Task<std::string> serve(const std::string& payload) {
    sim::Simulator& sim = node_.fabric().simulator();
    size_t span = 0;
    if (tracing_) {
      const uint64_t req = request_of(payload);
      const int64_t parent = req < tracing_->call_span.size()
                                 ? tracing_->call_span[req]
                                 : -1;
      span = tracing_->log.open(kHandler, req, parent, sim.now().count());
    }
    co_await node_.cpu().compute(1us +
                                 sim::transfer_time(payload.size(), 20.0));
    if (tracing_) tracing_->log.close(span, sim.now().count());
    co_return payload;
  }

  verbs::Node& node_;
  Tracing* tracing_;
};

/// HatCaller decorator that records the core.call span of each request.
class TracedCaller : public core::HatCaller {
 public:
  TracedCaller(core::HatConnection& inner, sim::Simulator& sim,
               Tracing& tracing)
      : inner_(inner), sim_(sim), tracing_(tracing) {}

  uint64_t request = 0;  // set by the client before each stub call
  int64_t parent = -1;

  Task<core::Buffer> call(std::string method, core::View payload) override {
    const size_t span =
        tracing_.log.open(kCall, request, parent, sim_.now().count());
    if (tracing_.call_span.size() <= request)
      tracing_.call_span.resize(request + 1, -1);
    tracing_.call_span[request] = int64_t(span);
    try {
      core::Buffer reply = co_await inner_.call(std::move(method), payload);
      tracing_.log.close(span, sim_.now().count());
      co_return reply;
    } catch (...) {
      tracing_.log.close(span, sim_.now().count());
      throw;
    }
  }

 private:
  core::HatConnection& inner_;
  sim::Simulator& sim_;
  Tracing& tracing_;
};

struct Client {
  std::unique_ptr<core::HatConnection> conn;
  std::unique_ptr<TracedCaller> traced;
  std::unique_ptr<atb::AtbClient> stub;
  sim::Rng mix;
  std::string ping, stream;
  sim::Duration start_offset{};
};

struct Tally {
  uint64_t attempted = 0, failed = 0, ops = 0, payload_bytes = 0;
  std::vector<double> lat_us;  // latency-class (Ping) calls in the window
};

struct Round {
  sim::Simulator& sim;
  const RpcSpec& spec;
  Tracing* tracing;
  sim::Time t_end{};
  uint64_t next_request = 0;
  Tally tally;
};

std::string filled(size_t bytes, uint64_t seed) {
  sim::Rng rng(seed);
  std::string s(bytes, '\0');
  for (char& c : s) c = static_cast<char>(rng.next() >> 56);
  return s;
}

/// One call through the stub; returns whether the reply echoed `payload`.
Task<bool> call_once(Round& r, Client& c, bool ping, std::string& payload) {
  const uint64_t id = ++r.next_request;
  stamp(payload, id);
  size_t span = 0;
  if (r.tracing) {
    span = r.tracing->log.open(ping ? kStubPing : kStubStream, id, -1,
                               r.sim.now().count());
    c.traced->request = id;
    c.traced->parent = int64_t(span);
  }
  bool ok = true;
  std::string reply;
  try {
    if (ping)
      reply = co_await c.stub->Ping(payload);
    else
      reply = co_await c.stub->Stream(payload);
  } catch (const std::exception&) {
    ok = false;
  }
  if (r.tracing) r.tracing->log.close(span, r.sim.now().count());
  co_return ok && echo_ok(payload, reply, r.tracing != nullptr);
}

/// Warm-up: one call per function the workload uses, before the window.
Task<void> warm(Round& r, Client& c) {
  if (r.spec.ping_share > 0) {
    const bool ok = co_await call_once(r, c, true, c.ping);
    if (!ok) ++r.tally.failed;
  }
  if (r.spec.ping_share < 1) {
    const bool ok = co_await call_once(r, c, false, c.stream);
    if (!ok) ++r.tally.failed;
  }
}

Task<void> closed_loop(Round& r, Client& c) {
  co_await r.sim.sleep(c.start_offset);
  while (r.sim.now() < r.t_end) {
    const bool ping = c.mix.chance(r.spec.ping_share);
    std::string& payload = ping ? c.ping : c.stream;
    const sim::Time t0 = r.sim.now();
    const bool ok = co_await call_once(r, c, ping, payload);
    const sim::Time t1 = r.sim.now();
    if (t1 > r.t_end) break;  // completed after the window: not counted
    ++r.tally.attempted;
    if (!ok) {
      ++r.tally.failed;
      continue;
    }
    ++r.tally.ops;
    r.tally.payload_bytes += 2 * payload.size();
    if (ping) r.tally.lat_us.push_back(sim::to_micros(t1 - t0));
  }
}

const char* poll_name(sim::PollMode m) {
  return m == sim::PollMode::kBusy ? "busy" : "event";
}

/// Per-request figures from the traced round's spans.
void add_span_figures(RoundReport& rep, const Tracing& t) {
  const std::vector<Span>& spans = t.log.spans();
  const std::vector<int64_t> self_v = t.log.self_times(Clock::kVirtual);
  const std::vector<int64_t> self_h = t.log.self_times(Clock::kHost);
  // The client codec is charged over every call; the core.* latencies,
  // like lat_*, over Ping calls only.
  auto is_ping_call = [&spans](const Span& call) {
    return call.parent >= 0 &&
           std::string_view(spans[size_t(call.parent)].name) == kStubPing;
  };
  std::vector<double> call_us, handler_us, transport_us;
  double codec_ns = 0;
  uint64_t stubs = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name = s.name;
    if (name == kStubPing || name == kStubStream) {
      codec_ns += double(self_h[i]);
      ++stubs;
    } else if (name == kCall && is_ping_call(s)) {
      call_us.push_back(micros(s.virt.end - s.virt.begin));
      transport_us.push_back(micros(self_v[i]));
    } else if (name == kHandler && s.parent >= 0 &&
               is_ping_call(spans[size_t(s.parent)])) {
      handler_us.push_back(micros(s.virt.end - s.virt.begin));
    }
  }
  rep.add("thrift.client_codec_host_ns_per_op", per(codec_ns, double(stubs)),
          "ns", stubs, false);
  rep.add_quantile("core.call_p50_us", call_us, 0.50, "us");
  rep.add_quantile("core.call_p99_us", call_us, 0.99, "us");
  rep.add_quantile("core.handler_p50_us", handler_us, 0.50, "us");
  rep.add_quantile("core.transport_p50_us", transport_us, 0.50, "us");
}

}  // namespace

RoundReport run_rpc(const Options& opt) {
  const int64_t h_setup = host_ns();
  const RpcSpec spec = spec_of(opt.workload);
  RoundReport rep;
  rep.workload = opt.workload;
  rep.seed = opt.seed;
  rep.traced = opt.traced;

  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  fabric.set_fault_plan(jitter_plan(derive_seed(opt.seed, Stream::kFault, 0)));
  verbs::Node* server_node = fabric.add_node();
  std::unique_ptr<Tracing> tracing;
  if (opt.traced) tracing = std::make_unique<Tracing>();
  core::HatServer server(*server_node, atb::Atb_hints(), {});
  AtbHandler handler(*server_node, tracing.get());
  atb::register_Atb(server.dispatcher(), handler);

  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    Client& c = clients[size_t(i)];
    const uint64_t idx = uint64_t(i);
    c.conn = std::make_unique<core::HatConnection>(*fabric.add_node(), server);
    core::HatCaller* caller = c.conn.get();
    if (tracing) {
      c.traced = std::make_unique<TracedCaller>(*c.conn, sim, *tracing);
      caller = c.traced.get();
    }
    c.stub = std::make_unique<atb::AtbClient>(*caller);
    c.mix = sim::Rng(derive_seed(opt.seed, Stream::kAtbMix, idx));
    const uint64_t fill = derive_seed(opt.seed, Stream::kAtbFill, idx);
    c.ping = filled(spec.ping_bytes, fill);
    c.stream = filled(spec.stream_bytes, fill + 1);
    c.start_offset = sim::Duration(
        int64_t(derive_seed(opt.seed, Stream::kAtbStart, idx) % 2000));
  }

  Round r{sim, spec, tracing.get(), {}, 0, {}};
  for (Client& c : clients) sim.spawn(warm(r, c));
  const sim::Simulator::RunResult warm_run = sim.run();
  const uint64_t warm_failed = r.tally.failed;
  r.tally.failed = 0;
  if (tracing) *tracing = Tracing();  // keep only the window's spans

  const obs::CounterSet c0 = node_totals(fabric.obs().counters);
  const sim::Time t0 = sim.now();
  r.t_end = t0 + spec.window;
  for (Client& c : clients) sim.spawn(closed_loop(r, c));
  const int64_t h_timed = host_ns();
  const double setup_s = double(h_timed - h_setup) / 1e9;
  const sim::Simulator::RunResult timed_run = sim.run_until(r.t_end);
  const int64_t timed_host_ns = host_ns() - h_timed;
  const obs::CounterSet c1 = node_totals(fabric.obs().counters);

  sim.run();  // finish the calls still in flight at the window's end
  double channels = 0;
  for (Client& c : clients) channels += double(c.conn->channel_count());
  const hint::Plan ping_plan = clients[0].conn->plan_for("Ping");
  const hint::Plan stream_plan = clients[0].conn->plan_for("Stream");
  server.stop();
  sim.run();

  const Tally& t = r.tally;
  const double window_s = sim::to_seconds(spec.window);
  const double host_s = double(timed_host_ns) / 1e9;
  rep.attempted = t.attempted;
  rep.failed = t.failed;
  rep.add_quantile("lat_p50_us", t.lat_us, 0.50, "us");
  rep.add_quantile("lat_p99_us", t.lat_us, 0.99, "us");
  rep.add("thr_kops", double(t.ops) / window_s / 1e3, "kops", t.ops);
  rep.add("goodput_gbps", double(t.payload_bytes) * 8 / window_s / 1e9,
          "Gb/s", t.ops);
  rep.add("fail_frac", per(double(t.failed), double(t.attempted)), "ratio",
          t.attempted);
  rep.add("host_kops", double(t.ops) / host_s / 1e3, "kops", t.ops, false);
  rep.add("setup_s", setup_s, "s", 1, false);

  add_layer_counters(rep, c1.delta_since(c0), c1, t.ops,
                     timed_run.events_processed - warm_run.events_processed,
                     timed_run.timers_cancelled - warm_run.timers_cancelled,
                     timed_run.peak_queue_depth, timed_host_ns);
  rep.add("core.channels_per_conn", channels / kClients, "count", kClients);
  if (tracing) {
    add_span_figures(rep, *tracing);
    write_spans(rep, opt, tracing->log);
  }

  auto label = [](const hint::Plan& p) {
    return std::string(proto::to_string(p.protocol)) + " client=" +
           poll_name(p.client_poll) + " server=" + poll_name(p.server_poll);
  };
  if (spec.ping_share > 0)
    rep.labels.emplace_back("plan.Ping", label(ping_plan));
  if (spec.ping_share < 1)
    rep.labels.emplace_back("plan.Stream", label(stream_plan));

  rep.check("warmup_calls_ok", warm_failed == 0,
            std::to_string(warm_failed) + " failed");
  rep.check("no_failed_calls", t.failed == 0,
            std::to_string(t.failed) + " of " + std::to_string(t.attempted));
  rep.check("no_live_tasks", sim.live_tasks() == 0,
            std::to_string(sim.live_tasks()) + " live");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1, false);
  return rep;
}

}  // namespace perfbench
