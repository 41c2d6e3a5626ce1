// kv-failover: YCSB-A against clustered HatKV (8 shards, RF 2, 8 servers,
// 32 kv::ClusterClients with one-sided reads). One server crashes a
// quarter of the way in, restarts, resyncs and rejoins; the window then
// runs on for as long again as before the crash.
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "kv/cluster.h"
#include "round.h"
#include "ycsb/ycsb.h"

namespace perfbench {
namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using sim::Task;

constexpr uint32_t kServers = 8;
constexpr uint32_t kClients = 32;
constexpr uint64_t kRecords = 4000;
constexpr sim::Duration kBefore = 9ms;   // window start -> crash
constexpr sim::Duration kDown = 1500us;  // crash -> hardware restart
constexpr sim::Duration kStep = 1ms;     // run_until stride while end unknown
constexpr sim::Duration kGiveUp = 1s;    // ... and how long to wait for it
// Fixed, so that seeds vary the traffic rather than which shards fail over.
constexpr uint32_t kVictim = 0;

struct Shared {
  sim::Simulator& sim;
  SpanLog* log = nullptr;  // traced rounds only
  sim::Time t0{}, crash_at{}, restart_at{};
  std::optional<sim::Time> recover_done, t_end, first_recovered_write;
  sim::Duration resync_span{};
  std::set<uint32_t> affected;  // shards whose chain head was the victim
  // Acked-write ledger: key -> (highest acked version, its value).
  std::map<std::string, std::pair<uint64_t, std::string>> ledger;

  uint64_t attempted = 0, failed = 0, ops = 0, payload_bytes = 0;
  uint64_t before_ops = 0, after_ops = 0, get_keys = 0, written_keys = 0;
  std::vector<double> lat_us;
  std::vector<double> lat_by_type[4];

  explicit Shared(sim::Simulator& s) : sim(s) {}

  void ack(const std::string& key, uint64_t version, const std::string& v) {
    auto& slot = ledger[key];
    if (version > slot.first) slot = {version, v};
  }
};

struct ClientState {
  std::unique_ptr<kv::ClusterClient> client;
  std::unique_ptr<ycsb::WorkloadGenerator> gen;
  sim::Rng values;
};

Task<void> load(Shared& sh, ClientState& cs, uint32_t c) {
  for (uint64_t k = c; k < kRecords; k += kClients) {
    std::string key = cs.gen->key_of(k);
    std::string value = cs.gen->make_value(cs.values);
    const uint64_t v = co_await cs.client->Put(key, value);
    sh.ack(key, v, value);
  }
}

/// Issues one op; returns its payload bytes (keys and values both ways).
Task<uint64_t> issue(Shared& sh, kv::ClusterClient& client,
                     const ycsb::Op& op) {
  uint64_t bytes = 0;
  switch (op.type) {
    case ycsb::OpType::kGet: {
      kv::ClusterClient::GetResult got = co_await client.Get(op.keys[0]);
      bytes = op.keys[0].size() + got.value.size();
      ++sh.get_keys;
      break;
    }
    case ycsb::OpType::kPut: {
      const uint64_t v = co_await client.Put(op.keys[0], op.values[0]);
      sh.ack(op.keys[0], v, op.values[0]);
      bytes = op.keys[0].size() + op.values[0].size();
      ++sh.written_keys;
      break;
    }
    case ycsb::OpType::kMultiGet: {
      std::vector<kv::ClusterClient::GetResult> got =
          co_await client.MultiGet(op.keys);
      for (size_t j = 0; j < got.size(); ++j)
        bytes += op.keys[j].size() + got[j].value.size();
      sh.get_keys += op.keys.size();
      break;
    }
    case ycsb::OpType::kMultiPut: {
      std::vector<std::pair<std::string, std::string>> pairs;
      pairs.reserve(op.keys.size());
      for (size_t j = 0; j < op.keys.size(); ++j)
        pairs.emplace_back(op.keys[j], op.values[j]);
      std::vector<uint64_t> versions = co_await client.MultiPut(pairs);
      for (size_t j = 0; j < pairs.size(); ++j) {
        sh.ack(pairs[j].first, versions[j], pairs[j].second);
        bytes += pairs[j].first.size() + pairs[j].second.size();
      }
      sh.written_keys += pairs.size();
      break;
    }
  }
  co_return bytes;
}

Task<void> closed_loop(Shared& sh, ClientState& cs,
                       const kv::ShardMap& routing, sim::WaitGroup& done) {
  uint64_t n = 0;
  while (!sh.t_end || sh.sim.now() < *sh.t_end) {
    size_t span = 0;
    if (sh.log) span = sh.log->open("ycsb.next", ++n, -1, sh.sim.now().count());
    const ycsb::Op op = cs.gen->next();
    if (sh.log) sh.log->close(span, sh.sim.now().count());

    const sim::Time t0 = sh.sim.now();
    std::optional<uint64_t> bytes;
    try {
      bytes = co_await issue(sh, *cs.client, op);
    } catch (const std::exception&) {
      // an op that exhausted every failover
    }
    const sim::Time t1 = sh.sim.now();
    if (sh.t_end && t1 > *sh.t_end) break;  // after the window: not counted
    ++sh.attempted;
    if (!bytes) {
      ++sh.failed;
      continue;
    }
    ++sh.ops;
    sh.payload_bytes += *bytes;
    const double us = sim::to_micros(t1 - t0);
    sh.lat_us.push_back(us);
    sh.lat_by_type[static_cast<size_t>(op.type)].push_back(us);
    if (t1 <= sh.crash_at) ++sh.before_ops;
    if (sh.recover_done && t1 >= *sh.recover_done) ++sh.after_ops;
    // Failover time: first acked write on a shard that lost its head.
    const bool wrote = op.type == ycsb::OpType::kPut ||
                       op.type == ycsb::OpType::kMultiPut;
    if (wrote && t1 > sh.crash_at && !sh.first_recovered_write &&
        sh.affected.count(routing.shard_of(op.keys[0])))
      sh.first_recovered_write = t1;
  }
  done.done();
}

struct Verdict {
  uint64_t lost_acked_writes = 0, replica_lag = 0;
};

/// Drives recovery, ends the window, then checks every acknowledged write
/// end to end and on every live replica of its chain.
Task<void> control(Shared& sh, kv::Cluster& cluster,
                   std::vector<ClientState>& clients,
                   verbs::Node& verifier_node,
                   std::unique_ptr<kv::ClusterClient>& verifier,
                   sim::WaitGroup& done, Verdict& out) {
  co_await sh.sim.sleep_until(sh.restart_at + 10us);
  const sim::Time r0 = sh.sim.now();
  co_await cluster.recover(kVictim);
  sh.recover_done = sh.sim.now();
  sh.resync_span = *sh.recover_done - r0;
  sh.t_end = *sh.recover_done + kBefore;

  co_await done.wait();
  co_await sh.sim.sleep(200us);  // quiesce
  verifier = std::make_unique<kv::ClusterClient>(verifier_node, cluster,
                                                 1'000'000);
  for (const auto& [key, acked] : sh.ledger) {
    kv::ClusterClient::GetResult got = co_await verifier->Get(key);
    if (!got.found || got.version < acked.first ||
        (got.version == acked.first && got.value != acked.second))
      ++out.lost_acked_writes;
    const uint32_t s = cluster.map().shard_of(key);
    for (const auto& r : cluster.map().shards[s].chain) {
      kv::ShardReplica* rep = cluster.replica(s, r.node);
      if (!rep) continue;
      auto rec = rep->handler().peek(key);
      if (!rec || rec->version < acked.first) ++out.replica_lag;
    }
  }
  verifier->close();
  for (ClientState& cs : clients) cs.client->close();
  cluster.stop();
}

}  // namespace

RoundReport run_kv(const Options& opt) {
  const int64_t h_setup = host_ns();
  RoundReport rep;
  rep.workload = opt.workload;
  rep.seed = opt.seed;
  rep.traced = opt.traced;

  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  std::vector<verbs::Node*> servers;
  for (uint32_t i = 0; i < kServers; ++i) servers.push_back(fabric.add_node());
  std::vector<verbs::Node*> client_nodes;
  for (uint32_t i = 0; i < kClients; ++i)
    client_nodes.push_back(fabric.add_node());

  kv::ClusterConfig ccfg;
  ccfg.shards = 8;
  ccfg.replication = 2;
  kv::Cluster cluster(fabric, servers, ccfg);
  const kv::ShardMap routing = cluster.map();  // shard_of is epoch-stable

  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::workload_a();
  spec.record_count = kRecords;
  std::vector<ClientState> clients(kClients);
  for (uint32_t c = 0; c < kClients; ++c) {
    ClientState& cs = clients[c];
    cs.client =
        std::make_unique<kv::ClusterClient>(*client_nodes[c], cluster, c + 1);
    cs.gen = std::make_unique<ycsb::WorkloadGenerator>(
        spec, derive_seed(opt.seed, Stream::kYcsbGen, c));
    cs.values = sim::Rng(derive_seed(opt.seed, Stream::kYcsbValue, c));
  }

  SpanLog spans;
  Shared sh(sim);
  if (opt.traced) sh.log = &spans;
  for (uint32_t c = 0; c < kClients; ++c) sim.spawn(load(sh, clients[c], c));
  const sim::Simulator::RunResult load_run = sim.run();
  const bool loaded = sh.ledger.size() == kRecords;

  // Arm the seeded fault plan relative to the window's start.
  sh.t0 = sim.now();
  sh.crash_at = sh.t0 + kBefore;
  sh.restart_at = sh.crash_at + kDown;
  for (uint32_t s = 0; s < cluster.map().shards.size(); ++s) {
    const auto& chain = cluster.map().shards[s].chain;
    if (!chain.empty() && chain.front().node == kVictim) sh.affected.insert(s);
  }
  std::unique_ptr<verbs::FaultPlan> plan =
      jitter_plan(derive_seed(opt.seed, Stream::kFault, 0));
  plan->crash_node_at(cluster.node(kVictim)->id(), sh.crash_at);
  plan->restart_node_at(cluster.node(kVictim)->id(), sh.restart_at);
  fabric.set_fault_plan(std::move(plan));

  sim::WaitGroup done(sim);
  done.add(kClients);
  std::unique_ptr<kv::ClusterClient> verifier;
  Verdict verdict;
  sim.spawn(control(sh, cluster, clients, *client_nodes[0], verifier,
                    done, verdict));
  for (ClientState& cs : clients) sim.spawn(closed_loop(sh, cs, routing, done));

  const obs::CounterSet c0 = node_totals(fabric.obs().counters);
  const int64_t h_timed = host_ns();
  const double setup_s = double(h_timed - h_setup) / 1e9;
  // The window's end is known only once recovery finishes.
  for (sim::Time step = sh.t0 + kStep; !sh.t_end; step += kStep) {
    if (step > sh.t0 + kGiveUp)
      throw std::runtime_error("recovery did not finish within 1 s");
    sim.run_until(step);
  }
  const sim::Simulator::RunResult timed_run = sim.run_until(*sh.t_end);
  const int64_t timed_host_ns = host_ns() - h_timed;
  const obs::CounterSet c1 = node_totals(fabric.obs().counters);
  sim.run();  // drain, verify, stop

  const double window_s = sim::to_seconds(*sh.t_end - sh.t0);
  const double after_s = sim::to_seconds(*sh.t_end - *sh.recover_done);
  const double host_s = double(timed_host_ns) / 1e9;
  const uint64_t failures = sh.failed + verdict.lost_acked_writes;
  rep.attempted = sh.attempted;
  rep.failed = failures;
  rep.add_quantile("lat_p50_us", sh.lat_us, 0.50, "us");
  rep.add_quantile("lat_p99_us", sh.lat_us, 0.99, "us");
  rep.add("thr_kops", double(sh.ops) / window_s / 1e3, "kops", sh.ops);
  rep.add("goodput_gbps", double(sh.payload_bytes) * 8 / window_s / 1e9,
          "Gb/s", sh.ops);
  rep.add("fail_frac", per(double(failures), double(sh.attempted)), "ratio",
          sh.attempted);
  rep.add("recovery_ms",
          sim::to_seconds(*sh.recover_done - sh.crash_at) * 1e3, "ms", 1);
  rep.add("after_kops", double(sh.after_ops) / after_s / 1e3, "kops",
          sh.after_ops);
  rep.add("before_kops",
          double(sh.before_ops) / sim::to_seconds(kBefore) / 1e3, "kops",
          sh.before_ops);
  rep.add("host_kops", double(sh.ops) / host_s / 1e3, "kops", sh.ops, false);
  rep.add("setup_s", setup_s, "s", 1, false);

  const obs::CounterSet d = c1.delta_since(c0);
  add_layer_counters(rep, d, c1, sh.ops,
                     timed_run.events_processed - load_run.events_processed,
                     timed_run.timers_cancelled - load_run.timers_cancelled,
                     timed_run.peak_queue_depth, timed_host_ns);
  using obs::Ctr;
  const double reads = double(d.get(Ctr::kOneSidedReads));
  rep.add("kv.one_sided_read_ratio", per(reads, double(sh.get_keys)), "ratio",
          sh.get_keys);
  rep.add("kv.one_sided_fallback_ratio",
          per(double(d.get(Ctr::kOneSidedFallbacks)), reads), "ratio",
          uint64_t(reads));
  const char* type_names[4] = {"kv.get_p50_us", "kv.put_p50_us",
                               "kv.multiget_p50_us", "kv.multiput_p50_us"};
  for (ycsb::OpType t : ycsb::kAllOps)
    rep.add_quantile(type_names[size_t(t)], sh.lat_by_type[size_t(t)], 0.50,
                     "us");
  rep.add("kv.chain_forwards_per_write",
          per(double(d.get(Ctr::kChainForwards)), double(sh.written_keys)),
          "count", sh.written_keys);
  rep.add("kv.replays", double(d.get(Ctr::kReplays)), "count", 1);
  const uint64_t resynced = cluster.resynced_records();
  rep.add("kv.resync_records", double(resynced), "count", 1);
  rep.add("kv.resync_us_per_record",
          per(sim::to_micros(sh.resync_span), double(resynced)), "us",
          resynced);
  rep.add("kv.failover_first_write_us",
          sh.first_recovered_write
              ? sim::to_micros(*sh.first_recovered_write - sh.crash_at)
              : 0.0,
          "us", sh.first_recovered_write ? 1 : 0);
  rep.add("kv.failovers", double(d.get(Ctr::kFailovers)), "count", 1);
  rep.add("kv.map_refreshes", double(d.get(Ctr::kShardMapRefreshes)), "count",
          1);
  if (opt.traced) {
    const std::vector<Span>& gen = spans.spans();
    double gen_ns = 0;
    for (const Span& s : gen) gen_ns += double(s.host.end - s.host.begin);
    rep.add("ycsb.gen_host_ns_per_op", per(gen_ns, double(gen.size())), "ns",
            gen.size(), false);
    write_spans(rep, opt, spans);
  }
  rep.labels.emplace_back("victim", "server node " + std::to_string(kVictim));

  rep.check("load_complete", loaded,
            std::to_string(sh.ledger.size()) + " records after load");
  rep.check("recovered", sh.recover_done.has_value());
  rep.check("after_window_covers_before", after_s >= sim::to_seconds(kBefore));
  rep.check("no_lost_acked_writes", verdict.lost_acked_writes == 0,
            std::to_string(verdict.lost_acked_writes) + " lost of " +
                std::to_string(sh.ledger.size()));
  rep.check("no_replica_lag", verdict.replica_lag == 0,
            std::to_string(verdict.replica_lag) + " lagging");
  rep.check("no_exhausted_failovers", sh.failed == 0,
            std::to_string(sh.failed) + " ops");
  rep.check("no_live_tasks", sim.live_tasks() == 0,
            std::to_string(sim.live_tasks()) + " live");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1, false);
  return rep;
}

}  // namespace perfbench
