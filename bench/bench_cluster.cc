// Cluster-scale HatKV under seeded faults (DESIGN.md §11): YCSB A/B across
// a sharded, chain-replicated cluster while the FaultPlan crashes a server
// node mid-run and restarts it later. Emits BENCH_cluster.json with
// throughput and latency percentiles per phase (before / during / after the
// crash window), the failover time, and the safety invariants the CI chaos
// job asserts: zero lost acknowledged writes and a clean fabric audit.
//
// Not a google-benchmark binary: the run IS the experiment (one seeded
// timeline), so a plain main with flags keeps same-seed runs byte-identical.
//
//   bench_cluster --shards 8 --rf 2 --server-nodes 8 --client-nodes 100
//                 --records 4000 --seed 1 --workload both
//                 --crash-at-us 1500 --recover-at-us 3000
//                 --run-until-us 6000 --out BENCH_cluster.json

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "kv/cluster.h"
#include "obs/histogram.h"
#include "ycsb/ycsb.h"

namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using sim::Task;

struct Options {
  uint32_t shards = 8;
  uint32_t rf = 2;
  uint32_t server_nodes = 8;
  uint32_t client_nodes = 100;
  uint64_t records = 4000;
  uint64_t seed = 1;
  std::string workload = "both";  // a | b | both
  // Fault schedule, relative to the start of the run phase (virtual us).
  int64_t crash_at_us = 1500;
  int64_t recover_at_us = 3000;
  int64_t run_until_us = 6000;
  std::string out = "BENCH_cluster.json";
};

struct PhaseStats {
  obs::Histogram lat;
  uint64_t ops = 0;
};

/// Everything the client tasks and the control task share about the
/// seeded timeline.
struct RunShared {
  sim::Time run_start{};
  sim::Time crash_at{};
  sim::Time restart_at{};
  sim::Time run_end{};
  std::optional<sim::Time> recover_done;
  std::set<uint32_t> affected;  // shards whose chain head was the victim
  sim::Event start;             // released once the fault plan is armed
  std::optional<sim::Time> first_recovered_write;
  PhaseStats before, during, after;
  // Acked-write ledger: key -> (highest acked version, its value).
  std::map<std::string, std::pair<uint64_t, std::string>> ledger;
  uint64_t op_errors = 0;

  explicit RunShared(sim::Simulator& sim) : start(sim) {}

  PhaseStats& phase_of(sim::Time t) {
    if (t <= crash_at) return before;
    if (recover_done && t >= *recover_done) return after;
    return during;
  }
};

ycsb::WorkloadSpec spec_for(char workload, uint64_t records) {
  ycsb::WorkloadSpec spec = workload == 'a' ? ycsb::WorkloadSpec::workload_a()
                                            : ycsb::WorkloadSpec::workload_b();
  spec.record_count = records;
  return spec;
}

Task<void> client_task(sim::Simulator& sim, kv::ClusterClient& client,
                       ycsb::WorkloadSpec spec, const kv::ShardMap& routing,
                       uint32_t c, uint32_t clients, RunShared& sh,
                       sim::WaitGroup& loaded, sim::WaitGroup& done) {
  ycsb::WorkloadGenerator gen(spec, uint64_t(c) * 101 + 7);
  sim::Rng vrng(uint64_t(c) * 13 + 1);
  // Load phase: each client loads its stripe of the keyspace.
  for (uint64_t k = c; k < spec.record_count; k += clients) {
    std::string key = gen.key_of(k);
    std::string value = gen.make_value(vrng);
    uint64_t v = co_await client.Put(key, value);
    auto& slot = sh.ledger[key];
    if (v > slot.first) slot = {v, std::move(value)};
  }
  loaded.done();
  co_await sh.start.wait();
  // Run phase: fixed virtual-time window so the crash lands mid-run, kept
  // open past recovery (run_end is stretched when recover() finishes) so
  // the post-recovery phase is always exercised.
  while (sim.now() < sh.run_end || !sh.recover_done) {
    ycsb::Op op = gen.next();
    const sim::Time t0 = sim.now();
    bool wrote = false;
    try {
      switch (op.type) {
        case ycsb::OpType::kGet:
          co_await client.Get(op.keys[0]);
          break;
        case ycsb::OpType::kPut: {
          uint64_t v = co_await client.Put(op.keys[0], op.values[0]);
          auto& slot = sh.ledger[op.keys[0]];
          if (v > slot.first) slot = {v, op.values[0]};
          wrote = true;
          break;
        }
        case ycsb::OpType::kMultiGet:
          co_await client.MultiGet(op.keys);
          break;
        case ycsb::OpType::kMultiPut: {
          std::vector<std::pair<std::string, std::string>> pairs;
          pairs.reserve(op.keys.size());
          for (size_t j = 0; j < op.keys.size(); ++j)
            pairs.emplace_back(op.keys[j], op.values[j]);
          std::vector<uint64_t> versions = co_await client.MultiPut(pairs);
          for (size_t j = 0; j < pairs.size(); ++j) {
            auto& slot = sh.ledger[pairs[j].first];
            if (versions[j] > slot.first)
              slot = {versions[j], pairs[j].second};
          }
          wrote = true;
          break;
        }
      }
    } catch (const std::exception&) {
      ++sh.op_errors;  // an op that exhausted every failover; expect none
      continue;
    }
    const sim::Time t1 = sim.now();
    PhaseStats& ph = sh.phase_of(t1);
    ++ph.ops;
    ph.lat.record(t1 - t0);
    // Failover time: first acknowledged WRITE on a shard that lost its
    // head, measured from the crash instant (reads can ride the live tail
    // one-sided, so only writes prove the chain re-formed).
    if (wrote && t1 > sh.crash_at && !sh.first_recovered_write &&
        sh.affected.count(routing.shard_of(op.keys[0]))) {
      sh.first_recovered_write = t1;
    }
  }
  done.done();
}

struct WorkloadResult {
  char workload;
  Options opt;
  sim::Duration load_span{}, run_span{};
  PhaseStats before, during, after;
  uint64_t total_ops = 0;
  std::optional<sim::Duration> failover_time;
  sim::Duration recovery_span{};  // crash -> recover() finished
  kv::ClusterClient::Stats client_totals;
  uint64_t chain_forwards = 0, replays = 0, resynced = 0;
  uint64_t one_sided_reads = 0, one_sided_fallbacks = 0;
  uint64_t retry_attempts = 0, reconnects = 0, deadline_exceeded = 0;
  uint64_t op_errors = 0, lost_acked_writes = 0, replica_lag = 0;
  uint64_t ledger_size = 0;
  bool audit_clean = false;
  uint64_t audit_violations = 0, leaked_tasks = 0;
  std::vector<std::string> fault_trace;
};

WorkloadResult run_workload(char workload, const Options& opt) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  if (!fabric.check().on())
    fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
  std::vector<verbs::Node*> servers;
  for (uint32_t i = 0; i < opt.server_nodes; ++i)
    servers.push_back(fabric.add_node());
  std::vector<verbs::Node*> client_nodes;
  for (uint32_t i = 0; i < opt.client_nodes; ++i)
    client_nodes.push_back(fabric.add_node());

  kv::ClusterConfig ccfg;
  ccfg.shards = opt.shards;
  ccfg.replication = opt.rf;
  kv::Cluster cluster(fabric, servers, ccfg);
  const kv::ShardMap routing = cluster.map();  // shard_of is epoch-stable

  std::vector<std::unique_ptr<kv::ClusterClient>> clients;
  for (uint32_t c = 0; c < opt.client_nodes; ++c)
    clients.push_back(std::make_unique<kv::ClusterClient>(*client_nodes[c],
                                                          cluster, c + 1));

  RunShared sh(sim);
  sim::WaitGroup loaded(sim), done(sim);
  loaded.add(opt.client_nodes);
  done.add(opt.client_nodes);
  const ycsb::WorkloadSpec spec = spec_for(workload, opt.records);
  for (uint32_t c = 0; c < opt.client_nodes; ++c) {
    sim.spawn(client_task(sim, *clients[c], spec, routing, c,
                          opt.client_nodes, sh, loaded, done));
  }

  WorkloadResult res;
  res.workload = workload;
  res.opt = opt;
  // Created by the control task, destroyed only after sim.run() drains:
  // tearing a client down while its aborted channels' dispatch tasks are
  // still unwinding inside the simulator is a use-after-free.
  std::unique_ptr<kv::ClusterClient> verifier;
  const uint32_t victim = 0;  // cluster-local node index AND fabric node id
  // Control task: arm the fault plan once loading finishes (so the crash
  // deterministically lands mid-run), drive recovery, verify the ledger.
  sim.spawn([](sim::Simulator& sim, verbs::Fabric& fabric,
               kv::Cluster& cluster, RunShared& sh, sim::WaitGroup& loaded,
               sim::WaitGroup& done, const Options& opt, uint32_t victim,
               std::vector<std::unique_ptr<kv::ClusterClient>>& clients,
               std::vector<verbs::Node*>& client_nodes,
               std::unique_ptr<kv::ClusterClient>& verifier,
               WorkloadResult& res) -> Task<void> {
    co_await loaded.wait();
    sh.run_start = sim.now();
    res.load_span = sh.run_start - sim::Time{};
    sh.crash_at = sh.run_start + std::chrono::microseconds(opt.crash_at_us);
    sh.restart_at =
        sh.run_start + std::chrono::microseconds(opt.recover_at_us);
    sh.run_end = sh.run_start + std::chrono::microseconds(opt.run_until_us);
    for (uint32_t s = 0; s < cluster.map().shards.size(); ++s) {
      const auto& chain = cluster.map().shards[s].chain;
      if (!chain.empty() && chain.front().node == victim)
        sh.affected.insert(s);
    }
    auto plan = std::make_unique<verbs::FaultPlan>(opt.seed);
    plan->crash_node_at(cluster.node(victim)->id(), sh.crash_at);
    plan->restart_node_at(cluster.node(victim)->id(), sh.restart_at);
    fabric.set_fault_plan(std::move(plan));
    sh.start.set();

    // Rejoin shortly after the hardware restart fires.
    co_await sim.sleep_until(sh.restart_at + 10us);
    co_await cluster.recover(victim);
    sh.recover_done = sim.now();
    res.recovery_span = *sh.recover_done - sh.crash_at;
    // Resync can outlast the nominal window; stretch the run so the
    // post-recovery phase is always measured for run_until - recover_at.
    sh.run_end = std::max(
        sh.run_end, *sh.recover_done + std::chrono::microseconds(
                                           opt.run_until_us -
                                           opt.recover_at_us));

    co_await done.wait();
    res.run_span = sim.now() - sh.run_start;
    // Quiesce, then verify: every acknowledged write must be readable at
    // its acked (or a newer) version, end-to-end and on every live
    // replica of its chain.
    co_await sim.sleep(200us);
    verifier = std::make_unique<kv::ClusterClient>(*client_nodes[0], cluster,
                                                   1'000'000);
    for (const auto& [key, acked] : sh.ledger) {
      kv::ClusterClient::GetResult got = co_await verifier->Get(key);
      if (!got.found || got.version < acked.first ||
          (got.version == acked.first && got.value != acked.second)) {
        ++res.lost_acked_writes;
      }
      const uint32_t s = cluster.map().shard_of(key);
      for (const auto& r : cluster.map().shards[s].chain) {
        kv::ShardReplica* rep = cluster.replica(s, r.node);
        if (!rep) continue;
        auto rec = rep->handler().peek(key);
        if (!rec || rec->version < acked.first) ++res.replica_lag;
      }
    }
    res.ledger_size = sh.ledger.size();
    verifier->close();
    for (auto& c : clients) c->close();
    cluster.stop();
  }(sim, fabric, cluster, sh, loaded, done, opt, victim, clients,
    client_nodes, verifier, res));

  sim.run();

  res.before = std::move(sh.before);
  res.during = std::move(sh.during);
  res.after = std::move(sh.after);
  res.total_ops = res.before.ops + res.during.ops + res.after.ops;
  if (sh.first_recovered_write)
    res.failover_time = *sh.first_recovered_write - sh.crash_at;
  res.op_errors = sh.op_errors;
  for (auto& c : clients) {
    const kv::ClusterClient::Stats& s = c->stats();
    res.client_totals.ops += s.ops;
    res.client_totals.failovers += s.failovers;
    res.client_totals.one_sided_reads += s.one_sided_reads;
    res.client_totals.one_sided_fallbacks += s.one_sided_fallbacks;
    res.client_totals.map_refreshes += s.map_refreshes;
  }
  auto sum = [&](obs::Ctr ctr) {
    uint64_t t = 0;
    for (verbs::Node* n : servers) t += n->counters().get(ctr);
    for (verbs::Node* n : client_nodes) t += n->counters().get(ctr);
    return t;
  };
  res.chain_forwards = sum(obs::Ctr::kChainForwards);
  res.replays = sum(obs::Ctr::kReplays);
  res.resynced = cluster.resynced_records();
  res.one_sided_reads = sum(obs::Ctr::kOneSidedReads);
  res.one_sided_fallbacks = sum(obs::Ctr::kOneSidedFallbacks);
  res.retry_attempts = sum(obs::Ctr::kRetryAttempts);
  res.reconnects = sum(obs::Ctr::kReconnects);
  res.deadline_exceeded = sum(obs::Ctr::kDeadlineExceeded);
  verbs::AuditReport audit = fabric.audit();
  res.audit_clean = audit.clean();
  res.audit_violations = audit.violations;
  res.leaked_tasks = sim.live_tasks();
  if (fabric.fault_plan()) res.fault_trace = fabric.fault_plan()->trace();
  return res;
}

// --- JSON emission (hand-rolled: deterministic field order + formatting) --

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double kops(uint64_t ops, sim::Duration span) {
  double secs = sim::to_seconds(span);
  return secs > 0 ? double(ops) / secs / 1e3 : 0.0;
}

std::string phase_json(const char* name, const PhaseStats& ph,
                       sim::Duration span) {
  std::string j = std::string("\"") + name + "\":{";
  j += "\"ops\":" + std::to_string(ph.ops);
  j += ",\"kops\":" + fmt(kops(ph.ops, span));
  j += ",\"p50_us\":" + fmt(double(ph.lat.percentile_ns(0.50)) / 1e3);
  j += ",\"p99_us\":" + fmt(double(ph.lat.percentile_ns(0.99)) / 1e3);
  j += ",\"mean_us\":" + fmt(ph.lat.mean_ns() / 1e3);
  j += "}";
  return j;
}

std::string workload_json(const WorkloadResult& r) {
  const Options& o = r.opt;
  std::string j = "{";
  j += std::string("\"workload\":\"") + r.workload + "\"";
  j += ",\"config\":{";
  j += "\"shards\":" + std::to_string(o.shards);
  j += ",\"replication\":" + std::to_string(o.rf);
  j += ",\"server_nodes\":" + std::to_string(o.server_nodes);
  j += ",\"client_nodes\":" + std::to_string(o.client_nodes);
  j += ",\"records\":" + std::to_string(o.records);
  j += ",\"seed\":" + std::to_string(o.seed);
  j += ",\"crash_at_us\":" + std::to_string(o.crash_at_us);
  j += ",\"recover_at_us\":" + std::to_string(o.recover_at_us);
  j += ",\"run_until_us\":" + std::to_string(o.run_until_us);
  j += "}";
  j += ",\"totals\":{";
  j += "\"ops\":" + std::to_string(r.total_ops);
  j += ",\"kops\":" + fmt(kops(r.total_ops, r.run_span));
  j += ",\"load_span_us\":" + fmt(sim::to_micros(r.load_span));
  j += ",\"run_span_us\":" + fmt(sim::to_micros(r.run_span));
  j += ",\"failovers\":" + std::to_string(r.client_totals.failovers);
  j += ",\"map_refreshes\":" + std::to_string(r.client_totals.map_refreshes);
  j += ",\"one_sided_reads\":" + std::to_string(r.one_sided_reads);
  j += ",\"one_sided_fallbacks\":" + std::to_string(r.one_sided_fallbacks);
  j += ",\"chain_forwards\":" + std::to_string(r.chain_forwards);
  j += ",\"replays\":" + std::to_string(r.replays);
  j += ",\"resynced_records\":" + std::to_string(r.resynced);
  j += ",\"retry_attempts\":" + std::to_string(r.retry_attempts);
  j += ",\"reconnects\":" + std::to_string(r.reconnects);
  j += ",\"deadline_exceeded\":" + std::to_string(r.deadline_exceeded);
  j += "}";
  const sim::Duration before_span =
      std::chrono::microseconds(o.crash_at_us);
  const sim::Duration during_span = r.recovery_span;
  sim::Duration after_span = r.run_span - before_span - during_span;
  if (after_span < sim::Duration::zero())
    after_span = sim::Duration::zero();
  j += ",\"phases\":{";
  j += phase_json("before", r.before, before_span);
  j += "," + phase_json("during", r.during, during_span);
  j += "," + phase_json("after", r.after, after_span);
  j += "}";
  j += ",\"failover\":{";
  j += "\"detected\":" +
       std::string(r.failover_time ? "true" : "false");
  j += ",\"first_write_after_crash_us\":" +
       (r.failover_time ? fmt(sim::to_micros(*r.failover_time)) : "null");
  j += ",\"recovery_span_us\":" + fmt(sim::to_micros(r.recovery_span));
  j += "}";
  j += ",\"invariants\":{";
  j += "\"acked_writes\":" + std::to_string(r.ledger_size);
  j += ",\"lost_acked_writes\":" + std::to_string(r.lost_acked_writes);
  j += ",\"replica_lag\":" + std::to_string(r.replica_lag);
  j += ",\"op_errors\":" + std::to_string(r.op_errors);
  j += ",\"audit_clean\":" + std::string(r.audit_clean ? "true" : "false");
  j += ",\"audit_violations\":" + std::to_string(r.audit_violations);
  j += ",\"leaked_tasks\":" + std::to_string(r.leaked_tasks);
  j += ",\"fault_trace\":[";
  for (size_t i = 0; i < r.fault_trace.size(); ++i) {
    if (i) j += ",";
    j += "\"" + json_escape(r.fault_trace[i]) + "\"";
  }
  j += "]}";
  j += "}";
  return j;
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
        eat("--shards", [&](const char* v) { opt.shards = std::stoul(v); }) ||
        eat("--rf", [&](const char* v) { opt.rf = std::stoul(v); }) ||
        eat("--server-nodes",
            [&](const char* v) { opt.server_nodes = std::stoul(v); }) ||
        eat("--client-nodes",
            [&](const char* v) { opt.client_nodes = std::stoul(v); }) ||
        eat("--records", [&](const char* v) { opt.records = std::stoull(v); }) ||
        eat("--seed", [&](const char* v) { opt.seed = std::stoull(v); }) ||
        eat("--workload", [&](const char* v) { opt.workload = v; }) ||
        eat("--crash-at-us",
            [&](const char* v) { opt.crash_at_us = std::stoll(v); }) ||
        eat("--recover-at-us",
            [&](const char* v) { opt.recover_at_us = std::stoll(v); }) ||
        eat("--run-until-us",
            [&](const char* v) { opt.run_until_us = std::stoll(v); }) ||
        eat("--out", [&](const char* v) { opt.out = v; });
    if (!ok) {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (opt.shards == 0 || opt.rf == 0 || opt.server_nodes == 0 ||
      opt.client_nodes == 0 || opt.records == 0) {
    std::fprintf(stderr,
                 "--shards, --rf, --server-nodes, --client-nodes and "
                 "--records must be at least 1\n");
    return false;
  }
  if (opt.rf > opt.server_nodes) {
    std::fprintf(stderr, "--rf must not exceed --server-nodes\n");
    return false;
  }
  if (opt.workload != "a" && opt.workload != "b" && opt.workload != "both") {
    std::fprintf(stderr, "--workload must be a, b, or both\n");
    return false;
  }
  if (opt.crash_at_us >= opt.recover_at_us ||
      opt.recover_at_us >= opt.run_until_us) {
    std::fprintf(stderr,
                 "need crash-at-us < recover-at-us < run-until-us\n");
    return false;
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
  std::vector<char> workloads;
  if (opt.workload == "both")
    workloads = {'a', 'b'};
  else
    workloads = {opt.workload[0]};

  std::string json = "{\"bench\":\"cluster\",\"workloads\":[";
  bool any_lost = false, any_dirty_audit = false;
  for (size_t i = 0; i < workloads.size(); ++i) {
    WorkloadResult r = run_workload(workloads[i], opt);
    if (i) json += ",";
    json += workload_json(r);
    any_lost |= r.lost_acked_writes != 0 || r.replica_lag != 0 ||
                r.op_errors != 0;
    any_dirty_audit |= !r.audit_clean;
    std::printf(
        "workload %c: ops=%llu kops=%s failovers=%llu "
        "failover_first_write_us=%s lost_acked_writes=%llu "
        "replica_lag=%llu audit=%s\n",
        r.workload, static_cast<unsigned long long>(r.total_ops),
        fmt(kops(r.total_ops, r.run_span)).c_str(),
        static_cast<unsigned long long>(r.client_totals.failovers),
        r.failover_time ? fmt(sim::to_micros(*r.failover_time)).c_str()
                        : "n/a",
        static_cast<unsigned long long>(r.lost_acked_writes),
        static_cast<unsigned long long>(r.replica_lag),
        r.audit_clean ? "clean" : "DIRTY");
  }
  json += "]}\n";
  std::ofstream(opt.out) << json;
  std::printf("wrote %s\n", opt.out.c_str());
  if (any_lost || any_dirty_audit) {
    std::fprintf(stderr, "INVARIANT VIOLATION (see %s)\n", opt.out.c_str());
    return 1;
  }
  return 0;
}
