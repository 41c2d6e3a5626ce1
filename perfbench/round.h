// One benchmark round: a fresh simulated cluster, set up, warmed, timed and
// checked. run.py starts one process per round and aggregates the rounds.
#pragma once

#include <sys/resource.h>

#include <memory>
#include <string>

#include "harness.h"
#include "obs/counters.h"
#include "sim/time.h"
#include "verbs/fault.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  std::string spans_path;  // traced rounds write their spans here if set
};

/// Writes a traced round's spans where asked; a failed write fails a check.
inline void write_spans(RoundReport& rep, const Options& opt,
                        const SpanLog& log) {
  if (opt.spans_path.empty()) return;
  rep.check("spans_written", log.write(opt.spans_path), opt.spans_path);
}

/// A FaultPlan whose only stochastic fault is seeded fabric jitter: half of
/// all WQEs queue for up to 1 us extra. Every workload runs under it, since
/// without it uncontended calls all take one exact time and a percentile
/// would read the same under every seed.
inline std::unique_ptr<hatrpc::verbs::FaultPlan> jitter_plan(uint64_t seed) {
  auto plan = std::make_unique<hatrpc::verbs::FaultPlan>(seed);
  plan->profile.delay = 0.5;
  plan->profile.delay_max = std::chrono::microseconds(1);
  return plan;
}

RoundReport run_rpc(const Options& opt);
RoundReport run_kv(const Options& opt);

/// Sum of every counter over all node scopes of a fabric.
inline hatrpc::obs::CounterSet node_totals(const hatrpc::obs::Counters& c) {
  hatrpc::obs::CounterSet t;
  for (size_t i = 0; i < t.v.size(); ++i)
    t.v[i] = c.node_total(static_cast<hatrpc::obs::Ctr>(i));
  return t;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

inline double micros(int64_t ns) { return double(ns) / 1e3; }

inline double per(double num, double den) { return den > 0 ? num / den : 0; }

/// Figures every workload reports the same way from counter deltas over the
/// timed window (`d`), the window's run results and its host time.
inline void add_layer_counters(RoundReport& rep,
                               const hatrpc::obs::CounterSet& d,
                               const hatrpc::obs::CounterSet& end,
                               uint64_t ops, uint64_t events,
                               uint64_t cancelled, size_t peak_depth,
                               int64_t timed_host_ns) {
  using hatrpc::obs::Ctr;
  const double n = double(ops);
  auto g = [&d](Ctr c) { return double(d.get(c)); };
  rep.add("sim.events_per_op", per(double(events), n), "count", ops);
  rep.add("sim.host_ns_per_event", per(double(timed_host_ns), double(events)),
          "ns", events, false);
  rep.add("sim.peak_queue_depth", double(peak_depth), "count", 1);
  rep.add("sim.timers_cancelled_per_op", per(double(cancelled), n), "count",
          ops);
  rep.add("verbs.doorbells_per_op", per(g(Ctr::kDoorbells), n), "count", ops);
  rep.add("verbs.wqes_per_op", per(g(Ctr::kWqesPosted), n), "count", ops);
  rep.add("verbs.cqes_per_op", per(g(Ctr::kCqesPolled), n), "count", ops);
  rep.add("verbs.inline_wqes_per_op", per(g(Ctr::kInlineWqes), n), "count",
          ops);
  rep.add("verbs.dma_bytes_per_op", per(g(Ctr::kDmaBytes), n), "B", ops);
  rep.add("verbs.modeled_gb_per_host_s",
          per((g(Ctr::kDmaBytes) + g(Ctr::kCopyBytes)) / 1e9,
              double(timed_host_ns) / 1e9),
          "GB/s", ops, false);
  rep.add("verbs.rnr_per_op", per(g(Ctr::kRnrEvents), n), "count", ops);
  rep.add("verbs.mr_mb", double(end.get(Ctr::kMrBytes)) / double(1 << 20),
          "MiB", 1);
  rep.add("proto.copy_bytes_per_op", per(g(Ctr::kCopyBytes), n), "B", ops);
  rep.add("proto.window_stalls_per_op", per(g(Ctr::kWindowStalls), n),
          "count", ops);
  rep.add("proto.pool_reuses_per_op", per(g(Ctr::kPoolBufferReuses), n),
          "count", ops);
  const double lookups = g(Ctr::kMrCacheHits) + g(Ctr::kMrCacheMisses);
  rep.add("proto.mr_cache_hit_ratio", per(g(Ctr::kMrCacheHits), lookups),
          "ratio", uint64_t(lookups));
  rep.add("proto.retries_per_op", per(g(Ctr::kRetryAttempts), n), "count",
          ops);
  rep.add("proto.timeouts", g(Ctr::kTimeouts), "count", 1);
  rep.add("proto.backoff_sleeps", g(Ctr::kBackoffSleeps), "count", 1);
  rep.add("proto.reconnects", g(Ctr::kReconnects), "count", 1);
  rep.add("hint.plan_switches", g(Ctr::kPlanSwitches), "count", 1);
}

}  // namespace perfbench
