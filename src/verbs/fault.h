// Seeded, deterministic fault injection for the simulated fabric.
//
// A FaultPlan is attached to a Fabric (Fabric::set_fault_plan) and consulted
// on the data path of every WQE. Two kinds of fault are supported:
//
//   * stochastic wire faults — per-attempt drop / corrupt / duplicate /
//     delay draws from a seeded xoshiro generator (sim/rng.h). Lost and
//     corrupted transmissions behave like a real RC transport: the ICRC /
//     ack-timeout machinery retransmits up to `retry_count` times (each
//     attempt still occupies the wire and waits out `retransmit_timeout`),
//     and exhaustion surfaces as kRetryExcErr at the requester. Duplicates
//     are PSN-deduped — they cost wire occupancy but have no semantic
//     effect. A finite `rnr_retry` turns unbounded receiver-not-ready
//     waiting into kRnrRetryExcErr after `rnr_retry` paced re-probes.
//
//   * scheduled faults — a QP forced into the error state, a whole node
//     crashed (all its QPs and their peers error out, its CQs close), or a
//     node's registered regions revoked (subsequent remote accesses NAK
//     with kRemAccessErr) at a chosen virtual time.
//
// Every injected fault is appended to a trace of fixed-size records that
// trace() prints as "t=<ns> <what>" lines; because the simulator and the
// generator are both deterministic, two runs with the same seed and
// schedule produce byte-identical traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace hatrpc::verbs {

/// Stochastic fault probabilities and RC retry knobs. Probabilities are
/// per transmission attempt, drawn independently.
struct FaultProfile {
  double drop = 0.0;       // packet loss, caught by the ack timeout
  double corrupt = 0.0;    // payload corruption, caught by ICRC -> retransmit
  double duplicate = 0.0;  // duplicate delivery, PSN-deduped (wire cost only)
  double delay = 0.0;      // chance of extra queueing delay per WQE
  sim::Duration delay_max = std::chrono::microseconds(2);

  uint8_t retry_count = 7;  // transport retries before kRetryExcErr
  sim::Duration retransmit_timeout = std::chrono::microseconds(4);

  static constexpr uint8_t kRnrInfinite = 255;  // ibverbs rnr_retry = 7 (inf)
  uint8_t rnr_retry = kRnrInfinite;  // finite -> RNR exhaustion possible
  sim::Duration rnr_timer = std::chrono::microseconds(1);

  /// Worst-case time the transport spends discovering an unreachable peer.
  sim::Duration unreachable_penalty() const {
    return retransmit_timeout * (retry_count + 1);
  }
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed) : seed_(seed), rng_(seed) {}

  FaultProfile profile;

  // -- Scheduled faults (armed when the plan is attached to a Fabric) ------
  struct Scheduled {
    enum class Kind : uint8_t { kQpError, kNodeCrash, kRevokeMrs,
                                kNodeRestart };
    Kind kind;
    uint32_t id;  // qp_num or node id
    sim::Time at;
  };

  /// Forces the QP into the error state at virtual time `t`: posted recvs
  /// flush with kWrFlushErr and later WQEs fail.
  void fail_qp_at(uint32_t qp_num, sim::Time t) {
    scheduled_.push_back({Scheduled::Kind::kQpError, qp_num, t});
  }
  /// Crashes the whole node at `t`: its QPs enter the error state and its
  /// CQs close. Peer QPs are NOT errored instantly — they discover the
  /// silence through retransmission timeouts (unreachable_penalty), like a
  /// real fabric.
  void crash_node_at(uint32_t node_id, sim::Time t) {
    scheduled_.push_back({Scheduled::Kind::kNodeCrash, node_id, t});
  }
  /// Restarts a crashed node at `t` (fail-stop recovery): the node accepts
  /// fresh QPs/CQs/MRs again, but everything that existed at crash time
  /// stays dead — recovering software must rebuild its endpoints and
  /// re-register its regions, exactly like a rebooted machine.
  void restart_node_at(uint32_t node_id, sim::Time t) {
    scheduled_.push_back({Scheduled::Kind::kNodeRestart, node_id, t});
  }
  /// Revokes remote access to all regions currently registered on the node
  /// at `t` (a server losing its exported regions): later one-sided ops
  /// against them NAK with kRemAccessErr.
  void revoke_remote_access_at(uint32_t node_id, sim::Time t) {
    scheduled_.push_back({Scheduled::Kind::kRevokeMrs, node_id, t});
  }

  const std::vector<Scheduled>& scheduled() const { return scheduled_; }

  // -- Stochastic draws (consumed by the fabric data path in schedule
  //    order, which the single-threaded simulator makes deterministic) -----
  enum class LossKind : uint8_t { kNone, kDrop, kCorrupt };

  LossKind draw_loss() {
    if (profile.drop > 0 && rng_.chance(profile.drop)) return LossKind::kDrop;
    if (profile.corrupt > 0 && rng_.chance(profile.corrupt))
      return LossKind::kCorrupt;
    return LossKind::kNone;
  }
  bool draw_duplicate() {
    return profile.duplicate > 0 && rng_.chance(profile.duplicate);
  }
  sim::Duration draw_delay() {
    if (profile.delay <= 0 || !rng_.chance(profile.delay))
      return sim::Duration{0};
    return sim::Duration{static_cast<int64_t>(
        rng_.bounded(static_cast<uint64_t>(profile.delay_max.count()) + 1))};
  }

  // -- Deterministic trace -------------------------------------------------
  /// What an injected fault was. Each kind prints as its own fixed text
  /// (see trace()).
  enum class Note : uint8_t {
    kDelay,            // "delay qp= wr= ns=<arg>"
    kDup,              // "dup qp= wr="
    kDrop,             // "drop qp= wr= attempt=<arg>"
    kCorrupt,          // "corrupt qp= wr= attempt=<arg>"
    kRetryExhausted,   // "retry-exhausted qp= wr="
    kRnrExhausted,     // "rnr-exhausted qp= wr="
    kUnreachable,      // "unreachable qp= wr="
    kRemoteAccessNak,  // "remote-access-nak qp= wr="
    kQpError,          // "qp-error qp="
    kNodeCrash,        // "node-crash node=<id>"
    kNodeRestart,      // "node-restart node=<id>"
    kRevokeMrs,        // "revoke-mrs node=<id>"
  };

  /// Records one injected fault as a fixed-size record; nothing is
  /// formatted until trace() is called. `id` is the QP number, or the node
  /// id for the node-* kinds; `arg` is the kind's one number (see Note).
  void note(sim::Time t, Note kind, uint32_t id, uint64_t wr = 0,
            uint64_t arg = 0) {
    records_.push_back(Record{t.count(), wr, arg, id, kind});
  }

  /// The trace as "t=<ns> <what>" lines, formatted on each call.
  std::vector<std::string> trace() const;
  uint64_t injected() const { return records_.size(); }
  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  sim::Rng rng_;
  std::vector<Scheduled> scheduled_;

  struct Record {
    int64_t t;
    uint64_t wr;
    uint64_t arg;
    uint32_t id;
    Note kind;
  };
  std::vector<Record> records_;
};

}  // namespace hatrpc::verbs
