// Discrete-event simulator: a virtual clock plus an indexed min-heap of
// coroutine resumptions. Single-threaded and fully deterministic — events
// at equal times run in FIFO schedule order, i.e. ordered by (time, seq).
//
// Scheduler layout (see DESIGN.md §12):
//   * One 4-ary min-heap of TimerNode ids keyed on (time, seq). Each node
//     records its heap position, so cancel() removes it eagerly in
//     O(log n) and the heap never holds a dead timer.
//   * All timers sharing a timestamp dispatch as one batch. The heap pops
//     them in sequence order, so the batch needs no sort.
//   * TimerNodes live in one never-shrinking vector with an index freelist;
//     a generation counter per node lets a stale TimerHandle fail safely.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/arena.h"
#include "sim/racecheck.h"
#include "sim/task.h"
#include "sim/time.h"

namespace hatrpc::sim {

class Simulator;

/// Cancellable reference to a pending timer. Default-constructed or spent
/// handles are inert: cancel()/reschedule() on them are safe no-ops. A
/// handle is invalidated when its timer fires, is cancelled, or is
/// rescheduled — a stale handle can never touch another timer because the
/// node's generation counter no longer matches.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Removes the timer from the schedule if it has not fired yet.
  /// Returns true if this call actually cancelled a pending timer.
  bool cancel();

  /// Moves a still-pending timer to absolute time `t` (>= now). The timer
  /// re-enters the schedule as the newest event at `t` (it goes to the back
  /// of the FIFO among equal timestamps). Returns false, scheduling
  /// nothing, if the timer already fired or was cancelled.
  bool reschedule(Time t);

  /// True while the timer is still pending (not fired, not cancelled).
  bool active() const;

 private:
  friend class Simulator;
  TimerHandle(Simulator* sim, uint32_t node, uint64_t gen)
      : sim_(sim), node_(node), gen_(gen) {}

  Simulator* sim_ = nullptr;
  uint32_t node_ = 0;
  uint64_t gen_ = 0;
};

class Simulator {
 public:
  /// Snapshot returned by run()/run_until(). Converts to Time so existing
  /// `Time end = sim.run();` call sites keep compiling, and compares
  /// against Time for the same reason.
  struct RunResult {
    Time end_time{0};
    uint64_t events_processed = 0;
    uint64_t timers_cancelled = 0;
    size_t live_tasks = 0;
    size_t peak_queue_depth = 0;

    operator Time() const { return end_time; }  // NOLINT(google-explicit-*)
    friend bool operator==(const RunResult& r, Time t) {
      return r.end_time == t;
    }
    friend std::ostream& operator<<(std::ostream& os, const RunResult& r) {
      return os << "RunResult{end=" << r.end_time.count()
                << "ns processed=" << r.events_processed
                << " cancelled=" << r.timers_cancelled
                << " live=" << r.live_tasks << " peak=" << r.peak_queue_depth
                << "}";
    }
  };

  Simulator() {
    rc_owner_ = std::make_unique<RaceCheck>(*this);  // sets rc_ per RACECHECK
    if (const char* s = std::getenv("RACECHECK_TIEBREAK"))
      set_tiebreak_seed(std::strtoull(s, nullptr, 10));
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// The per-simulator race/lifetime checker (see racecheck.h). Always
  /// constructed; whether its hooks run is governed by its mode.
  RaceCheck& racecheck() { return *rc_owner_; }

  /// Seeds the same-timestamp dispatch shuffle. Seed 0 (the default)
  /// keeps the classic FIFO sequence order; any other seed applies a
  /// deterministic Fisher-Yates permutation to every dispatch batch of
  /// size > 1. The RACECHECK_TIEBREAK environment variable provides the
  /// initial value; an explicit call overrides it.
  void set_tiebreak_seed(uint64_t s) {
    tiebreak_seed_ = s;
    tiebreak_state_ = s;
  }
  uint64_t tiebreak_seed() const { return tiebreak_seed_; }

  // ---- RaceCheck forwarding (no-ops when the checker is off; the token
  // ---- forms stay balanced across mode toggles by always dropping) ------
  uint32_t rc_capture() {
    return rc_ ? rc_->capture() : RaceCheck::kNoClock;
  }
  void rc_drop(uint32_t tok) {
    if (tok != RaceCheck::kNoClock) rc_owner_->drop(tok);
  }
  /// Joins a captured token into the CURRENT segment (CQE consumption).
  void rc_consume(uint32_t tok) {
    if (tok == RaceCheck::kNoClock) return;
    if (rc_) {
      rc_->acquire_token(tok);
    } else {
      rc_owner_->drop(tok);
    }
  }
  /// Rides a captured token on a pending timer's own snapshot (the
  /// notify->wake path: the waiter's pre-suspend clock joins the wake).
  void rc_join(uint32_t tok, const TimerHandle& t) {
    if (tok == RaceCheck::kNoClock) return;
    if (rc_ && t.sim_ == this && nodes_[t.node_].gen == t.gen_ &&
        nodes_[t.node_].rc_clock != RaceCheck::kNoClock) {
      rc_->merge_into(tok, nodes_[t.node_].rc_clock);
    } else {
      rc_owner_->drop(tok);
    }
  }
  void rc_read(const void* o, uint64_t sub, const char* name,
               const char* site) {
    if (rc_) rc_->access(o, sub, RaceCheck::Access::kRead, name, site);
  }
  void rc_write(const void* o, uint64_t sub, const char* name,
                const char* site) {
    if (rc_) rc_->access(o, sub, RaceCheck::Access::kWrite, name, site);
  }
  void rc_update(const void* o, uint64_t sub, const char* name,
                 const char* site) {
    if (rc_) rc_->access(o, sub, RaceCheck::Access::kUpdate, name, site);
  }
  void rc_sync_release(const void* o, uint64_t sub = 0) {
    if (rc_) rc_->sync_release(o, sub);
  }
  void rc_sync_acquire(const void* o, uint64_t sub = 0) {
    if (rc_) rc_->sync_acquire(o, sub);
  }
  void rc_retire(const void* o, uint64_t sub, const char* name,
                 const char* site) {
    if (rc_) rc_->retire(o, sub, name, site);
  }
  void rc_revive(const void* o, uint64_t sub) {
    if (rc_) rc_->revive(o, sub);
  }
  void rc_forget(const void* o, uint64_t sub) {
    if (rc_) rc_->forget(o, sub);
  }
  void rc_lifetime(const void* o, uint64_t sub, const char* name,
                   const char* site, std::string detail) {
    if (rc_) rc_->report_lifetime(o, sub, name, site, std::move(detail));
  }
  bool rc_on() const { return rc_ != nullptr; }

  /// Queues `h` to resume at absolute virtual time `t` (>= now). The
  /// returned handle can cancel or reschedule the resumption; it may be
  /// discarded freely when the timer is fire-and-forget.
  TimerHandle schedule_at(Time t, std::coroutine_handle<> h) {
    assert(t >= now_);
    uint32_t idx = alloc_node();
    TimerNode& n = nodes_[idx];
    n.t = t;
    n.seq = seq_++;
    n.h = h;
    n.rc_clock = rc_ ? rc_->capture() : RaceCheck::kNoClock;
    insert(idx);
    if (++pending_ > peak_depth_) peak_depth_ = pending_;
    return TimerHandle(this, idx, n.gen);
  }

  TimerHandle schedule_after(Duration d, std::coroutine_handle<> h) {
    return schedule_at(now_ + (d.count() > 0 ? d : Duration{0}), h);
  }

  /// Awaitable that suspends the current coroutine for `d` of virtual time.
  auto sleep(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_after(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Suspends until absolute virtual time `t` (no-op if already past).
  auto sleep_until(Time t) { return sleep(t > now_ ? t - now_ : Duration{0}); }

  /// Reschedules the caller at the current time, letting same-time events run.
  auto yield() { return sleep(Duration{0}); }

  /// Launches a root task. It starts running immediately (at the current
  /// virtual time) until its first suspension. Exceptions escaping a spawned
  /// task are captured and rethrown by run().
  void spawn(Task<void> t);

  /// Runs until the event queue drains. Rethrows the first exception that
  /// escaped any spawned task.
  RunResult run();

  /// Runs until the event queue drains or virtual time would exceed
  /// `deadline`; events after the deadline stay queued.
  RunResult run_until(Time deadline);

  /// Number of spawned root tasks that have not yet completed. Nonzero after
  /// run() returns means tasks are deadlocked on conditions that never fire.
  size_t live_tasks() const { return live_; }

  /// Total events processed (determinism/regression checks).
  uint64_t events_processed() const { return processed_; }

  /// Timers removed via TimerHandle::cancel() before firing.
  uint64_t timers_cancelled() const { return cancelled_; }

  /// High-water mark of simultaneously pending timers.
  size_t peak_queue_depth() const { return peak_depth_; }

  /// Currently pending timers.
  size_t pending_timers() const { return pending_; }

 private:
  friend class TimerHandle;
  friend class RaceCheck;

  static constexpr uint32_t kNil = 0xffffffffu;

  struct TimerNode {
    Time t{0};
    uint64_t seq = 0;
    uint64_t gen = 0;  // bumped whenever the node leaves the schedule
    std::coroutine_handle<> h{};
    uint32_t pos = 0;      // index in heap_, valid while state == kPending
    uint32_t next = kNil;  // freelist link
    uint32_t rc_clock = RaceCheck::kNoClock;  // scheduler's VC snapshot
    enum State : uint8_t {
      kFree,
      kPending,  // resident in heap_
      kBatched,  // collected into the current dispatch batch
      kDead,     // cancelled while batched; reaped by the dispatch loop
    };
    State state = kFree;
  };

  struct Detached {
    struct promise_type {
      static void* operator new(size_t n) { return frame_arena_alloc(n); }
      static void operator delete(void* p, size_t n) {
        frame_arena_free(p, n);
      }
      Detached get_return_object() { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
  };
  static Detached run_root(Simulator* s, Task<void> t);

  // --- node arena -------------------------------------------------------
  uint32_t alloc_node() {
    if (free_nodes_ != kNil) {
      uint32_t idx = free_nodes_;
      free_nodes_ = nodes_[idx].next;
      nodes_[idx].next = kNil;
      return idx;
    }
    nodes_.emplace_back();
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void free_node(uint32_t idx) {
    TimerNode& n = nodes_[idx];
    ++n.gen;  // invalidate any outstanding TimerHandle
    n.h = {};
    n.state = TimerNode::kFree;
    n.next = free_nodes_;
    if (n.rc_clock != RaceCheck::kNoClock) {
      rc_owner_->drop(n.rc_clock);
      n.rc_clock = RaceCheck::kNoClock;
    }
    free_nodes_ = idx;
  }

  // --- heap operations (definitions in simulator.cc) --------------------
  bool before(uint32_t a, uint32_t b) const {
    const TimerNode& x = nodes_[a];
    const TimerNode& y = nodes_[b];
    return x.t != y.t ? x.t < y.t : x.seq < y.seq;
  }
  void place(size_t i, uint32_t idx) {
    heap_[i] = idx;
    nodes_[idx].pos = static_cast<uint32_t>(i);
  }
  void insert(uint32_t idx);
  void heap_remove(size_t i);
  void sift_up(size_t i, uint32_t idx);
  bool find_next_batch();  // fills batch_/batch_time_; false when drained
  void drain(bool bounded, Time deadline);
  bool cancel_impl(uint32_t idx, uint64_t gen);
  RunResult make_result() const {
    return RunResult{now_, processed_, cancelled_, live_, peak_depth_};
  }

  // --- state ------------------------------------------------------------
  std::vector<TimerNode> nodes_;
  uint32_t free_nodes_ = kNil;

  std::vector<uint32_t> heap_;   // 4-ary min-heap of node ids by (t, seq)
  std::vector<uint32_t> batch_;  // node ids dispatching at batch_time_
  Time batch_time_{0};

  Time now_{0};
  uint64_t seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t cancelled_ = 0;
  size_t pending_ = 0;
  size_t peak_depth_ = 0;
  size_t live_ = 0;
  std::exception_ptr first_error_{};

  // RaceCheck: rc_owner_ always exists; rc_ is non-null exactly while the
  // checker is enabled (maintained by RaceCheck::set_mode), so the hot
  // path pays one pointer test when off.
  std::unique_ptr<RaceCheck> rc_owner_;
  RaceCheck* rc_ = nullptr;
  uint64_t tiebreak_seed_ = 0;   // 0 => classic FIFO dispatch order
  uint64_t tiebreak_state_ = 0;  // splitmix64 stream, advanced per draw
};

inline bool TimerHandle::cancel() {
  if (!sim_) return false;
  Simulator* s = std::exchange(sim_, nullptr);
  return s->cancel_impl(node_, gen_);
}

inline bool TimerHandle::active() const {
  return sim_ && sim_->nodes_[node_].gen == gen_;
}

inline bool TimerHandle::reschedule(Time t) {
  if (!sim_ || sim_->nodes_[node_].gen != gen_) {
    sim_ = nullptr;
    return false;
  }
  Simulator* s = sim_;
  std::coroutine_handle<> h = s->nodes_[node_].h;
  cancel();
  --s->cancelled_;  // a reschedule is a move, not a cancellation, in stats
  *this = s->schedule_at(t, h);
  return true;
}

}  // namespace hatrpc::sim
