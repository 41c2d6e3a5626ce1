#include "sim/simulator.h"

namespace hatrpc::sim {

Simulator::Detached Simulator::run_root(Simulator* s, Task<void> t) {
  try {
    co_await std::move(t);
  } catch (...) {
    if (!s->first_error_) s->first_error_ = std::current_exception();
  }
  --s->live_;
}

void Simulator::spawn(Task<void> t) {
  ++live_;
  run_root(this, std::move(t));
}

void Simulator::insert(uint32_t idx) {
  nodes_[idx].state = TimerNode::kPending;
  heap_.push_back(idx);
  sift_up(heap_.size() - 1, idx);
}

// Moves `idx` from hole `i` toward the root until its parent orders first.
void Simulator::sift_up(size_t i, uint32_t idx) {
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!before(idx, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, idx);
}

// Fills hole `i` with the last leaf. The hole first walks down to a leaf
// along the smallest children, then the leaf sifts up from there: a leaf
// usually belongs near the bottom, so this takes fewer comparisons than a
// top-down sift, and the sift-up also carries a leaf that orders before
// the hole's parent above `i`.
void Simulator::heap_remove(size_t i) {
  uint32_t last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (i == n) return;
  for (size_t child = 4 * i + 1; child < n; child = 4 * i + 1) {
    size_t best = child;
    for (size_t c = child + 1; c < std::min(child + 4, n); ++c)
      if (before(heap_[c], heap_[best])) best = c;
    place(i, heap_[best]);
    i = best;
  }
  sift_up(i, last);
}

// Pops every node sharing the earliest timestamp; (t, seq) keying yields
// them in FIFO order.
bool Simulator::find_next_batch() {
  if (heap_.empty()) return false;
  batch_time_ = nodes_[heap_.front()].t;
  do {
    uint32_t idx = heap_.front();
    nodes_[idx].state = TimerNode::kBatched;
    batch_.push_back(idx);
    heap_remove(0);
  } while (!heap_.empty() && nodes_[heap_.front()].t == batch_time_);
  return true;
}

bool Simulator::cancel_impl(uint32_t idx, uint64_t gen) {
  TimerNode& n = nodes_[idx];
  if (n.gen != gen) return false;  // already fired, cancelled, or recycled
  switch (n.state) {
    case TimerNode::kPending:
      heap_remove(n.pos);
      free_node(idx);
      break;
    case TimerNode::kBatched:  // the dispatch loop reaps it
      n.state = TimerNode::kDead;
      ++n.gen;
      break;
    default:
      return false;
  }
  --pending_;
  ++cancelled_;
  return true;
}

void Simulator::drain(bool bounded, Time deadline) {
  while (find_next_batch()) {
    if (bounded && batch_time_ > deadline) {
      // Put the collected batch back (original sequence numbers preserved,
      // so dispatch order is unchanged when a later run call reaches it).
      for (uint32_t idx : batch_) {
        if (nodes_[idx].state == TimerNode::kDead) {
          free_node(idx);
        } else {
          insert(idx);
        }
      }
      batch_.clear();
      break;
    }
    now_ = batch_time_;
    // Seeded tiebreak perturbation: any permutation of a same-timestamp
    // batch is a legal schedule (equal-time events have no imposed order
    // beyond the FIFO convention). Gated on the seed, not the stream
    // state, so a stream value of 0 cannot silently disable it.
    if (tiebreak_seed_ != 0 && batch_.size() > 1) {
      auto draw = [this] {
        tiebreak_state_ += 0x9e3779b97f4a7c15ull;  // splitmix64
        uint64_t z = tiebreak_state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
      };
      for (size_t i = batch_.size() - 1; i > 0; --i)
        std::swap(batch_[i], batch_[draw() % (i + 1)]);
    }
    // An event in this batch may cancel a later timer at the same
    // timestamp (e.g. a notify racing its timeout): dispatch re-checks
    // liveness per node. Resumptions may grow nodes_, so no references
    // are held across resume().
    for (size_t i = 0; i < batch_.size(); ++i) {
      uint32_t idx = batch_[i];
      if (nodes_[idx].state == TimerNode::kDead) {
        free_node(idx);
        continue;
      }
      std::coroutine_handle<> h = nodes_[idx].h;
      uint32_t rc_clock = nodes_[idx].rc_clock;
      nodes_[idx].rc_clock = RaceCheck::kNoClock;  // keep free_node from dropping it
      free_node(idx);
      --pending_;
      ++processed_;
      if (rc_clock != RaceCheck::kNoClock) {
        if (rc_) {
          rc_->begin_segment(rc_clock);
        } else {
          rc_owner_->drop(rc_clock);
        }
      }
      h.resume();
    }
    batch_.clear();
  }
  if (bounded && now_ < deadline && pending_ == 0) now_ = deadline;
  if (rc_) rc_->run_barrier();
  if (first_error_) {
    auto e = std::exchange(first_error_, nullptr);
    std::rethrow_exception(e);
  }
}

Simulator::RunResult Simulator::run() {
  drain(/*bounded=*/false, Time{0});
  return make_result();
}

Simulator::RunResult Simulator::run_until(Time deadline) {
  drain(/*bounded=*/true, deadline);
  return make_result();
}

}  // namespace hatrpc::sim
