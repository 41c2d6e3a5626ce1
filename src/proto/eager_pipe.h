// One-directional eager message pipe over SEND/RECV circular buffers
// (Fig. 3a). Messages larger than one slot are segmented across the ring;
// the receiver reassembles. Each segment pays the eager bookkeeping CPU and
// a staging copy on both sides — eager's intrinsic cost that makes it a
// small-message protocol. Used by Eager-SendRecv (both directions), the
// hybrid baselines (below-threshold path), and HERD (response direction).
//
// The pipe owns the staged-vs-zero-copy choice for everything it carries
// (ChannelConfig::zero_copy; ChannelBase owns it for the other protocols):
// one send() loop and one recv() serve both modes, so the channels built on
// it write each body once. Zero-copy mode drops the sender's staging copy
// (gather or inline) and consumes single-segment messages in place.
//
// Each side is an Endpoint: the pipe stages into a ring on src's node and
// assembles from a ring on dst's node, polling each side's CQs with that
// side's configured discipline.
#pragma once

#include <optional>

#include "proto/channel.h"
#include "proto/wire.h"
#include "sim/rc_annotate.h"
#include "sim/sync.h"

namespace hatrpc::proto {

class EagerPipe {
 public:
  /// Sender stages into a ring on `src`'s node; receiver assembles from a
  /// ring on `dst`'s node, with recvs pre-posted on dst's QP. `chan` (may
  /// be null) mirrors staging-copy bytes into the owning channel's scope.
  EagerPipe(verbs::Endpoint& src, verbs::Endpoint& dst,
            const ChannelConfig& cfg, ChannelStats* stats,
            obs::CounterSet* chan)
      : src_(src), dst_(dst), cfg_(cfg), stats_(stats), chan_(chan),
        cost_(src.node->fabric().cost()),
        rc_sim_(&src.node->fabric().simulator()),
        leased_(cfg.eager_slots, false) {
    send_ring_ = src_.node->pd().alloc_mr(ring_bytes());
    recv_ring_ = dst_.node->pd().alloc_mr(ring_bytes());
    // Zero-copy sends still need a registered scratch ring for the tiny
    // wire header that is gathered ahead of the user payload.
    if (cfg_.zero_copy)
      zc_hdr_ = src_.node->pd().alloc_mr(
          static_cast<size_t>(kZcHdrBytes) * cfg_.eager_slots);
    for (uint32_t i = 0; i < cfg_.eager_slots; ++i) post_recv_slot(i);
  }

  EagerPipe(EagerPipe&&) = default;
  ~EagerPipe() {
    for (uint32_t i = 0; i < cfg_.eager_slots; ++i) rc_sim_->rc_forget(this, i);
  }

  size_t ring_bytes() const {
    return static_cast<size_t>(cfg_.eager_slot) * cfg_.eager_slots;
  }

  /// One received message: an in-place view into the recv ring (zero-copy
  /// mode, single segment — the consumer must release(slot) when done so the
  /// slot can be reposted) or an owned, assembled buffer.
  struct Msg {
    static constexpr uint32_t kNoSlot = UINT32_MAX;
    Buffer owned;
    View view{};
    uint32_t slot = kNoSlot;
    bool in_place() const { return slot != kNoSlot; }
    View bytes() const { return in_place() ? view : View(owned); }
  };

  /// Sends one (possibly segmented) message. The wire image is the same in
  /// both modes: the first segment carries [u32 total][u32 slot_prefix?]
  /// ahead of its payload slice (total counts the prefix), later segments
  /// carry raw slices. Staged mode copies each segment into its ring slot
  /// and pays the copy charge; zero-copy mode posts [header | slice] gathers
  /// straight from `msg` (registered through the sender's MrCache), or one
  /// inline WQE when a one-segment frame fits the doorbell. Either way the
  /// eager bookkeeping CPU is charged per segment.
  ///
  /// A zero-copy gather reads `msg` when the WQE executes: the caller keeps
  /// it valid until then, or hands its ownership over in `keep`, which
  /// rides every gathered WQE (see send_owned).
  ///
  /// Multiple whole messages may be in flight back-to-back (windowed callers
  /// serialize send() itself); the slot cursor therefore persists across
  /// messages, and slot reuse is gated on send completions (polled with the
  /// sender's discipline) so a new message never overwrites a slot whose
  /// send is still outstanding. Returns false (with last_status() set) if a
  /// send completes in error.
  sim::Task<bool> send(View msg, const uint32_t* slot_prefix = nullptr,
                       std::shared_ptr<const void> keep = {}) {
    const uint32_t slot = cfg_.eager_slot;
    const uint32_t nslots = cfg_.eager_slots;
    const uint32_t pfx = slot_prefix ? 4u : 0u;
    const uint32_t total = static_cast<uint32_t>(msg.size()) + pfx;
    const bool zc = cfg_.zero_copy;
    const bool inl = zc && 4 + total <= slot &&
                     4 + total <= src_.qp->max_inline_data();
    if (zc && !inl && !msg.empty())
      src_.node->pd().mr_cache().get(msg.data(), msg.size(), chan_);
    // Lazily reclaim completions from previous messages (no charge when
    // they are already visible — ibv_poll_cq batch semantics).
    while (outstanding_ > 0 && src_.scq->try_poll()) --outstanding_;
    size_t off = 0;
    bool first = true;
    while (first || off < msg.size()) {
      const uint32_t idx = cursor_ % nslots;
      const uint32_t hdr = first ? 4u + pfx : 0u;
      const uint32_t take = static_cast<uint32_t>(
          std::min<size_t>(slot - hdr, msg.size() - off));
      // Slot reuse: the ring is full, wait for the oldest send to complete.
      while (outstanding_ >= nslots) {
        verbs::Wc wc = co_await src_.send_wc();
        if (!wc.ok()) {
          last_status_ = wc.status;
          co_return false;
        }
        --outstanding_;
      }
      verbs::SendWr wr;  // a signaled SEND
      wr.wr_id = idx;
      if (zc) {
        co_await src_.node->cpu().compute(cost_.eager_match_cpu);
        if (hdr > 0) {
          std::byte* h =
              zc_hdr_->data() + static_cast<size_t>(idx) * kZcHdrBytes;
          put_header(h, total, slot_prefix);
          wr.sg_list.push_back({h, hdr});
        }
        if (take > 0)
          wr.sg_list.push_back(
              {const_cast<std::byte*>(msg.data() + off), take});
        // An inline payload is snapshotted at post time; a gather keeps
        // the caller's bytes alive until the WQE has executed.
        wr.inline_data = inl;
        if (!inl) wr.keep_alive = keep;
      } else {
        // The slot prefix is staged with the first slice, so it is charged
        // as part of the copy.
        const uint32_t staged = (first ? pfx : 0u) + take;
        std::byte* s = send_ring_->data() + static_cast<size_t>(idx) * slot;
        charge_copy(*src_.node, staged);
        co_await src_.node->cpu().compute(
            cost_.eager_match_cpu +
            cost_.copy_time(staged, src_.qp->numa_local));
        if (first) put_header(s, total, slot_prefix);
        if (take > 0) std::memcpy(s + hdr, msg.data() + off, take);
        wr.local = {s, hdr + take};
      }
      co_await src_.qp->post_send(std::move(wr));
      ++stats_->sends;
      ++outstanding_;
      off += take;
      ++cursor_;
      first = false;
    }
    co_return true;
  }

  /// Sends a message the caller gives up (a server's response, whose Buffer
  /// dies when its serve task returns): its ownership rides the WQEs, so
  /// zero-copy mode gathers from it without a staging copy.
  sim::Task<bool> send_owned(Buffer msg,
                             const uint32_t* slot_prefix = nullptr) {
    auto keep = std::make_shared<const Buffer>(std::move(msg));
    co_return co_await send(View(*keep), slot_prefix, keep);
  }

  /// Receives one message; nullopt when the CQ is closed (shutdown). In
  /// zero-copy mode a single-segment message is handed out in place when
  /// `allow_in_place` is set: message matching is still bookkeeping work,
  /// but the payload is consumed from the ring with no assembly copy.
  /// Otherwise — staged mode always — the message is assembled into an
  /// owned buffer and its slots are reposted as they are drained.
  sim::Task<std::optional<Msg>> recv(bool allow_in_place = true) {
    verbs::Wc wc = co_await dst_.recv_wc();
    if (!wc.ok()) {
      last_status_ = wc.status;
      co_return std::nullopt;
    }
    const uint32_t idx = static_cast<uint32_t>(wc.wr_id);
    const std::byte* s =
        recv_ring_->data() + static_cast<size_t>(idx) * cfg_.eager_slot;
    Msg m;
    if (cfg_.zero_copy && allow_in_place && get_u32(s) + 4 == wc.byte_len) {
      co_await dst_.node->cpu().compute(cost_.eager_match_cpu);
      leased_[idx] = true;
      // The slot begins a leased lifetime owned by the consumer; the view
      // read below conflicts with anything that reposts the slot early.
      rc_sim_->rc_revive(this, idx);
      rc_sim_->rc_read(this, idx, "EagerPipe.recv_slot", RC_HERE);
      m.view = View{s + 4, get_u32(s)};
      m.slot = idx;
      co_return m;
    }
    auto out = co_await assemble(wc);
    if (!out) co_return std::nullopt;
    m.owned = std::move(*out);
    co_return m;
  }

  /// Reposts an in-place message's ring slot once the consumer is done.
  /// Releasing a slot that is not leased (double release, or release after
  /// the slot was already reposted) is a no-op — reposting twice would put
  /// the slot in the recv queue twice and let two future messages land in
  /// the same bytes — and a RaceCheck lifetime diagnostic.
  void release(uint32_t slot) {
    if (slot >= leased_.size() || !leased_[slot]) {
      rc_sim_->rc_lifetime(this, slot, "EagerPipe.recv_slot", RC_HERE,
                           "release of a recv slot that is not leased");
      return;
    }
    leased_[slot] = false;
    rc_sim_->rc_retire(this, slot, "EagerPipe.recv_slot", RC_HERE);
    post_recv_slot(slot);
  }

  /// Status of the completion that made send()/recv() bail out.
  verbs::WcStatus last_status() const { return last_status_; }

 private:
  // Assembly into an owned buffer, with the first (already polled,
  // successful) completion handed in. Charges the eager bookkeeping CPU and
  // an assembly copy per segment, and reposts each slot once drained.
  sim::Task<std::optional<Buffer>> assemble(verbs::Wc wc) {
    Buffer out;
    size_t total = 0;
    bool first = true;
    std::optional<verbs::Wc> pending;
    while (first || out.size() < total) {
      if (!first) {
        if (pending) {
          wc = *pending;
          pending.reset();
        } else {
          wc = co_await dst_.recv_wc();
          if (!wc.ok()) {
            last_status_ = wc.status;
            co_return std::nullopt;
          }
        }
      }
      uint32_t idx = static_cast<uint32_t>(wc.wr_id);
      const std::byte* s =
          recv_ring_->data() + static_cast<size_t>(idx) * cfg_.eager_slot;
      uint32_t hdr = first ? 4u : 0u;
      if (first) {
        total = get_u32(s);
        out.reserve(total);
        first = false;
      }
      uint32_t take = wc.byte_len - hdr;
      charge_copy(*dst_.node, take);
      co_await dst_.node->cpu().compute(
          cost_.eager_match_cpu +
          cost_.copy_time(take, dst_.qp->numa_local));
      out.insert(out.end(), s + hdr, s + hdr + take);
      post_recv_slot(idx);
      // Batch-drain CQEs that are already visible (ibv_poll_cq semantics) —
      // this is what keeps event-mode pickups per batch, not per segment.
      if (out.size() < total) pending = dst_.rcq->try_poll();
    }
    co_return out;
  }

  static void put_header(std::byte* h, uint32_t total,
                         const uint32_t* slot_prefix) {
    put_u32(h, total);
    if (slot_prefix) put_u32(h + 4, *slot_prefix);
  }

  void charge_copy(verbs::Node& node, uint64_t bytes) {
    node.counters().add(obs::Ctr::kCopyBytes, bytes);
    if (chan_) chan_->add(obs::Ctr::kCopyBytes, bytes);
  }

  void post_recv_slot(uint32_t idx) {
    dst_.qp->post_recv(verbs::RecvWr{
        .wr_id = idx,
        .buf = {recv_ring_->data() + static_cast<size_t>(idx) * cfg_.eager_slot,
                cfg_.eager_slot}});
  }

  verbs::Endpoint& src_;
  verbs::Endpoint& dst_;
  ChannelConfig cfg_;
  ChannelStats* stats_;
  obs::CounterSet* chan_;
  const verbs::CostModel& cost_;
  /// Per-slot wire-header scratch for zero-copy sends: [u32 total][u32 slot].
  static constexpr uint32_t kZcHdrBytes = 8;

  verbs::MemoryRegion* send_ring_;
  verbs::MemoryRegion* recv_ring_;
  verbs::MemoryRegion* zc_hdr_ = nullptr;
  sim::Simulator* rc_sim_;
  std::vector<bool> leased_;  // in-place recv slots awaiting release()
  uint32_t outstanding_ = 0;
  uint32_t cursor_ = 0;  // staging slot cursor, persistent across messages
  verbs::WcStatus last_status_ = verbs::WcStatus::kSuccess;
};

}  // namespace hatrpc::proto
