// Eager-SendRecv protocol (Fig. 3a): payloads travel inside pre-posted
// circular-buffer slots together with the control message. Cheap setup and
// modest pinned memory, but every byte is staged through a slot copy on
// both sides, so it suits small messages (and the res_util hint).
//
// Pipelining (window > 1): messages gain a 4-byte slot prefix so responses
// can be routed back to the right pending call; whole-message sends are
// serialized per pipe direction (the ring is a shared resource) while the
// window lets multiple requests be in flight and the server handle them
// concurrently. window=1 keeps the classic unprefixed framing bit-for-bit.
//
// Every body is written once: the EagerPipe decides whether a message is
// staged through slot copies or gathered/inlined and consumed in place.
#pragma once

#include "proto/base.h"
#include "proto/eager_pipe.h"
#include "proto/error.h"

namespace hatrpc::proto {

class EagerChannel : public ChannelBase {
 public:
  sim::Task<Buffer> do_call(View req, uint32_t /*resp_size_hint*/) override {
    EagerPipe::Msg m = co_await exchange(req, /*lease=*/false);
    if (!m.in_place()) co_return std::move(m.owned);
    // A zero-copy response consumed in place: materializing it is the one
    // client copy.
    co_await charge_client_copy(m.view.size());
    Buffer out(m.view.begin(), m.view.end());
    s2c_.release(m.slot);
    co_return out;
  }

  /// Leased receive: a response consumed in place (zero-copy mode, single
  /// segment) is handed to the caller as a view into the s2c recv ring,
  /// skipping the client-side materialization copy; the ring slot is
  /// reposted when the LeasedReply dies. Every outstanding lease parks one
  /// of the pipe's eager_slots recvs, so leased delivery is only offered
  /// while the window cannot park more than half the ring.
  sim::Task<LeasedReply> do_call_leased(Request req,
                                        uint32_t resp_size_hint) override {
    if (2 * cfg_.window > cfg_.eager_slots)
      co_return LeasedReply(co_await do_call(req.view(), resp_size_hint));
    EagerPipe::Msg m = co_await exchange(req.view(), /*lease=*/true);
    if (!m.in_place()) co_return LeasedReply(std::move(m.owned));
    cl_.counters().add(obs::Ctr::kRecvLeases);
    if (auto* c = channel_counters()) c->add(obs::Ctr::kRecvLeases);
    const uint32_t ring = m.slot;
    co_return LeasedReply(m.view, [this, ring] { s2c_.release(ring); });
  }

 protected:
  sim::Task<void> serve() override {
    while (!stop_) {
      auto m = co_await c2s_.recv();
      if (!m) break;
      if (cfg_.window > 1) {
        sim_.spawn(serve_one(std::move(*m)));
        continue;
      }
      // The handler runs over the request in place when the pipe delivered
      // it that way; the response's ownership rides the send.
      Buffer resp = co_await run_handler(m->bytes());
      if (m->in_place()) c2s_.release(m->slot);
      if (!co_await s2c_.send_owned(std::move(resp))) break;
    }
  }

  void start() override {
    ChannelBase::start();
    if (cfg_.window > 1) sim_.spawn(client_dispatch());
  }

 private:
  EagerChannel(verbs::Node& client, verbs::Node& server, Handler handler,
               ChannelConfig cfg)
      : ChannelBase(ProtocolKind::kEagerSendRecv, client, server,
                    std::move(handler), cfg),
        c2s_(cep_, sep_, cfg_, &stats_, channel_counters()),
        s2c_(sep_, cep_, cfg_, &stats_, channel_counters()),
        send_mu_(sim_), srv_send_mu_(sim_) {
    // Each pipe pins one ring per side.
    stats_.client_registered += c2s_.ring_bytes() + s2c_.ring_bytes();
    stats_.server_registered += c2s_.ring_bytes() + s2c_.ring_bytes();
    pending_.resize(cfg_.window);
  }

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  /// One request/response exchange. window=1 sends and receives inline;
  /// wider windows tag the request with its slot and wait for
  /// client_dispatch to route the response back. `lease` asks the
  /// dispatcher to hand an in-place response over uncopied.
  sim::Task<EagerPipe::Msg> exchange(View req, bool lease) {
    if (cfg_.window == 1) {
      if (!co_await c2s_.send(req))
        throw_wc("eager send", c2s_.last_status());
      auto m = co_await s2c_.recv();
      if (!m) throw_wc("eager recv", s2c_.last_status());
      co_return std::move(*m);
    }
    uint32_t slot = co_await acquire_slot();
    if (dead_) {
      release_slot(slot);
      throw_wc("eager recv", dead_status_);
    }
    auto pend = sim::pooled_shared<PendingCall>(sim_);
    pend->lease_wanted = lease;
    pending_[slot] = pend;
    bool sent;
    {
      // The request is borrowed: the caller's buffer outlives the call.
      auto guard = co_await send_mu_.scoped();
      sent = co_await c2s_.send(req, &slot);
    }
    if (!sent) {
      pending_[slot].reset();
      release_slot(slot);
      throw_wc("eager send", c2s_.last_status());
    }
    co_await pend->done.wait();
    pending_[slot].reset();
    if (pend->status != verbs::WcStatus::kSuccess) {
      release_slot(slot);
      throw_wc("eager recv", pend->status);
    }
    release_slot(slot);
    EagerPipe::Msg m;
    if (pend->lease_slot != UINT32_MAX) {
      m.view = pend->lease_view;
      m.slot = pend->lease_slot;
    } else {
      m.owned = std::move(pend->resp);
    }
    co_return m;
  }

  sim::Task<void> serve_one(EagerPipe::Msg m) {
    View b = m.bytes();
    uint32_t slot = get_u32(b.data());
    Buffer resp = co_await run_handler(b.subspan(4));
    if (m.in_place()) c2s_.release(m.slot);
    auto guard = co_await srv_send_mu_.scoped();
    co_await s2c_.send_owned(std::move(resp), &slot);
  }

  /// Routes slot-prefixed responses to their pending calls.
  sim::Task<void> client_dispatch() {
    for (;;) {
      auto m = co_await s2c_.recv();
      if (!m) {
        mark_dead(s2c_.last_status());
        for (auto& p : pending_)
          if (p) {
            p->status = dead_status_;
            p->done.set();
          }
        co_return;
      }
      View b = m->bytes();
      uint32_t slot = get_u32(b.data());
      if (slot < pending_.size()) {
        if (auto& p = pending_[slot]) {
          if (p->lease_wanted && m->in_place()) {
            // Park the in-place view; the caller's LeasedReply owns the
            // ring slot now and reposts it on release — no copy here.
            p->lease_view = b.subspan(4);
            p->lease_slot = m->slot;
            p->status = verbs::WcStatus::kSuccess;
            p->done.set();
            continue;
          }
          // Materializing an in-place response is the client copy; an
          // assembled one was already charged by the pipe.
          if (m->in_place()) co_await charge_client_copy(b.size() - 4);
          p->resp.assign(b.begin() + 4, b.end());
          p->status = verbs::WcStatus::kSuccess;
          p->done.set();
        }
      }
      if (m->in_place()) s2c_.release(m->slot);
    }
  }

  EagerPipe c2s_;
  EagerPipe s2c_;
  sim::Mutex send_mu_;
  sim::Mutex srv_send_mu_;
  std::vector<std::shared_ptr<PendingCall>> pending_;
};

}  // namespace hatrpc::proto
