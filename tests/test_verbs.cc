// Unit tests for the simulated verbs layer: memory registration and
// protection, all four opcodes (functional byte movement + completions),
// chained work requests, polling disciplines, link contention, RNR
// backpressure, and latency calibration against the cost model.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "verbs/verbs.h"

namespace hatrpc::verbs {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

struct Pair {
  Simulator sim;
  Fabric fabric{sim};
  Node* a = fabric.add_node();
  Node* b = fabric.add_node();
  CompletionQueue* a_scq = a->create_cq();
  CompletionQueue* a_rcq = a->create_cq();
  CompletionQueue* b_scq = b->create_cq();
  CompletionQueue* b_rcq = b->create_cq();
  QueuePair* qa = a->create_qp(*a_scq, *a_rcq);
  QueuePair* qb = b->create_qp(*b_scq, *b_rcq);

  Pair() { Fabric::connect(*qa, *qb); }
};

void fill(MemoryRegion* mr, const std::string& s) {
  std::memcpy(mr->data(), s.data(), s.size());
}

std::string read_back(MemoryRegion* mr, size_t n, size_t off = 0) {
  return std::string(reinterpret_cast<const char*>(mr->data()) + off, n);
}

TEST(Memory, AllocAndResolve) {
  ProtectionDomain pd(0);
  MemoryRegion* mr = pd.alloc_mr(4096);
  EXPECT_EQ(mr->size(), 4096u);
  EXPECT_NE(mr->lkey(), 0u);
  auto span = pd.resolve(mr->remote(128), 64);
  EXPECT_EQ(span.size(), 64u);
  EXPECT_EQ(reinterpret_cast<uint64_t>(span.data()), mr->addr() + 128);
}

TEST(Memory, ResolveRejectsBadRkey) {
  ProtectionDomain pd(0);
  pd.alloc_mr(64);
  EXPECT_THROW(pd.resolve(RemoteAddr{0, 999}, 8), std::runtime_error);
}

TEST(Memory, ResolveRejectsOutOfBounds) {
  ProtectionDomain pd(0);
  MemoryRegion* mr = pd.alloc_mr(64);
  EXPECT_THROW(pd.resolve(mr->remote(60), 8), std::runtime_error);
  EXPECT_NO_THROW(pd.resolve(mr->remote(56), 8));
}

TEST(Memory, RegisteredBytesTracked) {
  ProtectionDomain pd(0);
  MemoryRegion* a = pd.alloc_mr(100);
  pd.alloc_mr(200);
  EXPECT_EQ(pd.registered_bytes(), 300u);
  pd.dereg_mr(a);
  EXPECT_EQ(pd.registered_bytes(), 200u);
  EXPECT_EQ(pd.mr_count(), 1u);
}

TEST(Verbs, SendRecvMovesBytes) {
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  fill(src, "hello rdma");

  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 7, .buf = {dst->data(), 64}});
    co_await p.qa->post_send(SendWr{.wr_id = 1,
                                    .opcode = Opcode::kSend,
                                    .local = {src->data(), 10}});
    Wc rwc = co_await p.b_rcq->wait(PollMode::kBusy);
    EXPECT_EQ(rwc.wr_id, 7u);
    EXPECT_EQ(rwc.opcode, WcOpcode::kRecv);
    EXPECT_EQ(rwc.byte_len, 10u);
    Wc swc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(swc.wr_id, 1u);
    EXPECT_EQ(swc.opcode, WcOpcode::kSend);
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_EQ(read_back(dst, 10), "hello rdma");
}

TEST(Verbs, WriteIsOneSided) {
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  fill(src, "write-data");

  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 2,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), 10},
                                    .remote = dst->remote(16)});
    Wc wc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(wc.opcode, WcOpcode::kRdmaWrite);
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(read_back(dst, 10, 16), "write-data");
  // One-sided: no completion ever reaches the target's recv CQ.
  EXPECT_EQ(p.b_rcq->delivered(), 0u);
}

TEST(Verbs, WriteImmDeliversImmAndConsumesRecv) {
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  fill(src, "imm-payload");

  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 9, .buf = {nullptr, 0}});
    co_await p.qa->post_send(SendWr{.wr_id = 3,
                                    .opcode = Opcode::kWriteImm,
                                    .local = {src->data(), 11},
                                    .remote = dst->remote(0),
                                    .imm = 0xabcd});
    Wc wc = co_await p.b_rcq->wait(PollMode::kBusy);
    EXPECT_EQ(wc.opcode, WcOpcode::kRecvImm);
    EXPECT_EQ(wc.imm, 0xabcdu);
    EXPECT_EQ(wc.byte_len, 11u);
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(read_back(dst, 11), "imm-payload");
  EXPECT_EQ(p.qb->posted_recvs(), 0u);
}

TEST(Verbs, ReadFetchesRemoteBytes) {
  Pair p;
  MemoryRegion* local = p.a->pd().alloc_mr(64);
  MemoryRegion* remote = p.b->pd().alloc_mr(64);
  fill(remote, "server-side-data");

  p.sim.spawn([](Pair& p, MemoryRegion* l, MemoryRegion* r) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 4,
                                    .opcode = Opcode::kRead,
                                    .local = {l->data(), 16},
                                    .remote = r->remote(0)});
    Wc wc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(wc.opcode, WcOpcode::kRdmaRead);
    EXPECT_EQ(wc.byte_len, 16u);
  }(p, local, remote));
  p.sim.run();
  EXPECT_EQ(read_back(local, 16), "server-side-data");
  // READ bypasses the responder CPU entirely: nothing on b's CQs.
  EXPECT_EQ(p.b_rcq->delivered(), 0u);
  EXPECT_EQ(p.b_scq->delivered(), 0u);
}

TEST(Verbs, UnsignaledSendProducesNoLocalCompletion) {
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
    co_await p.qa->post_send(SendWr{.wr_id = 5,
                                    .opcode = Opcode::kSend,
                                    .local = {src->data(), 8},
                                    .signaled = false});
    co_await p.b_rcq->wait(PollMode::kBusy);
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.a_scq->delivered(), 0u);
}

TEST(Verbs, SmallWriteRoundTripLatencyCalibrated) {
  // A signaled 8B WRITE completes at the requester in roughly one RTT:
  // post + wqe + wire + propagation + ack + cqe + pickup. Expect ~1.3-3 us.
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  sim::Time done{};
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst,
                 sim::Time& done) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 1,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), 8},
                                    .remote = dst->remote(0)});
    co_await p.a_scq->wait(PollMode::kBusy);
    done = p.sim.now();
  }(p, src, dst, done));
  p.sim.run();
  EXPECT_GE(done, 1000ns);
  EXPECT_LE(done, 3000ns);
}

TEST(Verbs, LargeTransferDominatedByWireTime) {
  // 1 MB at 12.5 GB/s is 80 us of serialization; end-to-end should be close.
  Pair p;
  constexpr size_t kBytes = 1 << 20;
  MemoryRegion* src = p.a->pd().alloc_mr(kBytes);
  MemoryRegion* dst = p.b->pd().alloc_mr(kBytes);
  sim::Time done{};
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst,
                 sim::Time& done) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 1,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), kBytes},
                                    .remote = dst->remote(0)});
    co_await p.a_scq->wait(PollMode::kBusy);
    done = p.sim.now();
  }(p, src, dst, done));
  p.sim.run();
  EXPECT_GE(done, 80us);
  EXPECT_LE(done, 95us);
}

TEST(Verbs, ReadPaysTwoPropagations) {
  // READ latency > WRITE latency for the same size (request + response).
  auto measure = [](Opcode op) {
    Pair p;
    MemoryRegion* l = p.a->pd().alloc_mr(64);
    MemoryRegion* r = p.b->pd().alloc_mr(64);
    sim::Time done{};
    p.sim.spawn([](Pair& p, Opcode op, MemoryRegion* l, MemoryRegion* r,
                   sim::Time& done) -> Task<void> {
      co_await p.qa->post_send(SendWr{.wr_id = 1,
                                      .opcode = op,
                                      .local = {l->data(), 8},
                                      .remote = r->remote(0)});
      co_await p.a_scq->wait(PollMode::kBusy);
      done = p.sim.now();
    }(p, op, l, r, done));
    p.sim.run();
    return done;
  };
  EXPECT_GT(measure(Opcode::kRead), measure(Opcode::kWrite));
}

TEST(Verbs, ChainedPostCheaperThanTwoDoorbells) {
  // Two WRITEs as a chain (one MMIO) must complete earlier than two separate
  // posts (two MMIOs) — the Chained-Write-Send rationale.
  auto run = [](bool chained) {
    Pair p;
    MemoryRegion* src = p.a->pd().alloc_mr(64);
    MemoryRegion* dst = p.b->pd().alloc_mr(64);
    sim::Time done{};
    p.sim.spawn([](Pair& p, bool chained, MemoryRegion* src, MemoryRegion* dst,
                   sim::Time& done) -> Task<void> {
      SendWr w1{.wr_id = 1, .opcode = Opcode::kWrite,
                .local = {src->data(), 8}, .remote = dst->remote(0),
                .signaled = false};
      SendWr w2{.wr_id = 2, .opcode = Opcode::kWrite,
                .local = {src->data(), 8}, .remote = dst->remote(8)};
      if (chained) {
        std::vector<SendWr> chain;
        chain.push_back(w1);
        chain.push_back(w2);
        co_await p.qa->post_send_chain(std::move(chain));
      } else {
        co_await p.qa->post_send(w1);
        co_await p.qa->post_send(w2);
      }
      co_await p.a_scq->wait(PollMode::kBusy);
      done = p.sim.now();
    }(p, chained, src, dst, done));
    p.sim.run();
    return done;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Verbs, SendWaitsForPostedRecv) {
  // RNR backpressure: the recv completion appears only after the target
  // finally posts a buffer.
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  sim::Time recv_done{};
  p.sim.spawn([](Pair& p, MemoryRegion* src) -> Task<void> {
    co_await p.qa->post_send(SendWr{
        .wr_id = 1, .opcode = Opcode::kSend, .local = {src->data(), 8}});
  }(p, src));
  p.sim.spawn([](Pair& p, MemoryRegion* dst, sim::Time& recv_done)
                  -> Task<void> {
    co_await p.sim.sleep(100us);  // post the recv late
    p.qb->post_recv(RecvWr{.wr_id = 2, .buf = {dst->data(), 64}});
    co_await p.b_rcq->wait(PollMode::kBusy);
    recv_done = p.sim.now();
  }(p, dst, recv_done));
  p.sim.run();
  EXPECT_GE(recv_done, 100us);
}

TEST(Verbs, RecvBufferTooSmallIsAnError) {
  // A SEND larger than the posted recv completes in error on BOTH sides —
  // kLocLenErr at the responder's recv CQ, kRemOpErr at the requester —
  // and both QPs transition to the error state (no exception, like real RC).
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 4}});
    co_await p.qa->post_send(SendWr{
        .wr_id = 1, .opcode = Opcode::kSend, .local = {src->data(), 32}});
    Wc rwc = co_await p.b_rcq->wait(PollMode::kBusy);
    EXPECT_EQ(rwc.status, WcStatus::kLocLenErr);
    Wc swc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(swc.status, WcStatus::kRemOpErr);
    EXPECT_EQ(swc.wr_id, 1u);
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_TRUE(p.qa->in_error());
  EXPECT_TRUE(p.qb->in_error());
}

TEST(Verbs, CqCloseUnblocksWaiterWithFlushError) {
  // Closing a CQ mid-wait releases the waiter with kWrFlushErr (the clean
  // shutdown path every server loop relies on), for both disciplines.
  for (PollMode mode : {PollMode::kBusy, PollMode::kEvent}) {
    Pair p;
    bool woke = false;
    p.sim.spawn([](Pair& p, PollMode mode, bool& woke) -> Task<void> {
      Wc wc = co_await p.b_rcq->wait(mode);
      EXPECT_EQ(wc.status, WcStatus::kWrFlushErr);
      EXPECT_FALSE(wc.ok());
      woke = true;
    }(p, mode, woke));
    p.sim.spawn([](Pair& p) -> Task<void> {
      co_await p.sim.sleep(5us);
      p.b_rcq->close();
    }(p));
    p.sim.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(p.sim.live_tasks(), 0u);
  }
}

TEST(Verbs, QpErrorFlushesPostedRecvsAndLaterPosts) {
  Pair p;
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.qb->post_recv(RecvWr{.wr_id = 11, .buf = {dst->data(), 64}});
  p.qb->post_recv(RecvWr{.wr_id = 12, .buf = {dst->data(), 64}});
  p.qb->enter_error();
  EXPECT_TRUE(p.qb->in_error());
  // Both pre-posted recvs flushed...
  EXPECT_EQ(p.b_rcq->depth(), 2u);
  auto wc1 = p.b_rcq->try_poll();
  auto wc2 = p.b_rcq->try_poll();
  ASSERT_TRUE(wc1 && wc2);
  EXPECT_EQ(wc1->wr_id, 11u);
  EXPECT_EQ(wc1->status, WcStatus::kWrFlushErr);
  EXPECT_EQ(wc2->wr_id, 12u);
  // ...and a post_recv on the errored QP flushes immediately too.
  p.qb->post_recv(RecvWr{.wr_id = 13, .buf = {dst->data(), 64}});
  auto wc3 = p.b_rcq->try_poll();
  ASSERT_TRUE(wc3);
  EXPECT_EQ(wc3->wr_id, 13u);
  EXPECT_EQ(wc3->status, WcStatus::kWrFlushErr);
}

TEST(Verbs, SendToErroredPeerFailsWithRetryExceeded) {
  // The peer QP is dead: the transport retransmits into silence, burns its
  // retry budget, and reports kRetryExcErr — time must pass (ack timeouts).
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  p.qb->enter_error();
  sim::Time done{};
  p.sim.spawn([](Pair& p, MemoryRegion* src, sim::Time& done) -> Task<void> {
    co_await p.qa->post_send(SendWr{
        .wr_id = 21, .opcode = Opcode::kSend, .local = {src->data(), 8}});
    Wc wc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(wc.status, WcStatus::kRetryExcErr);
    EXPECT_EQ(wc.wr_id, 21u);
    done = p.sim.now();
  }(p, src, done));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_TRUE(p.qa->in_error());
  EXPECT_GE(done, FaultProfile{}.unreachable_penalty());
}

TEST(Verbs, FiniteRnrRetryExhausts) {
  // With a finite rnr_retry budget and no recv ever posted, the SEND fails
  // with kRnrRetryExcErr instead of waiting forever.
  Pair p;
  auto plan = std::make_unique<FaultPlan>(1);
  plan->profile.rnr_retry = 3;
  plan->profile.rnr_timer = std::chrono::microseconds(2);
  p.fabric.set_fault_plan(std::move(plan));
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src) -> Task<void> {
    co_await p.qa->post_send(SendWr{
        .wr_id = 31, .opcode = Opcode::kSend, .local = {src->data(), 8}});
    Wc wc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(wc.status, WcStatus::kRnrRetryExcErr);
  }(p, src));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_EQ(p.fabric.fault_plan()->injected(), 1u);
}

TEST(Verbs, DropsAreRetransmittedTransparently) {
  // Heavy loss but a generous retry budget: the payload still arrives
  // intact, later than the fault-free run, and the plan records the drops.
  auto run = [](double drop) {
    Pair p;
    auto plan = std::make_unique<FaultPlan>(42);
    plan->profile.drop = drop;
    p.fabric.set_fault_plan(std::move(plan));
    MemoryRegion* src = p.a->pd().alloc_mr(64);
    MemoryRegion* dst = p.b->pd().alloc_mr(64);
    fill(src, "retransmit");
    sim::Time done{};
    p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst,
                   sim::Time& done) -> Task<void> {
      p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
      co_await p.qa->post_send(SendWr{
          .wr_id = 1, .opcode = Opcode::kSend, .local = {src->data(), 10}});
      Wc wc = co_await p.b_rcq->wait(PollMode::kBusy);
      EXPECT_TRUE(wc.ok());
      done = p.sim.now();
    }(p, src, dst, done));
    p.sim.run();
    EXPECT_EQ(read_back(dst, 10), "retransmit");
    return std::pair(done, p.fabric.fault_plan()->injected());
  };
  auto [t_clean, n_clean] = run(0.0);
  auto [t_lossy, n_lossy] = run(0.9);
  EXPECT_EQ(n_clean, 0u);
  EXPECT_GT(n_lossy, 0u);
  EXPECT_GT(t_lossy, t_clean);
}

TEST(Verbs, ScheduledQpErrorSurfacesMidRun) {
  // A QP scheduled to fail at t=50us: sends before that succeed, a send
  // posted after it fails (flush at the requester, which is the failed QP).
  Pair p;
  auto plan = std::make_unique<FaultPlan>(7);
  plan->fail_qp_at(p.qa->qp_num(), sim::Time(std::chrono::microseconds(50)));
  p.fabric.set_fault_plan(std::move(plan));
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
    co_await p.qa->post_send(SendWr{
        .wr_id = 1, .opcode = Opcode::kSend, .local = {src->data(), 8}});
    Wc before = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_TRUE(before.ok());
    co_await p.sim.sleep(100us);  // ride past the scheduled failure
    co_await p.qa->post_send(SendWr{
        .wr_id = 2, .opcode = Opcode::kSend, .local = {src->data(), 8}});
    Wc after = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(after.status, WcStatus::kWrFlushErr);
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  ASSERT_EQ(p.fabric.fault_plan()->trace().size(), 1u);
  EXPECT_EQ(p.fabric.fault_plan()->trace()[0], "t=50000 qp-error qp=1");
}

TEST(Verbs, RevokedMrNaksRemoteAccess) {
  // Revoking the responder's regions turns one-sided ops into
  // kRemAccessErr completions; a fresh region registered afterwards works.
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.b->pd().revoke_all();
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 1,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), 8},
                                    .remote = dst->remote(0)});
    Wc wc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(wc.status, WcStatus::kRemAccessErr);
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_TRUE(p.qa->in_error());
}

TEST(Verbs, NodeCrashClosesCqsAndErrorsQps) {
  Pair p;
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
  p.b->crash();
  EXPECT_TRUE(p.b->crashed());
  EXPECT_TRUE(p.qb->in_error());
  EXPECT_TRUE(p.b_rcq->is_closed());
  EXPECT_TRUE(p.b_scq->is_closed());
  // The surviving peer is NOT errored instantly — it discovers the crash
  // through retransmission timeouts on its next send.
  EXPECT_FALSE(p.qa->in_error());
  // A QP created on a crashed node is born dead.
  CompletionQueue* cq = p.b->create_cq();
  QueuePair* q = p.b->create_qp(*cq, *cq);
  EXPECT_TRUE(q->in_error());
}

TEST(Verbs, FaultDrawsAreSeedDeterministic) {
  // Identical seeds produce identical traces and identical event counts;
  // a different seed diverges (on this schedule).
  auto run = [](uint64_t seed) {
    Pair p;
    auto plan = std::make_unique<FaultPlan>(seed);
    plan->profile.drop = 0.3;
    plan->profile.delay = 0.2;
    p.fabric.set_fault_plan(std::move(plan));
    MemoryRegion* src = p.a->pd().alloc_mr(64);
    MemoryRegion* dst = p.b->pd().alloc_mr(64);
    p.sim.spawn([](Pair& p, MemoryRegion* src,
                   MemoryRegion* dst) -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
        co_await p.qa->post_send(SendWr{.wr_id = static_cast<uint64_t>(i),
                                        .opcode = Opcode::kSend,
                                        .local = {src->data(), 16}});
        Wc wc = co_await p.b_rcq->wait(PollMode::kBusy);
        EXPECT_TRUE(wc.ok());
        co_await p.a_scq->wait(PollMode::kBusy);
      }
    }(p, src, dst));
    p.sim.run();
    return std::pair(p.fabric.fault_plan()->trace(),
                     p.sim.events_processed());
  };
  auto [trace1, events1] = run(123);
  auto [trace2, events2] = run(123);
  auto [trace3, events3] = run(321);
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(events1, events2);
  EXPECT_FALSE(trace1.empty());
  EXPECT_NE(trace1, trace3);
}

// Fault-trace text: every note kind the fabric records, in the exact text
// the plan printed when it stored formatted strings. Each scenario runs on
// a fresh pair and returns its trace plus the plan's injected() count.
struct TraceRun {
  std::vector<std::string> trace;
  uint64_t injected = 0;
};

TraceRun finish_trace_run(Pair& p) {
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  return {p.fabric.fault_plan()->trace(), p.fabric.fault_plan()->injected()};
}

SendWr trace_wr(uint64_t id, Opcode op, MemoryRegion* src, uint32_t len,
                MemoryRegion* dst = nullptr) {
  SendWr wr;
  wr.wr_id = id;
  wr.opcode = op;
  wr.local = {src->data(), len};
  if (dst) wr.remote = dst->remote(0);
  return wr;
}

Task<void> post_and_reap(Pair& p, SendWr wr) {
  co_await p.qa->post_send(std::move(wr));
  co_await p.a_scq->wait(PollMode::kBusy);
}

// Stochastic wire faults over SENDs and READs: delay, dup, drop, corrupt.
TraceRun wire_fault_trace() {
  Pair p;
  auto plan = std::make_unique<FaultPlan>(11);
  plan->profile.drop = 0.2;
  plan->profile.corrupt = 0.2;
  plan->profile.duplicate = 0.4;
  plan->profile.delay = 0.4;
  p.fabric.set_fault_plan(std::move(plan));
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    for (uint64_t i = 0; i < 6; ++i) {
      p.qb->post_recv(RecvWr{.wr_id = i, .buf = {dst->data(), 64}});
      SendWr send = trace_wr(10 + i, Opcode::kSend, src, 16);
      co_await post_and_reap(p, std::move(send));
      co_await p.b_rcq->wait(PollMode::kBusy);
      SendWr read = trace_wr(20 + i, Opcode::kRead, src, 16, dst);
      co_await post_and_reap(p, std::move(read));
    }
  }(p, src, dst));
  return finish_trace_run(p);
}

// Every transmission lost with one retry: drop, drop, retry-exhausted.
TraceRun exhausted_trace(Opcode op) {
  Pair p;
  auto plan = std::make_unique<FaultPlan>(3);
  plan->profile.drop = 1.0;
  plan->profile.retry_count = 1;
  p.fabric.set_fault_plan(std::move(plan));
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
  SendWr wr = trace_wr(5, op, src, 8, dst);
  p.sim.spawn(post_and_reap(p, std::move(wr)));
  return finish_trace_run(p);
}

TraceRun rnr_exhausted_trace() {
  Pair p;
  auto plan = std::make_unique<FaultPlan>(1);
  plan->profile.rnr_retry = 2;
  p.fabric.set_fault_plan(std::move(plan));
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  SendWr wr = trace_wr(6, Opcode::kSend, src, 8);
  p.sim.spawn(post_and_reap(p, std::move(wr)));
  return finish_trace_run(p);
}

TraceRun unreachable_trace() {
  Pair p;
  p.fabric.set_fault_plan(std::make_unique<FaultPlan>(1));
  p.qb->enter_error();
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  SendWr wr = trace_wr(7, Opcode::kSend, src, 8);
  p.sim.spawn(post_and_reap(p, std::move(wr)));
  return finish_trace_run(p);
}

TraceRun remote_access_nak_trace(Opcode op) {
  Pair p;
  p.fabric.set_fault_plan(std::make_unique<FaultPlan>(1));
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.b->pd().revoke_all();
  SendWr wr = trace_wr(8, op, src, 8, dst);
  p.sim.spawn(post_and_reap(p, std::move(wr)));
  return finish_trace_run(p);
}

// The four scheduled kinds, fired by the plan's own timer tasks.
TraceRun scheduled_trace() {
  Pair p;
  auto plan = std::make_unique<FaultPlan>(1);
  plan->fail_qp_at(p.qa->qp_num(), sim::Time(10us));
  plan->revoke_remote_access_at(p.b->id(), sim::Time(20us));
  plan->crash_node_at(p.b->id(), sim::Time(30us));
  plan->restart_node_at(p.b->id(), sim::Time(40us));
  p.fabric.set_fault_plan(std::move(plan));
  return finish_trace_run(p);
}

TEST(FaultTrace, EveryNoteKindPrintsItsRecordedText) {
  const std::vector<std::pair<TraceRun, std::vector<std::string>>> cases = {
      {wire_fault_trace(),
       {"t=380 delay qp=1 wr=10 ns=174", "t=558 dup qp=1 wr=10",
        "t=1922 delay qp=1 wr=20 ns=1025", "t=4823 delay qp=1 wr=11 ns=127",
        "t=4954 dup qp=1 wr=11", "t=6318 delay qp=1 wr=21 ns=1676",
        "t=8950 drop qp=1 wr=21 attempt=1",
        "t=12954 drop qp=1 wr=21 attempt=2",
        "t=16958 drop qp=1 wr=21 attempt=3",
        "t=20962 corrupt qp=1 wr=21 attempt=4", "t=25890 dup qp=1 wr=12",
        "t=27254 delay qp=1 wr=22 ns=1750", "t=30884 dup qp=1 wr=13",
        "t=32248 delay qp=1 wr=23 ns=503", "t=35991 delay qp=1 wr=24 ns=1742",
        "t=39613 corrupt qp=1 wr=15 attempt=1"}},
      {exhausted_trace(Opcode::kSend),
       {"t=383 drop qp=1 wr=5 attempt=1", "t=4386 drop qp=1 wr=5 attempt=2",
        "t=4386 retry-exhausted qp=1 wr=5"}},
      {exhausted_trace(Opcode::kRead),
       {"t=1335 drop qp=1 wr=5 attempt=1", "t=5338 drop qp=1 wr=5 attempt=2",
        "t=5338 retry-exhausted qp=1 wr=5"}},
      {rnr_exhausted_trace(), {"t=2733 rnr-exhausted qp=1 wr=6"}},
      {unreachable_trace(), {"t=32380 unreachable qp=1 wr=7"}},
      {remote_access_nak_trace(Opcode::kWrite),
       {"t=733 remote-access-nak qp=1 wr=8"}},
      {remote_access_nak_trace(Opcode::kRead),
       {"t=1332 remote-access-nak qp=1 wr=8"}},
      {scheduled_trace(),
       {"t=10000 qp-error qp=1", "t=20000 revoke-mrs node=1",
        "t=30000 node-crash node=1", "t=40000 node-restart node=1"}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const auto& [run, want] = cases[i];
    EXPECT_EQ(run.trace, want);
    EXPECT_EQ(run.injected, want.size());
  }
}

TEST(Verbs, IncastSerializesOnServerRxLink) {
  // 4 clients each WRITE 256 KB to one server concurrently: total time must
  // be >= 4x the single-transfer wire time (rx link is shared).
  Simulator sims;
  Fabric fabric(sims);
  Node* server = fabric.add_node();
  constexpr size_t kBytes = 256 << 10;
  constexpr int kClients = 4;
  CompletionQueue* srv_rcq = server->create_cq();
  sim::Time end{};
  for (int i = 0; i < kClients; ++i) {
    Node* c = fabric.add_node();
    CompletionQueue* cs = c->create_cq();
    CompletionQueue* cr = c->create_cq();
    QueuePair* cq = c->create_qp(*cs, *cr);
    CompletionQueue* ss = server->create_cq();
    QueuePair* sq = server->create_qp(*ss, *srv_rcq);
    Fabric::connect(*cq, *sq);
    MemoryRegion* src = c->pd().alloc_mr(kBytes);
    MemoryRegion* dst = server->pd().alloc_mr(kBytes);
    sims.spawn([](Simulator& sim, QueuePair* qp, CompletionQueue* scq,
                  MemoryRegion* src, MemoryRegion* dst,
                  sim::Time& end) -> Task<void> {
      co_await qp->post_send(SendWr{.wr_id = 1,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), kBytes},
                                    .remote = dst->remote(0)});
      co_await scq->wait(PollMode::kBusy);
      end = std::max(end, sim.now());
    }(sims, cq, cs, src, dst, end));
  }
  sims.run();
  sim::Duration one = fabric.cost().wire_time(kBytes);
  EXPECT_GE(end, one * (kClients - 1));  // rx serialization dominates
  EXPECT_EQ(server->nic().rx_bytes(), kBytes * kClients);
}

TEST(Verbs, NumaRemotePostIsSlower) {
  auto run = [](bool local) {
    Pair p;
    p.qa->numa_local = local;
    MemoryRegion* src = p.a->pd().alloc_mr(64);
    MemoryRegion* dst = p.b->pd().alloc_mr(64);
    sim::Time done{};
    p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst,
                   sim::Time& done) -> Task<void> {
      co_await p.qa->post_send(SendWr{.wr_id = 1,
                                      .opcode = Opcode::kWrite,
                                      .local = {src->data(), 8},
                                      .remote = dst->remote(0)});
      co_await p.a_scq->wait(PollMode::kBusy);
      done = p.sim.now();
    }(p, src, dst, done));
    p.sim.run();
    return done;
  };
  EXPECT_GT(run(false), run(true));
}

TEST(Verbs, EventPollingSlowerButSameBytes) {
  auto run = [](PollMode mode) {
    Pair p;
    MemoryRegion* src = p.a->pd().alloc_mr(64);
    MemoryRegion* dst = p.b->pd().alloc_mr(64);
    fill(src, "polled");
    sim::Time done{};
    p.sim.spawn([](Pair& p, PollMode mode, MemoryRegion* src,
                   MemoryRegion* dst, sim::Time& done) -> Task<void> {
      p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
      co_await p.qa->post_send(SendWr{
          .wr_id = 1, .opcode = Opcode::kSend, .local = {src->data(), 6}});
      co_await p.b_rcq->wait(mode);
      done = p.sim.now();
    }(p, mode, src, dst, done));
    p.sim.run();
    return std::pair(done, read_back(dst, 6));
  };
  auto [busy_t, busy_s] = run(PollMode::kBusy);
  auto [event_t, event_s] = run(PollMode::kEvent);
  EXPECT_EQ(busy_s, "polled");
  EXPECT_EQ(event_s, "polled");
  EXPECT_GT(event_t, busy_t + 2us);  // interrupt wake-up dominates the gap
}

TEST(Verbs, ConnectRejectsDoubleConnect) {
  Pair p;  // already connected
  Simulator sim2;
  Fabric f2(sim2);
  Node* n = f2.add_node();
  CompletionQueue* cq = n->create_cq();
  QueuePair* q = n->create_qp(*cq, *cq);
  EXPECT_THROW(Fabric::connect(*p.qa, *q), std::logic_error);
}

TEST(Verbs, PostOnDisconnectedQpThrows) {
  Simulator sim;
  Fabric f(sim);
  Node* n = f.add_node();
  CompletionQueue* cq = n->create_cq();
  QueuePair* q = n->create_qp(*cq, *cq);
  sim.spawn([](QueuePair* q) -> Task<void> {
    co_await q->post_send(SendWr{});
  }(q));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Srq, SharedPoolFeedsMultipleQps) {
  // One shared recv pool on the receiver serves sends arriving on two
  // different QPs; posts are counted and the pool drains FIFO.
  Simulator sim;
  Fabric fabric{sim};
  Node* a = fabric.add_node();
  Node* b = fabric.add_node();
  CompletionQueue* a_cq1 = a->create_cq();
  CompletionQueue* a_cq2 = a->create_cq();
  CompletionQueue* b_cq1 = b->create_cq();
  CompletionQueue* b_cq2 = b->create_cq();
  QueuePair* qa1 = a->create_qp(*a_cq1, *a_cq1);
  QueuePair* qa2 = a->create_qp(*a_cq2, *a_cq2);
  QueuePair* qb1 = b->create_qp(*b_cq1, *b_cq1);
  QueuePair* qb2 = b->create_qp(*b_cq2, *b_cq2);
  Fabric::connect(*qa1, *qb1);
  Fabric::connect(*qa2, *qb2);

  SharedReceiveQueue* srq = b->create_srq();
  qb1->set_srq(srq);
  qb2->set_srq(srq);
  MemoryRegion* dst = b->pd().alloc_mr(128);
  srq->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
  srq->post_recv(RecvWr{.wr_id = 2, .buf = {dst->data() + 64, 64}});
  EXPECT_EQ(srq->posted(), 2u);
  EXPECT_EQ(b->counters().get(obs::Ctr::kSrqPosts), 2u);

  MemoryRegion* s1 = a->pd().alloc_mr(64);
  MemoryRegion* s2 = a->pd().alloc_mr(64);
  fill(s1, "from-qp1");
  fill(s2, "from-qp2");
  sim.spawn([](Simulator& sim, QueuePair* qa1, QueuePair* qa2,
               CompletionQueue* b_cq1, CompletionQueue* b_cq2,
               MemoryRegion* s1, MemoryRegion* s2) -> Task<void> {
    co_await qa1->post_send(SendWr{.wr_id = 1,
                                   .opcode = Opcode::kSend,
                                   .local = {s1->data(), 8},
                                   .signaled = false});
    co_await qa2->post_send(SendWr{.wr_id = 2,
                                   .opcode = Opcode::kSend,
                                   .local = {s2->data(), 8},
                                   .signaled = false});
    Wc w1 = co_await b_cq1->wait(PollMode::kBusy);
    Wc w2 = co_await b_cq2->wait(PollMode::kBusy);
    EXPECT_TRUE(w1.ok());
    EXPECT_TRUE(w2.ok());
    EXPECT_EQ(w1.byte_len, 8u);
    EXPECT_EQ(w2.byte_len, 8u);
  }(sim, qa1, qa2, b_cq1, b_cq2, s1, s2));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(srq->posted(), 0u);
  // FIFO drain: the first-posted send consumed the first-posted buffer.
  EXPECT_EQ(read_back(dst, 8, 0), "from-qp1");
  EXPECT_EQ(read_back(dst, 8, 64), "from-qp2");
}

TEST(Srq, UnderflowHitsRnrAndExhaustsFiniteRetry) {
  // An attached-but-empty SRQ behaves like a missing recv: the sender sees
  // paced RNR probes and, with a finite budget, kRnrRetryExcErr.
  Pair p;
  auto plan = std::make_unique<FaultPlan>(7);
  plan->profile.rnr_retry = 2;
  plan->profile.rnr_timer = std::chrono::microseconds(2);
  p.fabric.set_fault_plan(std::move(plan));
  SharedReceiveQueue* srq = p.b->create_srq();
  p.qb->set_srq(srq);
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src) -> Task<void> {
    co_await p.qa->post_send(SendWr{
        .wr_id = 5, .opcode = Opcode::kSend, .local = {src->data(), 8}});
    Wc wc = co_await p.a_scq->wait(PollMode::kBusy);
    EXPECT_EQ(wc.status, WcStatus::kRnrRetryExcErr);
  }(p, src));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_GT(p.a->counters().get(obs::Ctr::kRnrEvents), 0u);
}

TEST(Cq, BatchPollDrainsInOrderUpToMax) {
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    for (uint64_t i = 1; i <= 5; ++i)
      co_await p.qa->post_send(SendWr{.wr_id = i,
                                      .opcode = Opcode::kWrite,
                                      .local = {src->data(), 8},
                                      .remote = dst->remote(0)});
    co_await p.sim.sleep(std::chrono::milliseconds(1));  // let all complete
    auto first = p.a_scq->poll(3);
    EXPECT_EQ(first.size(), 3u);
    if (first.size() == 3) {
      EXPECT_EQ(first[0].wr_id, 1u);
      EXPECT_EQ(first[1].wr_id, 2u);
      EXPECT_EQ(first[2].wr_id, 3u);
    }
    auto rest = poll_cq(*p.a_scq, 10);
    EXPECT_EQ(rest.size(), 2u);
    if (rest.size() == 2) {
      EXPECT_EQ(rest[0].wr_id, 4u);
      EXPECT_EQ(rest[1].wr_id, 5u);
    }
    EXPECT_TRUE(p.a_scq->poll(4).empty());
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  // Two non-empty batch drains; the empty one is not a batch poll.
  EXPECT_EQ(p.a->counters().get(obs::Ctr::kCqBatchPolls), 2u);
  EXPECT_EQ(p.a->counters().get(obs::Ctr::kCqesPolled), 5u);
}

TEST(Cq, WaitManyRespectsMaxAndKeepsOrder) {
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    for (uint64_t i = 1; i <= 4; ++i)
      co_await p.qa->post_send(SendWr{.wr_id = i,
                                      .opcode = Opcode::kWrite,
                                      .local = {src->data(), 8},
                                      .remote = dst->remote(0)});
    co_await p.sim.sleep(std::chrono::milliseconds(1));
    auto batch = co_await p.a_scq->wait_many(PollMode::kBusy, 2);
    EXPECT_EQ(batch.size(), 2u);
    if (batch.size() == 2) {
      EXPECT_EQ(batch[0].wr_id, 1u);
      EXPECT_EQ(batch[1].wr_id, 2u);
    }
    auto tail = co_await p.a_scq->wait_many(PollMode::kBusy, 16);
    EXPECT_EQ(tail.size(), 2u);
    if (tail.size() == 2) {
      EXPECT_EQ(tail[0].wr_id, 3u);
      EXPECT_EQ(tail[1].wr_id, 4u);
    }
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
}

TEST(Verbs, SameTickPostsCoalesceUnderOneDoorbell) {
  // Two tasks post to the same QP in the same tick: the first becomes the
  // flusher (pays the MMIO), the second rides its doorbell.
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  const uint64_t db0 = p.a->counters().get(obs::Ctr::kDoorbells);
  const uint64_t wq0 = p.a->counters().get(obs::Ctr::kWqesPosted);
  const uint64_t co0 = p.a->counters().get(obs::Ctr::kDoorbellCoalescedWqes);
  for (uint64_t i = 1; i <= 2; ++i)
    p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst,
                   uint64_t i) -> Task<void> {
      co_await p.qa->post_send(SendWr{.wr_id = i,
                                      .opcode = Opcode::kWrite,
                                      .local = {src->data(), 8},
                                      .remote = dst->remote(0),
                                      .signaled = false});
    }(p, src, dst, i));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_EQ(p.a->counters().get(obs::Ctr::kDoorbells) - db0, 1u);
  EXPECT_EQ(p.a->counters().get(obs::Ctr::kWqesPosted) - wq0, 2u);
  EXPECT_EQ(p.a->counters().get(obs::Ctr::kDoorbellCoalescedWqes) - co0, 1u);
}

TEST(Verbs, SequentialPostsDoNotCoalesce) {
  Pair p;
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  const uint64_t db0 = p.a->counters().get(obs::Ctr::kDoorbells);
  const uint64_t co0 = p.a->counters().get(obs::Ctr::kDoorbellCoalescedWqes);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    for (uint64_t i = 1; i <= 2; ++i)
      co_await p.qa->post_send(SendWr{.wr_id = i,
                                      .opcode = Opcode::kWrite,
                                      .local = {src->data(), 8},
                                      .remote = dst->remote(0),
                                      .signaled = false});
  }(p, src, dst));
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_EQ(p.a->counters().get(obs::Ctr::kDoorbells) - db0, 2u);
  EXPECT_EQ(p.a->counters().get(obs::Ctr::kDoorbellCoalescedWqes) - co0, 0u);
}

}  // namespace
}  // namespace hatrpc::verbs
