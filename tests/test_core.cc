// Core-runtime tests: envelope round trips, dispatcher error replies, plan
// caching, per-plan channel sharing (optimization isolation), the RDMA and
// TCP call paths, and heterogeneous per-function plans on one connection —
// the paper's central mechanism.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"

namespace hatrpc::core {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

Buffer bytes_of(const std::string& s) {
  auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Buffer(p, p + s.size());
}
std::string str_of(View v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}
void write_str(thrift::TMemoryBuffer& out, std::string_view s) {
  out.write(s.data(), s.size());
}

TEST(Dispatcher, EnvelopeRoundTrip) {
  Buffer env = HatDispatcher::make_call("Ping", bytes_of("ARGS"), 7);
  thrift::TMemoryBuffer b = thrift::TMemoryBuffer::wrap(env);
  thrift::TBinaryProtocol p(b);
  auto head = p.readMessageBegin();
  EXPECT_EQ(head.name, "Ping");
  EXPECT_EQ(head.type, thrift::TMessageType::kCall);
  EXPECT_EQ(head.seqid, 7);
}

TEST(Dispatcher, DispatchesToRegisteredMethod) {
  Simulator sim;
  HatDispatcher d;
  d.register_method("Echo",
                    [](View args, thrift::TMemoryBuffer& out) -> Task<void> {
                      out.write(args.data(), args.size());
                      co_return;
                    });
  EXPECT_TRUE(d.has_method("Echo"));
  Buffer env = HatDispatcher::make_call("Echo", bytes_of("payload"), 1);
  std::string got;
  sim.spawn([](HatDispatcher& d, Buffer env, std::string& got) -> Task<void> {
    thrift::TMemoryBuffer reply;
    co_await d.process(env, reply);
    Buffer result = HatDispatcher::parse_reply(reply.view(), "Echo", 1);
    got = str_of(result);
  }(d, env, got));
  sim.run();
  EXPECT_EQ(got, "payload");
}

TEST(Dispatcher, UnknownMethodYieldsApplicationException) {
  Simulator sim;
  HatDispatcher d;
  Buffer env = HatDispatcher::make_call("Nope", bytes_of(""), 2);
  bool threw = false;
  sim.spawn([](HatDispatcher& d, Buffer env, bool& threw) -> Task<void> {
    thrift::TMemoryBuffer reply;
    co_await d.process(env, reply);
    try {
      HatDispatcher::parse_reply(reply.view(), "Nope", 2);
    } catch (const thrift::TApplicationException& e) {
      threw = true;
      EXPECT_EQ(e.kind(),
                thrift::TApplicationException::Kind::kUnknownMethod);
    }
  }(d, env, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(Dispatcher, MismatchedReplyNameThrows) {
  Simulator sim;
  HatDispatcher d;
  d.register_method("A", [](View, thrift::TMemoryBuffer&) -> Task<void> {
    co_return;
  });
  Buffer env = HatDispatcher::make_call("A", bytes_of(""), 3);
  sim.spawn([](HatDispatcher& d, Buffer env) -> Task<void> {
    thrift::TMemoryBuffer reply;
    co_await d.process(env, reply);
    EXPECT_THROW(HatDispatcher::parse_reply(reply.view(), "B", 3),
                 thrift::TApplicationException);
  }(d, env));
  sim.run();
}

TEST(Dispatcher, ReplyWithAnotherCallsSeqidThrows) {
  Simulator sim;
  HatDispatcher d;
  d.register_method("A", [](View, thrift::TMemoryBuffer&) -> Task<void> {
    co_return;
  });
  Buffer env = HatDispatcher::make_call("A", bytes_of(""), 5);
  bool threw = false;
  sim.spawn([](HatDispatcher& d, Buffer env, bool& threw) -> Task<void> {
    thrift::TMemoryBuffer reply;
    co_await d.process(env, reply);
    try {
      HatDispatcher::parse_reply(reply.view(), "A", 6);
    } catch (const thrift::TApplicationException& e) {
      threw = true;
      EXPECT_EQ(e.kind(),
                thrift::TApplicationException::Kind::kBadSequenceId);
    }
  }(d, env, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

/// A reply-position message of the given type, carrying a result struct.
Buffer message_of_type(thrift::TMessageType type) {
  thrift::TMemoryBuffer b;
  thrift::TBinaryProtocol p(b);
  p.writeMessageBegin("A", type, 4);
  p.writeFieldBegin(thrift::TType::kString, 0);
  p.writeString("result");
  p.writeFieldStop();
  return b.take();
}

TEST(Dispatcher, ReplyOfTypeCallThrowsInvalidMessageType) {
  try {
    HatDispatcher::parse_reply(message_of_type(thrift::TMessageType::kCall),
                               "A", 4);
    FAIL() << "a CALL message was decoded as a reply";
  } catch (const thrift::TApplicationException& e) {
    EXPECT_EQ(e.kind(),
              thrift::TApplicationException::Kind::kInvalidMessageType);
  }
}

TEST(Dispatcher, ReplyOfTypeOnewayThrowsInvalidMessageType) {
  try {
    HatDispatcher::parse_reply(
        message_of_type(thrift::TMessageType::kOneway), "A", 4);
    FAIL() << "a ONEWAY message was decoded as a reply";
  } catch (const thrift::TApplicationException& e) {
    EXPECT_EQ(e.kind(),
              thrift::TApplicationException::Kind::kInvalidMessageType);
  }
}

// ---------------------------------------------------------------------------
// Engine fixture: a service with heterogeneous per-function hints.
// ---------------------------------------------------------------------------

struct Cluster {
  Simulator sim;
  verbs::Fabric fabric{sim};
  thrift::SocketNet net{fabric};
  verbs::Node* client = fabric.add_node();
  verbs::Node* server_node = fabric.add_node();
};

hint::ServiceHints heterogeneous_hints() {
  using namespace hatrpc::hint;
  ServiceHints h;
  h.service().add(Side::kShared, Key::kConcurrency,
                  parse_value(Key::kConcurrency, "1"));
  h.function("FastGet").add(Side::kShared, Key::kPerfGoal,
                            parse_value(Key::kPerfGoal, "latency"));
  h.function("FastGet").add(Side::kShared, Key::kPayloadSize,
                            parse_value(Key::kPayloadSize, "512"));
  h.function("BulkPut").add(Side::kShared, Key::kPerfGoal,
                            parse_value(Key::kPerfGoal, "res_util"));
  h.function("BulkPut").add(Side::kShared, Key::kPayloadSize,
                            parse_value(Key::kPayloadSize, "128k"));
  h.function("Legacy").add(Side::kShared, Key::kTransport,
                           parse_value(Key::kTransport, "tcp"));
  return h;
}

void register_echo_methods(HatServer& server) {
  for (const char* m : {"FastGet", "BulkPut", "Legacy", "Plain"}) {
    server.dispatcher().register_method(
        m, [&server](View args, thrift::TMemoryBuffer& out) -> Task<void> {
          co_await server.node().cpu().compute(300ns);
          out.write(args.data(), args.size());
        });
  }
}

TEST(Engine, CallOverRdmaRoundTrips) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  std::string got;
  c.sim.spawn([](HatConnection& conn, std::string& got,
                 HatServer& server) -> Task<void> {
    Buffer r = co_await conn.call("FastGet", bytes_of("hello-hat"));
    got = str_of(r);
    server.stop();
  }(conn, got, server));
  c.sim.run();
  EXPECT_EQ(got, "hello-hat");
  EXPECT_EQ(c.sim.live_tasks(), 0u);
}

TEST(Engine, PlansAreCachedPerMethod) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  const hint::Plan& p1 = conn.plan_for("FastGet");
  const hint::Plan& p2 = conn.plan_for("FastGet");
  EXPECT_EQ(&p1, &p2);  // same object — resolved once (§4.3 caching)
  server.stop();
}

TEST(Engine, HeterogeneousFunctionsGetDistinctPlans) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  const hint::Plan& fast = conn.plan_for("FastGet");
  const hint::Plan& bulk = conn.plan_for("BulkPut");
  EXPECT_EQ(fast.protocol, proto::ProtocolKind::kDirectWriteImm);
  EXPECT_EQ(fast.client_poll, PollMode::kBusy);
  EXPECT_EQ(bulk.protocol, proto::ProtocolKind::kWriteRndv);
  EXPECT_EQ(bulk.client_poll, PollMode::kEvent);
  server.stop();
}

TEST(Engine, ChannelsMaterializeLazilyAndAreSharedPerPlan) {
  Cluster c;
  hint::ServiceHints h = heterogeneous_hints();
  // Two functions with identical hints must share one channel.
  h.function("FastGet2").add(hint::Side::kShared, hint::Key::kPerfGoal,
                             hint::parse_value(hint::Key::kPerfGoal,
                                               "latency"));
  h.function("FastGet2").add(hint::Side::kShared, hint::Key::kPayloadSize,
                             hint::parse_value(hint::Key::kPayloadSize,
                                               "512"));
  HatServer server(*c.server_node, h, {});
  register_echo_methods(server);
  server.dispatcher().register_method(
      "FastGet2",
      [](View args, thrift::TMemoryBuffer& out) -> Task<void> {
        out.write(args.data(), args.size());
        co_return;
      });
  HatConnection conn(*c.client, server);
  EXPECT_EQ(conn.channel_count(), 0u);  // lazy
  c.sim.spawn([](HatConnection& conn, HatServer& server) -> Task<void> {
    co_await conn.call("FastGet", bytes_of("a"));
    co_await conn.call("FastGet2", bytes_of("b"));  // same plan -> reuse
    co_await conn.call("BulkPut", bytes_of("c"));   // new plan -> new channel
    server.stop();
  }(conn, server));
  c.sim.run();
  EXPECT_EQ(conn.channel_count(), 2u);
}

TEST(Engine, ChannelMatchesPlanProtocol) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  c.sim.spawn([](HatConnection& conn, HatServer& server) -> Task<void> {
    co_await conn.call("FastGet", bytes_of("x"));
    server.stop();
  }(conn, server));
  c.sim.run();
  const proto::RpcChannel* ch = conn.channel_for_plan(conn.plan_for("FastGet"));
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->kind(), proto::ProtocolKind::kDirectWriteImm);
  EXPECT_EQ(ch->stats().calls, 1u);
}

TEST(Engine, TcpHintedFunctionUsesSocketPath) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {}, &c.net);
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  std::string got;
  c.sim.spawn([](HatConnection& conn, std::string& got,
                 HatServer& server) -> Task<void> {
    Buffer r = co_await conn.call("Legacy", bytes_of("over-tcp"));
    got = str_of(r);
    server.stop();
  }(conn, got, server));
  c.sim.run();
  EXPECT_EQ(got, "over-tcp");
  EXPECT_EQ(conn.channel_count(), 0u);  // no RDMA channel was created
}

TEST(Engine, TcpWithoutSocketNetIsAnError) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});  // no net
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  c.sim.spawn([](HatConnection& conn) -> Task<void> {
    co_await conn.call("Legacy", bytes_of("x"));
  }(conn));
  EXPECT_THROW(c.sim.run(), std::logic_error);
}

TEST(Engine, MixedTrafficOnOneConnectionStaysIsolated) {
  // The headline mechanism: latency and bulk functions interleave on one
  // connection, each over its own channel, both correct.
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  int ok = 0;
  c.sim.spawn([](HatConnection& conn, int& ok, HatServer& server)
                  -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      std::string small = "get-" + std::to_string(i);
      std::string big(20000, static_cast<char>('A' + i));
      Buffer r1 = co_await conn.call("FastGet", bytes_of(small));
      Buffer r2 = co_await conn.call("BulkPut", bytes_of(big));
      if (str_of(r1) == small && str_of(r2) == big) ++ok;
    }
    server.stop();
  }(conn, ok, server));
  c.sim.run();
  EXPECT_EQ(ok, 10);
}

TEST(Engine, UnhintedMethodGetsDefaultPlan) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  const hint::Plan& plan = conn.plan_for("Plain");
  // No payload hint -> the engine cannot size pre-known buffers and keeps
  // the conservative adaptive protocol.
  EXPECT_EQ(plan.protocol, proto::ProtocolKind::kHybridEagerRndv);
  EXPECT_EQ(plan.transport, hint::Transport::kRdma);
  server.stop();
}

TEST(Dispatcher, HandlerExceptionBecomesInternalErrorReply) {
  // An undeclared exception must not kill the serve loop: the client gets
  // a TApplicationException(kInternalError) and the server keeps serving.
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  int calls = 0;
  server.dispatcher().register_method(
      "Flaky", [&calls](View, thrift::TMemoryBuffer& out) -> Task<void> {
        if (++calls == 1) throw std::runtime_error("handler blew up");
        write_str(out, "recovered");
        co_return;
      });
  HatConnection conn(*c.client, server);
  bool caught = false;
  std::string second;
  c.sim.spawn([](HatConnection& conn, bool& caught, std::string& second,
                 HatServer& server) -> Task<void> {
    try {
      co_await conn.call("Flaky", {});
    } catch (const thrift::TApplicationException& e) {
      caught = true;
      EXPECT_EQ(e.kind(),
                thrift::TApplicationException::Kind::kInternalError);
      EXPECT_STREQ(e.what(), "handler blew up");
    }
    // The SAME connection and server must still work afterwards.
    second = str_of(co_await conn.call("Flaky", {}));
    server.stop();
  }(conn, caught, second, server));
  c.sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(second, "recovered");
  EXPECT_EQ(c.sim.live_tasks(), 0u);
}

TEST(Dispatcher, HandlerErrorReleasesTheDirectSlotOnAWindowOneChannel) {
  // FastGet plans Direct-WriteIMM on a window-1 channel: the error reply
  // arrives through a leased slot, so the follow-up call only gets a slot
  // if the error path released the lease.
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  int calls = 0;
  server.dispatcher().register_method(
      "FastGet", [&calls](View args, thrift::TMemoryBuffer& out) -> Task<void> {
        if (++calls == 1) throw std::runtime_error("first call fails");
        out.write(args.data(), args.size());
        co_return;
      });
  HatConnection conn(*c.client, server);
  const hint::Plan& plan = conn.plan_for("FastGet");
  ASSERT_EQ(plan.protocol, proto::ProtocolKind::kDirectWriteImm);
  ASSERT_EQ(server.config().channel.window, 1u);
  bool caught = false;
  std::string second;
  c.sim.spawn([](HatConnection& conn, bool& caught, std::string& second,
                 HatServer& server) -> Task<void> {
    try {
      co_await conn.call("FastGet", bytes_of("one"));
    } catch (const thrift::TApplicationException& e) {
      caught = true;
      EXPECT_EQ(e.kind(),
                thrift::TApplicationException::Kind::kInternalError);
    }
    second = str_of(co_await conn.call("FastGet", bytes_of("two")));
    server.stop();
  }(conn, caught, second, server));
  c.sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(second, "two");
  EXPECT_EQ(c.sim.live_tasks(), 0u);
}

TEST(Engine, StructLevelStreamCallStagesNothingOnDirect) {
  // A 128 KB Stream call the way a generated stub makes it, over
  // Direct-WriteIMM. Staged: the client serializes the frame straight into
  // its request slot and the server writes the reply envelope and result
  // straight into its response slot. Zero-copy: the frame is materialized
  // once and gathered. Either way ChannelBase::stage copies nothing.
  for (bool zero_copy : {false, true}) {
    SCOPED_TRACE(zero_copy ? "zero-copy" : "staged");
    Cluster c;
    hint::ServiceHints h;
    h.function("Stream").add(
        hint::Side::kShared, hint::Key::kPerfGoal,
        hint::parse_value(hint::Key::kPerfGoal, "latency"));
    h.function("Stream").add(
        hint::Side::kShared, hint::Key::kPayloadSize,
        hint::parse_value(hint::Key::kPayloadSize, "128k"));
    EngineConfig cfg;
    cfg.channel.zero_copy = zero_copy;
    HatServer server(*c.server_node, h, cfg);
    server.dispatcher().register_method(
        "Stream", [](View args, thrift::TMemoryBuffer& out) -> Task<void> {
          out.write(args.data(), args.size());  // args {1: s} as result
          co_return;
        });
    HatConnection conn(*c.client, server);
    const hint::Plan& plan = conn.plan_for("Stream");
    ASSERT_EQ(plan.protocol, proto::ProtocolKind::kDirectWriteImm);
    const std::string payload(128 << 10, 's');
    std::string got;
    c.sim.spawn([](HatConnection& conn, const std::string& payload,
                   std::string& got, HatServer& server) -> Task<void> {
      const ArgsWriter write_args = [&payload](thrift::TProtocol& p) {
        p.writeStructBegin("Stream_args");
        p.writeFieldBegin(thrift::TType::kString, 1);
        p.writeString(payload);
        p.writeFieldStop();
        p.writeStructEnd();
      };
      const ResultReader read_result = [&got](thrift::TProtocol& p) {
        p.readStructBegin();
        auto f = p.readFieldBegin();
        if (f.id == 1 && f.type == thrift::TType::kString)
          got = p.readString();
      };
      co_await conn.call("Stream", write_args, read_result);
      server.stop();
    }(conn, payload, got, server));
    c.sim.run();
    EXPECT_EQ(got, payload);
    const proto::RpcChannel* ch = conn.channel_for_plan(plan);
    ASSERT_NE(ch, nullptr);
    EXPECT_EQ(ch->counters()->get(obs::Ctr::kStagedBytes), 0u);
    EXPECT_EQ(ch->counters()->get(obs::Ctr::kCopyBytes), 0u);
    EXPECT_EQ(c.sim.live_tasks(), 0u);
  }
}

TEST(Engine, BorrowedRequestIsStagedOnDirect) {
  // The counter's other side: a borrowed request over the same staged
  // channel is copied into the request slot; the handler's response still
  // lands in the response slot in place.
  Cluster c;
  auto ch = proto::make_channel(
      proto::ProtocolKind::kDirectWriteImm, *c.client, *c.server_node,
      [](View req, proto::MemoryBuffer& out) -> Task<void> {
        out.write(req.data(), req.size());
        co_return;
      },
      proto::ChannelConfig{});
  const Buffer req(1000, std::byte{7});
  c.sim.spawn([](proto::RpcChannel& ch, const Buffer& req) -> Task<void> {
    Buffer resp = (co_await ch.call(req)).value();
    EXPECT_EQ(resp, req);
    ch.shutdown();
  }(*ch, req));
  c.sim.run();
  EXPECT_EQ(ch->counters()->get(obs::Ctr::kStagedBytes), req.size());
}

TEST(Engine, ConnectionDestroyedBeforeItsServerIsUntracked) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  {
    HatConnection conn(*c.client, server);
    c.sim.spawn([](HatConnection& conn) -> Task<void> {
      co_await conn.call("FastGet", bytes_of("x"));
      conn.close();
    }(conn));
    c.sim.run();
  }
  server.stop();  // must not touch the destroyed connection
  c.sim.run();
  EXPECT_EQ(c.sim.live_tasks(), 0u);
}

TEST(Engine, ConnectionOutlivingItsServerIsDetached) {
  Cluster c;
  auto server = std::make_unique<HatServer>(*c.server_node,
                                            heterogeneous_hints(),
                                            EngineConfig{});
  HatConnection conn(*c.client, *server);
  server.reset();  // the connection's destructor must not untrack from it
}

TEST(Multiplexed, TwoServicesShareOneConnection) {
  // Thrift multiplexing: "Calc:Add" and "Echo:Add" are distinct methods on
  // one dispatcher/connection.
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  MultiplexedDispatcher calc(server.dispatcher(), "Calc");
  MultiplexedDispatcher echo(server.dispatcher(), "Echo");
  calc.register_method("Add",
                       [](View, thrift::TMemoryBuffer& out) -> Task<void> {
                         write_str(out, "calc-add");
                         co_return;
                       });
  echo.register_method("Add",
                       [](View, thrift::TMemoryBuffer& out) -> Task<void> {
                         write_str(out, "echo-add");
                         co_return;
                       });
  HatConnection conn(*c.client, server);
  MultiplexedCaller calc_caller(conn, "Calc");
  MultiplexedCaller echo_caller(conn, "Echo");
  std::string r1, r2;
  c.sim.spawn([](MultiplexedCaller& a, MultiplexedCaller& b, std::string& r1,
                 std::string& r2, HatServer& server) -> Task<void> {
    r1 = str_of(co_await a.call("Add", {}));
    r2 = str_of(co_await b.call("Add", {}));
    server.stop();
  }(calc_caller, echo_caller, r1, r2, server));
  c.sim.run();
  EXPECT_EQ(r1, "calc-add");
  EXPECT_EQ(r2, "echo-add");
}

TEST(Multiplexed, UnprefixedCallMissesService) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  MultiplexedDispatcher calc(server.dispatcher(), "Calc");
  calc.register_method("Add",
                       [](View, thrift::TMemoryBuffer& out) -> Task<void> {
                         write_str(out, "x");
                         co_return;
                       });
  EXPECT_TRUE(server.dispatcher().has_method("Calc:Add"));
  EXPECT_FALSE(server.dispatcher().has_method("Add"));
  server.stop();
}

}  // namespace
}  // namespace hatrpc::core
