// Transport-layer tests: simulated TCP/IPoIB sockets (byte-stream
// semantics, EOF, latency/bandwidth behaviour), framed messaging, the three
// server flavors, and the TRdma bridge (TSocket-compatible programming
// model over every RDMA protocol).
#include <gtest/gtest.h>

#include <string>

#include "thrift/rdma.h"
#include "thrift/server.h"

namespace hatrpc::thrift {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

View view_of(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string str_of(View v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

struct Net {
  Simulator sim;
  verbs::Fabric fabric{sim};
  SocketNet net{fabric};
  verbs::Node* a = fabric.add_node();
  verbs::Node* b = fabric.add_node();
};

TEST(SimSocket, ByteStreamRoundTrip) {
  Net n;
  std::string got;
  Listener* lis = n.net.listen(*n.b, 9090);
  n.sim.spawn([](Net& n, Listener* lis, std::string& got) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::byte buf[64];
    size_t k = co_await s->read(buf, sizeof buf);
    got.assign(reinterpret_cast<char*>(buf), k);
    co_await s->write(view_of("pong"));
  }(n, lis, got));
  std::string reply;
  n.sim.spawn([](Net& n, std::string& reply) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 9090);
    co_await c->write(view_of("ping"));
    std::byte buf[64];
    size_t k = co_await c->read(buf, sizeof buf);
    reply.assign(reinterpret_cast<char*>(buf), k);
    c->close();
  }(n, reply));
  n.sim.run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(reply, "pong");
}

TEST(SimSocket, EofAfterClose) {
  Net n;
  Listener* lis = n.net.listen(*n.b, 1);
  size_t got = 99;
  n.sim.spawn([](Listener* lis, size_t& got) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::byte buf[8];
    got = co_await s->read(buf, 8);  // peer closes without sending
  }(lis, got));
  n.sim.spawn([](Net& n) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 1);
    c->close();
  }(n));
  n.sim.run();
  EXPECT_EQ(got, 0u);
}

TEST(SimSocket, ConnectToUnboundPortThrows) {
  Net n;
  n.sim.spawn([](Net& n) -> Task<void> {
    co_await n.net.connect(*n.a, *n.b, 4242);
  }(n));
  EXPECT_THROW(n.sim.run(), TTransportException);
}

TEST(SimSocket, LargeTransferIsBandwidthBound) {
  // 8 MB at IPoIB's ~3 GB/s is ~2.7 ms; native RDMA would take ~0.64 ms.
  Net n;
  Listener* lis = n.net.listen(*n.b, 2);
  constexpr size_t kBytes = 8 << 20;
  sim::Time done{};
  n.sim.spawn([](Net& n, Listener* lis, sim::Time& done) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::vector<std::byte> buf(kBytes);
    co_await s->read_exact(buf.data(), kBytes);
    done = n.sim.now();
  }(n, lis, done));
  n.sim.spawn([](Net& n) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 2);
    std::vector<std::byte> data(kBytes, std::byte{0x5a});
    co_await c->write(data);
  }(n));
  n.sim.run();
  EXPECT_GE(done, 2500us);
  EXPECT_LE(done, 4000us);
}

TEST(SimSocket, SmallRpcLatencyRealisticForIpoib) {
  // A 64B echo over IPoIB should land in the tens of microseconds —
  // roughly an order of magnitude above native RDMA.
  Net n;
  Listener* lis = n.net.listen(*n.b, 3);
  n.sim.spawn([](Listener* lis) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::byte buf[64];
    co_await s->read_exact(buf, 64);
    co_await s->write({buf, 64});
  }(lis));
  sim::Time done{};
  n.sim.spawn([](Net& n, sim::Time& done) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 3);
    sim::Time t0 = n.sim.now();
    std::byte buf[64]{};
    co_await c->write({buf, 64});
    co_await c->read_exact(buf, 64);
    done = n.sim.now() - t0;
    c->close();
  }(n, done));
  n.sim.run();
  EXPECT_GE(done, 10us);
  EXPECT_LE(done, 60us);
}

TEST(FramedTransport, MessageBoundariesPreserved) {
  Net n;
  Listener* lis = n.net.listen(*n.b, 4);
  std::vector<std::string> got;
  n.sim.spawn([](Listener* lis, std::vector<std::string>& got) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    TFramedTransport f(s);
    while (auto m = co_await f.recv()) got.push_back(str_of(*m));
  }(lis, got));
  n.sim.spawn([](Net& n) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 4);
    TFramedTransport f(c);
    co_await f.send(view_of("first"));
    co_await f.send(view_of(""));
    co_await f.send(view_of(std::string(100000, 'z')));
    c->close();
  }(n));
  n.sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], std::string(100000, 'z'));
}

Processor echo_processor(verbs::Node& node) {
  return [&node](View req, proto::MemoryBuffer& out) -> Task<void> {
    co_await node.cpu().compute(500ns);
    out.write(req.data(), req.size());
  };
}

TEST(TServer, ThreadedServesConcurrentClients) {
  Net n;
  TServer server(n.net, *n.b, 5, echo_processor(*n.b),
                 {.kind = ServerKind::kThreaded});
  server.start();
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    n.sim.spawn([](Net& n, int i, int& ok) -> Task<void> {
      SimSocket* c = co_await n.net.connect(*n.a, *n.b, 5);
      SocketRpcClient rpc(c);
      for (int j = 0; j < 5; ++j) {
        std::string msg = "c" + std::to_string(i) + "-" + std::to_string(j);
        Buffer resp = co_await rpc.call(view_of(msg));
        if (str_of(resp) == msg) ++ok;
      }
      rpc.close();
    }(n, i, ok));
  }
  n.sim.run_until(sim::Time(50ms));
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(server.requests_served(), 20u);
}

TEST(TServer, SimpleServerSerializesConnections) {
  // With TSimpleServer a second client cannot progress until the first
  // connection closes.
  Net n;
  TServer server(n.net, *n.b, 6, echo_processor(*n.b),
                 {.kind = ServerKind::kSimple});
  server.start();
  sim::Time first_done{}, second_done{};
  n.sim.spawn([](Net& n, sim::Time& done) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 6);
    SocketRpcClient rpc(c);
    co_await rpc.call(view_of("one"));
    co_await n.sim.sleep(1ms);  // hold the connection
    rpc.close();
    done = n.sim.now();
  }(n, first_done));
  n.sim.spawn([](Net& n, sim::Time& done) -> Task<void> {
    co_await n.sim.sleep(100us);  // connect strictly second
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 6);
    SocketRpcClient rpc(c);
    co_await rpc.call(view_of("two"));
    done = n.sim.now();
    rpc.close();
  }(n, second_done));
  n.sim.run_until(sim::Time(50ms));
  EXPECT_GT(second_done, first_done);
}

TEST(TServer, ThreadPoolBoundsConcurrency) {
  Net n;
  int in_handler = 0, max_in_handler = 0;
  Processor slow = [&](View req, proto::MemoryBuffer& out) -> Task<void> {
    ++in_handler;
    max_in_handler = std::max(max_in_handler, in_handler);
    co_await n.sim.sleep(100us);
    --in_handler;
    out.write(req.data(), req.size());
  };
  TServer server(n.net, *n.b, 7, slow,
                 {.kind = ServerKind::kThreadPool, .pool_workers = 2});
  server.start();
  for (int i = 0; i < 6; ++i) {
    n.sim.spawn([](Net& n, int& /*unused*/) -> Task<void> {
      SimSocket* c = co_await n.net.connect(*n.a, *n.b, 7);
      SocketRpcClient rpc(c);
      co_await rpc.call(view_of("x"));
      rpc.close();
    }(n, in_handler));
  }
  n.sim.run_until(sim::Time(50ms));
  EXPECT_LE(max_in_handler, 2);
  EXPECT_EQ(server.requests_served(), 6u);
}

TEST(TServer, ConnectionTrackingShrinksAndStopIsIdempotent) {
  // conns_ must track LIVE connections only: a closed connection leaves the
  // list as its serve loop unwinds, and stop() after that must not touch
  // the dead socket again.
  Net n;
  TServer server(n.net, *n.b, 8, echo_processor(*n.b),
                 {.kind = ServerKind::kThreaded});
  server.start();
  size_t open_while_connected = 0;
  n.sim.spawn([](Net& n, TServer& server, size_t& open) -> Task<void> {
    {
      SimSocket* c1 = co_await n.net.connect(*n.a, *n.b, 8);
      SocketRpcClient rpc1(c1);
      co_await rpc1.call(view_of("one"));
      SimSocket* c2 = co_await n.net.connect(*n.a, *n.b, 8);
      SocketRpcClient rpc2(c2);
      co_await rpc2.call(view_of("two"));
      open = server.open_connections();
      rpc1.close();
      rpc2.close();
    }
    // Let both serve loops observe EOF and unregister.
    co_await n.sim.sleep(1ms);
    EXPECT_EQ(server.open_connections(), 0u);
    server.stop();
    server.stop();  // second stop over the same (empty) set: no-op
  }(n, server, open_while_connected));
  n.sim.run();
  EXPECT_EQ(open_while_connected, 2u);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(n.sim.live_tasks(), 0u);
}

TEST(TServer, StopClosesLiveConnections) {
  Net n;
  TServer server(n.net, *n.b, 9, echo_processor(*n.b),
                 {.kind = ServerKind::kThreaded});
  server.start();
  bool server_hung_up = false;
  n.sim.spawn([](Net& n, TServer& server, bool& hung_up) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 9);
    SocketRpcClient rpc(c);
    co_await rpc.call(view_of("hello"));
    EXPECT_EQ(server.open_connections(), 1u);
    server.stop();
    bool threw = false;
    try {
      co_await rpc.call(view_of("after-stop"));
    } catch (const TTransportException&) {
      threw = true;
    }
    hung_up = threw;
    rpc.close();
  }(n, server, server_hung_up));
  n.sim.run();
  EXPECT_TRUE(server_hung_up);
  EXPECT_EQ(n.sim.live_tasks(), 0u);
}

TEST(TRdma, SocketCompatibleProgrammingModel) {
  // The paper's key TRdma property: write / flush / read like TSocket.
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  TServerRdma server(*sv, [sv](proto::View req,
                               proto::MemoryBuffer& out) -> Task<void> {
    co_await sv->cpu().compute(300ns);
    std::string s(reinterpret_cast<const char*>(req.data()), req.size());
    s = "echo:" + s;
    out.write(s.data(), s.size());
  });
  TRdmaEndPoint* ep =
      server.accept(*cl, proto::ProtocolKind::kDirectWriteImm, {});
  std::string got;
  sim.spawn([](TRdmaEndPoint* ep, std::string& got,
               TServerRdma& server) -> Task<void> {
    TRdma t(*ep);
    t.set_response_size_hint(64);
    std::string req = "trdma";
    t.write(view_of(req));
    co_await t.flush();
    std::byte buf[64];
    size_t k = co_await t.read(buf, sizeof buf);
    got.assign(reinterpret_cast<char*>(buf), k);
    server.stop();
  }(ep, got, server));
  sim.run();
  EXPECT_EQ(got, "echo:trdma");
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(TRdma, WorksOverEveryProtocolKind) {
  for (auto kind : {proto::ProtocolKind::kEagerSendRecv,
                    proto::ProtocolKind::kWriteRndv,
                    proto::ProtocolKind::kRfp,
                    proto::ProtocolKind::kHybridEagerRndv}) {
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* cl = fabric.add_node();
    verbs::Node* sv = fabric.add_node();
    TServerRdma server(*sv, [](proto::View req,
                               proto::MemoryBuffer& out) -> Task<void> {
      out.write(req.data(), req.size());
      co_return;
    });
    TRdmaEndPoint* ep = server.accept(*cl, kind, {});
    bool ok = false;
    sim.spawn([](TRdmaEndPoint* ep, bool& ok, TServerRdma& srv)
                  -> Task<void> {
      TRdma t(*ep);
      t.write(view_of("abc"));
      t.set_response_size_hint(3);
      co_await t.flush();
      std::byte buf[8];
      size_t k = co_await t.read(buf, 8);
      ok = (k == 3 && std::memcmp(buf, "abc", 3) == 0);
      srv.stop();
    }(ep, ok, server));
    sim.run();
    EXPECT_TRUE(ok) << proto::to_string(kind);
  }
}

TEST(TRdmaTransport, HandshakeEstablishesEndpointOverTcp) {
  // The paper's TRdmaTransport: out-of-band TCP exchange, then RDMA.
  Simulator sim;
  verbs::Fabric fabric(sim);
  SocketNet net(fabric);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  TRdmaTransport transport(net, *sv, 7000,
                           [](proto::View req,
                              proto::MemoryBuffer& out) -> Task<void> {
                             out.write(req.data(), req.size());
                             co_return;
                           });
  std::string got;
  sim::Time handshake_done{};
  sim.spawn([](Simulator& sim, TRdmaTransport& transport, verbs::Node* cl,
               std::string& got, sim::Time& t) -> Task<void> {
    proto::ChannelConfig cfg;
    TRdmaEndPoint* ep = co_await transport.connect(
        *cl, proto::ProtocolKind::kDirectWriteImm, cfg);
    t = sim.now();  // handshake cost real virtual time
    proto::Buffer req = proto::to_buffer("post-handshake");
    proto::Buffer resp = (co_await ep->channel().call(req, 64)).value();
    got = std::string(proto::as_string(resp));
    transport.stop();
  }(sim, transport, cl, got, handshake_done));
  sim.run();
  EXPECT_EQ(got, "post-handshake");
  EXPECT_EQ(transport.connections(), 1u);
  // TCP connect (30us handshake) + request/reply round trip.
  EXPECT_GT(handshake_done, 40us);
}

TEST(TRdmaTransport, ManyClientsHandshakeConcurrently) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  SocketNet net(fabric);
  verbs::Node* sv = fabric.add_node();
  TRdmaTransport transport(net, *sv, 7001,
                           [](proto::View req,
                              proto::MemoryBuffer& out) -> Task<void> {
                             out.write(req.data(), req.size());
                             co_return;
                           });
  int ok = 0;
  sim::WaitGroup wg(sim);
  wg.add(6);
  for (int c = 0; c < 6; ++c) {
    verbs::Node* cl = fabric.add_node();
    sim.spawn([](TRdmaTransport& transport, verbs::Node* cl, int c, int& ok,
                 sim::WaitGroup& wg) -> Task<void> {
      proto::ChannelConfig cfg;
      TRdmaEndPoint* ep = co_await transport.connect(
          *cl, proto::ProtocolKind::kEagerSendRecv, cfg);
      std::string msg = "client-" + std::to_string(c);
      proto::Buffer resp = (co_await ep->channel().call(
          proto::to_buffer(msg), 64)).value();
      if (proto::as_string(resp) == msg) ++ok;
      wg.done();
    }(transport, cl, c, ok, wg));
  }
  sim.spawn([](sim::WaitGroup& wg, TRdmaTransport& t) -> Task<void> {
    co_await wg.wait();
    t.stop();
  }(wg, transport));
  sim.run();
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(transport.connections(), 6u);
}

// ---------------------------------------------------------------------------
// Hostile handshakes: a malformed ConnectRequest is refused (socket closed,
// no reply) and the transport keeps accepting.
// ---------------------------------------------------------------------------

/// A ConnectRequest encoded field by field, so each test can corrupt one.
struct RawConnect {
  int8_t kind = static_cast<int8_t>(proto::ProtocolKind::kDirectWriteImm);
  int32_t client_id = 0;
  int32_t max_msg = 256 << 10;
  int32_t eager_slots = 16;
  int32_t window = 1;
  int8_t client_busy = 1;
  int8_t server_busy = 1;
  int8_t zero_copy = 0;

  proto::Buffer payload() const {
    TMemoryBuffer buf;
    TBinaryProtocol p(buf);
    p.writeByte(kind);
    p.writeI32(client_id);
    p.writeI32(max_msg);
    p.writeI32(eager_slots);
    p.writeI32(window);
    p.writeByte(client_busy);
    p.writeByte(server_busy);
    p.writeByte(zero_copy);
    return proto::Buffer(buf.view().begin(), buf.view().end());
  }
};

/// [u32 length][payload], as TFramedTransport puts it on the wire.
proto::Buffer framed(proto::View payload, uint32_t declared_len) {
  proto::Buffer out(4);
  proto::put_u32(out.data(), declared_len);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}
proto::Buffer framed(proto::View payload) {
  return framed(payload, static_cast<uint32_t>(payload.size()));
}

struct HandshakeOutcome {
  bool replied = true;  // the server answered the hostile request
  std::string echoed;   // a valid client's call after it
  size_t connections = 0;
};

/// Writes `wire` (raw socket bytes) to the transport's port as a handshake,
/// closing the socket afterwards when `close_after` is set, then connects a
/// well-formed client and makes one call on its endpoint.
HandshakeOutcome hostile_then_valid(const proto::Buffer& wire,
                                    bool close_after = false) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  SocketNet net(fabric);
  verbs::Node* sv = fabric.add_node();
  verbs::Node* cl = fabric.add_node();
  TRdmaTransport transport(net, *sv, 7100,
                           [](proto::View req,
                              proto::MemoryBuffer& out) -> Task<void> {
                             out.write(req.data(), req.size());
                             co_return;
                           });
  HandshakeOutcome out;
  sim.spawn([](SocketNet& net, TRdmaTransport& transport, verbs::Node* cl,
               verbs::Node* sv, const proto::Buffer& wire, bool close_after,
               HandshakeOutcome& out) -> Task<void> {
    SimSocket* sock = co_await net.connect(*cl, *sv, 7100);
    co_await sock->write(wire);
    if (close_after) sock->close();
    TFramedTransport framed(sock);
    out.replied = (co_await framed.recv()).has_value();
    proto::ChannelConfig cfg;
    TRdmaEndPoint* ep = co_await transport.connect(
        *cl, proto::ProtocolKind::kDirectWriteImm, cfg);
    proto::Buffer req = proto::to_buffer("still-accepting");
    proto::Buffer resp = (co_await ep->channel().call(req, 64)).value();
    out.echoed = std::string(proto::as_string(resp));
    out.connections = transport.connections();
    transport.stop();
  }(net, transport, cl, sv, wire, close_after, out));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  return out;
}

void expect_refused(const proto::Buffer& wire, bool close_after = false) {
  HandshakeOutcome r = hostile_then_valid(wire, close_after);
  EXPECT_FALSE(r.replied);
  EXPECT_EQ(r.echoed, "still-accepting");
  EXPECT_EQ(r.connections, 1u);  // only the valid client got an endpoint
}

TEST(TRdmaHandshake, WellFormedRawRequestIsAccepted) {
  // The encoder below is the real wire format: unmodified, it is accepted.
  RawConnect raw;
  raw.client_id = 1;
  HandshakeOutcome r = hostile_then_valid(framed(raw.payload()));
  EXPECT_TRUE(r.replied);
  EXPECT_EQ(r.echoed, "still-accepting");
  EXPECT_EQ(r.connections, 2u);
}

TEST(TRdmaHandshake, UnknownProtocolKindIsRefused) {
  RawConnect raw;
  raw.client_id = 1;
  raw.kind = 12;  // one past kArGrpc
  expect_refused(framed(raw.payload()));
}

TEST(TRdmaHandshake, UnknownClientNodeIsRefused) {
  RawConnect raw;
  raw.client_id = 2;  // the fabric has nodes 0 and 1 only
  expect_refused(framed(raw.payload()));
  raw.client_id = -1;
  expect_refused(framed(raw.payload()));
}

TEST(TRdmaHandshake, MaxMsgOutsideTheBufferBoundIsRefused) {
  RawConnect raw;
  raw.client_id = 1;
  raw.max_msg = (16 << 20) + 1;
  expect_refused(framed(raw.payload()));
  raw.max_msg = -1;
  expect_refused(framed(raw.payload()));
  raw.max_msg = 0;
  expect_refused(framed(raw.payload()));
  // max_msg within bounds, but a window of slots that no longer is.
  raw.max_msg = 1 << 20;
  raw.window = 32;
  expect_refused(framed(raw.payload()));
}

TEST(TRdmaHandshake, WindowBeyondTheSlotTagRangeIsRefused) {
  RawConnect raw;
  raw.client_id = 1;
  raw.max_msg = 1024;
  raw.window = 257;
  expect_refused(framed(raw.payload()));
  raw.window = -1;
  expect_refused(framed(raw.payload()));
}

TEST(TRdmaHandshake, EagerSlotCountOutsideTheRingBoundIsRefused) {
  RawConnect raw;
  raw.client_id = 1;
  raw.eager_slots = 0;
  expect_refused(framed(raw.payload()));
  raw.eager_slots = 1 << 20;  // a 4 GiB ring at 4 KB slots
  expect_refused(framed(raw.payload()));
}

TEST(TRdmaHandshake, FlagBytesOtherThanZeroOrOneAreRefused) {
  RawConnect raw;
  raw.client_id = 1;
  raw.zero_copy = 2;
  expect_refused(framed(raw.payload()));
}

TEST(TRdmaHandshake, TruncatedRequestIsRefused) {
  RawConnect raw;
  raw.client_id = 1;
  proto::Buffer full = raw.payload();
  // A complete frame holding a short request...
  expect_refused(framed(proto::View(full).first(9)));
  // ...a frame cut off by EOF before its declared length...
  expect_refused(framed(proto::View(full).first(9), 20), /*close_after=*/true);
  // ...and a frame header declaring far more than any request.
  expect_refused(framed({}, 1u << 30), /*close_after=*/true);
}

}  // namespace
}  // namespace hatrpc::thrift
