// End-to-end test of hatrpc-gen output: echo_kv.hatrpc is compiled to C++
// at build time, the generated client/handler pair runs over the full
// HatRPC engine (hints -> plans -> RDMA channels), and every generated
// construct is exercised: structs, enums, containers, declared exceptions,
// oneway calls, and the embedded hint map.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include "core/engine.h"
#include "echo_kv_gen.h"

namespace {

using hatrpc::sim::Simulator;
using hatrpc::sim::Task;
using namespace std::chrono_literals;

class KvHandler : public genkv::GenKVIf {
 public:
  explicit KvHandler(hatrpc::verbs::Node& node) : node_(node) {}

  Task<genkv::Record> Fetch(const std::string& key) override {
    co_await node_.cpu().compute(200ns);
    auto it = store_.find(key);
    if (it == store_.end())
      throw genkv::NotFound{.key = key, .code = 404};
    co_return it->second;
  }

  Task<void> Store(const genkv::Record& rec) override {
    co_await node_.cpu().compute(200ns);
    store_[rec.key] = rec;
    co_return;
  }

  Task<std::map<std::string, int64_t>> Stats(
      const std::vector<std::string>& which, bool verbose) override {
    std::map<std::string, int64_t> out;
    for (const auto& w : which) out[w] = static_cast<int64_t>(w.size());
    if (verbose) out["total"] = static_cast<int64_t>(store_.size());
    co_return out;
  }

  Task<void> Nudge(int32_t generation) override {
    last_nudge_ = generation;
    co_return;
  }

  int32_t last_nudge() const { return last_nudge_; }

 private:
  hatrpc::verbs::Node& node_;
  std::map<std::string, genkv::Record> store_;
  int32_t last_nudge_ = -1;
};

struct GeneratedFixture : ::testing::Test {
  Simulator sim;
  hatrpc::verbs::Fabric fabric{sim};
  hatrpc::verbs::Node* client_node = fabric.add_node();
  hatrpc::verbs::Node* server_node = fabric.add_node();
  hatrpc::core::HatServer server{*server_node, genkv::GenKV_hints(), {}};
  KvHandler handler{*server_node};
  hatrpc::core::HatConnection conn{*client_node, server};

  GeneratedFixture() { genkv::register_GenKV(server.dispatcher(), handler); }

  void run(std::function<Task<void>(genkv::GenKVClient&)> body) {
    sim.spawn([](GeneratedFixture* self,
                 std::function<Task<void>(genkv::GenKVClient&)> body)
                  -> Task<void> {
      genkv::GenKVClient client(self->conn);
      co_await body(client);
      self->server.stop();
    }(this, std::move(body)));
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
  }
};

TEST_F(GeneratedFixture, StoreThenFetchRoundTripsStruct) {
  run([](genkv::GenKVClient& c) -> Task<void> {
    genkv::Record rec;
    rec.key = "alpha";
    rec.value = "v1";
    rec.version = 7;
    rec.mode = genkv::Consistency::STRONG;
    co_await c.Store(rec);
    genkv::Record got = co_await c.Fetch("alpha");
    EXPECT_EQ(got, rec);
    EXPECT_EQ(got.mode, genkv::Consistency::STRONG);
  });
}

TEST_F(GeneratedFixture, DeclaredExceptionPropagatesToClient) {
  run([](genkv::GenKVClient& c) -> Task<void> {
    bool caught = false;
    try {
      co_await c.Fetch("missing-key");
    } catch (const genkv::NotFound& e) {
      caught = true;
      EXPECT_EQ(e.key, "missing-key");
      EXPECT_EQ(e.code, 404);
    }
    EXPECT_TRUE(caught);
  });
}

TEST_F(GeneratedFixture, ContainersRoundTrip) {
  run([](genkv::GenKVClient& c) -> Task<void> {
    std::vector<std::string> which;
    which.push_back("aa");
    which.push_back("bbbb");
    which.push_back("c");
    std::map<std::string, int64_t> stats = co_await c.Stats(which, true);
    EXPECT_EQ(stats.size(), 4u);
    EXPECT_EQ(stats["aa"], 2);
    EXPECT_EQ(stats["bbbb"], 4);
    EXPECT_EQ(stats["total"], 0);
  });
}

TEST_F(GeneratedFixture, OnewayReachesHandler) {
  run([this](genkv::GenKVClient& c) -> Task<void> {
    co_await c.Nudge(42);
    EXPECT_EQ(handler.last_nudge(), 42);
  });
}

TEST_F(GeneratedFixture, GeneratedHintsDrivePlanSelection) {
  // Fetch is latency-hinted at the client -> busy WriteIMM; Stats is
  // res_util with 64k payload -> event-polled Write-RNDV.
  const hatrpc::hint::Plan& fetch = conn.plan_for("Fetch");
  EXPECT_EQ(fetch.protocol, hatrpc::proto::ProtocolKind::kDirectWriteImm);
  EXPECT_EQ(fetch.client_poll, hatrpc::sim::PollMode::kBusy);
  const hatrpc::hint::Plan& stats = conn.plan_for("Stats");
  EXPECT_EQ(stats.protocol, hatrpc::proto::ProtocolKind::kWriteRndv);
  EXPECT_EQ(stats.client_poll, hatrpc::sim::PollMode::kEvent);
  EXPECT_EQ(stats.expected_payload, 64u * 1024);
  // Heterogeneous functions on one connection -> distinct channels.
  run([](genkv::GenKVClient& c) -> Task<void> {
    genkv::Record rec;
    rec.key = "k";
    rec.value = "v";
    rec.version = 1;
    co_await c.Store(rec);
    co_await c.Fetch("k");
    std::vector<std::string> which;
    which.push_back("k");
    co_await c.Stats(which, false);
    co_return;
  });
  EXPECT_EQ(conn.channel_count(), 2u);  // WriteIMM shared by Fetch/Store +
                                        // the res_util Write-RNDV channel
}

/// Answers every call with an empty result struct: a field stop alone.
class EmptyResultCaller : public hatrpc::core::HatCaller {
 public:
  Task<hatrpc::core::Buffer> call(std::string,
                                  hatrpc::core::View) override {
    hatrpc::core::Buffer stop(1, std::byte{0});  // TType::kStop
    co_return stop;
  }
};

TEST(GeneratedStub, EmptyResultOfNonVoidCallThrowsMissingResult) {
  Simulator sim;
  EmptyResultCaller caller;
  genkv::GenKVClient client(caller);
  bool threw = false;
  bool void_ok = false;
  sim.spawn([](genkv::GenKVClient& client, bool& threw,
               bool& void_ok) -> Task<void> {
    try {
      co_await client.Fetch("k");
    } catch (const hatrpc::thrift::TApplicationException& e) {
      threw = e.kind() ==
              hatrpc::thrift::TApplicationException::Kind::kMissingResult;
    }
    // A void function has no result to miss.
    const genkv::Record rec;
    co_await client.Store(rec);
    void_ok = true;
  }(client, threw, void_ok));
  sim.run();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(void_ok);
}

TEST_F(GeneratedFixture, HugeDeclaredListSizeIsRejectedWithoutAllocating) {
  // Stats args whose `which` list claims 2^31 - 1 strings but carries none.
  hatrpc::thrift::TMemoryBuffer args;
  hatrpc::thrift::TBinaryProtocol ap(args);
  ap.writeFieldBegin(hatrpc::thrift::TType::kList, 1);
  ap.writeListBegin(hatrpc::thrift::TType::kString, 0x7fffffff);
  hatrpc::core::Buffer call =
      hatrpc::core::HatDispatcher::make_call("Stats", args.view(), 1);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const long before_kb = ru.ru_maxrss;
  hatrpc::thrift::TMemoryBuffer reply;
  sim.spawn([](GeneratedFixture* self, hatrpc::core::View in,
               hatrpc::thrift::TMemoryBuffer* out) -> Task<void> {
    co_await self->server.dispatcher().process(in, *out);
    self->server.stop();
  }(this, call, &reply));
  sim.run();
  getrusage(RUSAGE_SELF, &ru);
  EXPECT_LT(ru.ru_maxrss - before_kb, 64L * 1024) << "peak RSS grew (KiB)";

  try {
    hatrpc::core::HatDispatcher::parse_reply(reply.view(), "Stats", 1);
    FAIL() << "hostile list size produced a normal reply";
  } catch (const hatrpc::thrift::TApplicationException& e) {
    EXPECT_EQ(e.kind(),
              hatrpc::thrift::TApplicationException::Kind::kInternalError);
    EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos)
        << e.what();
  }
}

}  // namespace
