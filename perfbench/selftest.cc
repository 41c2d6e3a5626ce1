// Tests of the benchmark's own arithmetic (harness.h): self time under
// overlapping child spans, the percentile sample-count rule, per-client
// seed derivation and the round report.
#include <gtest/gtest.h>

#include <set>

#include "harness.h"

namespace perfbench {
namespace {

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(self_time({10, 25}, {}), 15);
}

TEST(SelfTime, OverlappingChildrenAreCountedOnce) {
  // [2,5) and [4,8) cover [2,8): 6 of the parent's 10.
  EXPECT_EQ(self_time({0, 10}, {{2, 5}, {4, 8}}), 4);
  // A child nested inside another adds nothing.
  EXPECT_EQ(self_time({0, 10}, {{1, 9}, {3, 4}}), 2);
  // Order of the children does not matter.
  EXPECT_EQ(self_time({0, 10}, {{4, 8}, {2, 5}, {1, 3}}), 3);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // [-5,3) covers [0,3); [9,20) covers [9,10).
  EXPECT_EQ(self_time({0, 10}, {{-5, 3}, {9, 20}}), 6);
  // A child wholly outside and an empty child cover nothing.
  EXPECT_EQ(self_time({0, 10}, {{20, 30}, {5, 5}}), 10);
  // Children covering everything leave no self time.
  EXPECT_EQ(self_time({0, 10}, {{0, 6}, {6, 10}}), 0);
}

TEST(SpanLog, SelfTimesFollowParentLinks) {
  SpanLog log;
  const size_t root = log.open("root", 1, -1, 0);
  const size_t a = log.open("a", 1, int64_t(root), 2);
  log.close(a, 5);
  const size_t b = log.open("b", 1, int64_t(root), 4);
  const size_t leaf = log.open("leaf", 1, int64_t(b), 4);
  log.close(leaf, 6);
  log.close(b, 8);
  log.close(root, 10);
  const std::vector<int64_t> v = log.self_times(Clock::kVirtual);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[root], 4);  // 10 minus [2,8)
  EXPECT_EQ(v[a], 3);
  EXPECT_EQ(v[b], 2);     // 4 minus [4,6)
  EXPECT_EQ(v[leaf], 2);
  // Host intervals are ordered like the calls were.
  const std::vector<Span>& s = log.spans();
  EXPECT_LE(s[root].host.begin, s[a].host.begin);
  EXPECT_LE(s[b].host.end, s[root].host.end);
  EXPECT_GE(log.self_times(Clock::kHost)[root], 0);
}

TEST(Quantile, SampleCountRule) {
  EXPECT_EQ(min_samples(0.50), 20u);
  EXPECT_EQ(min_samples(0.99), 1000u);
  EXPECT_EQ(min_samples(0.999), 10000u);

  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(quantile(v, 0.99).has_value());
  ASSERT_TRUE(quantile(v, 0.50).has_value());
  v.push_back(1000);
  std::optional<Quantile> p99 = quantile(v, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990);  // nearest rank: the 990th of 1000
  EXPECT_EQ(p99->samples, 1000u);

  EXPECT_FALSE(quantile({}, 0.50).has_value());
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(i);  // unsorted input
  EXPECT_EQ(quantile(twenty, 0.50)->value, 10);
  twenty.pop_back();
  EXPECT_FALSE(quantile(twenty, 0.50).has_value());
}

TEST(Quantile, ReportRefusesAThinPercentile) {
  RoundReport rep;
  rep.add_quantile("lat_p99_us", std::vector<double>(999, 1.0), 0.99, "us");
  EXPECT_TRUE(rep.figures.empty());
  ASSERT_EQ(rep.checks.size(), 1u);
  EXPECT_FALSE(rep.checks[0].ok);
  EXPECT_EQ(rep.checks[0].name, "lat_p99_us.enough_samples");

  rep.add_quantile("lat_p99_us", std::vector<double>(1000, 2.0), 0.99, "us");
  ASSERT_EQ(rep.figures.size(), 1u);
  EXPECT_EQ(rep.figures[0].value, 2.0);
  EXPECT_EQ(rep.figures[0].samples, 1000u);
}

TEST(Seeds, DerivationIsPinned) {
  // Changing the derivation changes every workload's inputs; it must be a
  // deliberate edit of this value.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(derive_seed(1, Stream::kAtbMix, 0), 0x5775264a9a7e1b09ull);
  EXPECT_EQ(derive_seed(2, Stream::kYcsbGen, 31), 0xc1b783158a4df88eull);
}

TEST(Seeds, EveryClientStreamAndSeedDiffers) {
  const Stream streams[] = {Stream::kAtbMix,  Stream::kAtbFill,
                            Stream::kAtbStart, Stream::kYcsbGen,
                            Stream::kYcsbValue, Stream::kFault};
  std::set<uint64_t> seen;
  size_t n = 0;
  for (uint64_t seed : {1ull, 2ull, 3ull})
    for (Stream s : streams)
      for (uint64_t client = 0; client < 64; ++client, ++n)
        seen.insert(derive_seed(seed, s, client));
  EXPECT_EQ(seen.size(), n);
}

TEST(Seeds, NeighbouringSeedsGiveDifferentClientSequences) {
  for (uint64_t client = 0; client < 32; ++client) {
    EXPECT_NE(derive_seed(1, Stream::kYcsbGen, client),
              derive_seed(2, Stream::kYcsbGen, client));
    // Client i under seed 2 is not client i+1 under seed 1.
    EXPECT_NE(derive_seed(2, Stream::kYcsbGen, client),
              derive_seed(1, Stream::kYcsbGen, client + 1));
  }
}

TEST(Report, JsonIsOneParseableLine) {
  RoundReport rep;
  rep.workload = "rpc-small";
  rep.seed = 7;
  rep.attempted = 3;
  rep.add("thr_kops", 1.5, "kops", 3);
  rep.check("quoted \"name\"", true);
  rep.labels.emplace_back("plan.Ping", "x");
  const std::string j = rep.json();
  EXPECT_EQ(j.find('\n'), std::string::npos);
  EXPECT_NE(j.find("\"value\":1.5,"), std::string::npos);
  EXPECT_NE(j.find("quoted \\\"name\\\""), std::string::npos);
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
}

}  // namespace
}  // namespace perfbench
