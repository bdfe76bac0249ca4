#include "src/util/config.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/core/testbed.h"
#include "src/server/memory_server.h"

namespace rmp {
namespace {

TEST(ConfigTest, ParsesKeyValues) {
  auto config = Config::Parse("host = alpha\nport= 7000\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetString("host", ""), "alpha");
  EXPECT_EQ(config->GetInt("port", 0).value(), 7000);
}

TEST(ConfigTest, CommentsAndBlankLines) {
  auto config = Config::Parse("# registry of memory servers\n\nhost=beta # inline comment\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetString("host", ""), "beta");
}

TEST(ConfigTest, LaterKeysOverride) {
  auto config = Config::Parse("x=1\nx=2\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("x", 0).value(), 2);
}

TEST(ConfigTest, MissingEqualsIsError) {
  auto config = Config::Parse("just a line\n");
  EXPECT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ConfigTest, EmptyKeyIsError) {
  auto config = Config::Parse("= value\n");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigTest, FallbacksForMissingKeys) {
  auto config = Config::Parse("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetString("absent", "dflt"), "dflt");
  EXPECT_EQ(config->GetInt("absent", 12).value(), 12);
  EXPECT_EQ(config->GetDouble("absent", 1.5).value(), 1.5);
  EXPECT_EQ(config->GetBool("absent", true).value(), true);
}

TEST(ConfigTest, MalformedTypedValuesAreErrors) {
  auto config = Config::Parse("n = twelve\nf = abc\nb = maybe\n");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(config->GetInt("n", 0).ok());
  EXPECT_FALSE(config->GetDouble("f", 0.0).ok());
  EXPECT_FALSE(config->GetBool("b", false).ok());
}

TEST(ConfigTest, BoolSpellings) {
  auto config = Config::Parse("a=true\nb=1\nc=off\nd=no\n");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->GetBool("a", false).value());
  EXPECT_TRUE(config->GetBool("b", false).value());
  EXPECT_FALSE(config->GetBool("c", true).value());
  EXPECT_FALSE(config->GetBool("d", true).value());
}

TEST(ConfigTest, HexAndNegativeIntegers) {
  auto config = Config::Parse("hex = 0x10\nneg = -5\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("hex", 0).value(), 16);
  EXPECT_EQ(config->GetInt("neg", 0).value(), -5);
}

TEST(ConfigTest, SetAndKeys) {
  Config config;
  config.Set("b", "2");
  config.Set("a", "1");
  EXPECT_TRUE(config.Has("a"));
  EXPECT_FALSE(config.Has("c"));
  const auto keys = config.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");  // Sorted.
}

TEST(ConfigTest, LoadMissingFileIsIoError) {
  auto config = Config::Load("/nonexistent/rmp.conf");
  EXPECT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), ErrorCode::kIoError);
}

TEST(TrimWhitespaceTest, Basics) {
  EXPECT_EQ(TrimWhitespace("  x  "), "x");
  EXPECT_EQ(TrimWhitespace("x"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("\ta b\t"), "a b");
}

// --- The table-driven applier ------------------------------------------------

TEST(ApplyConfigTest, SetsTypedFieldsThroughTheirUnitScale) {
  auto config = Config::Parse(
      "a.count = 0x10\n"
      "a.kb = 3\n"
      "a.ms = 1.5\n"
      "a.per_1k = 25\n"
      "a.ratio = 0.75\n"
      "a.on = yes\n"
      "a.name = ws0\n");
  ASSERT_TRUE(config.ok());
  uint32_t count = 0;
  uint64_t bytes = 0;
  int64_t ns = 0;
  double fraction = 0;
  double ratio = 0;
  bool on = false;
  std::string name;
  ASSERT_TRUE(ApplyConfig(*config, {{"a.count", ConfigKey::kInt, &count, 0, 100},
                                    {"a.kb", ConfigKey::kInt, &bytes, 0, 100, 1024},
                                    {"a.ms", ConfigKey::kDouble, &ns, 0, 10, 1e6},
                                    {"a.per_1k", ConfigKey::kInt, &fraction, 1, 1000, 1e-3},
                                    {"a.ratio", ConfigKey::kDouble, &ratio, 0, 1},
                                    {"a.on", ConfigKey::kBool, &on},
                                    {"a.name", ConfigKey::kString, &name}})
                  .ok());
  EXPECT_EQ(count, 16u);
  EXPECT_EQ(bytes, 3u * 1024u);
  EXPECT_EQ(ns, 1'500'000);
  EXPECT_DOUBLE_EQ(fraction, 0.025);
  EXPECT_DOUBLE_EQ(ratio, 0.75);
  EXPECT_TRUE(on);
  EXPECT_EQ(name, "ws0");
}

TEST(ApplyConfigTest, AbsentKeysKeepTheirFieldsAndNullFieldsAreOnlyChecked) {
  auto config = Config::Parse("a.checked = 5\n");
  ASSERT_TRUE(config.ok());
  int kept = 42;
  ASSERT_TRUE(ApplyConfig(*config, {{"a.kept", ConfigKey::kInt, &kept, 0, 100},
                                    {"a.checked", ConfigKey::kInt, static_cast<int*>(nullptr),
                                     0, 10}})
                  .ok());
  EXPECT_EQ(kept, 42);
  auto bad = Config::Parse("a.checked = 11\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(
      ApplyConfig(*bad, {{"a.checked", ConfigKey::kInt, static_cast<int*>(nullptr), 0, 10}})
          .ok());
}

TEST(ApplyConfigTest, UnknownKeysAreRejectedOnlyUnderOwnedPrefixes) {
  int x = 0;
  const ConfigTable dotted = {{"a.x", ConfigKey::kInt, &x, 0, 10}};
  auto typo = Config::Parse("a.y = 1\n");
  ASSERT_TRUE(typo.ok());
  const Status status = ApplyConfig(*typo, dotted);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("a.y"), std::string::npos) << status.ToString();
  // Other prefixes, and dotless keys, belong to other tables.
  auto foreign = Config::Parse("b.y = 1\nport = 7\na.x = 3\n");
  ASSERT_TRUE(foreign.ok());
  ASSERT_TRUE(ApplyConfig(*foreign, dotted).ok());
  EXPECT_EQ(x, 3);
  // A dotless row owns every dotless key, and no dotted one.
  int port = 0;
  const ConfigTable dotless = {{"port", ConfigKey::kInt, &port, 0, 65535}};
  EXPECT_FALSE(ApplyConfig(*Config::Parse("prot = 7\n"), dotless).ok());
  EXPECT_TRUE(ApplyConfig(*foreign, dotless).ok());
  EXPECT_EQ(port, 7);
}

TEST(ApplyConfigTest, RangeIsInclusiveAndAFailedApplyWritesNothing) {
  int low = -1;
  int high = -1;
  const ConfigTable table = {{"a.low", ConfigKey::kInt, &low, 0, 10},
                             {"a.high", ConfigKey::kDouble, &high, 0, 10}};
  ASSERT_TRUE(ApplyConfig(*Config::Parse("a.low = 0\na.high = 10\n"), table).ok());
  EXPECT_EQ(low, 0);
  EXPECT_EQ(high, 10);
  for (const char* text : {"a.low = 5\na.high = 10.5\n", "a.low = -1\na.high = 5\n",
                           "a.low = 5\na.high = nan\n", "a.low = five\n"}) {
    EXPECT_FALSE(ApplyConfig(*Config::Parse(text), table).ok()) << text;
    EXPECT_EQ(low, 0) << text;
    EXPECT_EQ(high, 10) << text;
  }
}

// Every table: one misspelt key per prefix and one out-of-range value per
// key. Bool keys take a value that is not a bool.
TEST(ApplyConfigTest, EveryTableRejectsTyposAndOutOfRangeValues) {
  MemoryServerParams server;
  TestbedParams testbed;
  ElasticParams elastic;
  RepairParams repair;
  RemotePagerParams pager;
  const auto table_for = [&](std::string_view text) {
    if (text.starts_with("store.")) {
      return StoreConfigKeys(&server);
    }
    if (text.starts_with("cluster.")) {
      return ClusterConfigKeys(&elastic, &repair, &pager);
    }
    return ObservabilityConfigKeys(&testbed);
  };
  for (const char* text : {
           // Typos.
           "store.shardz = 4\n", "cluster.page_group = 8\n", "trace.rign = 8\n",
           "events.rnig = 8\n", "slo.targte_ms = 5\n",
           // store.*
           "store.shards = 0\n", "store.shards = 4097\n", "store.service_micros = -1\n",
           "store.hot_pages = -1\n", "store.compress = maybe\n", "store.dedup = maybe\n",
           "store.promote_hits = -1\n", "store.promote_hits = 4294967296\n",
           "store.cold_budget_kb = -1\n", "store.spill_blocks = -1\n",
           "store.overcommit = 0.5\n", "store.overcommit = 2000\n",
           // cluster.*
           "cluster.page_groups = 65537\n", "cluster.rebalance_pages_per_sec = -1\n",
           "cluster.rebalance_burst = 0\n", "cluster.epoch_refresh_ms = -1\n",
           // trace.*
           "trace.ring = 1048577\n", "trace.slow_op_us = 9223372036854776\n",
           "trace.sample_per_1k = 1001\n", "trace.max_spans = 65537\n",
           "trace.span_ring = 1048577\n",
           // events.*
           "events.ring = 1048577\n", "events.max_detail = 65537\n",
           // slo.*
           "slo.target_ms = 1000001\n", "slo.window = 1048577\n",
           "slo.budget_per_1k = 0\n"}) {
    auto config = Config::Parse(text);
    ASSERT_TRUE(config.ok()) << text;
    EXPECT_FALSE(ApplyConfig(*config, table_for(text)).ok()) << text;
  }
}

}  // namespace
}  // namespace rmp
