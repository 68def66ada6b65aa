#include "replication/quorum_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"

namespace evc::repl {
namespace {

using sim::kMillisecond;
using sim::kSecond;

class QuorumStoreTest : public ::testing::Test {
 protected:
  void Build(QuorumConfig config, int servers = 3,
             sim::Time latency = 5 * kMillisecond) {
    sim_ = std::make_unique<sim::Simulator>(99);
    net_ = std::make_unique<sim::Network>(
        sim_.get(), std::make_unique<sim::ConstantLatency>(latency));
    rpc_ = std::make_unique<sim::Rpc>(net_.get());
    cluster_ = std::make_unique<DynamoCluster>(rpc_.get(), config);
    server_nodes_ = cluster_->AddServers(servers);
    client_ = net_->AddNode();
  }

  // Synchronous-style helpers: issue the op and run the simulation until the
  // callback fires.
  Result<Version> PutSync(const std::string& key, const std::string& value,
                          const VersionVector& ctx = {},
                          int coordinator_index = 0) {
    std::optional<Result<Version>> out;
    cluster_->Put(client_, server_nodes_[coordinator_index], key, value, ctx,
                  [&](Result<Version> r) { out = std::move(r); });
    sim_->RunFor(5 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  Result<ReadResult> GetSync(const std::string& key,
                             int coordinator_index = 0) {
    std::optional<Result<ReadResult>> out;
    cluster_->Get(client_, server_nodes_[coordinator_index], key,
                  [&](Result<ReadResult> r) { out = std::move(r); });
    sim_->RunFor(5 * kSecond);
    EVC_CHECK(out.has_value());
    return *out;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::Rpc> rpc_;
  std::unique_ptr<DynamoCluster> cluster_;
  std::vector<sim::NodeId> server_nodes_;
  sim::NodeId client_ = 0;
};

TEST_F(QuorumStoreTest, PutThenGetRoundTrip) {
  Build(QuorumConfig{});
  auto put = PutSync("user:1", "alice");
  ASSERT_TRUE(put.ok());
  auto get = GetSync("user:1");
  ASSERT_TRUE(get.ok());
  ASSERT_EQ(get->versions.size(), 1u);
  EXPECT_EQ(get->versions[0].value, "alice");
  EXPECT_GE(get->replies, cluster_->config().read_quorum);
}

TEST_F(QuorumStoreTest, GetMissingKeyReturnsEmpty) {
  Build(QuorumConfig{});
  auto get = GetSync("never-written");
  ASSERT_TRUE(get.ok());
  EXPECT_TRUE(get->versions.empty());
  EXPECT_TRUE(get->context.empty());
}

TEST_F(QuorumStoreTest, WriteReachesAllNReplicasEventually) {
  Build(QuorumConfig{});
  ASSERT_TRUE(PutSync("k", "v").ok());
  sim_->RunFor(kSecond);
  for (const sim::NodeId node : cluster_->PreferenceList("k")) {
    auto versions = cluster_->storage(node)->Get("k");
    ASSERT_EQ(versions.size(), 1u) << "node " << node;
    EXPECT_EQ(versions[0].value, "v");
  }
  EXPECT_TRUE(cluster_->ReplicasConverged("k"));
}

TEST_F(QuorumStoreTest, CausalOverwriteWithContext) {
  Build(QuorumConfig{});
  ASSERT_TRUE(PutSync("k", "v1").ok());
  auto read = GetSync("k");
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(PutSync("k", "v2", read->context).ok());
  auto read2 = GetSync("k");
  ASSERT_TRUE(read2.ok());
  ASSERT_EQ(read2->versions.size(), 1u);
  EXPECT_EQ(read2->versions[0].value, "v2");
}

TEST_F(QuorumStoreTest, ConcurrentWritesThroughDifferentCoordinatorsSibling) {
  Build(QuorumConfig{});
  // Two blind writes racing through different coordinators.
  std::optional<Result<Version>> r1, r2;
  cluster_->Put(client_, server_nodes_[0], "cart", "milk", {},
                [&](Result<Version> r) { r1 = std::move(r); });
  cluster_->Put(client_, server_nodes_[1], "cart", "eggs", {},
                [&](Result<Version> r) { r2 = std::move(r); });
  sim_->RunFor(5 * kSecond);
  ASSERT_TRUE(r1.has_value() && r1->ok());
  ASSERT_TRUE(r2.has_value() && r2->ok());
  auto read = GetSync("cart");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->versions.size(), 2u);  // both siblings visible
  // Client reconciles and writes back with the merged context.
  ASSERT_TRUE(PutSync("cart", "milk+eggs", read->context).ok());
  auto read2 = GetSync("cart");
  ASSERT_EQ(read2->versions.size(), 1u);
  EXPECT_EQ(read2->versions[0].value, "milk+eggs");
}

TEST_F(QuorumStoreTest, LwwPolicyCollapsesSiblings) {
  QuorumConfig config;
  config.storage.store.conflict_policy = ConflictPolicy::kLastWriterWins;
  Build(config);
  std::optional<Result<Version>> r1, r2;
  cluster_->Put(client_, server_nodes_[0], "cart", "milk", {},
                [&](Result<Version> r) { r1 = std::move(r); });
  cluster_->Put(client_, server_nodes_[1], "cart", "eggs", {},
                [&](Result<Version> r) { r2 = std::move(r); });
  sim_->RunFor(5 * kSecond);
  auto read = GetSync("cart");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->versions.size(), 1u);  // one update silently lost
}

TEST_F(QuorumStoreTest, DeletePropagatesAsTombstone) {
  Build(QuorumConfig{});
  ASSERT_TRUE(PutSync("k", "v").ok());
  auto read = GetSync("k");
  std::optional<Result<Version>> del;
  cluster_->Delete(client_, server_nodes_[0], "k", read->context,
                   [&](Result<Version> r) { del = std::move(r); });
  sim_->RunFor(5 * kSecond);
  ASSERT_TRUE(del.has_value() && del->ok());
  auto read2 = GetSync("k");
  ASSERT_TRUE(read2.ok());
  EXPECT_TRUE(read2->versions.empty());
  // The tombstone context is still there so a later write supersedes it.
  EXPECT_FALSE(read2->context.empty());
}

TEST_F(QuorumStoreTest, StrictQuorumWriteFailsWithoutW) {
  QuorumConfig config;
  config.sloppy = false;
  Build(config);
  // Crash two of the three preference replicas; coordinate via the
  // remaining live one.
  auto pref = cluster_->PreferenceList("k");
  net_->SetNodeUp(pref[1], false);
  net_->SetNodeUp(pref[2], false);
  int coordinator_index = 0;
  for (size_t i = 0; i < server_nodes_.size(); ++i) {
    if (server_nodes_[i] == pref[0]) coordinator_index = static_cast<int>(i);
  }
  auto put = PutSync("k", "v", {}, coordinator_index);
  EXPECT_TRUE(put.status().IsUnavailable() || put.status().IsTimedOut())
      << put.status().ToString();
  EXPECT_GE(cluster_->stats().puts_unavailable, 1u);
}

TEST_F(QuorumStoreTest, StrictQuorumReadFailsWithoutR) {
  QuorumConfig config;
  config.sloppy = false;
  config.read_quorum = 3;
  config.write_quorum = 1;
  Build(config);
  ASSERT_TRUE(PutSync("k", "v").ok());
  auto pref = cluster_->PreferenceList("k");
  net_->SetNodeUp(pref[2], false);
  auto get = GetSync("k");
  EXPECT_TRUE(get.status().IsUnavailable() || get.status().IsTimedOut());
}

TEST_F(QuorumStoreTest, SloppyQuorumSurvivesPreferredFailures) {
  QuorumConfig config;
  config.sloppy = true;
  Build(config, /*servers=*/5);
  cluster_->StartFailureDetection();
  auto pref = cluster_->PreferenceList("k");
  // Coordinator must stay up: pick a server not in the preference list, or
  // the first preferred one; crash the other two preferred replicas.
  net_->SetNodeUp(pref[1], false);
  net_->SetNodeUp(pref[2], false);
  // Unlike the old CanCommunicate oracle, the failure detector needs a few
  // missed heartbeats before it convicts the dead replicas.
  sim_->RunFor(kSecond);
  int coordinator_index = 0;
  for (size_t i = 0; i < server_nodes_.size(); ++i) {
    if (server_nodes_[i] == pref[0]) coordinator_index = static_cast<int>(i);
  }
  auto put = PutSync("k", "v", {}, coordinator_index);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_GE(cluster_->stats().sloppy_diversions, 2u);
  EXPECT_GE(cluster_->stats().hints_stored, 1u);
  EXPECT_GE(cluster_->pending_hints(), 1u);
}

TEST_F(QuorumStoreTest, HintedHandoffDeliversAfterRecovery) {
  QuorumConfig config;
  config.sloppy = true;
  Build(config, /*servers=*/5);
  cluster_->StartFailureDetection();
  auto pref = cluster_->PreferenceList("k");
  net_->SetNodeUp(pref[1], false);
  sim_->RunFor(kSecond);  // heartbeats convict the dead replica
  int coordinator_index = 0;
  for (size_t i = 0; i < server_nodes_.size(); ++i) {
    if (server_nodes_[i] == pref[0]) coordinator_index = static_cast<int>(i);
  }
  cluster_->StartHintDelivery(50 * kMillisecond);
  ASSERT_TRUE(PutSync("k", "v", {}, coordinator_index).ok());
  EXPECT_TRUE(cluster_->storage(pref[1])->Get("k").empty());
  // Recover the preferred node; hint delivery should fill it in.
  net_->SetNodeUp(pref[1], true);
  sim_->RunFor(2 * kSecond);
  auto versions = cluster_->storage(pref[1])->Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "v");
  EXPECT_GE(cluster_->stats().hints_delivered, 1u);
  EXPECT_EQ(cluster_->pending_hints(), 0u);
}

TEST_F(QuorumStoreTest, ReadRepairFixesStaleReplica) {
  QuorumConfig config;
  config.sloppy = false;
  config.write_quorum = 2;
  config.read_quorum = 3;
  Build(config);
  auto pref = cluster_->PreferenceList("k");
  // One replica misses the write (crashed), W=2 still satisfied.
  net_->SetNodeUp(pref[2], false);
  ASSERT_TRUE(PutSync("k", "v").ok());
  net_->SetNodeUp(pref[2], true);
  EXPECT_TRUE(cluster_->storage(pref[2])->Get("k").empty());
  // A full read triggers repair... but R=3 needs all three: the stale one
  // replies with nothing and gets repaired.
  auto read = GetSync("k");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->repaired);
  sim_->RunFor(kSecond);
  auto fixed = cluster_->storage(pref[2])->Get("k");
  ASSERT_EQ(fixed.size(), 1u);
  EXPECT_EQ(fixed[0].value, "v");
  EXPECT_GE(cluster_->stats().read_repairs, 1u);
  EXPECT_TRUE(cluster_->ReplicasConverged("k"));
}

TEST_F(QuorumStoreTest, PreferenceListIsDeterministicAndDistinct) {
  Build(QuorumConfig{}, /*servers=*/10);
  const auto a = cluster_->PreferenceList("some-key");
  const auto b = cluster_->PreferenceList("some-key");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[1], a[2]);
  EXPECT_NE(a[0], a[2]);
}

// A static cluster is epoch 0 of the placement: the preference list is the
// rotation of the servers, in AddServer order, that starts at
// Fnv1a64(key) % n. A server added later re-places every key.
TEST_F(QuorumStoreTest, StaticPreferenceListIsModuloRotation) {
  Build(QuorumConfig{}, /*servers=*/7);
  auto expect_rotation = [&] {
    const size_t n = server_nodes_.size();
    for (int i = 0; i < 100; ++i) {
      const std::string key = "key" + std::to_string(i);
      const size_t start = Fnv1a64(key) % n;
      std::vector<sim::NodeId> want;
      for (size_t j = 0; j < 3; ++j) {
        want.push_back(server_nodes_[(start + j) % n]);
      }
      EXPECT_EQ(cluster_->PreferenceList(key), want) << key << " n=" << n;
    }
  };
  expect_rotation();
  server_nodes_.push_back(cluster_->AddServer());
  expect_rotation();
}

TEST_F(QuorumStoreTest, ManyKeysManyClientsConverge) {
  Build(QuorumConfig{}, /*servers=*/5);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    cluster_->Put(client_, server_nodes_[i % 5], "key" + std::to_string(i),
                  "value" + std::to_string(i), {},
                  [&](Result<Version> r) {
                    ASSERT_TRUE(r.ok());
                    ++completed;
                  });
  }
  sim_->RunFor(10 * kSecond);
  EXPECT_EQ(completed, 50);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(cluster_->ReplicasConverged("key" + std::to_string(i)));
  }
}

TEST_F(QuorumStoreTest, StatsCountersAdvance) {
  Build(QuorumConfig{});
  ASSERT_TRUE(PutSync("k", "v").ok());
  ASSERT_TRUE(GetSync("k").ok());
  EXPECT_EQ(cluster_->stats().puts_ok, 1u);
  EXPECT_EQ(cluster_->stats().gets_ok, 1u);
  EXPECT_EQ(cluster_->stats().puts_unavailable, 0u);
}

// Table-4 style sweep: with R+W > N every read after a completed write
// returns the written value; the property is checked for every (R, W).
class QuorumIntersectionTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QuorumIntersectionTest, ReadSeesCompletedWriteWhenRWExceedN) {
  const int r = std::get<0>(GetParam());
  const int w = std::get<1>(GetParam());
  sim::Simulator sim(7);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             1 * kMillisecond, 20 * kMillisecond));
  sim::Rpc rpc(&net);
  QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = r;
  config.write_quorum = w;
  config.sloppy = false;
  DynamoCluster cluster(&rpc, config);
  auto servers = cluster.AddServers(3);
  const sim::NodeId client = net.AddNode();

  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::string value = "value" + std::to_string(i);
    bool put_done = false;
    cluster.Put(client, servers[i % 3], key, value, {},
                [&](Result<Version> res) {
                  ASSERT_TRUE(res.ok());
                  put_done = true;
                });
    sim.RunFor(kSecond);
    ASSERT_TRUE(put_done);
    if (r + w > 3) {
      // Quorum intersection: the read quorum must overlap the write quorum.
      std::optional<ReadResult> read;
      cluster.Get(client, servers[(i + 1) % 3], key,
                  [&](Result<ReadResult> res) {
                    ASSERT_TRUE(res.ok());
                    read = std::move(res).value();
                  });
      sim.RunFor(kSecond);
      ASSERT_TRUE(read.has_value());
      ASSERT_EQ(read->versions.size(), 1u) << "R=" << r << " W=" << w;
      EXPECT_EQ(read->versions[0].value, value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QuorumIntersectionTest,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace evc::repl
