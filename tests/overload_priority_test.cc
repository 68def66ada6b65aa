// Satellite S4: background traffic loses to client traffic under overload.
//
// A sloppy-quorum cluster accumulates hinted handoffs while one replica is
// down. When the replica returns, every holder bursts its hint batch at it —
// background traffic — right as client operations keep the node's service
// slots near saturation. The admission gate must shed the background burst
// (small background queue, served only when foreground is idle) while
// client-op latency stays bounded by the foreground queue, not by the burst.
//
// Swept across 10 seeds because the collision between the hint burst and
// the client stream lands differently each schedule; the priority inversion
// would only need one unlucky interleaving to show up.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "replication/quorum_store.h"
#include "sim/latency.h"
#include "sim/rpc.h"

namespace evc::repl {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct SweepResult {
  uint64_t shed_background = 0;  // summed over servers (AdmissionStats)
  uint64_t shed_foreground = 0;
  uint64_t obs_shed_background = 0;  // same, via per-node obs counters
  uint64_t hints_stored = 0;
  uint64_t client_ok = 0;
  double client_p99_ms = 0;
};

SweepResult RunSeed(uint64_t seed) {
  sim::Simulator sim(seed);
  sim::Network net(&sim,
                   std::make_unique<sim::ConstantLatency>(2 * kMillisecond));
  sim::Rpc rpc(&net);

  QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 2;
  config.write_quorum = 2;
  config.sloppy = true;
  config.use_oracle_detector = true;
  config.admission_enabled = true;
  config.admission.max_concurrent = 2;
  config.admission.service_time = 2 * kMillisecond;  // 1000 req/s per node
  config.resilience.breaker_enabled = false;

  DynamoCluster cluster(&rpc, config);
  const auto servers = cluster.AddServers(5);
  const sim::NodeId client = net.AddNode();
  const sim::NodeId victim = servers[4];
  Rng rng(seed ^ 0xbadc0ffeULL);

  // Phase 1 — build a hint backlog: with the victim down, sloppy writes to
  // its ranges divert to fallbacks, each storing a hint for the victim.
  net.SetNodeUp(victim, false);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(64));
    cluster.Put(client, servers[i % 4], key, "v" + std::to_string(i), {},
                [](Result<Version>) {});
    sim.RunFor(2 * kMillisecond);
  }
  const uint64_t hints_stored = cluster.stats().hints_stored;

  // Phase 2 — the collision. The victim comes back; hint delivery will
  // burst every holder's batch at it. Meanwhile client ops coordinated at
  // the victim keep its slots ~80% busy (500 direct ops/s plus replica
  // legs against 1000 req/s capacity): foreground fills the slots and the
  // front of the foreground queue, so the background burst overflows its
  // deliberately small queue and times out of the sojourn bound.
  net.SetNodeUp(victim, true);
  cluster.StartHintDelivery(25 * kMillisecond);

  Histogram client_latency;
  uint64_t client_ok = 0;
  const sim::Time phase_end = sim.Now() + 2 * kSecond;
  std::function<void()> arrive = [&] {
    if (sim.Now() >= phase_end) return;
    sim.ScheduleAfter(2 * kMillisecond, arrive);
    const std::string key = "k" + std::to_string(rng.NextBounded(64));
    const sim::Time issued = sim.Now();
    auto done = [&, issued](bool ok) {
      if (!ok) return;
      ++client_ok;
      client_latency.Add(static_cast<double>(sim.Now() - issued));
    };
    if (rng.NextBool(0.5)) {
      cluster.Put(client, victim, key, "w", {},
                  [done](Result<Version> r) { done(r.ok()); });
    } else {
      cluster.Get(client, victim, key,
                  [done](Result<ReadResult> r) { done(r.ok()); });
    }
  };
  arrive();
  sim.RunFor(phase_end - sim.Now() + 500 * kMillisecond);

  SweepResult result;
  result.hints_stored = hints_stored;
  result.client_ok = client_ok;
  result.client_p99_ms = client_latency.Percentile(0.99) / kMillisecond;
  for (sim::NodeId node : servers) {
    const resilience::AdmissionStats& a = cluster.admission(node)->stats();
    result.shed_background += a.shed_background;
    result.shed_foreground += a.shed_foreground;
    result.obs_shed_background += sim.metrics()
                                      .node(node)
                                      .CounterFor("admission.shed_background")
                                      .value();
  }
  return result;
}

TEST(OverloadPriorityTest, BackgroundShedsFirstAndClientP99StaysBounded) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SweepResult r = RunSeed(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // The setup really produced background pressure (hints dedupe per
    // (intended, key), so the ceiling is the ~60% of the 64-key space whose
    // preference list includes the victim)...
    ASSERT_GT(r.hints_stored, 20u);
    // ...and the gate shed it: background sheds happened, and more of them
    // than foreground sheds (the busy-but-not-overloaded foreground should
    // shed rarely if at all).
    EXPECT_GT(r.shed_background, 0u);
    EXPECT_GT(r.shed_background, r.shed_foreground);
    // The obs counters tell the same story (what an operator would see).
    EXPECT_EQ(r.obs_shed_background, r.shed_background);
    // Client goodput survived the burst and p99 stayed bounded by the
    // foreground queue (64 deep x 2ms service / 2 slots = 64ms of queue,
    // plus RTTs and one retry), nowhere near the seconds-long collapse an
    // unprioritized queue would produce.
    EXPECT_GT(r.client_ok, 500u);
    EXPECT_LT(r.client_p99_ms, 250.0);
  }
}

// Hint delivery is background work: a holder that has just heard a loaded
// reply from the intended home (its admission queue past
// sim::Rpc::kBackgroundYieldLoad) holds the batch instead of adding to the
// queue, and delivers it once that load signal has aged out.
TEST(OverloadPriorityTest, HintsWaitOutTheirDestinationsLoadThenDrain) {
  sim::Simulator sim(7);
  sim::Network net(&sim,
                   std::make_unique<sim::ConstantLatency>(2 * kMillisecond));
  sim::Rpc rpc(&net);

  QuorumConfig config;
  config.replication_factor = 3;
  config.read_quorum = 2;
  config.write_quorum = 2;
  config.sloppy = true;
  config.use_oracle_detector = true;
  config.admission_enabled = true;
  config.admission.max_concurrent = 1;
  config.admission.service_time = 20 * kMillisecond;
  config.admission.foreground_queue_limit = 16;
  config.admission.background_queue_limit = 4;
  config.admission.sojourn_target = 0;  // queued work waits, never sheds

  DynamoCluster cluster(&rpc, config);
  const auto servers = cluster.AddServers(4);
  const sim::NodeId client = net.AddNode();
  const sim::NodeId victim = servers[3];
  std::vector<std::string> victim_keys;
  for (int i = 0; victim_keys.size() < 8; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (sim::NodeId n : cluster.PreferenceList(key)) {
      if (n == victim) victim_keys.push_back(key);
    }
  }

  // Park hints for the victim while it is down.
  net.SetNodeUp(victim, false);
  for (size_t i = 0; i < victim_keys.size(); ++i) {
    cluster.Put(client, servers[i % 3], victim_keys[i], "v", {},
                [](Result<Version>) {});
  }
  sim.RunFor(1 * kSecond);
  ASSERT_GT(cluster.pending_hints(), 0u);
  const uint64_t hints_parked = cluster.pending_hints();

  // The victim returns into a flood of client ops that fills its
  // foreground queue. Every other server then reads the victim's keys: the
  // read legs are rejected at the full queue, and each rejection carries
  // the victim's load back to the server that sent it.
  net.SetNodeUp(victim, true);
  for (int i = 0; i < 40; ++i) {
    cluster.Put(client, victim, "flood" + std::to_string(i), "x", {},
                [](Result<Version>) {});
  }
  sim.RunFor(5 * kMillisecond);
  for (size_t i = 0; i < 3; ++i) {
    for (const std::string& key : victim_keys) {
      cluster.Get(client, servers[i], key, [](Result<ReadResult>) {});
    }
  }
  sim.RunFor(100 * kMillisecond);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(rpc.PeerLoad(servers[i], victim), sim::Rpc::kBackgroundYieldLoad);
  }

  cluster.StartHintDelivery(25 * kMillisecond);
  sim.RunFor(30 * kMillisecond);
  EXPECT_GE(cluster.admission(victim)->LoadPercent(),
            sim::Rpc::kBackgroundYieldLoad);
  EXPECT_GT(cluster.stats().hints_deferred, 0u);
  EXPECT_EQ(cluster.stats().hints_delivered, 0u);
  EXPECT_EQ(cluster.pending_hints(), hints_parked);

  // The load signal ages out (Rpc::kLoadSignalTtl) while the victim's
  // queue drains; the held hints then go through.
  sim.RunFor(3 * kSecond);
  EXPECT_GT(cluster.stats().hints_delivered, 0u);
  EXPECT_EQ(cluster.pending_hints(), 0u);
  EXPECT_EQ(cluster.stats().hints_stored,
            cluster.stats().hints_delivered + cluster.stats().hints_lost +
                cluster.pending_hints());
}

}  // namespace
}  // namespace evc::repl
