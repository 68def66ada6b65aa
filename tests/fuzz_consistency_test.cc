// Fault-schedule fuzzing as a CI test: every store must satisfy exactly the
// properties its consistency level claims, under randomized nemesis
// schedules (tests/fuzz_consistency_test.cc is the in-tree harness; the
// standalone tools/evc_fuzz binary runs wider sweeps and replays seeds).
//
// The regression corpus below pins seeds that once exposed a real bug so
// they are replayed on every CI run.

#include "verify/fuzz.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace evc::verify {
namespace {

// Every store meets its claims on a small smoke sweep. (The full 200-seed
// sweep lives in tools/evc_fuzz; 6 seeds x 9 stores keeps CI fast.)
TEST(FuzzConsistencyTest, AllStoresMeetClaimsOnSmokeSeeds) {
  for (FuzzStore store : AllFuzzStores()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const FuzzReport report = RunFuzzSeed(DefaultFuzzOptions(store, seed));
      std::string why;
      EXPECT_TRUE(report.MeetsClaims(&why))
          << ToString(store) << " seed " << seed << ": " << why << "\n"
          << report.Summary();
    }
  }
}

// Regression corpus: these seeds caught a real duplicate-apply bug in the
// Paxos KV client. A proposal that timed out at the client could be
// completed later by a new leader's prepare phase while the client's retry
// also committed — the same logical put executed twice, resurrecting an
// overwritten value into a read (a genuine linearizability violation).
// Fixed by minting one op_id per logical operation and deduplicating in the
// state machine. These schedules must stay linearizable forever.
TEST(FuzzConsistencyTest, PaxosRetryDuplicateRegressionCorpus) {
  const uint64_t kCorpus[] = {37, 78, 112, 123, 129, 142, 172};
  for (uint64_t seed : kCorpus) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kPaxos, seed));
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why))
        << "paxos regression seed " << seed << ": " << why << "\n"
        << report.Summary();
    EXPECT_TRUE(report.lin_checked);
    EXPECT_GT(report.lin_ops, 0u);
  }
}

// Strict quorums (R+W>N) must deliver all four session guarantees under
// every schedule, and the runs must actually exercise the checker.
TEST(FuzzConsistencyTest, StrictQuorumKeepsSessionGuarantees) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kQuorumStrict, seed));
    ASSERT_TRUE(report.sess_checked);
    EXPECT_TRUE(report.session.ok())
        << "seed " << seed << ": " << report.session.ToString();
    EXPECT_GT(report.writes_acked + report.reads_ok, 0u);
  }
}

// The negative control: R=W=1 sloppy quorums do NOT provide session
// guarantees, and the checkers must catch a real recorded anomaly on at
// least one seed — otherwise the whole suite could be passing vacuously.
// We scan until the first anomalous seed rather than pinning one, so the
// test is robust to tiny platform-dependent floating-point differences in
// the random schedules.
TEST(FuzzConsistencyTest, WeakQuorumExhibitsSessionAnomalies) {
  bool found_anomaly = false;
  uint64_t anomalous_seed = 0;
  for (uint64_t seed = 1; seed <= 200 && !found_anomaly; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kQuorumWeak, seed));
    std::string why;
    // Even anomalous runs must meet the weak store's (weaker) claims:
    // convergence + no lost acked writes.
    ASSERT_TRUE(report.MeetsClaims(&why)) << "seed " << seed << ": " << why;
    if (report.session.total() > 0) {
      found_anomaly = true;
      anomalous_seed = seed;
    }
  }
  EXPECT_TRUE(found_anomaly)
      << "no session anomaly in 200 weak-quorum seeds: the session checker "
         "may have gone vacuous";
  if (found_anomaly) {
    // And the anomaly replays deterministically.
    const FuzzReport again = RunFuzzSeed(
        DefaultFuzzOptions(FuzzStore::kQuorumWeak, anomalous_seed));
    EXPECT_GT(again.session.total(), 0u);
  }
}

// Replaying a seed produces a bit-identical report — the property that
// makes `evc_fuzz --store=X --seed=N` a usable repro command.
TEST(FuzzConsistencyTest, ReplayIsBitIdentical) {
  for (FuzzStore store :
       {FuzzStore::kPaxos, FuzzStore::kQuorumWeak, FuzzStore::kCausal}) {
    const FuzzReport a = RunFuzzSeed(DefaultFuzzOptions(store, 11));
    const FuzzReport b = RunFuzzSeed(DefaultFuzzOptions(store, 11));
    EXPECT_EQ(a.Summary(), b.Summary()) << ToString(store);
  }
}

// Timeline consistency: a pinned reader never observes a fork (two values
// for one (key, seqno)) and reads monotonically, on every seed.
TEST(FuzzConsistencyTest, TimelineNeverForks) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kTimeline, seed));
    ASSERT_TRUE(report.fork_checked);
    EXPECT_EQ(report.fork_violations, 0u) << "seed " << seed;
    EXPECT_TRUE(report.session.ok())
        << "seed " << seed << ": " << report.session.ToString();
  }
}

// Causal store: dependency-annotated history passes the causal checker on
// every seed, faults or not.
TEST(FuzzConsistencyTest, CausalStoreStaysCausal) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport report =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kCausal, seed));
    ASSERT_TRUE(report.causal_checked);
    EXPECT_TRUE(report.causal.ok())
        << "seed " << seed << ": " << report.causal.ToString();
  }
}

// CRDTs converge under every schedule and the g-counter's converged value
// equals the number of acked increments.
TEST(FuzzConsistencyTest, CrdtsConvergeToCorrectValues) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport counter =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kGCounter, seed));
    ASSERT_TRUE(counter.conv_checked);
    EXPECT_TRUE(counter.convergence.ok())
        << "gcounter seed " << seed << ": " << counter.convergence.ToString();
    EXPECT_TRUE(counter.crdt_value_ok) << "gcounter seed " << seed;

    const FuzzReport orset =
        RunFuzzSeed(DefaultFuzzOptions(FuzzStore::kOrSet, seed));
    ASSERT_TRUE(orset.conv_checked);
    EXPECT_TRUE(orset.convergence.ok())
        << "orset seed " << seed << ": " << orset.convergence.ToString();
  }
}

// Amnesia crashes on: nemesis crashes now really drop volatile state and
// restarts replay each store's journal. Every store must STILL meet the
// claims of its consistency level — durability is part of the contract.
TEST(FuzzConsistencyTest, AllStoresMeetClaimsUnderAmnesiaCrashes) {
  for (FuzzStore store : AllFuzzStores()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      FuzzOptions options = DefaultFuzzOptions(store, seed);
      options.amnesia = true;
      const FuzzReport report = RunFuzzSeed(options);
      std::string why;
      EXPECT_TRUE(report.MeetsClaims(&why))
          << ToString(store) << " amnesia seed " << seed << ": " << why
          << "\n"
          << report.Summary();
    }
  }
}

// Crash-heavy amnesia schedules (the CI smoke profile): faster fault
// cadence, crashes and partitions only.
TEST(FuzzConsistencyTest, CrashHeavyAmnesiaSchedulesHoldClaims) {
  for (FuzzStore store : AllFuzzStores()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      FuzzOptions options = DefaultFuzzOptions(store, seed);
      options.amnesia = true;
      options.nemesis.allow_loss = false;
      options.nemesis.allow_duplication = false;
      options.nemesis.mean_fault_interval = sim::kSecond;
      const FuzzReport report = RunFuzzSeed(options);
      std::string why;
      EXPECT_TRUE(report.MeetsClaims(&why))
          << ToString(store) << " crash-heavy seed " << seed << ": " << why
          << "\n"
          << report.Summary();
    }
  }
}

// Amnesia runs replay bit-identically too (crash/recovery is part of the
// deterministic event stream, not a side channel).
TEST(FuzzConsistencyTest, AmnesiaReplayIsBitIdentical) {
  for (FuzzStore store : AllFuzzStores()) {
    FuzzOptions options = DefaultFuzzOptions(store, 11);
    options.amnesia = true;
    const FuzzReport a = RunFuzzSeed(options);
    const FuzzReport b = RunFuzzSeed(options);
    EXPECT_EQ(a.Summary(), b.Summary()) << ToString(store);
  }
}

// Hinted-handoff ledger invariant (documented in quorum_store.h): every
// stored hint is eventually delivered, lost to an amnesia crash, or still
// pending — there is no fourth bucket for hints to silently leak into. A
// 10-seed gray+crash sweep (slow/flaky links and slow nodes keep handoff
// targets half-dead, amnesia crashes destroy undelivered hints) pins the
// accounting the resilience benches report.
TEST(FuzzConsistencyTest, HintLedgerBalancesUnderGrayAndCrashFaults) {
  uint64_t total_stored = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kQuorumWeak, seed);
    options.amnesia = true;
    options.nemesis.allow_loss = false;
    options.nemesis.allow_duplication = false;
    options.nemesis.allow_slow_links = true;
    options.nemesis.allow_flaky_links = true;
    options.nemesis.allow_slow_nodes = true;
    options.nemesis.mean_fault_interval = sim::kSecond;
    const FuzzReport report = RunFuzzSeed(options);
    EXPECT_EQ(report.hints_stored, report.hints_delivered +
                                       report.hints_lost +
                                       report.hints_pending)
        << "seed " << seed << ": stored=" << report.hints_stored
        << " delivered=" << report.hints_delivered
        << " lost=" << report.hints_lost
        << " pending=" << report.hints_pending;
    total_stored += report.hints_stored;
  }
  // The sweep must actually exercise hinted handoff, or the ledger check
  // above is vacuous.
  EXPECT_GT(total_stored, 0u);
}

// Satellite regression: the ledger must stay exact when the hint's TARGET
// leaves the membership mid-run. A hint addressed to a departed node used to
// pend forever (delivery retried against a node that would never answer);
// now an epoch commit redirects it to the key's new owner, so after
// quiescence the pending bucket must be EMPTY — delivered, lost, or
// redirected-and-delivered are the only terminal states. The elastic
// schedule (live adds/removes + rolling restarts + gray links) is exactly
// the one that used to leak.
TEST(FuzzConsistencyTest, HintLedgerBalancesAcrossMembershipChanges) {
  uint64_t total_stored = 0;
  uint64_t total_epochs = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kQuorumElastic, seed);
    // Sloppy quorums so rolling restarts actually divert writes and store
    // hints; strict mode stores hints only on rare cross-epoch failures.
    options.elastic_sloppy = true;
    options.nemesis.mean_fault_interval = sim::kSecond;
    const FuzzReport report = RunFuzzSeed(options);
    EXPECT_EQ(report.hints_stored, report.hints_delivered +
                                       report.hints_lost +
                                       report.hints_pending)
        << "seed " << seed << ": stored=" << report.hints_stored
        << " delivered=" << report.hints_delivered
        << " lost=" << report.hints_lost
        << " pending=" << report.hints_pending;
    EXPECT_EQ(report.hints_pending, 0u)
        << "seed " << seed << ": hints still pending after quiescence — "
        << "a departed-node hint was parked instead of redirected";
    total_stored += report.hints_stored;
    total_epochs += report.epochs_committed;
  }
  // Non-vacuity: the sweep must actually reconfigure and actually store
  // hints, or the checks above prove nothing.
  EXPECT_GT(total_epochs, 0u);
  EXPECT_GT(total_stored, 0u);
}

// Elastic runs replay bit-identically down to the exported metrics on every
// seed: live joins, migration streams, epoch fences and hint redirects are
// all part of the deterministic event stream, so a failing elastic schedule
// is a usable repro command (`evc_fuzz --store=quorum-elastic --seed=N`).
// The same sweep doubles as the claims check across the reconfiguration
// boundary: convergence and all four session guarantees must hold on every
// seed even while membership churns.
TEST(FuzzConsistencyTest, ElasticReplayIsBitIdenticalAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::string metrics_a;
    std::string metrics_b;
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kQuorumElastic, seed);
    options.capture_metrics_json = &metrics_a;
    const FuzzReport a = RunFuzzSeed(options);
    options.capture_metrics_json = &metrics_b;
    const FuzzReport b = RunFuzzSeed(options);
    EXPECT_EQ(a.Summary(), b.Summary()) << "seed " << seed;
    EXPECT_EQ(metrics_a, metrics_b) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(a.MeetsClaims(&why))
        << "elastic seed " << seed << ": " << why << "\n" << a.Summary();
  }
}

// Edge cache: all four session guarantees hold THROUGH the cache under the
// edge-cache profile's crash + gray interleavings, and the runs really do
// serve reads from cached leases (non-vacuity).
TEST(FuzzConsistencyTest, EdgeCacheKeepsGuaranteesUnderCrashAndGrayFaults) {
  uint64_t total_hits = 0;
  uint64_t total_revokes = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzOptions options = DefaultFuzzOptions(FuzzStore::kEdgeCache, seed);
    // The edge-cache profile (tools/evc_fuzz --profile=edge-cache).
    options.amnesia = true;
    options.nemesis.allow_partitions = false;
    options.nemesis.allow_loss = false;
    options.nemesis.allow_duplication = false;
    options.nemesis.allow_slow_links = true;
    options.nemesis.allow_flaky_links = true;
    options.nemesis.allow_slow_nodes = true;
    options.nemesis.mean_fault_interval = sim::kSecond;
    const FuzzReport report = RunFuzzSeed(options);
    std::string why;
    EXPECT_TRUE(report.MeetsClaims(&why))
        << "edge-cache seed " << seed << ": " << why << "\n"
        << report.Summary();
    ASSERT_TRUE(report.sess_checked);
    EXPECT_TRUE(report.session.ok())
        << "seed " << seed << ": " << report.session.ToString();
    EXPECT_EQ(report.session.cached_read_violations, 0u) << "seed " << seed;
    total_hits += report.cache_hits;
    total_revokes += report.cache_revokes_sent;
  }
  EXPECT_GT(total_hits, 0u) << "no run served a read from cache";
  EXPECT_GT(total_revokes, 0u) << "no run exercised revoke-on-write";
}

// Golden pin for the whole harness: every store, seeds 1-3, under the
// default schedule and each option variant the CLI profiles and sweeps use.
// Each run's Summary(), metrics JSON and trace CSV fold into one hash per
// store, so any change to a runner's draws, event order, recorded history or
// checker wiring shows up here. A refactor of fuzz.cc must leave these
// values alone; a deliberate behaviour change re-pins them and says why.
TEST(FuzzConsistencyTest, GoldenOutputsPinnedAcrossOptionVariants) {
  struct Variant {
    const char* name;
    void (*apply)(FuzzOptions*);
  };
  const Variant kVariants[] = {
      {"default", [](FuzzOptions*) {}},
      {"amnesia-crash-heavy",
       [](FuzzOptions* o) {
         o->amnesia = true;
         o->nemesis.allow_loss = false;
         o->nemesis.allow_duplication = false;
         o->nemesis.mean_fault_interval = sim::kSecond;
       }},
      {"gray-heavy",
       [](FuzzOptions* o) {
         o->nemesis.allow_partitions = false;
         o->nemesis.allow_loss = false;
         o->nemesis.allow_duplication = false;
         o->nemesis.allow_slow_links = true;
         o->nemesis.allow_flaky_links = true;
         o->nemesis.allow_slow_nodes = true;
         o->nemesis.mean_fault_interval = sim::kSecond;
       }},
      {"edge-cache",
       [](FuzzOptions* o) {
         o->amnesia = true;
         o->nemesis.allow_partitions = false;
         o->nemesis.allow_loss = false;
         o->nemesis.allow_duplication = false;
         o->nemesis.allow_slow_links = true;
         o->nemesis.allow_flaky_links = true;
         o->nemesis.allow_slow_nodes = true;
         o->nemesis.mean_fault_interval = sim::kSecond;
       }},
      {"overload",
       [](FuzzOptions* o) {
         o->overload = true;
         o->nemesis.allow_load_spikes = true;
         o->nemesis.allow_partitions = false;
         o->nemesis.allow_crashes = false;
         o->nemesis.allow_loss = false;
         o->nemesis.allow_duplication = false;
         o->nemesis.mean_fault_interval = 2 * sim::kSecond;
       }},
      {"oracle-detector",
       [](FuzzOptions* o) { o->use_oracle_detector = true; }},
      {"elastic-sloppy", [](FuzzOptions* o) { o->elastic_sloppy = true; }},
  };
  const std::pair<FuzzStore, uint64_t> kGolden[] = {
      {FuzzStore::kPaxos, 0xa76d55a39395d789ULL},
      {FuzzStore::kQuorumStrict, 0xc71388ffb7c76162ULL},
      {FuzzStore::kQuorumWeak, 0xbc6ede0938355c08ULL},
      {FuzzStore::kTimeline, 0x8742f2658e419f4bULL},
      {FuzzStore::kCausal, 0x93f88fa1d9a52116ULL},
      {FuzzStore::kGCounter, 0x85eae17a96662f01ULL},
      {FuzzStore::kOrSet, 0x740e469e0901fe66ULL},
      {FuzzStore::kEdgeCache, 0xe6edfeb1d85aa688ULL},
      {FuzzStore::kQuorumElastic, 0x0fd1539e4289c3a8ULL},
  };
  for (const auto& [store, golden] : kGolden) {
    Fnv1a64Stream hash;
    std::string runs;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (const Variant& variant : kVariants) {
        std::string metrics;
        std::string trace;
        FuzzOptions options = DefaultFuzzOptions(store, seed);
        variant.apply(&options);
        options.capture_metrics_json = &metrics;
        options.capture_trace_csv = &trace;
        std::string summary = RunFuzzSeed(options).Summary();
        for (const std::string* part : {&summary, &metrics, &trace}) {
          hash.Bytes(*part);
          hash.Byte(0);
        }
        runs += std::string(variant.name) + ": " + summary + "\n";
      }
    }
    EXPECT_EQ(hash.value(), golden)
        << ToString(store) << " outputs changed; got 0x" << std::hex
        << hash.value() << std::dec << ". Per-run summaries:\n"
        << runs;
  }
}

// The store-name round trip the replay CLI depends on.
TEST(FuzzConsistencyTest, StoreNamesRoundTrip) {
  for (FuzzStore store : AllFuzzStores()) {
    FuzzStore parsed;
    ASSERT_TRUE(ParseFuzzStore(ToString(store), &parsed)) << ToString(store);
    EXPECT_EQ(parsed, store);
  }
  FuzzStore ignored;
  EXPECT_FALSE(ParseFuzzStore("no-such-store", &ignored));
}

}  // namespace
}  // namespace evc::verify
