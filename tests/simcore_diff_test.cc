// Differential harness for the two event-scheduler implementations.
//
// The calendar queue (sim/calendar_queue.h) replaced the seed's binary-heap
// scheduler on the simulator hot path; the seed scheduler survives behind
// SchedulerKind::kLegacyHeap precisely so this test can exist. For a sweep
// of fuzz seeds spanning every store and its nemesis fault schedule, the
// same (store, seed) run executes under both schedulers and must produce:
//
//   * the identical FuzzReport summary line (op counts, fault counts,
//     checker verdicts), and
//   * byte-identical metric and trace exports (obs/export.h) — the
//     strongest observable-equivalence statement the repo can make short of
//     diffing event streams, since every counter increment, histogram
//     sample, and span open/close is sequenced by the scheduler.
//
// Any ordering divergence between the schedulers — a same-time FIFO break, a
// cancelled event sneaking through, a cursor skipping a bucket — lands in
// these exports as a different latency sample or span tree and fails the
// byte comparison.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "verify/fuzz.h"

namespace evc::verify {
namespace {

struct RunExports {
  std::string summary;
  std::string metrics_json;
  std::string trace_csv;
};

RunExports RunUnder(FuzzStore store, uint64_t seed, sim::SchedulerKind kind) {
  FuzzOptions o = DefaultFuzzOptions(store, seed);
  o.scheduler = kind;
  RunExports out;
  o.capture_metrics_json = &out.metrics_json;
  o.capture_trace_csv = &out.trace_csv;
  out.summary = RunFuzzSeed(o).Summary();
  return out;
}

void ExpectIdenticalRuns(FuzzStore store, uint64_t seed) {
  const RunExports cal = RunUnder(store, seed, sim::SchedulerKind::kCalendar);
  const RunExports heap =
      RunUnder(store, seed, sim::SchedulerKind::kLegacyHeap);
  ASSERT_FALSE(cal.metrics_json.empty());
  ASSERT_FALSE(heap.metrics_json.empty());
  EXPECT_EQ(cal.summary, heap.summary)
      << ToString(store) << " seed " << seed;
  EXPECT_EQ(cal.metrics_json, heap.metrics_json)
      << ToString(store) << " seed " << seed << ": metric exports diverged";
  EXPECT_EQ(cal.trace_csv, heap.trace_csv)
      << ToString(store) << " seed " << seed << ": trace exports diverged";
}

// 27 seeds, spread across all nine stores so every protocol layer's event
// pattern (RPC timeout churn, gossip fan-out, primary failover, CRDT
// broadcast, lease revoke fan-out, membership reconfiguration) and every
// nemesis profile runs under both schedulers. Paxos gets one seed (its runs
// are the slowest) and the elastic quorum two: 27 total.
TEST(SimcoreDiffTest, TwentyFiveSeedsByteIdenticalAcrossSchedulers) {
  struct Case {
    FuzzStore store;
    uint64_t seeds;
  };
  const Case plan[] = {
      {FuzzStore::kPaxos, 1},        {FuzzStore::kQuorumStrict, 4},
      {FuzzStore::kQuorumWeak, 4},   {FuzzStore::kTimeline, 3},
      {FuzzStore::kCausal, 3},       {FuzzStore::kGCounter, 3},
      {FuzzStore::kOrSet, 3},        {FuzzStore::kEdgeCache, 4},
      {FuzzStore::kQuorumElastic, 2},
  };
  int total = 0;
  for (const Case& c : plan) {
    for (uint64_t seed = 1; seed <= c.seeds; ++seed) {
      ExpectIdenticalRuns(c.store, seed);
      ++total;
    }
  }
  EXPECT_EQ(total, 27);
}

// Amnesia-crash schedules exercise the CrashParticipant notification path
// (WAL replay, volatile-state drops) whose callbacks are themselves
// scheduler-sequenced.
TEST(SimcoreDiffTest, AmnesiaScheduleIsSchedulerInvariant) {
  FuzzOptions base = DefaultFuzzOptions(FuzzStore::kQuorumStrict, 11);
  base.amnesia = true;
  auto run = [&](sim::SchedulerKind kind) {
    FuzzOptions o = base;
    o.scheduler = kind;
    RunExports out;
    o.capture_metrics_json = &out.metrics_json;
    o.capture_trace_csv = &out.trace_csv;
    out.summary = RunFuzzSeed(o).Summary();
    return out;
  };
  const RunExports cal = run(sim::SchedulerKind::kCalendar);
  const RunExports heap = run(sim::SchedulerKind::kLegacyHeap);
  EXPECT_EQ(cal.summary, heap.summary);
  EXPECT_EQ(cal.metrics_json, heap.metrics_json);
  EXPECT_EQ(cal.trace_csv, heap.trace_csv);
}

// Sanity for the harness itself: the capture hooks really capture, and two
// same-scheduler runs of one seed are byte-identical (the determinism
// baseline that makes the cross-scheduler comparison meaningful).
TEST(SimcoreDiffTest, SameSchedulerRerunsAreByteIdentical) {
  const RunExports a =
      RunUnder(FuzzStore::kCausal, 3, sim::SchedulerKind::kCalendar);
  const RunExports b =
      RunUnder(FuzzStore::kCausal, 3, sim::SchedulerKind::kCalendar);
  ASSERT_FALSE(a.metrics_json.empty());
  ASSERT_FALSE(a.trace_csv.empty());
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_csv, b.trace_csv);
}

}  // namespace
}  // namespace evc::verify
