// Fig. 1 — The latency/consistency spectrum under geo-replication.
//
// Claim (tutorial): operation latency grows as the consistency guarantee
// strengthens: local-commit protocols (eventual, causal) complete at
// intra-DC latency; quorum protocols pay one WAN round trip; primary-copy
// writes pay the trip to the master; consensus pays a full WAN consensus
// round. The *ratios* (~1-2 orders of magnitude between the ends of the
// dial) are the reproduction target, not absolute numbers. The gated
// metric strong_over_eventual_put_p50 is the fastest strong put p50 over
// the client datacenters divided by the slowest eventual put p50.
//
// Setup: 3-datacenter WAN (US-East, EU, Asia), one storage server per DC,
// a closed-loop YCSB-B client in each DC, 200 ops per (level, client-DC).

#include <algorithm>
#include <cstdio>
#include <limits>

#include "core/replicated_store.h"
#include "harness.h"
#include "workload/workload.h"

using namespace evc;
using core::ConsistencyLevel;
using core::ConsistencyLevelToString;
using core::ReplicatedStore;
using core::StoreOptions;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Row {
  double put_p50, put_p99, get_p50, get_p99;
  uint64_t failures;
};

Row RunCell(ConsistencyLevel level, int client_dc) {
  StoreOptions options;
  options.level = level;
  options.datacenters = 3;
  options.seed = 42 + static_cast<uint64_t>(client_dc);
  ReplicatedStore store(options);
  const sim::NodeId client = store.AddClient(client_dc);

  workload::WorkloadConfig wl = workload::WorkloadConfig::YcsbB();
  wl.record_count = 100;
  wl.value_size = 64;
  workload::WorkloadGenerator gen(wl, 7);

  // Preload a few records so reads hit.
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    store.Put(client, gen.KeyFor(i), "seed", [&](Status) { done = true; });
    store.RunFor(10 * kSecond);
    EVC_CHECK(done);
  }

  for (int i = 0; i < 200; ++i) {
    const workload::Op op = gen.Next();
    bool done = false;
    if (op.type == workload::OpType::kRead) {
      store.Get(client, op.key,
                [&](Result<std::string>) { done = true; });
    } else {
      store.Put(client, op.key, op.value, [&](Status) { done = true; });
    }
    store.RunFor(10 * kSecond);
    EVC_CHECK(done);
  }

  return Row{store.put_latency().Percentile(0.50),
             store.put_latency().Percentile(0.99),
             store.get_latency().Percentile(0.50),
             store.get_latency().Percentile(0.99),
             store.puts_failed() + store.gets_failed()};
}

}  // namespace

int main() {
  bench::Harness harness("fig1_latency_spectrum");
  harness.Note("setup", "3-DC WAN, YCSB-B, 200 ops per (level, client DC)");
  harness.Table("latency", {"level", "client_dc", "put_p50_ms", "put_p99_ms",
                            "get_p50_ms", "get_p99_ms", "failures"});
  std::printf(
      "=== Fig. 1: latency vs consistency level (3-DC WAN, YCSB-B) ===\n");
  std::printf(
      "latencies in ms of virtual time; client closed-loop in its home DC\n\n");
  std::printf(
      "%-9s %-8s | %10s %10s | %10s %10s | %s\n", "level", "clientDC",
      "put p50", "put p99", "get p50", "get p99", "fail");
  std::printf(
      "--------------------+-----------------------+---------------------"
      "--+-----\n");

  const ConsistencyLevel levels[] = {
      ConsistencyLevel::kEventual, ConsistencyLevel::kCausal,
      ConsistencyLevel::kTimeline, ConsistencyLevel::kQuorum,
      ConsistencyLevel::kStrong};
  const char* dc_names[] = {"US-East", "EU", "Asia"};
  double min_strong_put_p50 = std::numeric_limits<double>::infinity();
  double max_eventual_put_p50 = 0;
  for (const ConsistencyLevel level : levels) {
    for (int dc = 0; dc < 3; ++dc) {
      const Row row = RunCell(level, dc);
      if (level == ConsistencyLevel::kStrong) {
        min_strong_put_p50 = std::min(min_strong_put_p50, row.put_p50);
      } else if (level == ConsistencyLevel::kEventual) {
        max_eventual_put_p50 = std::max(max_eventual_put_p50, row.put_p50);
      }
      std::printf("%-9s %-8s | %10.2f %10.2f | %10.2f %10.2f | %llu\n",
                  ConsistencyLevelToString(level), dc_names[dc],
                  row.put_p50 / kMillisecond, row.put_p99 / kMillisecond,
                  row.get_p50 / kMillisecond, row.get_p99 / kMillisecond,
                  static_cast<unsigned long long>(row.failures));
      harness.Row("latency",
                  {obs::Json(ConsistencyLevelToString(level)),
                   obs::Json(dc_names[dc]),
                   obs::Json(row.put_p50 / kMillisecond),
                   obs::Json(row.put_p99 / kMillisecond),
                   obs::Json(row.get_p50 / kMillisecond),
                   obs::Json(row.get_p99 / kMillisecond),
                   obs::Json(row.failures)});
    }
  }
  const double strong_over_eventual = min_strong_put_p50 / max_eventual_put_p50;
  harness.Metric("strong_over_eventual_put_p50", strong_over_eventual);
  EVC_CHECK_OK(harness.Write());
  std::printf("\nstrong/eventual put p50 (fastest strong DC over slowest "
              "eventual DC): %.1fx\n",
              strong_over_eventual);
  std::printf(
      "\nExpected shape: eventual/causal ~ sub-ms to low ms everywhere;\n"
      "quorum ~ one WAN RTT; timeline writes depend on distance to the\n"
      "record master (reads stay local); strong ~ client->leader + one\n"
      "consensus round (worst from DCs far from the leader).\n");
  return 0;
}
