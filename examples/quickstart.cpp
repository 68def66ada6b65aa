// Quickstart: the consistency dial.
//
// Builds the same geo-replicated key-value store at five consistency levels
// and issues the same little workload against each, printing what each
// level costs (latency from the client's local datacenter) and what it
// gives you. This is the 5-minute tour of the library's central API,
// evc::core::ReplicatedStore.
//
//   $ ./examples/quickstart
//
// Exits 1 if any operation fails or does not complete.

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/replicated_store.h"

using evc::core::ConsistencyLevel;
using evc::core::ConsistencyLevelToString;
using evc::core::ReplicatedStore;
using evc::core::StoreOptions;
using evc::sim::kMillisecond;
using evc::sim::kSecond;

namespace {

// Returns false if any operation failed or did not complete.
bool RunLevel(ConsistencyLevel level) {
  StoreOptions options;
  options.level = level;
  options.datacenters = 3;  // US-East, EU, Asia
  options.seed = 2026;
  ReplicatedStore store(options);

  // One client in Europe (DC 1), far from any US-East primary/leader.
  const evc::sim::NodeId client = store.AddClient(1);

  // A tiny read-your-own-profile workload.
  bool all_completed = true;
  for (int i = 0; i < 20; ++i) {
    const std::string key = "profile:" + std::to_string(i % 5);
    bool put_done = false;
    store.Put(client, key, "displayName=Ada,location=EU",
              [&](evc::Status s) {
                put_done = true;
                if (!s.ok()) {
                  std::printf("    put failed: %s\n", s.ToString().c_str());
                }
              });
    store.RunFor(5 * kSecond);
    if (!put_done) {
      std::printf("    put did not complete!\n");
      all_completed = false;
    }

    bool get_done = false;
    store.Get(client, key, [&](evc::Result<std::string>) { get_done = true; });
    store.RunFor(5 * kSecond);
    if (!get_done) {
      std::printf("    get did not complete!\n");
      all_completed = false;
    }
  }

  const uint64_t failures = store.puts_failed() + store.gets_failed();
  std::printf("  %-9s | put p50 %8.2f ms | get p50 %8.2f ms | failures %llu\n",
              ConsistencyLevelToString(level),
              store.put_latency().Percentile(0.5) / kMillisecond,
              store.get_latency().Percentile(0.5) / kMillisecond,
              static_cast<unsigned long long>(failures));
  return all_completed && failures == 0;
}

}  // namespace

int main() {
  std::printf(
      "evc quickstart: one API, five consistency levels\n"
      "client in the EU datacenter; 3 geo-replicated datacenters\n\n");
  std::printf("  level     | write latency      | read latency       |\n");
  std::printf("  ----------+--------------------+--------------------+\n");
  bool ok = true;
  for (ConsistencyLevel level :
       {ConsistencyLevel::kEventual, ConsistencyLevel::kQuorum,
        ConsistencyLevel::kCausal, ConsistencyLevel::kTimeline,
        ConsistencyLevel::kStrong}) {
    ok &= RunLevel(level);
  }
  std::printf(
      "\nReading the table: eventual and causal complete in the local DC;\n"
      "quorum pays a WAN round trip; timeline writes go to the record's\n"
      "master; strong (Paxos) pays a consensus round from the leader's DC.\n"
      "That spread IS the tutorial's latency/consistency tradeoff.\n");
  return ok ? 0 : 1;
}
