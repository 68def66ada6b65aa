// evc-perf workloads. Each function runs one deterministic rep for `seed`
// and returns its timings, exact counts, fingerprint and gate verdict.
// With a non-null `probe`, a rep ticks it between its slices of work and
// leaves the steps' time out of its wall times.

#ifndef EVC_PERFBENCH_WORKLOADS_H_
#define EVC_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perf.h"
#include "probe.h"

namespace evc::perf {

/// Strict Dynamo quorum (N=3 R=2 W=2, read repair, anti-entropy) on five
/// admission-gated servers; open-loop YCSB-A sessions; one server crashes
/// and restarts mid-window.
///
/// `plant_stale_read` appends to the recorded history, before it is
/// checked, an acked write and a later read by the same session that misses
/// it: the gate must then report a violation.
RepResult RunQuorumYcsbA(uint64_t seed, bool plant_stale_read, SpanLog* spans,
                         HostProbe* probe);

/// Lease-based edge caches over the timeline store, no faults; open-loop
/// YCSB-B sessions over a hot set that fits the caches.
RepResult RunEdgeYcsbB(uint64_t seed, bool plant_stale_read, SpanLog* spans,
                       HostProbe* probe);

/// Seeds [seed, seed + kFuzzSeedsPerPass) through verify::RunFuzzSeed for
/// all nine stores with their default options. `capture` also exports each
/// run's metrics, adding exact per-layer counts and the virtual RPC latency
/// to the result.
RepResult RunFuzzSweep(uint64_t seed, bool capture, SpanLog* spans,
                       HostProbe* probe);
constexpr int kFuzzSeedsPerPass = 20;

/// fuzz-sweep's set-up: building, then destroying, the stack a fuzz run of
/// the strict quorum store constructs (simulator, network, RPC, five
/// DynamoCluster servers, anti-entropy). Returns seconds.
double FuzzStackSetupSeconds(uint64_t seed);

}  // namespace evc::perf

#endif  // EVC_PERFBENCH_WORKLOADS_H_
