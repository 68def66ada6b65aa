// evc-perf: exact per-layer work counts, derived from counter deltas.

#ifndef EVC_PERFBENCH_COUNTS_H_
#define EVC_PERFBENCH_COUNTS_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace evc::perf {

/// Counter name -> value. Holds the simulator's merged obs counters plus a
/// few values read from other public accessors under these names:
/// "sim.events", "net.sent", "net.dropped", "rpc.calls", "obs.spans".
using Counts = std::map<std::string, uint64_t>;

/// Merged (global + every node) counter values of `metrics`.
Counts MergedCounters(const obs::Metrics& metrics);
/// after - before, per name.
Counts Delta(const Counts& after, const Counts& before);
/// Registered counters + histograms over the global and node registries.
uint64_t InstrumentCount(const obs::Metrics& metrics);

/// Fills the count-derived per-layer metrics from a delta over `ops`
/// simulated client ops of which `ops_ok` succeeded and `writes` wrote.
void AddCountMetrics(const Counts& d, uint64_t ops, uint64_t ops_ok,
                     uint64_t writes, std::map<std::string, double>* layer);

}  // namespace evc::perf

#endif  // EVC_PERFBENCH_COUNTS_H_
