// evc-perf host-speed probe.
//
// The benchmark runs on shared hosts whose speed drifts by a third or more
// within seconds to minutes (other tenants' load on the same cores, caches
// and memory), far more than the changes it must detect. The probe is a
// fixed stream of simulator-shaped work, written here and independent of
// src/: a binary heap of timed events dispatched through a handler table
// onto a hash table and per-key version rings, in preallocated memory. A
// rep runs a short step of it about every kProbeEveryNs of wall time, so
// probe and rep see the same host. The rep's wall times, without the
// steps, are then rescaled by how much slower than its reference speed the
// probe ran during the rep: each stretch of the rep between two steps at
// the mean of their speeds, weighted by its length. A change to src/ moves
// the rep and not the probe; drift of the host moves both.

#ifndef EVC_PERFBENCH_PROBE_H_
#define EVC_PERFBENCH_PROBE_H_

#include <cstdint>
#include <memory>

namespace evc::perf {

/// Wall ns per probe event at the reference host speed, the speed that
/// "reference seconds" are expressed in: a round figure near the probe's
/// median between reps' work on a 4-vCPU Xeon VM. Only ratios to it matter.
constexpr double kProbeRefNsPerEvent = 360;
/// Wall time between steps inside a rep, and events per step (about 1.5 ms).
constexpr int64_t kProbeEveryNs = 10'000'000;
constexpr int kProbeStepEvents = 4000;

class HostProbe {
 public:
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs one step.
  void Step();
  /// Runs one step if kProbeEveryNs passed since the last one ended.
  void Tick();

  /// Wall time spent in steps so far.
  int64_t spent_ns() const { return spent_ns_; }

  /// Running sums behind SlowdownSince.
  struct Mark {
    double weighted_ns = 0;  ///< sum of stretch x mean time of its 2 steps
    double weight_ns = 0;    ///< sum of stretches between steps
  };
  Mark mark() const { return mark_; }
  /// How much slower than kProbeRefNsPerEvent the host ran over the wall
  /// time between the steps since `since`: each stretch between two steps
  /// at the mean of their times per event, weighted by its length. 1 when
  /// no step ran.
  double SlowdownSince(const Mark& since) const;

 private:
  struct Loop;
  std::unique_ptr<Loop> loop_;
  int64_t last_end_ns_ = 0;
  double last_step_ns_ = 0;
  int64_t spent_ns_ = 0;
  Mark mark_;
};

/// Null-tolerant helpers for the workloads.
inline void ProbeTick(HostProbe* probe) {
  if (probe != nullptr) probe->Tick();
}
inline int64_t ProbeNs(const HostProbe* probe) {
  return probe != nullptr ? probe->spent_ns() : 0;
}

}  // namespace evc::perf

#endif  // EVC_PERFBENCH_PROBE_H_
