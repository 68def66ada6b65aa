// Pluggable one-way message latency models.
//
// The tutorial's latency/consistency arguments hinge on the gap between
// intra-datacenter RTTs (~1 ms) and inter-datacenter RTTs (tens to hundreds
// of ms). WanMatrixLatency models a multi-datacenter deployment; the simpler
// models support microbenchmarks and the PBS WARS decomposition.

#ifndef EVC_SIM_LATENCY_H_
#define EVC_SIM_LATENCY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace evc::sim {

/// Identifies a simulated process (replica server or client).
using NodeId = uint32_t;

/// Samples a one-way delivery latency for a (from, to) message.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Time Sample(NodeId from, NodeId to, Rng& rng) = 0;
};

/// Fixed latency for every link.
class ConstantLatency : public LatencyModel {
 public:
  explicit ConstantLatency(Time latency) : latency_(latency) {}
  Time Sample(NodeId, NodeId, Rng&) override { return latency_; }

 private:
  Time latency_;
};

/// Uniform in [lo, hi].
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(Time lo, Time hi) : lo_(lo), hi_(hi) {
    EVC_CHECK(lo >= 0 && hi >= lo);
  }
  Time Sample(NodeId, NodeId, Rng& rng) override {
    return rng.NextInRange(lo_, hi_);
  }

 private:
  Time lo_, hi_;
};

/// Multi-datacenter model: nodes are assigned to datacenters; latency is a
/// per-(dc, dc) base plus a jitter fraction sampled exponentially. Same-DC
/// traffic uses the (dc, dc) diagonal (typically ~0.25-0.5 ms one-way).
class WanMatrixLatency : public LatencyModel {
 public:
  /// `base_us[i][j]` is the one-way base latency from DC i to DC j in
  /// microseconds. `jitter_fraction` scales an exponential jitter term:
  /// sample = base * (1 + Exp(jitter_fraction)).
  WanMatrixLatency(std::vector<std::vector<Time>> base_us,
                   double jitter_fraction = 0.05);

  /// Assigns `node` to datacenter `dc`. Every node that sends or receives
  /// traffic MUST be assigned: earlier versions silently defaulted unknown
  /// nodes to DC 0, which gave misconfigured topologies intra-DC latency
  /// instead of failing — DatacenterOf now aborts (EVC_CHECK) on a node
  /// never passed to AssignNode.
  void AssignNode(NodeId node, uint32_t dc);

  /// The datacenter of `node`. Aborts if `node` was never assigned.
  uint32_t DatacenterOf(NodeId node) const;
  /// True if `node` was explicitly assigned to a datacenter.
  bool IsAssigned(NodeId node) const;
  size_t datacenter_count() const { return base_us_.size(); }

  Time Sample(NodeId from, NodeId to, Rng& rng) override;

  /// A standard 5-datacenter topology (US-East, US-West, EU, Asia, AUS) with
  /// one-way latencies derived from public inter-region RTT tables.
  static std::vector<std::vector<Time>> FiveRegionBaseUs();
  /// A 3-datacenter topology (US-East, EU, Asia).
  static std::vector<std::vector<Time>> ThreeRegionBaseUs();

 private:
  static constexpr uint32_t kUnassigned = UINT32_MAX;

  std::vector<std::vector<Time>> base_us_;
  double jitter_fraction_;
  std::vector<uint32_t> node_dc_;  // indexed by NodeId; kUnassigned = never set
};

}  // namespace evc::sim

#endif  // EVC_SIM_LATENCY_H_
