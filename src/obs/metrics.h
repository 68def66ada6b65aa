// Sim-time metrics: label-free counters, gauges, and latency histograms.
//
// One MetricsRegistry per scope (the Simulator owns a global registry plus
// one registry per node, see Metrics). Registration is a name lookup in a
// std::map returning a stable reference, and iteration order is the name
// order, so exports are deterministic. A component counts each event once,
// through a Tally: its own count and the registry counter of the same name
// move together; the counter is created on the Tally's first Inc and kept
// as a handle from then on. Values are driven entirely by virtual time and
// seeded randomness: two same-seed runs export byte-identical JSON (pinned
// by obs_export_test).
//
// Layering: obs sits below sim (sim/simulator.h owns an obs::Metrics), so
// this header must not include anything from sim/. Node ids and times are
// the same plain integers sim uses.

#ifndef EVC_OBS_METRICS_H_
#define EVC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"

namespace evc::obs {

/// Monotonic event count (messages sent, retries, dedup hits, ...).
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time level (pending hints, buffered writes, ...). Merging across
/// nodes sums, which is the right semantic for per-node occupancy levels.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// A flat namespace of counters, gauges, and histograms for one scope.
class MetricsRegistry {
 public:
  /// Returns the named instrument, creating it on first use. References are
  /// stable for the registry's lifetime (map nodes never move); components
  /// count events through a Tally, which keeps the counter as a handle.
  Counter& CounterFor(const std::string& name) { return counters_[name]; }
  Gauge& GaugeFor(const std::string& name) { return gauges_[name]; }
  Histogram& HistogramFor(const std::string& name) { return histograms_[name]; }

  /// Accumulates `other` into this registry: counters and gauges add,
  /// histograms merge bucket-wise. Used to collapse per-node registries
  /// into one cluster-wide view at export time.
  void MergeFrom(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Deterministic (name-ordered) iteration for exporters.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// A component-owned event count that also feeds the registry counter of
/// the same name. Components keep Tallies in their *Stats structs, so
/// stats() readers see the component's own count while the registry counter
/// sums every Tally of that name feeding it (one per ResilientRpc instance,
/// say). A Tally feeds one registry: the one its first Inc names.
class Tally {
 public:
  /// A null `name` counts only here and never touches a registry.
  Tally() = default;
  explicit Tally(const char* name) : name_(name) {}

  /// Adds `delta` here and to `reg`'s counter of this Tally's name. The
  /// first call creates that counter even when `delta` is 0, so
  /// `Inc(reg, 0)` makes the instrument exist (at 0) without counting.
  void Inc(MetricsRegistry& reg, uint64_t delta = 1) {
    value_ += delta;
    if (name_ == nullptr) return;
    if (counter_ == nullptr) counter_ = &reg.CounterFor(name_);
    counter_->Inc(delta);
  }

  /// Read-only view, so stats() readers use a Tally as the count it holds.
  operator uint64_t() const { return value_; }

 private:
  const char* name_ = nullptr;
  uint64_t value_ = 0;
  Counter* counter_ = nullptr;  ///< in the bound registry; null until bound
};

/// The simulation-wide metrics hub: one global registry for cluster-level
/// instruments plus a lazily grown registry per node.
class Metrics {
 public:
  MetricsRegistry& global() { return global_; }
  const MetricsRegistry& global() const { return global_; }

  /// Registry for `node`, created on first use.
  MetricsRegistry& node(uint32_t node);
  /// Read-only view; nullptr if the node never recorded anything.
  const MetricsRegistry* node_if(uint32_t node) const;
  /// One past the highest node id that has a registry.
  size_t node_limit() const { return nodes_.size(); }

  /// Global registry plus every node registry merged into one.
  MetricsRegistry Merged() const;

 private:
  MetricsRegistry global_;
  std::vector<std::unique_ptr<MetricsRegistry>> nodes_;
};

}  // namespace evc::obs

#endif  // EVC_OBS_METRICS_H_
