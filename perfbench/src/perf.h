// evc-perf: shared types for the end-to-end benchmark.
//
// A benchmark run repeats one deterministic unit of work (a "rep": a few
// simulated store runs back to back, one per variant seed, or one fuzz-sweep
// pass over a fixed seed window)
// until its time budget is spent. Every rep yields wall-clock timings, a
// determinism fingerprint that must be identical across reps, exact work
// counts read from the layers' public accessors, and the verdict of the
// repo's own checkers on the rep's outputs.

#ifndef EVC_PERFBENCH_PERF_H_
#define EVC_PERFBENCH_PERF_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace evc::perf {

inline int64_t WallNs() {
  // evc-lint: allow(wall-clock) reason=benchmark timing; never sim-visible
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

// ---------------------------------------------------------------------------
// In-memory spans recorded by the benchmark around its calls into a layer.
// ---------------------------------------------------------------------------

enum class Layer : uint8_t {
  kSetup,     ///< stack construction + preload
  kWorkload,  ///< WorkloadGenerator::Next
  kClient,    ///< client API calls (DynamoCluster / EdgeCacheClient)
  kSim,       ///< Simulator::RunFor slices (event loop + store handlers)
  kVerify,    ///< checker calls
  kFuzz,      ///< verify::RunFuzzSeed
  kRep,       ///< one whole rep (parent of everything above)
};
constexpr size_t kLayerCount = 7;
const char* LayerName(Layer layer);

class SpanLog {
 public:
  struct Record {
    const char* name;  ///< static string
    Layer layer;
    int32_t parent;  ///< index into records(), -1 = root
    int64_t start_ns;
    int64_t end_ns;
  };

  /// RAII span; inert when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog* log, Layer layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Record>& records() const { return records_; }

  /// Per layer: total span time minus the part covered by child spans.
  std::array<int64_t, kLayerCount> SelfNs() const;
  /// Total (inclusive) ns and count of spans named `name`.
  void Totals(const std::string& name, int64_t* ns, uint64_t* count) const;
  /// Writes one CSV line per span: index,parent,layer,name,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int32_t> open_;  ///< stack of open span indices
};

// ---------------------------------------------------------------------------
// Determinism fingerprint: named exact values that must repeat per seed.
// ---------------------------------------------------------------------------

class Fingerprint {
 public:
  void Add(const std::string& name, uint64_t value) { fields_[name] = value; }
  void AddDouble(const std::string& name, double value);
  /// Adds every field of `other`, its name prefixed with `prefix`.
  void AddAll(const std::string& prefix, const Fingerprint& other);
  /// Empty when every field both hold is identical, else the first
  /// differing field. (A fuzz pass that also exports metrics adds fields.)
  std::string DiffFrom(const Fingerprint& other) const;

 private:
  std::map<std::string, uint64_t> fields_;
};

/// FNV-1a accumulator for hashing histories and summaries.
class Fnv {
 public:
  void Mix(const void* data, size_t len);
  void Mix(const std::string& s) {
    Mix(s.data(), s.size());
    Mix(uint64_t{0xff});
  }
  void Mix(uint64_t v) { Mix(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// One rep's outcome.
// ---------------------------------------------------------------------------

struct RepResult {
  // Wall clock (vary run to run).
  double setup_s = 0;    ///< stack construction + preload
  double measure_s = 0;  ///< first arrival -> last op completed
  double total_s = 0;    ///< whole rep, including drain and checks
  /// Host slowdown (HostProbe::SlowdownSince) over the whole rep, set by
  /// the driver loop, and over its measured phase, set by the workload (0:
  /// the same). A wall time, with the probe's steps left out, divided by
  /// the slowdown over it is in reference seconds.
  double host_slowdown = 1;
  double measure_slowdown = 0;
  // Exact, deterministic per seed.
  uint64_t ops = 0;      ///< simulated client ops attempted (fuzz: runs)
  uint64_t ops_ok = 0;
  uint64_t client_ops = 0;  ///< simulated client ops (fuzz: inside runs)
  // Virtual latency, from each op's due time.
  double op_p50_ms = 0;
  double op_p99_ms = 0;
  double op_mean_ms = 0;
  uint64_t latency_samples = 0;
  Fingerprint fingerprint;
  /// Count-derived per-layer metrics (exact).
  std::map<std::string, double> layer;
  /// Empty when every claimed property held.
  std::string violation;
};

}  // namespace evc::perf

#endif  // EVC_PERFBENCH_PERF_H_
