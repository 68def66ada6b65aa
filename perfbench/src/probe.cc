#include "probe.h"

#include <algorithm>
#include <vector>

#include "perf.h"

namespace evc::perf {

/// A toy event loop over preallocated arrays: a binary heap of timed
/// events, each dispatched through a table of handlers that look up an
/// open-addressed hash table and update a per-key ring of versions, then
/// schedule a successor. It never allocates after construction and its
/// state stays the same size, so every step does the same work on the same
/// memory footprint, whatever the reps around it did to the heap.
struct HostProbe::Loop {
  // About 33 MB in all, past the per-core caches: like the simulator's
  // stores, the probe then waits on the shared cache and memory, which is
  // where other tenants slow the host down.
  static constexpr size_t kKeys = 1 << 18;
  static constexpr size_t kSlots = 1 << 20;  ///< hash table, 2 x 64-bit each
  static constexpr size_t kVersions = 8;     ///< ring per key
  static constexpr size_t kQueued = 256;     ///< events in flight

  struct Event {
    uint64_t at;
    uint64_t key;
  };
  using Handler = void (*)(Loop&, const Event&);

  std::vector<Event> heap;                  ///< min-heap on `at`
  std::vector<uint64_t> slot_key, slot_value;
  std::vector<uint64_t> ring;               ///< kKeys x kVersions
  std::vector<uint32_t> ring_head;
  Handler handlers[4];
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t sum = 0;

  Loop()
      : slot_key(kSlots, 0), slot_value(kSlots, 0),
        ring(kKeys * kVersions, 0), ring_head(kKeys, 0),
        handlers{&Write, &Read, &Read, &Merge} {
    heap.reserve(kQueued);
    for (size_t i = 0; i < kQueued; ++i) Push({Rand() % 1000, Rand() % kKeys});
  }

  uint64_t Rand() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  static uint64_t Mix(uint64_t v) {
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    return v;
  }

  /// Slot of `key` (linear probing; inserts it when absent).
  size_t Find(uint64_t key) {
    const uint64_t tag = key + 1;
    size_t i = Mix(tag) & (kSlots - 1);
    while (slot_key[i] != tag && slot_key[i] != 0) i = (i + 1) & (kSlots - 1);
    slot_key[i] = tag;
    return i;
  }

  static void Write(Loop& l, const Event& e) {
    const size_t s = l.Find(e.key);
    uint32_t& head = l.ring_head[e.key];
    head = (head + 1) % kVersions;
    l.ring[e.key * kVersions + head] = e.at;
    l.slot_value[s] = e.at;
  }
  static void Read(Loop& l, const Event& e) {
    const size_t s = l.Find(e.key);
    const uint64_t* versions = &l.ring[e.key * kVersions];
    const uint64_t newest = *std::max_element(versions, versions + kVersions);
    l.sum += l.slot_value[s] ^ newest;
  }
  static void Merge(Loop& l, const Event& e) {
    const uint64_t other = Mix(e.key ^ e.at) % kKeys;
    uint64_t* a = &l.ring[e.key * kVersions];
    const uint64_t* b = &l.ring[other * kVersions];
    for (size_t v = 0; v < kVersions; ++v) a[v] = std::max(a[v], b[v]);
  }

  void Push(Event e) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), Later);
  }
  static bool Later(const Event& a, const Event& b) { return a.at > b.at; }

  void Run(int events) {
    for (int n = 0; n < events; ++n) {
      std::pop_heap(heap.begin(), heap.end(), Later);
      const Event e = heap.back();
      heap.pop_back();
      handlers[Rand() % 4](*this, e);
      Push({e.at + 1 + Rand() % 50, Rand() % kKeys});
    }
  }
};

HostProbe::HostProbe() : loop_(std::make_unique<Loop>()) {
  loop_->Run(8 * kProbeStepEvents);
  // A first step gives the first stretch its left end.
  last_end_ns_ = WallNs();
  Step();
}

HostProbe::~HostProbe() = default;

void HostProbe::Step() {
  const int64_t t0 = WallNs();
  const auto gap = static_cast<double>(t0 - last_end_ns_);
  loop_->Run(kProbeStepEvents);
  last_end_ns_ = WallNs();
  const auto ns = static_cast<double>(last_end_ns_ - t0);
  spent_ns_ += last_end_ns_ - t0;
  // The stretch since the last step ran at the mean of the two steps'
  // speeds (the trapezoid rule).
  mark_.weighted_ns += (last_step_ns_ + ns) / 2 * gap;
  mark_.weight_ns += gap;
  last_step_ns_ = ns;
}

double HostProbe::SlowdownSince(const Mark& since) const {
  const double weight = mark_.weight_ns - since.weight_ns;
  if (weight <= 0) return 1;
  const double step_ns = (mark_.weighted_ns - since.weighted_ns) / weight;
  return step_ns / kProbeStepEvents / kProbeRefNsPerEvent;
}

void HostProbe::Tick() {
  if (WallNs() - last_end_ns_ >= kProbeEveryNs) Step();
}

}  // namespace evc::perf
