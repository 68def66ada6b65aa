// Version vectors / vector clocks.
//
// The core causality-tracking structure of the tutorial's mechanism section:
// a map replica-id -> counter. Two versions are ordered iff one vector
// dominates the other; otherwise they are concurrent (siblings). The same
// structure serves as a vector clock for events (session guarantees, causal
// store) and as a version vector for object versions (multi-value KV).

#ifndef EVC_CLOCK_VERSION_VECTOR_H_
#define EVC_CLOCK_VERSION_VECTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace evc {

/// Result of comparing two version vectors under the causal partial order.
enum class CausalOrder {
  kEqual,       ///< identical vectors
  kBefore,      ///< left strictly happens-before right (right dominates)
  kAfter,       ///< left strictly dominates right
  kConcurrent,  ///< neither dominates: conflicting / concurrent versions
};

/// Map from replica id to update counter. Absent entries are zero. Stored as
/// a flat vector of (replica, counter) pairs sorted by replica with no zero
/// counters: vectors hold a handful of replicas, so a contiguous scan beats a
/// tree, and iteration (and serialization) stays in ascending replica order.
class VersionVector {
 public:
  using Entry = std::pair<uint32_t, uint64_t>;

  VersionVector() = default;

  /// Counter for `replica` (0 if absent).
  uint64_t Get(uint32_t replica) const;

  /// Sets the counter for `replica` (erases the entry when v == 0).
  void Set(uint32_t replica, uint64_t value);

  /// Increments `replica`'s counter and returns the new value.
  uint64_t Increment(uint32_t replica);

  /// Pointwise maximum with `other` (the join of the two histories).
  void MergeWith(const VersionVector& other);

  /// Joined copy.
  static VersionVector Merge(const VersionVector& a, const VersionVector& b);

  /// Compares under the causal partial order.
  CausalOrder Compare(const VersionVector& other) const;

  /// True if this vector has seen everything `other` has (>= pointwise):
  /// i.e. Compare(other) is kEqual or kAfter.
  bool Descends(const VersionVector& other) const;

  /// True if this strictly dominates `other`.
  bool Dominates(const VersionVector& other) const {
    return Compare(other) == CausalOrder::kAfter;
  }

  /// True if the two vectors are concurrent.
  bool ConcurrentWith(const VersionVector& other) const {
    return Compare(other) == CausalOrder::kConcurrent;
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  /// Sum of all counters (total events witnessed); used as a cheap progress
  /// metric in experiments.
  uint64_t TotalEvents() const;

  bool operator==(const VersionVector& other) const {
    return entries_ == other.entries_;
  }
  bool operator!=(const VersionVector& other) const {
    return !(*this == other);
  }

  /// (replica, counter) pairs in ascending replica order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// "{r0:3, r2:1}" rendering for logs and test failure messages.
  std::string ToString() const;

  /// Deterministic binary form (varint count, then (replica, counter) pairs
  /// in ascending replica order).
  void EncodeTo(std::string* dst) const;
  static Result<VersionVector> Decode(std::string_view data);

 private:
  std::vector<Entry> entries_;
};

/// Vector clocks are structurally identical to version vectors; the alias
/// documents intent (event causality vs. object version history).
using VectorClock = VersionVector;

/// A dot: one specific write event (replica, sequence-number).
struct Dot {
  uint32_t replica = 0;
  uint64_t counter = 0;

  auto operator<=>(const Dot&) const = default;
  std::string ToString() const {
    return "(" + std::to_string(replica) + "," + std::to_string(counter) + ")";
  }
};

/// Dotted version vector (Preguiça et al. 2012): a contiguous causal context
/// plus the single dot of the write it tags. Lets a server tag each sibling
/// with exactly one new event while keeping the context compact, fixing the
/// sibling-explosion problem of naive per-client version vectors.
class DottedVersionVector {
 public:
  DottedVersionVector() = default;
  DottedVersionVector(VersionVector context, Dot dot)
      : context_(std::move(context)), dot_(dot), has_dot_(true) {}

  /// The contiguous history below the dot.
  const VersionVector& context() const { return context_; }
  bool has_dot() const { return has_dot_; }
  const Dot& dot() const { return dot_; }

  /// True if `this` (as an event set) contains the event `d`.
  bool Contains(const Dot& d) const;

  /// True if every event of `other` is contained in `this` — i.e. `other`'s
  /// write is causally dominated and may be discarded.
  bool Dominates(const DottedVersionVector& other) const;

  /// Causal comparison of the tagged writes.
  CausalOrder Compare(const DottedVersionVector& other) const;

  /// Flattens dot + context into a plain version vector.
  VersionVector Flatten() const;

  std::string ToString() const;

 private:
  VersionVector context_;
  Dot dot_{};
  bool has_dot_ = false;
};

}  // namespace evc

#endif  // EVC_CLOCK_VERSION_VECTOR_H_
