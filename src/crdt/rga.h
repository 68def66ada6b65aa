// Replicated Growable Array (RGA): a sequence CRDT for collaborative
// editing. Each element has a globally unique id ordered by (timestamp,
// replica); concurrent inserts at the same position order deterministically
// by id, deletes tombstone. All replicas that apply the same set of
// operations converge to the same sequence regardless of delivery order
// (subject to causal readiness: an insert's reference must exist first).

#ifndef EVC_CRDT_RGA_H_
#define EVC_CRDT_RGA_H_

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace evc::crdt {

/// Unique element id; (0,0) denotes the virtual head (insert-at-front).
struct RgaId {
  uint64_t timestamp = 0;
  uint32_t replica = 0;

  auto operator<=>(const RgaId&) const = default;
  bool IsHead() const { return timestamp == 0 && replica == 0; }
  std::string ToString() const {
    return std::to_string(timestamp) + "@" + std::to_string(replica);
  }
};

inline constexpr RgaId kRgaHead{};

/// A replicable RGA operation.
struct RgaOp {
  enum class Type { kInsert, kDelete };
  Type type = Type::kInsert;
  RgaId id;           ///< the element this op creates / deletes
  RgaId ref;          ///< insert: predecessor element (or head)
  std::string value;  ///< insert payload
};

/// One replica of the sequence.
class Rga {
 public:
  explicit Rga(uint32_t replica_id) : replica_id_(replica_id) {}

  /// Inserts `value` immediately after element `ref` (kRgaHead for front).
  /// Returns the new element's id. Aborts if `ref` is unknown (caller bug).
  RgaId InsertAfter(RgaId ref, std::string value);

  /// Convenience: appends at the end of the live sequence.
  RgaId PushBack(std::string value);

  /// Tombstones the element. Returns false if the id is unknown.
  bool Erase(RgaId id);

  /// True if the element exists and is live.
  bool Contains(RgaId id) const;

  /// Live values concatenated (for text editing tests).
  std::string Text() const;
  /// Id of the i-th live element.
  Result<RgaId> IdAt(size_t index) const;

  size_t live_size() const;
  size_t node_count() const { return nodes_.size(); }  // includes tombstones

  /// All operations this replica has generated or applied, in application
  /// order (exchange these to replicate).
  const std::vector<RgaOp>& Log() const { return log_; }

  /// Applies a remote op. Returns false if not yet causally ready (insert
  /// ref unknown / delete target unknown); the caller requeues. Duplicate
  /// ops are ignored (returns true).
  bool ApplyRemote(const RgaOp& op);

  /// Replays everything from `other`'s log until quiescent.
  void MergeFrom(const Rga& other);

 private:
  struct Node {
    RgaId id;
    std::string value;
    bool tombstone = false;
  };

  /// RGA integration: inserts the node after `ref`, skipping any sibling
  /// nodes (same ref) with larger id so that all replicas order concurrent
  /// inserts identically.
  void Integrate(const RgaOp& op);
  int FindIndex(RgaId id) const;

  uint32_t replica_id_;
  uint64_t clock_ = 0;  // Lamport-style: advanced past every observed id
  std::vector<Node> nodes_;
  std::map<RgaId, bool> known_;  // id -> applied (value true once integrated)
  std::vector<RgaOp> log_;
};

}  // namespace evc::crdt

#endif  // EVC_CRDT_RGA_H_
