// Per-replica versioned key-value storage.
//
// Each key holds a set of sibling versions tagged with version vectors, the
// structure beneath Dynamo-style multi-value stores. A configurable conflict
// policy decides what happens when concurrent versions meet:
//   * kSiblings — keep all concurrent versions (clients merge); no update is
//     ever silently lost.
//   * kLastWriterWins — keep only the version with the largest (Lamport)
//     timestamp; concurrent losers are discarded, which is exactly the
//     lost-update anomaly the tutorial warns about (quantified in Fig. 5).
// Deletes are tombstone versions so that removal survives anti-entropy.
//
// Storage is a hash table, so a point operation costs one lookup no matter
// how many keys the replica holds. Each entry caches its key's Fnv1a64 hash
// and its KeyDigest (refreshed only when the sibling set changes), and keys
// are threaded into per-bucket lists so a Merkle-bucket query touches only
// the keys in those buckets. Every ordered consumer (ForEachKey and the
// bucket query) iterates a snapshot sorted by key; hash order never escapes.

#ifndef EVC_STORAGE_VERSIONED_STORE_H_
#define EVC_STORAGE_VERSIONED_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "clock/lamport.h"
#include "clock/version_vector.h"
#include "common/status.h"

namespace evc {

/// One stored version of a key.
struct Version {
  std::string value;
  VersionVector vv;          ///< causal tag of this version
  LamportTimestamp lww_ts;   ///< total-order timestamp for LWW policy
  bool tombstone = false;    ///< true if this version is a delete marker

  /// Deterministic digest of this version (for Merkle sync).
  uint64_t Digest() const;

  /// Binary serialization (WAL records, snapshot transfer).
  void EncodeTo(std::string* dst) const;
  static Result<Version> DecodeFrom(class Decoder* dec);

  std::string ToString() const;
};

/// Order-independent digest of a key's sibling set: the XOR over versions of
/// Mix64(key_hash ^ v.Digest()), 0 for an empty set. `key_hash` is
/// Fnv1a64(key). The one formula behind VersionedStore::KeyDigest and the
/// read-repair comparison of coordinators.
uint64_t SiblingSetDigest(uint64_t key_hash,
                          const std::vector<Version>& versions);

/// Inserts `v` into a sibling set, maintaining the invariant that no version
/// in the set causally dominates another: dominated existing siblings are
/// removed, and the insert is dropped when an existing sibling dominates or
/// equals it. Returns true if the set changed. (Shared by VersionedStore and
/// by protocol coordinators that merge read replies.)
bool InsertIntoSiblingSet(std::vector<Version>* siblings, const Version& v);

/// Merges several replicas' sibling sets for a key into the minimal
/// conflict-free set (union minus dominated versions).
std::vector<Version> MergeSiblingSets(
    const std::vector<std::vector<Version>>& sets);

/// Conflict policy applied when merging concurrent versions of one key.
enum class ConflictPolicy {
  kSiblings,        ///< retain all concurrent versions
  kLastWriterWins,  ///< retain only the max-timestamp version
};

struct VersionedStoreOptions {
  ConflictPolicy conflict_policy = ConflictPolicy::kSiblings;
};

/// The key's hash and digest around one mutation (see Put / Delete /
/// MergeRemote); what ReplicaStorage needs to update its Merkle tree.
struct DigestChange {
  uint64_t key_hash = 0;    ///< Fnv1a64(key)
  uint64_t old_digest = 0;  ///< KeyDigest before (0: key was absent)
  uint64_t new_digest = 0;  ///< KeyDigest after (0: key is absent)
};

/// In-memory versioned KV map for a single replica. Not thread-safe (the
/// simulator is single-threaded). Move-only: the bucket index points into
/// the table's nodes, which a move hands over intact but a copy would not.
class VersionedStore {
 public:
  explicit VersionedStore(uint32_t replica_id,
                          VersionedStoreOptions options = {});
  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;
  VersionedStore(VersionedStore&&) = default;
  VersionedStore& operator=(VersionedStore&&) = default;

  uint32_t replica_id() const { return replica_id_; }
  const VersionedStoreOptions& options() const { return options_; }

  /// Writes a new version. `context` is the causal context the writer read
  /// (its version vector); the new version's vv is context ⊔ {replica: next}.
  /// Siblings causally dominated by the new version are discarded. Returns
  /// the stored version. `change` (optional) receives the digest transition.
  Version Put(const std::string& key, std::string value,
              const VersionVector& context, LamportTimestamp ts,
              DigestChange* change = nullptr);

  /// Writes a tombstone with the same rules as Put.
  Version Delete(const std::string& key, const VersionVector& context,
                 LamportTimestamp ts, DigestChange* change = nullptr);

  /// Returns the live (non-tombstone) sibling versions of `key`.
  /// Empty if unknown or fully deleted.
  std::vector<Version> Get(const std::string& key) const;

  /// Returns all sibling versions including tombstones (for replication).
  std::vector<Version> GetRaw(const std::string& key) const;

  /// The merged causal context of all siblings of `key` (pass back into Put
  /// to supersede what was read).
  VersionVector ContextFor(const std::string& key) const;

  /// Merges a remote sibling set into the local one (anti-entropy / replica
  /// sync / read repair). Keeps the union minus dominated versions, then
  /// applies the conflict policy. Returns true if local state changed;
  /// `change` (optional) is filled only then.
  bool MergeRemote(const std::string& key,
                   const std::vector<Version>& remote_versions,
                   DigestChange* change = nullptr);

  /// Number of keys with at least one version (including tombstone-only).
  size_t key_count() const { return table_.size(); }

  /// Total sibling versions across all keys (state-size metric).
  size_t version_count() const { return version_count_; }

  /// Digest of the full sibling set of `key` (order-independent; 0 if the
  /// key is absent). Cached: O(1) beyond the lookup.
  uint64_t KeyDigest(const std::string& key) const;

  using KeyVisitor = std::function<void(const std::string& key,
                                        const std::vector<Version>&)>;

  /// Iterates all keys in ascending key order. `fn` must not mutate the
  /// store.
  void ForEachKey(const KeyVisitor& fn) const;

  /// Iterates, in ascending key order, the keys whose Fnv1a64 hash falls in
  /// one of the distinct `buckets` of a `bucket_count`-way split by the
  /// hash's low bits (MerkleTree::BucketFor for a tree of `bucket_count`
  /// leaves). Costs time proportional to the keys visited, not to
  /// key_count(). `bucket_count` must be a power of two; `fn` must not
  /// mutate the store.
  void ForEachKeyInBuckets(size_t bucket_count,
                           const std::vector<size_t>& buckets,
                           const KeyVisitor& fn) const;

  /// Removes keys whose every sibling is a tombstone. Returns count removed.
  /// (Safe only once all replicas have seen the tombstone; experiments call
  /// this after convergence.)
  size_t PurgeTombstones();

  /// Raises the internal write counter to at least `floor`. Called during
  /// crash recovery so post-recovery writes never reuse a version-vector
  /// slot that was already handed out before the crash.
  void RestoreCounterFloor(uint64_t floor) {
    if (floor > write_counter_) write_counter_ = floor;
  }

 private:
  struct Entry {
    const std::string* key = nullptr;  // the table's own key (node-stable)
    uint64_t key_hash = 0;             // Fnv1a64(*key)
    uint64_t digest = 0;               // SiblingSetDigest(key_hash, siblings)
    std::vector<Version> siblings;
    // Next entry in the same bucket of the bucket index (lazily built).
    mutable const Entry* next_in_bucket = nullptr;
  };

  /// Finds or creates the entry for `key`.
  Entry& Slot(const std::string& key);
  /// Writes a locally minted version (Put / Delete).
  Version WriteLocal(const std::string& key, Version v, DigestChange* change);
  /// Re-derives `e`'s digest and the version count after its siblings
  /// changed from `old_size` versions; erases it if now empty.
  void Refresh(Entry* e, size_t old_size, DigestChange* change);
  void Erase(const Entry& e);
  void ApplyConflictPolicy(std::vector<Version>* siblings);
  /// Every entry, sorted by key: the only way the table is iterated.
  std::vector<const Entry*> SortedEntries() const;
  /// (Re)builds the bucket index for `bucket_count` buckets if needed.
  void IndexBuckets(size_t bucket_count) const;
  void LinkIntoBucket(const Entry& e) const;

  uint32_t replica_id_;
  VersionedStoreOptions options_;
  uint64_t write_counter_ = 0;  // per-replica monotonic counter for vv
  size_t version_count_ = 0;
  std::unordered_map<std::string, Entry> table_;
  // Bucket index: head of each bucket's entry list, empty until the first
  // ForEachKeyInBuckets call (most stores are never bucket-queried).
  mutable std::vector<const Entry*> bucket_heads_;
};

}  // namespace evc

#endif  // EVC_STORAGE_VERSIONED_STORE_H_
