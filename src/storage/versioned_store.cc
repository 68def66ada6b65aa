#include "storage/versioned_store.h"

#include <algorithm>

#include "common/encoding.h"
#include "common/hash.h"

namespace evc {

uint64_t Version::Digest() const {
  // FNV-1a over the bytes PutLengthPrefixed(value), vv.EncodeTo,
  // PutVarint64(lww_ts.counter), PutVarint64(lww_ts.node) and the tombstone
  // flag would append, streamed rather than materialized.
  Fnv1a64Stream h;
  h.Varint64(value.size());
  h.Bytes(value);
  h.Varint64(vv.size());
  for (const auto& [replica, counter] : vv.entries()) {
    h.Varint64(replica);
    h.Varint64(counter);
  }
  h.Varint64(lww_ts.counter);
  h.Varint64(lww_ts.node);
  h.Byte(tombstone ? 1 : 0);
  return h.value();
}

uint64_t SiblingSetDigest(uint64_t key_hash,
                          const std::vector<Version>& versions) {
  uint64_t acc = 0;
  for (const auto& v : versions) acc ^= Mix64(key_hash ^ v.Digest());
  return acc;
}

void Version::EncodeTo(std::string* dst) const {
  PutLengthPrefixed(dst, value);
  std::string vv_bytes;
  vv.EncodeTo(&vv_bytes);
  PutLengthPrefixed(dst, vv_bytes);
  PutVarint64(dst, lww_ts.counter);
  PutVarint64(dst, lww_ts.node);
  dst->push_back(tombstone ? 1 : 0);
}

Result<Version> Version::DecodeFrom(Decoder* dec) {
  Version v;
  EVC_RETURN_IF_ERROR(dec->GetLengthPrefixed(&v.value));
  std::string vv_bytes;
  EVC_RETURN_IF_ERROR(dec->GetLengthPrefixed(&vv_bytes));
  EVC_ASSIGN_OR_RETURN(v.vv, VersionVector::Decode(vv_bytes));
  uint64_t counter = 0, node = 0;
  EVC_RETURN_IF_ERROR(dec->GetVarint64(&counter));
  EVC_RETURN_IF_ERROR(dec->GetVarint64(&node));
  if (node > UINT32_MAX) return Status::Corruption("lww node out of range");
  v.lww_ts = LamportTimestamp{counter, static_cast<uint32_t>(node)};
  std::string flag;
  EVC_RETURN_IF_ERROR(dec->GetBytes(1, &flag));
  v.tombstone = flag[0] != 0;
  return v;
}

std::string Version::ToString() const {
  std::string out = tombstone ? "<tombstone>" : ("\"" + value + "\"");
  out += " vv=" + vv.ToString() + " ts=" + lww_ts.ToString();
  return out;
}

VersionedStore::VersionedStore(uint32_t replica_id,
                               VersionedStoreOptions options)
    : replica_id_(replica_id), options_(options) {}

VersionedStore::Entry& VersionedStore::Slot(const std::string& key) {
  auto [it, inserted] = table_.try_emplace(key);
  Entry& e = it->second;
  if (inserted) {
    e.key = &it->first;
    e.key_hash = Fnv1a64(key);
    if (!bucket_heads_.empty()) LinkIntoBucket(e);
  }
  return e;
}

void VersionedStore::Refresh(Entry* e, size_t old_size,
                             DigestChange* change) {
  const uint64_t old_digest = e->digest;
  version_count_ = version_count_ - old_size + e->siblings.size();
  e->digest = SiblingSetDigest(e->key_hash, e->siblings);
  if (change != nullptr) *change = {e->key_hash, old_digest, e->digest};
  if (e->siblings.empty()) Erase(*e);
}

void VersionedStore::Erase(const Entry& e) {
  if (!bucket_heads_.empty()) {
    const Entry** link =
        &bucket_heads_[e.key_hash & (bucket_heads_.size() - 1)];
    while (*link != &e) link = &(*link)->next_in_bucket;
    *link = e.next_in_bucket;
  }
  version_count_ -= e.siblings.size();
  table_.erase(table_.find(*e.key));
}

Version VersionedStore::WriteLocal(const std::string& key, Version v,
                                   DigestChange* change) {
  // The new write's own-replica slot must exceed both our counter and any
  // own-replica event already in the context, or the write would fail to
  // dominate a version it causally follows.
  write_counter_ = std::max(write_counter_, v.vv.Get(replica_id_)) + 1;
  v.vv.Set(replica_id_, write_counter_);

  Entry& e = Slot(key);
  const size_t old_size = e.siblings.size();
  InsertIntoSiblingSet(&e.siblings, v);
  ApplyConflictPolicy(&e.siblings);
  Refresh(&e, old_size, change);
  return v;
}

Version VersionedStore::Put(const std::string& key, std::string value,
                            const VersionVector& context, LamportTimestamp ts,
                            DigestChange* change) {
  Version v;
  v.value = std::move(value);
  v.vv = context;
  v.lww_ts = ts;
  v.tombstone = false;
  return WriteLocal(key, std::move(v), change);
}

Version VersionedStore::Delete(const std::string& key,
                               const VersionVector& context,
                               LamportTimestamp ts, DigestChange* change) {
  Version v;
  v.vv = context;
  v.lww_ts = ts;
  v.tombstone = true;
  return WriteLocal(key, std::move(v), change);
}

std::vector<Version> VersionedStore::Get(const std::string& key) const {
  std::vector<Version> out;
  auto it = table_.find(key);
  if (it == table_.end()) return out;
  for (const auto& v : it->second.siblings) {
    if (!v.tombstone) out.push_back(v);
  }
  return out;
}

std::vector<Version> VersionedStore::GetRaw(const std::string& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? std::vector<Version>{} : it->second.siblings;
}

VersionVector VersionedStore::ContextFor(const std::string& key) const {
  VersionVector ctx;
  auto it = table_.find(key);
  if (it == table_.end()) return ctx;
  for (const auto& v : it->second.siblings) ctx.MergeWith(v.vv);
  return ctx;
}

bool InsertIntoSiblingSet(std::vector<Version>* siblings, const Version& v) {
  // Drop the insert if an existing sibling dominates or equals it.
  for (const auto& existing : *siblings) {
    const CausalOrder order = existing.vv.Compare(v.vv);
    if (order == CausalOrder::kAfter || order == CausalOrder::kEqual) {
      return false;
    }
  }
  // Remove existing siblings dominated by the new version.
  siblings->erase(
      std::remove_if(siblings->begin(), siblings->end(),
                     [&v](const Version& existing) {
                       return v.vv.Dominates(existing.vv);
                     }),
      siblings->end());
  siblings->push_back(v);
  return true;
}

std::vector<Version> MergeSiblingSets(
    const std::vector<std::vector<Version>>& sets) {
  std::vector<Version> out;
  for (const auto& set : sets) {
    for (const auto& v : set) InsertIntoSiblingSet(&out, v);
  }
  return out;
}

void VersionedStore::ApplyConflictPolicy(std::vector<Version>* siblings) {
  if (options_.conflict_policy != ConflictPolicy::kLastWriterWins) return;
  if (siblings->size() <= 1) return;
  auto winner = std::max_element(
      siblings->begin(), siblings->end(),
      [](const Version& a, const Version& b) { return a.lww_ts < b.lww_ts; });
  Version keep = *winner;
  // LWW collapses history: the survivor's vector absorbs the losers' so the
  // collapse propagates (otherwise losers would resurrect via anti-entropy).
  for (const auto& v : *siblings) keep.vv.MergeWith(v.vv);
  siblings->clear();
  siblings->push_back(std::move(keep));
}

bool VersionedStore::MergeRemote(const std::string& key,
                                 const std::vector<Version>& remote_versions,
                                 DigestChange* change) {
  if (remote_versions.empty()) return false;
  Entry& e = Slot(key);
  const size_t old_size = e.siblings.size();
  bool changed = false;
  for (const auto& rv : remote_versions) {
    changed |= InsertIntoSiblingSet(&e.siblings, rv);
  }
  if (!changed) {
    if (e.siblings.empty()) Erase(e);
    return false;
  }
  ApplyConflictPolicy(&e.siblings);
  Refresh(&e, old_size, change);
  return true;
}

uint64_t VersionedStore::KeyDigest(const std::string& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? 0 : it->second.digest;
}

std::vector<const VersionedStore::Entry*> VersionedStore::SortedEntries()
    const {
  std::vector<const Entry*> out;
  out.reserve(table_.size());
  // evc-lint: allow(unordered-iteration) reason=collected, then sorted by key before any use
  for (const auto& [key, entry] : table_) out.push_back(&entry);
  std::sort(out.begin(), out.end(), [](const Entry* a, const Entry* b) {
    return *a->key < *b->key;
  });
  return out;
}

void VersionedStore::ForEachKey(const KeyVisitor& fn) const {
  for (const Entry* e : SortedEntries()) fn(*e->key, e->siblings);
}

void VersionedStore::LinkIntoBucket(const Entry& e) const {
  const Entry*& head = bucket_heads_[e.key_hash & (bucket_heads_.size() - 1)];
  e.next_in_bucket = head;
  head = &e;
}

void VersionedStore::IndexBuckets(size_t bucket_count) const {
  EVC_CHECK(bucket_count > 0 && (bucket_count & (bucket_count - 1)) == 0);
  if (bucket_heads_.size() == bucket_count) return;
  bucket_heads_.assign(bucket_count, nullptr);
  for (const Entry* e : SortedEntries()) LinkIntoBucket(*e);
}

void VersionedStore::ForEachKeyInBuckets(size_t bucket_count,
                                         const std::vector<size_t>& buckets,
                                         const KeyVisitor& fn) const {
  if (buckets.empty()) return;
  IndexBuckets(bucket_count);
  std::vector<const Entry*> hits;
  for (size_t b : buckets) {
    EVC_CHECK(b < bucket_count);
    for (const Entry* e = bucket_heads_[b]; e != nullptr;
         e = e->next_in_bucket) {
      hits.push_back(e);
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Entry* a, const Entry* b) {
    return *a->key < *b->key;
  });
  for (const Entry* e : hits) fn(*e->key, e->siblings);
}

size_t VersionedStore::PurgeTombstones() {
  size_t removed = 0;
  for (const Entry* e : SortedEntries()) {
    const bool all_tombstones =
        std::all_of(e->siblings.begin(), e->siblings.end(),
                    [](const Version& v) { return v.tombstone; });
    if (all_tombstones) {
      Erase(*e);
      ++removed;
    }
  }
  return removed;
}

}  // namespace evc
