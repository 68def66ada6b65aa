#include "clock/version_vector.h"

#include <algorithm>

#include "common/encoding.h"

namespace evc {

namespace {

/// First entry of the sorted `entries` whose replica is >= `replica`.
template <typename Entries>
auto LowerBound(Entries& entries, uint32_t replica) {
  return std::lower_bound(
      entries.begin(), entries.end(), replica,
      [](const VersionVector::Entry& e, uint32_t r) { return e.first < r; });
}

}  // namespace

uint64_t VersionVector::Get(uint32_t replica) const {
  auto it = LowerBound(entries_, replica);
  return it != entries_.end() && it->first == replica ? it->second : 0;
}

void VersionVector::Set(uint32_t replica, uint64_t value) {
  auto it = LowerBound(entries_, replica);
  const bool present = it != entries_.end() && it->first == replica;
  if (value == 0) {
    if (present) entries_.erase(it);
  } else if (present) {
    it->second = value;
  } else {
    entries_.insert(it, Entry{replica, value});
  }
}

uint64_t VersionVector::Increment(uint32_t replica) {
  auto it = LowerBound(entries_, replica);
  if (it == entries_.end() || it->first != replica) {
    it = entries_.insert(it, Entry{replica, 0});
  }
  return ++it->second;
}

void VersionVector::MergeWith(const VersionVector& other) {
  for (const auto& [replica, counter] : other.entries_) {
    auto it = LowerBound(entries_, replica);
    if (it == entries_.end() || it->first != replica) {
      entries_.insert(it, Entry{replica, counter});
    } else if (counter > it->second) {
      it->second = counter;
    }
  }
}

VersionVector VersionVector::Merge(const VersionVector& a,
                                   const VersionVector& b) {
  VersionVector out = a;
  out.MergeWith(b);
  return out;
}

CausalOrder VersionVector::Compare(const VersionVector& other) const {
  bool less = false;    // some component of *this < other
  bool greater = false; // some component of *this > other

  auto it_a = entries_.begin();
  auto it_b = other.entries_.begin();
  while (it_a != entries_.end() || it_b != other.entries_.end()) {
    if (it_b == other.entries_.end() ||
        (it_a != entries_.end() && it_a->first < it_b->first)) {
      greater = true;  // other has 0 here
      ++it_a;
    } else if (it_a == entries_.end() || it_b->first < it_a->first) {
      less = true;  // this has 0 here
      ++it_b;
    } else {
      if (it_a->second < it_b->second) less = true;
      if (it_a->second > it_b->second) greater = true;
      ++it_a;
      ++it_b;
    }
    if (less && greater) return CausalOrder::kConcurrent;
  }
  if (less) return CausalOrder::kBefore;
  if (greater) return CausalOrder::kAfter;
  return CausalOrder::kEqual;
}

bool VersionVector::Descends(const VersionVector& other) const {
  const CausalOrder order = Compare(other);
  return order == CausalOrder::kEqual || order == CausalOrder::kAfter;
}

uint64_t VersionVector::TotalEvents() const {
  uint64_t total = 0;
  for (const auto& [replica, counter] : entries_) total += counter;
  return total;
}

std::string VersionVector::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [replica, counter] : entries_) {
    if (!first) out += ", ";
    first = false;
    out += "r" + std::to_string(replica) + ":" + std::to_string(counter);
  }
  out += "}";
  return out;
}

void VersionVector::EncodeTo(std::string* dst) const {
  PutVarint64(dst, entries_.size());
  for (const auto& [replica, counter] : entries_) {
    PutVarint64(dst, replica);
    PutVarint64(dst, counter);
  }
}

Result<VersionVector> VersionVector::Decode(std::string_view data) {
  Decoder dec(data);
  uint64_t n = 0;
  EVC_RETURN_IF_ERROR(dec.GetVarint64(&n));
  VersionVector vv;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t replica = 0, counter = 0;
    EVC_RETURN_IF_ERROR(dec.GetVarint64(&replica));
    EVC_RETURN_IF_ERROR(dec.GetVarint64(&counter));
    if (replica > UINT32_MAX) {
      return Status::Corruption("replica id out of range");
    }
    vv.Set(static_cast<uint32_t>(replica), counter);
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes after vector");
  return vv;
}

bool DottedVersionVector::Contains(const Dot& d) const {
  if (has_dot_ && dot_.replica == d.replica && dot_.counter == d.counter) {
    return true;
  }
  return context_.Get(d.replica) >= d.counter;
}

bool DottedVersionVector::Dominates(const DottedVersionVector& other) const {
  // `other`'s events are its context plus its dot; all must be in `this`.
  if (other.has_dot_ && !Contains(other.dot_)) return false;
  for (const auto& [replica, counter] : other.context_.entries()) {
    // Every event (replica, 1..counter) must be contained. The context is
    // contiguous, so it suffices to check the top event.
    if (!Contains(Dot{replica, counter})) return false;
  }
  return true;
}

CausalOrder DottedVersionVector::Compare(
    const DottedVersionVector& other) const {
  const bool ab = Dominates(other);
  const bool ba = other.Dominates(*this);
  if (ab && ba) return CausalOrder::kEqual;
  if (ab) return CausalOrder::kAfter;
  if (ba) return CausalOrder::kBefore;
  return CausalOrder::kConcurrent;
}

VersionVector DottedVersionVector::Flatten() const {
  VersionVector out = context_;
  if (has_dot_ && out.Get(dot_.replica) < dot_.counter) {
    out.Set(dot_.replica, dot_.counter);
  }
  return out;
}

std::string DottedVersionVector::ToString() const {
  std::string out = context_.ToString();
  if (has_dot_) out += "+" + dot_.ToString();
  return out;
}

}  // namespace evc
