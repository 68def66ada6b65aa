#include "crdt/rga.h"

namespace evc::crdt {

int Rga::FindIndex(RgaId id) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

RgaId Rga::InsertAfter(RgaId ref, std::string value) {
  EVC_CHECK(ref.IsHead() || FindIndex(ref) >= 0);
  const RgaId id{++clock_, replica_id_};
  RgaOp op;
  op.type = RgaOp::Type::kInsert;
  op.id = id;
  op.ref = ref;
  op.value = std::move(value);
  Integrate(op);
  log_.push_back(op);
  known_[id] = true;
  return id;
}

RgaId Rga::PushBack(std::string value) {
  // Find the id of the last node (live or tombstoned: appending after a
  // tombstone is fine and keeps ordering stable).
  const RgaId ref = nodes_.empty() ? kRgaHead : nodes_.back().id;
  return InsertAfter(ref, std::move(value));
}

bool Rga::Erase(RgaId id) {
  const int idx = FindIndex(id);
  if (idx < 0 || nodes_[idx].tombstone) return false;
  nodes_[idx].tombstone = true;
  RgaOp op;
  op.type = RgaOp::Type::kDelete;
  op.id = id;
  log_.push_back(op);
  return true;
}

bool Rga::Contains(RgaId id) const {
  const int idx = FindIndex(id);
  return idx >= 0 && !nodes_[idx].tombstone;
}

void Rga::Integrate(const RgaOp& op) {
  // Position scan: start right after ref (or at the beginning for head),
  // then skip over any node with a larger id — concurrent inserts after the
  // same ref order by descending id, giving an identical total order at
  // every replica (classic RGA integration rule).
  size_t pos = 0;
  if (!op.ref.IsHead()) {
    const int ref_idx = FindIndex(op.ref);
    EVC_CHECK(ref_idx >= 0);
    pos = static_cast<size_t>(ref_idx) + 1;
  }
  while (pos < nodes_.size() && op.id < nodes_[pos].id) {
    ++pos;
  }
  Node node;
  node.id = op.id;
  node.value = op.value;
  nodes_.insert(nodes_.begin() + static_cast<long>(pos), std::move(node));
  if (op.id.timestamp > clock_) clock_ = op.id.timestamp;
}

bool Rga::ApplyRemote(const RgaOp& op) {
  if (op.type == RgaOp::Type::kInsert) {
    if (known_.count(op.id)) return true;  // duplicate
    if (!op.ref.IsHead() && FindIndex(op.ref) < 0) return false;  // not ready
    Integrate(op);
    known_[op.id] = true;
    log_.push_back(op);
    return true;
  }
  // Delete.
  const int idx = FindIndex(op.id);
  if (idx < 0) return false;  // target not yet inserted here
  if (nodes_[idx].tombstone) return true;  // duplicate delete
  nodes_[idx].tombstone = true;
  log_.push_back(op);
  return true;
}

void Rga::MergeFrom(const Rga& other) {
  bool progress = true;
  std::vector<const RgaOp*> pending;
  for (const auto& op : other.log_) pending.push_back(&op);
  while (progress && !pending.empty()) {
    progress = false;
    std::vector<const RgaOp*> still_pending;
    for (const RgaOp* op : pending) {
      if (ApplyRemote(*op)) {
        progress = true;
      } else {
        still_pending.push_back(op);
      }
    }
    pending.swap(still_pending);
  }
  // Anything left is causally unready even given the full peer log, which
  // cannot happen with well-formed logs.
  EVC_CHECK(pending.empty());
}

std::string Rga::Text() const {
  std::string out;
  for (const auto& node : nodes_) {
    if (!node.tombstone) out += node.value;
  }
  return out;
}

Result<RgaId> Rga::IdAt(size_t index) const {
  size_t live = 0;
  for (const auto& node : nodes_) {
    if (node.tombstone) continue;
    if (live == index) return node.id;
    ++live;
  }
  return Status::OutOfRange("index " + std::to_string(index));
}

size_t Rga::live_size() const {
  size_t n = 0;
  for (const auto& node : nodes_) {
    if (!node.tombstone) ++n;
  }
  return n;
}

}  // namespace evc::crdt
