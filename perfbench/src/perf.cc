#include "perf.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace evc::perf {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSetup: return "setup";
    case Layer::kWorkload: return "workload";
    case Layer::kClient: return "client";
    case Layer::kSim: return "sim";
    case Layer::kVerify: return "verify";
    case Layer::kFuzz: return "fuzz";
    case Layer::kRep: return "rep";
  }
  return "?";
}

SpanLog::Scope::Scope(SpanLog* log, Layer layer, const char* name)
    : log_(log) {
  if (log_ == nullptr || !log_->enabled_) return;
  index_ = static_cast<int32_t>(log_->records_.size());
  const int32_t parent = log_->open_.empty() ? -1 : log_->open_.back();
  log_->records_.push_back({name, layer, parent, WallNs(), 0});
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_->records_[static_cast<size_t>(index_)].end_ns = WallNs();
  log_->open_.pop_back();
}

std::array<int64_t, kLayerCount> SpanLog::SelfNs() const {
  std::array<int64_t, kLayerCount> self{};
  for (const Record& r : records_) {
    const int64_t d = r.end_ns - r.start_ns;
    self[static_cast<size_t>(r.layer)] += d;
    if (r.parent >= 0) {
      const Record& parent = records_[static_cast<size_t>(r.parent)];
      self[static_cast<size_t>(parent.layer)] -= d;
    }
  }
  return self;
}

void SpanLog::Totals(const std::string& name, int64_t* ns,
                     uint64_t* count) const {
  *ns = 0;
  *count = 0;
  for (const Record& r : records_) {
    if (name != r.name) continue;
    *ns += r.end_ns - r.start_ns;
    ++*count;
  }
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,parent,layer,name,start_ns,end_ns\n");
  const int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%zu,%d,%s,%s,%lld,%lld\n", i, r.parent,
                 LayerName(r.layer), r.name,
                 static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

void Fingerprint::AddDouble(const std::string& name, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  fields_[name] = bits;
}

void Fingerprint::AddAll(const std::string& prefix, const Fingerprint& other) {
  for (const auto& [name, value] : other.fields_) {
    fields_[prefix + name] = value;
  }
}

std::string Fingerprint::DiffFrom(const Fingerprint& other) const {
  size_t shared = 0;
  for (const auto& [name, value] : fields_) {
    auto it = other.fields_.find(name);
    if (it == other.fields_.end()) continue;
    if (it->second != value) return name;
    ++shared;
  }
  return shared > 0 ? "" : "no shared fields";
}

void Fnv::Mix(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

}  // namespace evc::perf
