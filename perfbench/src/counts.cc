#include "counts.h"

namespace evc::perf {

namespace {

double Get(const Counts& c, const char* name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Counts MergedCounters(const obs::Metrics& metrics) {
  Counts out;
  const obs::MetricsRegistry merged = metrics.Merged();
  for (const auto& [name, counter] : merged.counters()) {
    out[name] = counter.value();
  }
  return out;
}

Counts Delta(const Counts& after, const Counts& before) {
  Counts out = after;
  for (const auto& [name, value] : before) out[name] -= value;
  return out;
}

uint64_t InstrumentCount(const obs::Metrics& metrics) {
  auto count = [](const obs::MetricsRegistry& r) {
    return static_cast<uint64_t>(r.counters().size() + r.histograms().size());
  };
  uint64_t n = count(metrics.global());
  for (uint32_t node = 0; node < metrics.node_limit(); ++node) {
    if (const obs::MetricsRegistry* r = metrics.node_if(node)) n += count(*r);
  }
  return n;
}

void AddCountMetrics(const Counts& d, uint64_t ops, uint64_t ops_ok,
                     uint64_t writes, std::map<std::string, double>* layer) {
  const double n = static_cast<double>(ops);
  auto per_op = [&](const char* name) { return Ratio(Get(d, name), n); };
  std::map<std::string, double>& m = *layer;
  m["sim.events_per_op"] = per_op("sim.events");
  m["net.msgs_per_op"] = per_op("net.sent");
  m["net.dropped_per_op"] = per_op("net.dropped");
  m["rpc.calls_per_op"] = per_op("rpc.calls");
  m["rpc.timeouts_per_op"] = per_op("rpc.timeouts");
  m["rpc.late_replies_per_op"] = per_op("rpc.late_replies");
  m["resilience.attempts_per_op"] = per_op("resilience.attempts");
  m["resilience.retries_per_op"] = per_op("resilience.retries");
  m["resilience.useful_attempt_ratio"] =
      Ratio(static_cast<double>(ops_ok), Get(d, "resilience.attempts"));
  m["admission.admitted_per_op"] = per_op("admission.admitted");
  m["admission.shed_per_op"] =
      Ratio(Get(d, "admission.rejected_queue_full") +
                Get(d, "admission.shed_sojourn"),
            n);
  m["dyn.coordinated_per_op"] = Ratio(
      Get(d, "dyn.coordinated_gets") + Get(d, "dyn.coordinated_puts"), n);
  m["dyn.read_repairs_per_op"] = per_op("dyn.read_repairs");
  m["tl.reads_forwarded_ratio"] =
      Ratio(Get(d, "tl.reads_forwarded"),
            Get(d, "tl.reads_forwarded") + Get(d, "tl.reads_local"));
  const double rounds = Get(d, "ae.rounds");
  m["ae.digests_shipped_per_round"] =
      Ratio(Get(d, "ae.digests_shipped"), rounds);
  m["ae.keys_shipped_per_round"] = Ratio(Get(d, "ae.keys_shipped"), rounds);
  // A round whose Merkle roots differed goes on to exchange buckets.
  m["ae.useful_sync_ratio"] =
      Ratio(rounds - Get(d, "ae.syncs_skipped"), rounds);
  m["wal.replayed_records"] = Get(d, "wal.replayed_records");
  m["cache.hit_ratio"] = Ratio(Get(d, "cache.hits"),
                               Get(d, "cache.hits") + Get(d, "cache.misses"));
  m["cache.revokes_per_write"] =
      Ratio(Get(d, "cache.revokes_sent"), static_cast<double>(writes));
  m["obs.spans_per_op"] = per_op("obs.spans");
}

}  // namespace evc::perf
