// fuzz-sweep: consecutive seeds through verify::RunFuzzSeed for all nine
// stores with their default options (what tools/evc_fuzz runs).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "counts.h"
#include "obs/json.h"
#include "replication/anti_entropy.h"
#include "replication/quorum_store.h"
#include "sim/latency.h"
#include "sim/rpc.h"
#include "verify/fuzz.h"
#include "workloads.h"

namespace evc::perf {

namespace {

/// "fuzz.<store>", with the static lifetime span names need.
const char* SpanName(verify::FuzzStore store) {
  static const std::map<verify::FuzzStore, std::string> names = [] {
    std::map<verify::FuzzStore, std::string> out;
    for (verify::FuzzStore s : verify::AllFuzzStores()) {
      out[s] = std::string("fuzz.") + verify::ToString(s);
    }
    return out;
  }();
  return names.at(store).c_str();
}

/// Histogram -> per-layer metric of its per-run p99, median over runs.
constexpr std::pair<const char*, const char*> kP99Metrics[] = {
    {"rpc.call_latency_us", "rpc.call_p99_ms"},
    {"net.delivery_latency_us", "net.delivery_p99_ms"},
    {"admission.sojourn_us", "admission.sojourn_p99_ms"},
    {"cache.hit_age_us", "cache.hit_age_p99_ms"},
};

/// What a metrics-exporting pass accumulates over its runs.
struct Exports {
  Counts counters;  ///< summed over runs
  /// Histogram name -> its p50 / p99 in each run that recorded samples.
  std::map<std::string, std::vector<double>> p50_ms, p99_ms;
  double rpc_ms_sum = 0;  ///< RPC latency summed over all calls
  double rpc_calls = 0;
  uint64_t instruments = 0;  ///< counters + histograms, summed over runs
};

uint64_t InstrumentsOf(const obs::Json& registry) {
  uint64_t n = 0;
  for (const char* kind : {"counters", "histograms"}) {
    if (const obs::Json* j = registry.Find(kind)) n += j->AsObject().size();
  }
  return n;
}

/// Adds one run's export (obs::MetricsToJson) to `e`. Returns false on a
/// malformed export.
bool AddExport(const std::string& json, Exports* e) {
  Result<obs::Json> doc = obs::Json::Parse(json);
  if (!doc.ok()) return false;
  const obs::Json* merged = doc->Find("merged");
  const obs::Json* global = doc->Find("global");
  const obs::Json* nodes = doc->Find("nodes");
  if (merged == nullptr || global == nullptr || nodes == nullptr) return false;
  const obs::Json* counters = merged->Find("counters");
  const obs::Json* hists = merged->Find("histograms");
  if (counters == nullptr || hists == nullptr) return false;
  for (const auto& [name, value] : counters->AsObject()) {
    e->counters[name] += static_cast<uint64_t>(value.AsInt());
    if (name.rfind("net.drop.", 0) == 0) {
      e->counters["net.dropped"] += static_cast<uint64_t>(value.AsInt());
    }
  }
  // net.sent is also counted per node; the global registry holds the total.
  const obs::Json* global_counters = global->Find("counters");
  const obs::Json* sent =
      global_counters ? global_counters->Find("net.sent") : nullptr;
  const obs::Json* merged_sent = counters->Find("net.sent");
  if (sent != nullptr && merged_sent != nullptr) {
    e->counters["net.sent"] -= static_cast<uint64_t>(merged_sent->AsInt());
    e->counters["net.sent"] += static_cast<uint64_t>(sent->AsInt());
  }
  for (const auto& [name, hist] : hists->AsObject()) {
    const double n = hist.Find("count")->AsDouble();
    if (n == 0) continue;
    e->p50_ms[name].push_back(hist.Find("p50")->AsDouble() / 1e3);
    e->p99_ms[name].push_back(hist.Find("p99")->AsDouble() / 1e3);
    if (name == "rpc.call_latency_us") {
      e->rpc_ms_sum += hist.Find("mean")->AsDouble() / 1e3 * n;
      e->rpc_calls += n;
    }
  }
  e->instruments += InstrumentsOf(*global);
  for (const auto& [node, registry] : nodes->AsObject()) {
    e->instruments += InstrumentsOf(registry);
  }
  return true;
}

}  // namespace

RepResult RunFuzzSweep(uint64_t seed, bool capture, SpanLog* spans,
                       HostProbe* probe) {
  RepResult res;
  SpanLog::Scope rep_span(spans, Layer::kRep, "rep");
  const int64_t t0 = WallNs();
  const int64_t probe0 = ProbeNs(probe);
  Fnv summaries;
  Fnv exports;
  Exports totals;
  uint64_t client_ok = 0, anomalies = 0, faults = 0, dropped = 0;
  for (uint64_t s = seed; s < seed + kFuzzSeedsPerPass; ++s) {
    for (verify::FuzzStore store : verify::AllFuzzStores()) {
      ProbeTick(probe);
      verify::FuzzOptions options = verify::DefaultFuzzOptions(store, s);
      std::string json;
      if (capture) options.capture_metrics_json = &json;
      verify::FuzzReport report;
      {
        SpanLog::Scope span(spans, Layer::kFuzz, SpanName(store));
        report = verify::RunFuzzSeed(options);
      }
      std::string why;
      ++res.ops;
      if (report.MeetsClaims(&why)) {
        ++res.ops_ok;
      } else if (res.violation.empty()) {
        res.violation = why + ": " + report.Summary();
      }
      const uint64_t ok_ops = report.writes_acked + report.reads_ok;
      client_ok += ok_ops;
      res.client_ops += ok_ops + report.writes_failed + report.reads_failed;
      summaries.Mix(report.Summary());
      anomalies += report.AnomalyDetected() ? 1 : 0;
      faults += report.faults_injected;
      dropped += report.messages_dropped;
      if (capture) {
        exports.Mix(json);
        if (!AddExport(json, &totals) && res.violation.empty()) {
          res.violation = "malformed metrics export: " + report.Summary();
        }
      }
    }
  }
  const int64_t probe_ns = ProbeNs(probe) - probe0;
  res.measure_s = static_cast<double>(WallNs() - t0 - probe_ns) / 1e9;
  res.total_s = res.measure_s;
  res.fingerprint.Add("summaries", summaries.value());
  res.fingerprint.Add("client_ops", res.client_ops);
  const double runs = static_cast<double>(res.ops);
  res.layer["nemesis.faults_per_seed"] = static_cast<double>(faults) / runs;
  res.layer["fuzz.dropped_msgs_per_seed"] = static_cast<double>(dropped) / runs;
  res.layer["fuzz.anomaly_run_ratio"] = static_cast<double>(anomalies) / runs;
  if (capture) {
    res.fingerprint.Add("exports", exports.value());
    // The runs' RPC calls stand in for their client ops' latency: the mean
    // over all calls; percentiles per run, median over runs.
    const char* rpc = "rpc.call_latency_us";
    res.op_p50_ms = Median(totals.p50_ms[rpc]);
    res.op_p99_ms = Median(totals.p99_ms[rpc]);
    res.op_mean_ms =
        totals.rpc_calls > 0 ? totals.rpc_ms_sum / totals.rpc_calls : 0;
    res.latency_samples = totals.p99_ms[rpc].size();
    for (const auto& [hist, metric] : kP99Metrics) {
      res.layer[metric] = Median(totals.p99_ms[hist]);
    }
    res.layer["obs.instruments"] =
        static_cast<double>(totals.instruments) / runs;
    uint64_t writes = 0;
    for (const char* name : {"dyn.puts_ok", "dyn.puts_unavailable",
                             "tl.writes_ok", "tl.writes_unavailable",
                             "causal.writes"}) {
      writes += totals.counters[name];
    }
    AddCountMetrics(totals.counters, res.client_ops, client_ok, writes,
                    &res.layer);
  }
  return res;
}

double FuzzStackSetupSeconds(uint64_t seed) {
  const int64_t t0 = WallNs();
  {
    const verify::FuzzOptions o =
        verify::DefaultFuzzOptions(verify::FuzzStore::kQuorumStrict, seed);
    sim::Simulator sim(seed);
    sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                               2 * sim::kMillisecond, 12 * sim::kMillisecond));
    sim::Rpc rpc(&net);
    repl::QuorumConfig cfg;
    cfg.sloppy = false;
    repl::DynamoCluster cluster(&rpc, cfg);
    const std::vector<sim::NodeId> servers = cluster.AddServers(o.servers);
    std::vector<ReplicaStorage*> storages;
    for (sim::NodeId srv : servers) storages.push_back(cluster.storage(srv));
    repl::AntiEntropy ae(&net, servers, storages, {});
    for (int i = 0; i < o.sessions; ++i) net.AddNode();
  }
  return static_cast<double>(WallNs() - t0) / 1e9;
}

}  // namespace evc::perf
