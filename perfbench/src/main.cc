// evc_perf: runs one workload for a time budget and prints its metrics.
//
//   evc_perf --workload <quorum-ycsb-a|edge-ycsb-b|fuzz-sweep> --seed <n>
//            --seconds <s> --trace <0|1> [--spans-out <file.csv>]
//            [--plant stale-read]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// the per-layer ones, from untraced and traced reps alternated within the
// same budget. Rates and set-up times are in reference seconds: wall seconds
// rescaled by the host probe (probe.h) run between each rep's slices of
// work; the per-layer wall.* metrics keep the raw wall-clock rates.
// Exits 1 when a claim the store makes is violated or a rep's
// deterministic counts differ from the reference rep of the same seed.
// --plant stale-read corrupts every checked history on purpose (a test of
// the gate: the run must then fail).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "counts.h"
#include "perf.h"
#include "probe.h"
#include "verify/fuzz.h"
#include "workloads.h"

namespace evc::perf {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"sim_ops_per_s", "1/s"},   {"fuzz_seeds_per_s", "1/s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"sim_op_mean_ms", "sim_ms"}, {"sim_op_p99_ms", "sim_ms"},
    {"ops_ok_ratio", "ratio"},
};

/// Per-layer metrics besides those AddCountMetrics fills, the fuzz
/// per-store timings and the per-layer self-time shares.
constexpr Metric kPerLayerExtra[] = {
    {"ops_per_rep", "count"},
    {"ops_failed_ratio", "ratio"},
    {"sim_op_p50_ms", "sim_ms"},
    {"workload.gen_ns_per_op", "ns"},
    {"sim.loop_ns_per_event", "ns"},
    {"sim.loop_share", "ratio"},
    {"net.delivery_p99_ms", "sim_ms"},
    {"rpc.call_p99_ms", "sim_ms"},
    {"admission.sojourn_p99_ms", "sim_ms"},
    {"dyn.client_call_ns_per_op", "ns"},
    {"storage.versions_per_key", "count"},
    {"cache.client_call_ns_per_op", "ns"},
    {"cache.hit_age_p99_ms", "sim_ms"},
    {"obs.instruments", "count"},
    {"verify.check_ns_per_op", "ns"},
    {"nemesis.faults_per_seed", "count"},
    {"fuzz.dropped_msgs_per_seed", "count"},
    {"fuzz.anomaly_run_ratio", "ratio"},
    {"trace_overhead_ratio", "ratio"},
    {"host.slowdown", "ratio"},
    {"wall.sim_ops_per_s", "1/s"},
    {"wall.fuzz_seeds_per_s", "1/s"},
};

const char* CountUnit(const std::string& name) {
  if (name.find("ratio") != std::string::npos) return "ratio";
  return "count";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  bool plant_stale_read = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "evc_perf: %s\nusage: evc_perf --workload "
               "<quorum-ycsb-a|edge-ycsb-b|fuzz-sweep> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>] "
               "[--plant stale-read]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("bad --trace");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else if (flag == "--plant") {
      if (std::strcmp(v, "stale-read") != 0) Usage("bad --plant");
      a.plant_stale_read = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

constexpr int kMinReps = 3;

/// A sim workload's rep runs this many stores back to back, each from its
/// own variant seed, so that a run's figures rest on several draws of the
/// workload (hot keys, arrivals) rather than one.
constexpr uint64_t kSimVariants = 3;

/// One rep out of its variants: times and op counts add up, per-op
/// metrics and latency percentiles are averaged, the mean latency is
/// weighted by samples, and each variant's fingerprint is kept.
RepResult CombineVariants(const std::vector<RepResult>& parts) {
  RepResult out;
  const double n = static_cast<double>(parts.size());
  double latency_sum = 0;
  for (size_t v = 0; v < parts.size(); ++v) {
    const RepResult& p = parts[v];
    out.setup_s += p.setup_s / n;
    out.measure_s += p.measure_s;
    out.measure_slowdown += p.measure_slowdown * p.measure_s;
    out.total_s += p.total_s;
    out.ops += p.ops;
    out.ops_ok += p.ops_ok;
    out.client_ops += p.client_ops;
    out.op_p50_ms += p.op_p50_ms / n;
    out.op_p99_ms += p.op_p99_ms / n;
    latency_sum += p.op_mean_ms * static_cast<double>(p.latency_samples);
    out.latency_samples += p.latency_samples;
    out.fingerprint.AddAll("v" + std::to_string(v) + ".", p.fingerprint);
    for (const auto& [name, value] : p.layer) {
      // Two raw totals the traced run divides by; the rest are per op.
      const bool total = name == "sim.events" || name == "verify.checked_ops";
      out.layer[name] += total ? value : value / n;
    }
    if (out.violation.empty() && !p.violation.empty()) {
      out.violation = "variant " + std::to_string(v) + ": " + p.violation;
    }
  }
  if (out.latency_samples > 0) {
    out.op_mean_ms = latency_sum / static_cast<double>(out.latency_samples);
  }
  if (out.measure_s > 0) out.measure_slowdown /= out.measure_s;
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const bool fuzz = args.workload == "fuzz-sweep";
  using SimRep = RepResult (*)(uint64_t, bool, SpanLog*, HostProbe*);
  auto variants = [&](SimRep one) {
    return [&args, one](bool, SpanLog* s, HostProbe* p) {
      std::vector<RepResult> parts;
      for (uint64_t v = 0; v < kSimVariants; ++v) {
        parts.push_back(
            one(args.seed * kSimVariants + v, args.plant_stale_read, s, p));
      }
      return CombineVariants(parts);
    };
  };
  std::function<RepResult(bool capture, SpanLog*, HostProbe*)> run;
  if (args.workload == "quorum-ycsb-a") {
    run = variants(&RunQuorumYcsbA);
  } else if (args.workload == "edge-ycsb-b") {
    run = variants(&RunEdgeYcsbB);
  } else if (fuzz) {
    if (args.plant_stale_read) Usage("--plant applies to sim workloads");
    run = [&](bool capture, SpanLog* s, HostProbe* p) {
      return RunFuzzSweep(args.seed, capture, s, p);
    };
  } else {
    Usage("unknown workload");
  }

  std::string failure;
  auto fail = [&](const std::string& why) {
    if (failure.empty()) failure = why;
  };

  // Reference rep: warms caches and lazy set-up, is checked, and pins the
  // fingerprint every later rep of this seed must repeat.
  const RepResult ref = run(/*capture=*/true, nullptr, nullptr);
  if (!ref.violation.empty()) fail("reference rep: " + ref.violation);
  // Taken here, the peak does not grow with the number of reps that fit.
  const double peak_rss_mb = PeakRssMb();

  SpanLog spans;
  std::vector<RepResult> plain, traced;
  std::vector<double> setups;  // reference seconds
  // Timed reps tick the probe as they go, and a step on each side of a rep
  // samples its first and last stretch.
  HostProbe probe;
  const int64_t deadline =
      WallNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int i = 0; failure.empty() &&
                  (WallNs() < deadline || plain.size() < kMinReps ||
                   (args.trace && traced.size() < kMinReps));
       ++i) {
    const bool trace_rep = args.trace && i % 2 == 1;
    std::vector<double> rep_setups;
    if (fuzz) {
      for (int k = 0; k < 8; ++k) {
        rep_setups.push_back(FuzzStackSetupSeconds(args.seed + k));
      }
    }
    const HostProbe::Mark probe_mark = probe.mark();
    probe.Step();
    spans.set_enabled(trace_rep);
    RepResult r = run(/*capture=*/false, &spans, &probe);
    spans.set_enabled(false);
    probe.Step();
    r.host_slowdown = probe.SlowdownSince(probe_mark);
    if (r.measure_slowdown <= 0) r.measure_slowdown = r.host_slowdown;
    if (!fuzz) rep_setups.push_back(r.setup_s);
    for (double s : rep_setups) setups.push_back(s / r.host_slowdown);
    if (!r.violation.empty()) {
      fail("rep " + std::to_string(i) + ": " + r.violation);
    }
    const std::string diff = r.fingerprint.DiffFrom(ref.fingerprint);
    if (!diff.empty()) {
      fail("rep " + std::to_string(i) + " is not deterministic: " + diff +
           " differs from the reference rep");
    }
    (trace_rep ? traced : plain).push_back(std::move(r));
  }
  if (fuzz && failure.empty()) {
    // Exported metrics must repeat too: compare a second exporting pass.
    const RepResult last = run(/*capture=*/true, nullptr, nullptr);
    const std::string diff = last.fingerprint.DiffFrom(ref.fingerprint);
    if (!diff.empty()) fail("exporting pass is not deterministic: " + diff);
  }

  // Per rep, per reference second (per wall second when `wall`).
  auto rates = [&](const std::vector<RepResult>& reps, bool seeds,
                   bool wall = false) {
    std::vector<double> out;
    for (const RepResult& r : reps) {
      if (fuzz) {
        out.push_back(static_cast<double>(seeds ? r.ops : r.client_ops) /
                      r.measure_s * (wall ? 1.0 : r.measure_slowdown));
      } else if (seeds) {
        out.push_back(kSimVariants / r.total_s *
                      (wall ? 1.0 : r.host_slowdown));
      } else {
        out.push_back(static_cast<double>(r.ops) / r.measure_s *
                      (wall ? 1.0 : r.measure_slowdown));
      }
    }
    return out;
  };

  std::map<std::string, std::pair<double, std::string>> metrics;
  uint64_t attempted = ref.ops, failed = ref.ops - ref.ops_ok;
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.ops;
      failed += r.ops - r.ops_ok;
    }
  }
  const double ok_ratio =
      ref.ops > 0 ? static_cast<double>(ref.ops_ok) / ref.ops : 0;

  if (!args.trace) {
    const double values[] = {
        Median(rates(plain, false)), Median(rates(plain, true)),
        Median(setups),              peak_rss_mb,
        ref.op_mean_ms,              ref.op_p99_ms,
        ok_ratio,
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics[kEndToEnd[i].name] = {values[i], kEndToEnd[i].unit};
    }
    for (bool wall : {false, true}) {
      for (bool seeds : {false, true}) {
        std::printf("# %s per %s s, per rep:", seeds ? "runs" : "ops",
                    wall ? "wall" : "reference");
        for (double r : rates(plain, seeds, wall)) std::printf(" %.6g", r);
        std::printf("\n");
      }
    }
    std::printf("# host slowdown per rep (measured phase / whole rep):");
    for (const RepResult& r : plain) {
      std::printf(" %.4g/%.4g", r.measure_slowdown, r.host_slowdown);
    }
    std::printf("\n");
    std::printf("# %s seed=%llu: %zu timed reps; latency percentiles over "
                "%llu samples per rep (virtual time)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                static_cast<unsigned long long>(ref.latency_samples));
  } else {
    std::map<std::string, double> layer = ref.layer;
    std::vector<std::pair<std::string, const char*>> names;
    std::map<std::string, double> count_metrics;
    AddCountMetrics({}, 0, 0, 0, &count_metrics);
    for (const auto& [n, v] : count_metrics) names.push_back({n, CountUnit(n)});
    for (const Metric& m : kPerLayerExtra) names.push_back({m.name, m.unit});
    // Timings from the traced reps' spans.
    double ops = 0, events = 0, measured = 0, checked = 0;
    for (const RepResult& r : traced) {
      ops += static_cast<double>(r.ops);
      measured += r.measure_s * 1e9;
      auto at = [&](const char* k) {
        auto it = r.layer.find(k);
        return it == r.layer.end() ? 0.0 : it->second;
      };
      events += at("sim.events");
      checked += at("verify.checked_ops");
    }
    auto span_ns = [&](const std::string& name, double* count = nullptr) {
      int64_t ns = 0;
      uint64_t n = 0;
      spans.Totals(name, &ns, &n);
      if (count != nullptr) *count = static_cast<double>(n);
      return static_cast<double>(ns);
    };
    auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
    double next_count = 0;
    const double next_ns = span_ns("workload.next", &next_count);
    layer["workload.gen_ns_per_op"] = per(next_ns, next_count);
    layer["sim.loop_ns_per_event"] = per(span_ns("sim.run_for"), events);
    layer["sim.loop_share"] = per(span_ns("sim.run_for"), measured);
    layer["dyn.client_call_ns_per_op"] =
        per(span_ns("dyn.get") + span_ns("dyn.put"), ops);
    layer["cache.client_call_ns_per_op"] =
        per(span_ns("cache.get") + span_ns("cache.put"), ops);
    layer["verify.check_ns_per_op"] =
        per(span_ns("verify.session_guarantees") +
                span_ns("verify.convergence"),
            checked);
    for (verify::FuzzStore s : verify::AllFuzzStores()) {
      const std::string span = std::string("fuzz.") + verify::ToString(s);
      double runs = 0;
      const double ns = span_ns(span, &runs);
      names.push_back({span + ".ms_per_seed", "ms"});
      layer[span + ".ms_per_seed"] = per(ns / 1e6, runs);
    }
    layer["ops_per_rep"] = static_cast<double>(ref.ops);
    layer["ops_failed_ratio"] = 1.0 - ok_ratio;
    layer["sim_op_p50_ms"] = ref.op_p50_ms;
    layer["trace_overhead_ratio"] =
        per(Median(rates(plain, fuzz)), Median(rates(traced, fuzz)));
    std::vector<double> slowdowns;
    for (const RepResult& r : plain) slowdowns.push_back(r.host_slowdown);
    layer["host.slowdown"] = Median(slowdowns);
    layer["wall.sim_ops_per_s"] = Median(rates(plain, false, true));
    layer["wall.fuzz_seeds_per_s"] = Median(rates(plain, true, true));
    // Self time per layer, as a share of all traced time.
    const auto self = spans.SelfNs();
    double total = 0;
    for (int64_t ns : self) total += static_cast<double>(ns);
    for (size_t l = 0; l < kLayerCount; ++l) {
      const std::string name =
          std::string("self_share.") + LayerName(static_cast<Layer>(l));
      names.push_back({name, "ratio"});
      layer[name] = per(static_cast<double>(self[l]), total);
    }
    for (const auto& [name, unit] : names) {
      auto it = layer.find(name);
      metrics[name] = {it == layer.end() ? 0.0 : it->second, unit};
    }
    std::printf("# %s seed=%llu: %zu untraced + %zu traced reps, %zu spans\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size(), spans.records().size());
    if (!args.spans_out.empty() && !spans.WriteCsv(args.spans_out)) {
      std::fprintf(stderr, "evc_perf: cannot write %s\n",
                   args.spans_out.c_str());
    }
  }

  for (const auto& [name, vu] : metrics) {
    std::printf("# %-36s %.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  if (!failure.empty()) {
    std::fprintf(stderr, "evc_perf: FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failure.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace evc::perf

int main(int argc, char** argv) { return evc::perf::Main(argc, argv); }
