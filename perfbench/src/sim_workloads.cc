// quorum-ycsb-a and edge-ycsb-b: whole store stacks driven through their
// public client APIs by open-loop sessions, then checked.

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/edge_cache.h"
#include "common/stats.h"
#include "counts.h"
#include "gate.h"
#include "replication/anti_entropy.h"
#include "replication/quorum_store.h"
#include "replication/timeline_store.h"
#include "sim/latency.h"
#include "sim/nemesis.h"
#include "sim/rpc.h"
#include "workload/workload.h"
#include "workloads.h"

namespace evc::perf {

namespace {

using sim::kMillisecond;
using sim::kSecond;

// quorum-ycsb-a. Capacity is 5 servers x 4 admission slots / 1 ms; an op
// costs about four gated requests (client call + replica legs), so 3000
// ops/s offered is roughly 60% utilisation.
constexpr int kQuorumServers = 5;
constexpr int kQuorumSessions = 384;
constexpr double kQuorumRate = 3000;
constexpr uint64_t kQuorumRecords = 4000;
constexpr sim::Time kQuorumWindow = 3 * kSecond;
constexpr size_t kCrashedServer = 2;

// edge-ycsb-b.
constexpr int kEdgeServers = 3;
constexpr int kEdgeCaches = 4;
constexpr int kEdgeSessions = 128;  ///< session i uses cache i % kEdgeCaches
constexpr double kEdgeRate = 4000;
constexpr uint64_t kEdgeRecords = 128;
constexpr sim::Time kEdgeWindow = 10 * kSecond;
constexpr sim::Time kLeaseTtl = 1 * kSecond;

constexpr double kPreloadRate = 4000;  ///< preload puts per virtual second
constexpr int kMaxTries = 6;  ///< per op: first try + failovers
constexpr sim::Time kSlice = 10 * kMillisecond;
constexpr sim::Time kDrainLimit = 60 * kSecond;

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Open-loop arrivals into sequential sessions. Each session draws Poisson
/// arrivals at rate/sessions; an op that arrives while its session is busy
/// waits in the session's FIFO, so the session stays sequential (as the
/// session-guarantee checker requires) while offered load never slows
/// down. Latency is timed from each op's due (arrival) time.
class OpenLoop {
 public:
  using Done = std::function<void(bool ok)>;
  /// Issues `op` for `session`; calls `done` exactly once, possibly
  /// synchronously.
  using Issue =
      std::function<void(int session, const workload::Op& op, Done done)>;

  OpenLoop(sim::Simulator* sim, workload::WorkloadGenerator* gen, int sessions,
           double rate, uint64_t seed, SpanLog* spans, Issue issue)
      : sim_(sim),
        gen_(gen),
        mean_gap_(sessions * 1e6 / rate),
        spans_(spans),
        issue_(std::move(issue)),
        sessions_(static_cast<size_t>(sessions)) {
    Rng root(seed ^ 0x09e71009ULL);
    for (size_t i = 0; i < sessions_.size(); ++i) {
      sessions_[i].rng = root.Fork(i);
    }
  }

  /// Arrivals run over [Now(), Now() + window).
  void Start(sim::Time window) {
    end_ = sim_->Now() + window;
    for (size_t i = 0; i < sessions_.size(); ++i) ScheduleArrival(i);
  }

  bool Drained() const {
    return arrivals_done_ == sessions_.size() && in_service_ == 0 &&
           queued_ == 0;
  }

  const Histogram& latency_us() const { return latency_us_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t ok() const { return ok_; }
  uint64_t failed() const { return failed_; }
  uint64_t writes() const { return writes_; }

 private:
  struct Queued {
    sim::Time due = 0;
    workload::Op op;
  };
  struct Session {
    Rng rng{0};
    std::deque<Queued> queue;
    bool busy = false;
  };

  void ScheduleArrival(size_t i) {
    const auto gap = static_cast<sim::Time>(
                         sessions_[i].rng.NextExponential(mean_gap_)) +
                     1;
    if (sim_->Now() + gap >= end_) {
      ++arrivals_done_;
      return;
    }
    sim_->ScheduleAfter(gap, [this, i] { Arrive(i); });
  }

  void Arrive(size_t i) {
    Queued q;
    q.due = sim_->Now();
    {
      SpanLog::Scope span(spans_, Layer::kWorkload, "workload.next");
      q.op = gen_->Next();
    }
    ++attempted_;
    if (q.op.type != workload::OpType::kRead) ++writes_;
    sessions_[i].queue.push_back(std::move(q));
    ++queued_;
    if (!sessions_[i].busy) Dispatch(i);
    ScheduleArrival(i);
  }

  void Dispatch(size_t i) {
    Session& s = sessions_[i];
    const Queued q = std::move(s.queue.front());
    s.queue.pop_front();
    --queued_;
    s.busy = true;
    ++in_service_;
    issue_(static_cast<int>(i), q.op, [this, i, due = q.due](bool ok) {
      latency_us_.Add(static_cast<double>(sim_->Now() - due));
      ++(ok ? ok_ : failed_);
      Session& session = sessions_[i];
      session.busy = false;
      --in_service_;
      if (session.queue.empty()) return;
      // Deferred: a cache hit completes inside Issue, and chaining the next
      // op there would recurse once per queued hit.
      sim_->ScheduleAfter(0, [this, i] {
        if (!sessions_[i].busy && !sessions_[i].queue.empty()) Dispatch(i);
      });
    });
  }

  sim::Simulator* sim_;
  workload::WorkloadGenerator* gen_;
  double mean_gap_;
  SpanLog* spans_;
  Issue issue_;
  std::vector<Session> sessions_;
  sim::Time end_ = 0;
  size_t arrivals_done_ = 0;
  size_t in_service_ = 0;
  size_t queued_ = 0;
  uint64_t attempted_ = 0;
  uint64_t ok_ = 0;
  uint64_t failed_ = 0;
  uint64_t writes_ = 0;
  Histogram latency_us_;
};

/// Counters plus the accessor-read values Counts documents.
Counts Snapshot(const sim::Simulator& sim, const sim::Network& net,
                const sim::Rpc& rpc) {
  Counts c = MergedCounters(sim.metrics());
  c["sim.events"] = sim.events_executed();
  c["net.sent"] = net.messages_sent();
  c["net.dropped"] = net.messages_dropped();
  c["rpc.calls"] = rpc.calls_issued();
  c["obs.spans"] = sim.tracer().started();
  return c;
}

double HistP99Ms(const obs::MetricsRegistry& merged, const char* name) {
  auto it = merged.histograms().find(name);
  return it == merged.histograms().end() ? 0.0
                                         : it->second.Percentile(0.99) / 1e3;
}

uint64_t HashHistory(const std::vector<verify::RecordedOp>& history) {
  Fnv h;
  for (const verify::RecordedOp& op : history) {
    h.Mix(static_cast<uint64_t>(op.kind));
    h.Mix(static_cast<uint64_t>(op.session));
    h.Mix(op.key);
    h.Mix(op.value);
    for (const std::string& v : op.observed) h.Mix(v);
    h.Mix(static_cast<uint64_t>(op.acked) | (uint64_t{op.from_cache} << 1));
    h.Mix(static_cast<uint64_t>(op.invoke));
    h.Mix(static_cast<uint64_t>(op.response));
  }
  return h.value();
}

uint64_t HashReplicas(const std::vector<verify::ReplicaState>& replicas) {
  Fnv h;
  for (const verify::ReplicaState& state : replicas) {
    for (const auto& [key, values] : state) {
      h.Mix(key);
      for (const std::string& v : values) h.Mix(v);
    }
    h.Mix(uint64_t{0xfeed});
  }
  return h.value();
}

/// Measures the open loop until it drains; fills timings, counts and the
/// fingerprint shared by both sim workloads. Returns false if it never
/// drained.
bool Measure(sim::Simulator& sim, const sim::Network& net, const sim::Rpc& rpc,
             OpenLoop& loop, sim::Time window, SpanLog* spans,
             HostProbe* probe, RepResult* res, Counts* delta) {
  const Counts before = Snapshot(sim, net, rpc);
  const int64_t t0 = WallNs();
  const int64_t probe0 = ProbeNs(probe);
  const HostProbe::Mark mark = probe ? probe->mark() : HostProbe::Mark{};
  loop.Start(window);
  const sim::Time limit = sim.Now() + window + kDrainLimit;
  while (!loop.Drained() && sim.Now() < limit) {
    ProbeTick(probe);
    SpanLog::Scope span(spans, Layer::kSim, "sim.run_for");
    sim.RunFor(kSlice);
  }
  ProbeTick(probe);  // samples the last slices
  res->measure_s = Seconds(t0, WallNs()) - Seconds(probe0, ProbeNs(probe));
  if (probe != nullptr) res->measure_slowdown = probe->SlowdownSince(mark);
  *delta = Delta(Snapshot(sim, net, rpc), before);
  res->ops = loop.attempted();
  res->ops_ok = loop.ok();
  res->client_ops = loop.attempted();
  const Histogram& lat = loop.latency_us();
  res->latency_samples = lat.count();
  res->op_p50_ms = lat.Percentile(0.50) / 1e3;
  res->op_p99_ms = lat.Percentile(0.99) / 1e3;
  res->op_mean_ms = lat.mean() / 1e3;
  Fingerprint& fp = res->fingerprint;
  for (const char* name : {"sim.events", "net.sent", "net.dropped",
                           "rpc.calls"}) {
    fp.Add(name, (*delta)[name]);
  }
  fp.Add("ops", loop.attempted());
  fp.Add("ops_ok", loop.ok());
  fp.Add("latency.count", lat.count());
  fp.AddDouble("latency.mean", lat.mean());
  fp.AddDouble("latency.p50", lat.Percentile(0.50));
  fp.AddDouble("latency.p99", lat.Percentile(0.99));
  fp.AddDouble("latency.max", lat.max());
  AddCountMetrics(*delta, loop.attempted(), loop.ok(), loop.writes(),
                  &res->layer);
  res->layer["sim.events"] = static_cast<double>((*delta)["sim.events"]);
  return loop.Drained();
}

/// Histogram p99s, instrument count and fingerprint fields read at the end
/// of a rep.
void Finish(const sim::Simulator& sim, const sim::Network& net,
            const sim::Rpc& rpc, const StoreOutputs& out, RepResult* res) {
  const obs::MetricsRegistry merged = sim.metrics().Merged();
  res->layer["net.delivery_p99_ms"] =
      HistP99Ms(merged, "net.delivery_latency_us");
  res->layer["rpc.call_p99_ms"] = HistP99Ms(merged, "rpc.call_latency_us");
  res->layer["admission.sojourn_p99_ms"] =
      HistP99Ms(merged, "admission.sojourn_us");
  res->layer["cache.hit_age_p99_ms"] = HistP99Ms(merged, "cache.hit_age_us");
  res->layer["obs.instruments"] =
      static_cast<double>(InstrumentCount(sim.metrics()));
  res->layer["verify.checked_ops"] = static_cast<double>(out.history.size());
  Fingerprint& fp = res->fingerprint;
  fp.Add("rep.events", sim.events_executed());
  fp.Add("rep.net.sent", net.messages_sent());
  fp.Add("rep.rpc.calls", rpc.calls_issued());
  fp.Add("history", HashHistory(out.history));
  fp.Add("replicas", HashReplicas(out.replicas));
}

}  // namespace

// ---------------------------------------------------------------------------
// quorum-ycsb-a
// ---------------------------------------------------------------------------

RepResult RunQuorumYcsbA(uint64_t seed, bool plant_stale_read,
                         SpanLog* spans, HostProbe* probe) {
  RepResult res;
  SpanLog::Scope rep_span(spans, Layer::kRep, "rep");
  const int64_t t0 = WallNs();
  const int64_t probe0 = ProbeNs(probe);
  std::optional<SpanLog::Scope> setup_span;
  setup_span.emplace(spans, Layer::kSetup, "setup");

  // The fuzzer's kQuorumStrict stack (verify/fuzz.cc), plus admission.
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 12 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::QuorumConfig cfg;
  cfg.replication_factor = 3;
  cfg.read_quorum = 2;
  cfg.write_quorum = 2;
  cfg.sloppy = false;
  cfg.read_repair = true;
  cfg.admission_enabled = true;
  repl::DynamoCluster cluster(&rpc, cfg);
  const std::vector<sim::NodeId> servers = cluster.AddServers(kQuorumServers);
  cluster.StartHintDelivery(500 * kMillisecond);
  cluster.StartFailureDetection();
  std::vector<ReplicaStorage*> storages;
  for (sim::NodeId srv : servers) storages.push_back(cluster.storage(srv));
  repl::AntiEntropyOptions ae_options;
  ae_options.interval = 250 * kMillisecond;
  ae_options.peer_usable = [&cluster](sim::NodeId self, sim::NodeId peer) {
    return cluster.PeerUsable(self, peer);
  };
  repl::AntiEntropy ae(&net, servers, storages, ae_options);
  ae.Start();

  workload::WorkloadConfig wc = workload::WorkloadConfig::YcsbA();
  wc.record_count = kQuorumRecords;
  workload::WorkloadGenerator gen(wc, seed);
  std::vector<sim::NodeId> clients;
  for (int i = 0; i < kQuorumSessions; ++i) clients.push_back(net.AddNode());
  const sim::NodeId loader = net.AddNode();

  StoreOutputs out;
  std::map<std::string, VersionVector> acked_vv;  // value -> stored vv
  std::vector<std::map<std::string, VersionVector>> context(kQuorumSessions);

  // Preload (the YCSB load phase): one blind put per record, paced, each
  // its own one-op session.
  uint64_t preload_pending = kQuorumRecords;
  bool preload_ok = true;
  for (uint64_t k = 0; k < kQuorumRecords; ++k) {
    const auto at = static_cast<sim::Time>(static_cast<double>(k) * 1e6 /
                                           kPreloadRate);
    sim.ScheduleAt(at, [&, k] {
      std::string key = gen.KeyFor(k);
      std::string value = "load:" + key;
      out.history.push_back(verify::RecWrite(
          kQuorumSessions + static_cast<int>(k), key, value, sim.Now(),
          sim.Now(), /*acked=*/false));
      const size_t slot = out.history.size() - 1;
      const sim::NodeId coord = cluster.PreferenceList(key).front();
      cluster.Put(loader, coord, key, value, {},
                  [&, key, value, slot](Result<Version> r) {
                    --preload_pending;
                    if (!r.ok()) {
                      preload_ok = false;
                      return;
                    }
                    out.history[slot].acked = true;
                    out.history[slot].response = sim.Now();
                    out.acked.push_back({key, value});
                    acked_vv[value] = r->vv;
                  });
    });
  }
  while (preload_pending > 0 && sim.Now() < kDrainLimit) {
    ProbeTick(probe);
    SpanLog::Scope span(spans, Layer::kSim, "sim.preload");
    sim.RunFor(kSlice);
  }
  setup_span.reset();
  res.setup_s = Seconds(t0, WallNs()) - Seconds(probe0, ProbeNs(probe));
  if (!preload_ok || preload_pending > 0) {
    res.violation = "preload put failed";
    return res;
  }

  // Sessions route each op to the key's first preference-list server and
  // fail over around the list when the client API returns an error.
  std::function<void(int, std::string, std::string, int, OpenLoop::Done)>
      attempt = [&](int i, std::string key, std::string value, int tried,
                    OpenLoop::Done done) {
        const std::vector<sim::NodeId> prefs = cluster.PreferenceList(key);
        const sim::NodeId coord =
            prefs[static_cast<size_t>(tried) % prefs.size()];
        const sim::NodeId self = clients[static_cast<size_t>(i)];
        auto retry = [&attempt, i, key, value, tried](OpenLoop::Done d) {
          if (tried + 1 < kMaxTries) {
            attempt(i, key, value, tried + 1, std::move(d));
          } else {
            d(false);
          }
        };
        if (value.empty()) {
          const int64_t invoke = sim.Now();
          SpanLog::Scope span(spans, Layer::kClient, "dyn.get");
          cluster.Get(self, coord, key,
                      [&, i, key, invoke, retry,
                       done](Result<repl::ReadResult> r) mutable {
                        if (!r.ok()) return retry(std::move(done));
                        std::vector<std::string> observed;
                        for (const Version& v : r->versions) {
                          observed.push_back(v.value);
                        }
                        context[static_cast<size_t>(i)][key] = r->context;
                        out.history.push_back(verify::RecRead(
                            i, key, std::move(observed), invoke, sim.Now()));
                        done(true);
                      });
          return;
        }
        // Each try writes a history-unique value.
        std::string v =
            tried == 0 ? value : value + "~" + std::to_string(tried);
        out.history.push_back(verify::RecWrite(i, key, v, sim.Now(), sim.Now(),
                                               /*acked=*/false));
        const size_t slot = out.history.size() - 1;
        const VersionVector ctx = context[static_cast<size_t>(i)][key];
        SpanLog::Scope span(spans, Layer::kClient, "dyn.put");
        cluster.Put(self, coord, key, v, ctx,
                    [&, key, v, slot, retry, done](Result<Version> r) mutable {
                      if (!r.ok()) return retry(std::move(done));
                      out.history[slot].acked = true;
                      out.history[slot].response = sim.Now();
                      out.acked.push_back({key, v});
                      acked_vv[v] = r->vv;
                      done(true);
                    });
      };
  OpenLoop loop(&sim, &gen, kQuorumSessions, kQuorumRate, seed, spans,
                [&](int i, const workload::Op& op, OpenLoop::Done done) {
                  attempt(i, op.key,
                          op.type == workload::OpType::kRead ? "" : op.value, 0,
                          std::move(done));
                });

  // One server crashes (losing its volatile state; restart replays its
  // WAL) for the middle fifth of the arrival window.
  sim::Nemesis nemesis(&net, servers, seed ^ 0x6e656d65ULL);
  sim::FaultPlan plan;
  plan.CrashAt(kQuorumWindow * 2 / 5, servers[kCrashedServer])
      .RestartAt(kQuorumWindow * 3 / 5, servers[kCrashedServer]);
  nemesis.Execute(plan);
  Counts delta;
  const bool drained = Measure(sim, net, rpc, loop, kQuorumWindow, spans,
                               probe, &res, &delta);
  size_t versions = 0, keys = 0;
  for (ReplicaStorage* s : storages) {
    versions += s->version_count();
    keys += s->key_count();
  }
  res.layer["storage.versions_per_key"] =
      keys > 0 ? static_cast<double>(versions) / static_cast<double>(keys) : 0;

  // Quiesce: anti-entropy must bring every server to the same state.
  {
    SpanLog::Scope span(spans, Layer::kSim, "sim.quiesce");
    sim.RunFor(2 * kSecond);
    for (int s = 0;
         s < 60 && !(ae.Converged() && cluster.pending_hints() == 0); ++s) {
      sim.RunFor(1 * kSecond);
    }
  }
  std::map<std::string, std::vector<Version>> final_versions;
  for (sim::NodeId srv : servers) {
    verify::ReplicaState state;
    for (uint64_t k = 0; k < kQuorumRecords; ++k) {
      const std::string key = gen.KeyFor(k);
      std::vector<std::string> values;
      for (const Version& v : cluster.storage(srv)->Get(key)) {
        values.push_back(v.value);
      }
      if (values.empty()) continue;
      std::sort(values.begin(), values.end());
      state[key] = std::move(values);
    }
    out.replicas.push_back(std::move(state));
  }
  for (uint64_t k = 0; k < kQuorumRecords; ++k) {
    const std::string key = gen.KeyFor(k);
    final_versions[key] = cluster.storage(servers[0])->GetRaw(key);
  }
  // An acked write is covered while still a sibling, or when a surviving
  // sibling causally dominates it (read-modify-write supersession).
  out.covered = [&](const verify::AckedWrite& w,
                    const std::vector<std::string>& final_values) {
    if (std::find(final_values.begin(), final_values.end(), w.value) !=
        final_values.end()) {
      return true;
    }
    auto vv = acked_vv.find(w.value);
    if (vv == acked_vv.end()) return false;
    for (const Version& v : final_versions[w.key]) {
      if (v.vv.Descends(vv->second)) return true;
    }
    return false;
  };
  if (plant_stale_read) PlantStaleRead(&out, sim.Now());
  ProbeTick(probe);  // samples the quiescence
  res.violation = drained ? CheckStoreClaims(out, spans)
                          : "client ops did not drain";
  Finish(sim, net, rpc, out, &res);
  ProbeTick(probe);  // samples the checks
  res.total_s = Seconds(t0, WallNs()) - Seconds(probe0, ProbeNs(probe));
  return res;
}

// ---------------------------------------------------------------------------
// edge-ycsb-b
// ---------------------------------------------------------------------------

RepResult RunEdgeYcsbB(uint64_t seed, bool plant_stale_read,
                       SpanLog* spans, HostProbe* probe) {
  RepResult res;
  SpanLog::Scope rep_span(spans, Layer::kRep, "rep");
  const int64_t t0 = WallNs();
  const int64_t probe0 = ProbeNs(probe);
  std::optional<SpanLog::Scope> setup_span;
  setup_span.emplace(spans, Layer::kSetup, "setup");

  // The fuzzer's kEdgeCache stack (verify/fuzz.cc), without the nemesis.
  sim::Simulator sim(seed);
  sim::Network net(&sim, std::make_unique<sim::UniformLatency>(
                             2 * kMillisecond, 12 * kMillisecond));
  sim::Rpc rpc(&net);
  repl::TimelineOptions topt;
  topt.replication_factor = kEdgeServers;
  topt.rpc_timeout = 1 * kSecond;
  repl::TimelineCluster cluster(&rpc, topt);
  const std::vector<sim::NodeId> servers = cluster.AddServers(kEdgeServers);
  cache::EdgeCacheOptions copt;
  copt.lease_ttl = kLeaseTtl;
  cache::EdgeCacheTier tier(&rpc, &cluster, copt);
  std::vector<cache::EdgeCacheClient*> caches;
  for (int i = 0; i < kEdgeCaches; ++i) {
    caches.push_back(tier.AddClient(net.AddNode()));
  }
  cache::EdgeCacheClient* loader = tier.AddClient(net.AddNode());

  workload::WorkloadConfig wc = workload::WorkloadConfig::YcsbB();
  wc.record_count = kEdgeRecords;
  workload::WorkloadGenerator gen(wc, seed);

  StoreOutputs out;
  std::map<std::string, uint64_t> seqno_of;  // value -> timeline position
  std::map<std::pair<std::string, uint64_t>, std::string> timeline;
  auto observe = [&](const std::string& key, uint64_t seqno,
                     const std::string& value) {
    auto [it, inserted] = timeline.try_emplace({key, seqno}, value);
    if (!inserted && it->second != value) ++out.fork_violations;
    seqno_of.emplace(value, seqno);
  };

  uint64_t preload_pending = kEdgeRecords;
  bool preload_ok = true;
  for (uint64_t k = 0; k < kEdgeRecords; ++k) {
    const auto at = static_cast<sim::Time>(static_cast<double>(k) * 1e6 /
                                           kPreloadRate);
    sim.ScheduleAt(at, [&, k] {
      std::string key = gen.KeyFor(k);
      std::string value = "load:" + key;
      out.history.push_back(verify::RecWrite(
          kEdgeSessions + static_cast<int>(k), key, value, sim.Now(),
          sim.Now(), /*acked=*/false));
      const size_t slot = out.history.size() - 1;
      loader->Put(key, value, [&, key, value, slot](Result<uint64_t> r) {
        --preload_pending;
        if (!r.ok()) {
          preload_ok = false;
          return;
        }
        out.history[slot].acked = true;
        out.history[slot].response = sim.Now();
        out.acked.push_back({key, value});
        observe(key, *r, value);
      });
    });
  }
  while (preload_pending > 0 && sim.Now() < kDrainLimit) {
    ProbeTick(probe);
    SpanLog::Scope span(spans, Layer::kSim, "sim.preload");
    sim.RunFor(kSlice);
  }
  setup_span.reset();
  res.setup_s = Seconds(t0, WallNs()) - Seconds(probe0, ProbeNs(probe));
  if (!preload_ok || preload_pending > 0) {
    res.violation = "preload put failed";
    return res;
  }

  std::function<void(int, std::string, std::string, int, OpenLoop::Done)>
      attempt = [&](int i, std::string key, std::string value, int tried,
                    OpenLoop::Done done) {
        cache::EdgeCacheClient* client =
            caches[static_cast<size_t>(i % kEdgeCaches)];
        auto retry = [&attempt, i, key, value, tried](OpenLoop::Done d) {
          if (tried + 1 < kMaxTries) {
            attempt(i, key, value, tried + 1, std::move(d));
          } else {
            d(false);
          }
        };
        if (value.empty()) {
          const int64_t invoke = sim.Now();
          SpanLog::Scope span(spans, Layer::kClient, "cache.get");
          client->Get(key, /*min_seqno=*/0,
                      [&, i, key, invoke, retry,
                       done](Result<cache::CachedRead> r) mutable {
                        if (!r.ok()) return retry(std::move(done));
                        std::vector<std::string> observed;
                        if (r->found) {
                          observed.push_back(r->value);
                          observe(key, r->seqno, r->value);
                        }
                        out.history.push_back(
                            verify::RecRead(i, key, std::move(observed), invoke,
                                            sim.Now(), r->from_cache));
                        done(true);
                      });
          return;
        }
        std::string v =
            tried == 0 ? value : value + "~" + std::to_string(tried);
        out.history.push_back(verify::RecWrite(i, key, v, sim.Now(), sim.Now(),
                                               /*acked=*/false));
        const size_t slot = out.history.size() - 1;
        SpanLog::Scope span(spans, Layer::kClient, "cache.put");
        client->Put(key, v,
                    [&, key, v, slot, retry, done](Result<uint64_t> r) mutable {
                      if (!r.ok()) return retry(std::move(done));
                      out.history[slot].acked = true;
                      out.history[slot].response = sim.Now();
                      out.acked.push_back({key, v});
                      observe(key, *r, v);
                      done(true);
                    });
      };
  OpenLoop loop(&sim, &gen, kEdgeSessions, kEdgeRate, seed, spans,
                [&](int i, const workload::Op& op, OpenLoop::Done done) {
                  attempt(i, op.key,
                          op.type == workload::OpType::kRead ? "" : op.value, 0,
                          std::move(done));
                });
  Counts delta;
  const bool drained =
      Measure(sim, net, rpc, loop, kEdgeWindow, spans, probe, &res, &delta);

  // Replication is fire-and-forget; with no faults it has settled once the
  // in-flight messages land.
  {
    SpanLog::Scope span(spans, Layer::kSim, "sim.quiesce");
    sim.RunFor(2 * kSecond);
  }
  for (sim::NodeId srv : servers) {
    verify::ReplicaState state;
    for (uint64_t k = 0; k < kEdgeRecords; ++k) {
      const std::string key = gen.KeyFor(k);
      const uint64_t seqno = cluster.VisibleSeqno(srv, key);
      if (seqno > 0) state[key] = {std::to_string(seqno)};
    }
    out.replicas.push_back(std::move(state));
  }
  // Convergence compares timeline positions: an acked write is covered when
  // the final position is at or past it.
  const std::vector<verify::AckedWrite> acked_values = std::move(out.acked);
  out.acked.clear();
  for (const verify::AckedWrite& w : acked_values) {
    out.acked.push_back({w.key, std::to_string(seqno_of.at(w.value))});
  }
  out.covered = [](const verify::AckedWrite& w,
                   const std::vector<std::string>& final_values) {
    const uint64_t want = std::stoull(w.value);
    for (const std::string& v : final_values) {
      if (std::stoull(v) >= want) return true;
    }
    return false;
  };
  if (plant_stale_read) PlantStaleRead(&out, sim.Now());
  ProbeTick(probe);  // samples the quiescence
  res.violation = drained ? CheckStoreClaims(out, spans)
                          : "client ops did not drain";
  Finish(sim, net, rpc, out, &res);
  ProbeTick(probe);  // samples the checks
  res.total_s = Seconds(t0, WallNs()) - Seconds(probe0, ProbeNs(probe));
  return res;
}

}  // namespace evc::perf
