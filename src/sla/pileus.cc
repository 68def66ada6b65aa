#include "sla/pileus.h"

#include <algorithm>

namespace evc::sla {

namespace {
constexpr char kPut[] = "pl.put";
constexpr char kGet[] = "pl.get";
constexpr char kSync[] = "pl.sync";
constexpr sim::Time kRpcTimeout = 2 * sim::kSecond;
}  // namespace

const char* ReadConsistencyToString(ReadConsistency c) {
  switch (c) {
    case ReadConsistency::kStrong:
      return "strong";
    case ReadConsistency::kBounded:
      return "bounded";
    case ReadConsistency::kEventual:
      return "eventual";
  }
  return "?";
}

PileusCluster::PileusCluster(sim::Rpc* rpc, PileusOptions options)
    : rpc_(rpc), options_(options) {
  EVC_CHECK(rpc_ != nullptr);
  m_put_ = rpc_->InternMethod(kPut);
  m_get_ = rpc_->InternMethod(kGet);
  t_sync_ = rpc_->network()->InternType(kSync);
}

sim::NodeId PileusCluster::AddPrimary() {
  EVC_CHECK(servers_.empty());
  return AddServer(/*is_primary=*/true);
}

sim::NodeId PileusCluster::AddSecondary() {
  EVC_CHECK(!servers_.empty());
  return AddServer(/*is_primary=*/false);
}

sim::NodeId PileusCluster::AddServer(bool is_primary) {
  auto server = std::make_unique<Server>();
  server->node = rpc_->network()->AddNode();
  server->is_primary = is_primary;
  RegisterHandlers(server.get());
  by_node_[server->node] = server.get();
  nodes_.push_back(server->node);
  servers_.push_back(std::move(server));
  return servers_.back()->node;
}

void PileusCluster::RegisterHandlers(Server* server) {
  if (server->is_primary) {
    rpc_->RegisterHandler(
        server->node, m_put_,
        [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
          auto put = std::move(req).Take<PutReq>();
          Record& rec = server->data[put.key];
          rec.value = put.value;
          rec.seqno = server->next_seqno++;
          server->high_time = rpc_->simulator()->Now();
          pending_sync_.emplace_back(put.key, rec.value, rec.seqno);
          respond(rec.seqno);
        });
  }

  rpc_->RegisterHandler(
      server->node, m_get_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto get = std::move(req).Take<GetReq>();
        RawRead result;
        auto it = server->data.find(get.key);
        if (it != server->data.end()) {
          result.found = true;
          result.value = it->second.value;
          result.seqno = it->second.seqno;
        }
        // The primary is always current.
        result.high_time = server->is_primary ? rpc_->simulator()->Now()
                                              : server->high_time;
        respond(std::move(result));
      });

  if (!server->is_primary) {
    rpc_->network()->RegisterHandler(
        server->node, t_sync_, [server](sim::Message msg) {
          auto batch = std::move(msg.payload).Take<SyncBatch>();
          for (const auto& [key, value, seqno] : batch.writes) {
            Record& rec = server->data[key];
            if (seqno > rec.seqno) {
              rec.value = value;
              rec.seqno = seqno;
            }
          }
          if (batch.through_time > server->high_time) {
            server->high_time = batch.through_time;
          }
        });
  }
}

void PileusCluster::ShipSync() {
  Server* primary_server = by_node_.at(primary());
  SyncBatch batch;
  batch.writes = std::move(pending_sync_);
  pending_sync_.clear();
  batch.through_time = rpc_->simulator()->Now();
  for (const auto& server : servers_) {
    if (server->is_primary) continue;
    rpc_->network()->Send(primary_server->node, server->node, t_sync_, batch);
  }
  rpc_->simulator()->ScheduleAfter(options_.sync_interval,
                                   [this] { ShipSync(); });
}

void PileusCluster::Start() {
  EVC_CHECK(!started_);
  started_ = true;
  rpc_->simulator()->ScheduleAfter(options_.sync_interval,
                                   [this] { ShipSync(); });
}

void PileusCluster::Put(sim::NodeId client, const std::string& key,
                        std::string value, WriteCallback done) {
  PutReq req{key, std::move(value)};
  rpc_->Call(client, primary(), m_put_, std::move(req), kRpcTimeout,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<uint64_t>());
               }
             });
}

void PileusCluster::RawGet(sim::NodeId client, sim::NodeId server,
                           const std::string& key, RawReadCallback done) {
  GetReq req{key};
  rpc_->Call(client, server, m_get_, std::move(req), kRpcTimeout,
             [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<RawRead>());
               }
             });
}

sim::Time PileusCluster::HighTimeOf(sim::NodeId server) const {
  auto it = by_node_.find(server);
  EVC_CHECK(it != by_node_.end());
  return it->second->is_primary ? rpc_->simulator()->Now()
                                : it->second->high_time;
}

// ---------------------------------------------------------------------------
// PileusClient
// ---------------------------------------------------------------------------

PileusClient::PileusClient(PileusCluster* cluster, sim::Simulator* sim,
                           sim::NodeId client_node, Sla sla)
    : cluster_(cluster),
      sim_(sim),
      client_node_(client_node),
      sla_(std::move(sla)) {
  EVC_CHECK(!sla_.empty());
}

void PileusClient::UpdateMonitor(sim::NodeId node, sim::Time rtt,
                                 sim::Time high_time) {
  NodeMonitor& m = monitors_[node];
  const double r = static_cast<double>(rtt);
  m.rtt_ewma_us = m.rtt_ewma_us == 0 ? r : 0.7 * m.rtt_ewma_us + 0.3 * r;
  m.last_high_time = high_time;
  m.high_time_as_of = sim_->Now();
}

sim::Time PileusClient::RttEstimate(sim::NodeId node) const {
  auto it = monitors_.find(node);
  return it == monitors_.end()
             ? 0
             : static_cast<sim::Time>(it->second.rtt_ewma_us);
}

void PileusClient::Probe(const std::string& key, std::function<void()> done) {
  auto remaining = std::make_shared<int>(
      static_cast<int>(cluster_->nodes().size()));
  for (const sim::NodeId node : cluster_->nodes()) {
    const sim::Time start = sim_->Now();
    cluster_->RawGet(client_node_, node, key,
                     [this, node, start, remaining,
                      done](Result<PileusCluster::RawRead> r) {
                       if (r.ok()) {
                         UpdateMonitor(node, sim_->Now() - start,
                                       r->high_time);
                       }
                       if (--*remaining == 0) done();
                     });
  }
}

double PileusClient::ExpectedUtility(const SlaRow& row,
                                     sim::NodeId node) const {
  auto it = monitors_.find(node);
  if (it == monitors_.end() || it->second.rtt_ewma_us == 0) {
    return 0.0;  // unknown node: not a candidate until probed
  }
  const NodeMonitor& m = it->second;

  // Consistency feasibility.
  const bool is_primary = node == cluster_->primary();
  switch (row.consistency) {
    case ReadConsistency::kStrong:
      if (!is_primary) return 0.0;
      break;
    case ReadConsistency::kBounded: {
      if (!is_primary) {
        // Estimated staleness when the read will arrive: age of the last
        // known high time plus one more estimated half round trip.
        const sim::Time est_staleness =
            (sim_->Now() - m.last_high_time) +
            static_cast<sim::Time>(m.rtt_ewma_us / 2);
        if (est_staleness > row.staleness_bound) return 0.0;
      }
      break;
    }
    case ReadConsistency::kEventual:
      break;
  }

  // Latency probability model: treat the EWMA as the mean of a shifted
  // distribution; a simple smooth estimate P(rtt <= bound).
  const double ratio =
      static_cast<double>(row.latency_bound) / m.rtt_ewma_us;
  double p;
  if (ratio >= 2.0) {
    p = 1.0;
  } else if (ratio <= 0.5) {
    p = 0.0;
  } else {
    p = (ratio - 0.5) / 1.5;
  }
  return p * row.utility;
}

void PileusClient::Get(const std::string& key, ReadCallback done) {
  // Pick the (row, node) with the highest expected utility; ties prefer
  // earlier (higher-value) rows.
  double best_score = -1.0;
  double best_rtt = 0.0;
  int best_row = -1;
  sim::NodeId best_node = cluster_->primary();
  for (size_t row_idx = 0; row_idx < sla_.size(); ++row_idx) {
    for (const sim::NodeId node : cluster_->nodes()) {
      const double score = ExpectedUtility(sla_[row_idx], node);
      auto mon = monitors_.find(node);
      const double rtt =
          mon == monitors_.end() ? 1e18 : mon->second.rtt_ewma_us;
      // Strictly better utility wins; equal utility prefers the closer
      // replica (same expected payoff, lower latency).
      const bool better = score > best_score + 1e-12 ||
                          (score > best_score - 1e-12 && best_row >= 0 &&
                           rtt < best_rtt);
      if (better) {
        best_score = score;
        best_rtt = rtt;
        best_row = static_cast<int>(row_idx);
        best_node = node;
      }
    }
  }
  if (best_row < 0) {
    // No monitored data yet: fall back to the primary and the last row.
    best_row = static_cast<int>(sla_.size()) - 1;
  }

  const sim::Time start = sim_->Now();
  const int chosen_row = best_row;
  const sim::NodeId target = best_node;
  cluster_->RawGet(
      client_node_, target, key,
      [this, start, chosen_row, target,
       done](Result<PileusCluster::RawRead> r) {
        if (!r.ok()) {
          done(r.status());
          return;
        }
        const sim::Time rtt = sim_->Now() - start;
        UpdateMonitor(target, rtt, r->high_time);

        SlaReadResult result;
        result.found = r->found;
        result.value = r->value;
        result.seqno = r->seqno;
        result.observed_latency = rtt;
        result.chosen_row = chosen_row;
        // Which rows were actually satisfied? Deliver the best (earliest).
        const bool is_primary = target == cluster_->primary();
        const sim::Time staleness = sim_->Now() - r->high_time;
        for (size_t i = 0; i < sla_.size(); ++i) {
          const SlaRow& row = sla_[i];
          if (rtt > row.latency_bound) continue;
          if (row.consistency == ReadConsistency::kStrong && !is_primary) {
            continue;
          }
          if (row.consistency == ReadConsistency::kBounded && !is_primary &&
              staleness > row.staleness_bound) {
            continue;
          }
          result.delivered_row = static_cast<int>(i);
          result.delivered_utility = row.utility;
          break;
        }
        ++stats_.reads;
        stats_.delivered_utility.Add(result.delivered_utility);
        ++stats_.reads_per_row[result.delivered_row];
        done(std::move(result));
      });
}

}  // namespace evc::sla
