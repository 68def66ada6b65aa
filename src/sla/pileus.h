// Consistency-based SLAs, Pileus-style (Terry et al., SOSP 2013).
//
// The tutorial's closing argument: instead of one fixed consistency level,
// let each read carry an SLA — an ordered list of (latency bound,
// consistency floor, utility) rows — and have the client library pick, per
// read, the replica most likely to deliver the highest-utility row, based
// on monitored round-trip times and replica freshness. A London client with
// a far-away primary degrades gracefully to bounded-staleness or eventual
// reads; a client co-located with the primary gets strong reads at no cost
// (Table 3 sweeps client placement).
//
// Topology: one primary (all writes) and any number of read-only
// secondaries fed by asynchronous replication.

#ifndef EVC_SLA_PILEUS_H_
#define EVC_SLA_PILEUS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/rpc.h"

namespace evc::sla {

/// Consistency choices a Pileus SLA row can name (subset of the paper's).
enum class ReadConsistency {
  kStrong,    ///< served by the primary
  kBounded,   ///< replica staleness <= staleness_bound
  kEventual,  ///< any replica
};

const char* ReadConsistencyToString(ReadConsistency c);

/// One SLA row: "I'd pay `utility` for a read within `latency_bound` at
/// `consistency` (with `staleness_bound` when bounded)".
struct SlaRow {
  sim::Time latency_bound = 0;
  ReadConsistency consistency = ReadConsistency::kEventual;
  sim::Time staleness_bound = 0;  ///< only for kBounded
  double utility = 0.0;
};

/// An SLA is a utility-descending list of rows; the last row should be a
/// catch-all (eventual, loose latency) so reads never fail outright.
using Sla = std::vector<SlaRow>;

/// Result of an SLA read.
struct SlaReadResult {
  bool found = false;
  std::string value;
  uint64_t seqno = 0;
  sim::Time observed_latency = 0;
  double delivered_utility = 0.0;  ///< utility of the best row actually met
  int chosen_row = -1;             ///< row the client targeted
  int delivered_row = -1;          ///< best row actually satisfied
};

struct PileusOptions {
  /// Secondaries apply primary updates shipped every sync period.
  sim::Time sync_interval = 200 * sim::kMillisecond;
};

/// Primary + secondaries storage service.
class PileusCluster {
 public:
  PileusCluster(sim::Rpc* rpc, PileusOptions options);

  /// First server added is the primary.
  sim::NodeId AddPrimary();
  sim::NodeId AddSecondary();
  sim::NodeId primary() const { return nodes_.at(0); }
  const std::vector<sim::NodeId>& nodes() const { return nodes_; }

  /// Starts the periodic primary->secondary sync shipping.
  void Start();

  using WriteCallback = std::function<void(Result<uint64_t>)>;
  void Put(sim::NodeId client, const std::string& key, std::string value,
           WriteCallback done);

  struct RawRead {
    bool found = false;
    std::string value;
    uint64_t seqno = 0;
    /// Sim-time through which this replica has applied all primary writes;
    /// staleness(now) = now - high_time.
    sim::Time high_time = 0;
  };
  using RawReadCallback = std::function<void(Result<RawRead>)>;
  void RawGet(sim::NodeId client, sim::NodeId server, const std::string& key,
              RawReadCallback done);

  /// Test hook: replica's applied high time.
  sim::Time HighTimeOf(sim::NodeId server) const;

 private:
  struct Record {
    std::string value;
    uint64_t seqno = 0;
  };
  struct Server {
    sim::NodeId node = 0;
    bool is_primary = false;
    std::map<std::string, Record> data;
    sim::Time high_time = 0;
    uint64_t next_seqno = 1;  // primary only
  };
  struct SyncBatch {
    std::vector<std::tuple<std::string, std::string, uint64_t>> writes;
    sim::Time through_time = 0;
  };
  struct PutReq {
    std::string key;
    std::string value;
  };
  struct GetReq {
    std::string key;
  };

  sim::NodeId AddServer(bool is_primary);
  void RegisterHandlers(Server* server);
  void ShipSync();

  sim::Rpc* rpc_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MethodId m_put_ = 0;
  sim::MethodId m_get_ = 0;
  sim::MsgType t_sync_ = 0;
  PileusOptions options_;
  std::vector<sim::NodeId> nodes_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::map<sim::NodeId, Server*> by_node_;
  // Writes accumulated since the last sync shipment.
  std::vector<std::tuple<std::string, std::string, uint64_t>> pending_sync_;
  bool started_ = false;
};

struct PileusClientStats {
  uint64_t reads = 0;
  OnlineStats delivered_utility;
  std::map<int, uint64_t> reads_per_row;  ///< delivered_row -> count
};

/// Client library: monitors replicas, picks a target per read to maximize
/// expected utility, verifies which row was actually delivered.
class PileusClient {
 public:
  PileusClient(PileusCluster* cluster, sim::Simulator* sim,
               sim::NodeId client_node, Sla sla);

  /// Sends one probe read to every replica to seed the latency monitor.
  void Probe(const std::string& key, std::function<void()> done);

  using ReadCallback = std::function<void(Result<SlaReadResult>)>;
  void Get(const std::string& key, ReadCallback done);

  const PileusClientStats& stats() const { return stats_; }
  /// Monitored RTT estimate for a node (us); 0 if never measured.
  sim::Time RttEstimate(sim::NodeId node) const;

 private:
  struct NodeMonitor {
    double rtt_ewma_us = 0;  // 0 = unknown
    sim::Time last_high_time = 0;
    sim::Time high_time_as_of = 0;
  };

  void UpdateMonitor(sim::NodeId node, sim::Time rtt, sim::Time high_time);
  /// Probability-weighted utility of serving `row` from `node`, per the
  /// monitor's current estimates.
  double ExpectedUtility(const SlaRow& row, sim::NodeId node) const;

  PileusCluster* cluster_;
  sim::Simulator* sim_;
  sim::NodeId client_node_;
  Sla sla_;
  std::map<sim::NodeId, NodeMonitor> monitors_;
  PileusClientStats stats_;
};

}  // namespace evc::sla

#endif  // EVC_SLA_PILEUS_H_
