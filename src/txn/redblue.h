// RedBlue consistency (Li et al., OSDI 2012) on a geo-replicated bank.
//
// The tutorial's "strong only when necessary" hybrid: operations are
// labelled blue (provably commutative and invariant-safe — execute at the
// local site immediately, replicate shadow deltas asynchronously) or red
// (order-dependent — serialized through a global sequencer before anyone
// acks). The bank is the paper's running example:
//   * Deposit is blue: deposits commute and cannot break balance >= 0.
//   * Withdraw must be red: two sites concurrently withdrawing the same
//     funds can drive the balance negative. WithdrawBlue is provided
//     deliberately to measure exactly that anomaly (Table 1 / Table 2).
// Blue latency ~ local RTT; red latency ~ WAN RTT to the sequencer: the
// throughput/latency-vs-red-fraction tradeoff is the experiment.

#ifndef EVC_TXN_REDBLUE_H_
#define EVC_TXN_REDBLUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/rpc.h"

namespace evc::txn {

struct RedBlueStats {
  uint64_t blue_ops = 0;
  uint64_t red_ops = 0;
  uint64_t red_aborts = 0;           ///< red withdrawals rejected (funds)
  uint64_t invariant_violations = 0; ///< balance observed < 0 at some site
};

/// Geo-replicated bank with red/blue operation labelling.
class RedBlueBank {
 public:
  /// `rpc` must outlive the bank. Site 0 hosts the red-op sequencer.
  RedBlueBank(sim::Rpc* rpc, int site_count);

  size_t site_count() const { return sites_.size(); }
  sim::NodeId site_node(int index) const;

  using OpCallback = std::function<void(Result<int64_t>)>;

  /// Blue op: commutative deposit. Acks after the local apply; shadow
  /// deltas replicate asynchronously.
  void Deposit(sim::NodeId client, int site, const std::string& account,
               int64_t amount, OpCallback done);

  /// Red op: withdraw serialized through the sequencer, which checks the
  /// invariant against its authoritative red state. Aborted when the
  /// sequencer cannot guarantee balance >= 0.
  void WithdrawRed(sim::NodeId client, int site, const std::string& account,
                   int64_t amount, OpCallback done);

  /// Mislabelled-blue withdraw: local check, blue replication. Fast and
  /// WRONG — concurrent sites can double-spend (the anomaly the experiment
  /// counts).
  void WithdrawBlue(sim::NodeId client, int site, const std::string& account,
                    int64_t amount, OpCallback done);

  /// Balance visible at `site`.
  int64_t BalanceAt(int site, const std::string& account) const;
  /// True if every site sees the same balance.
  bool Converged(const std::string& account) const;

  const RedBlueStats& stats() const { return stats_; }

 private:
  struct Site {
    sim::NodeId node = 0;
    int index = 0;
    std::map<std::string, int64_t> balances;
  };
  struct BlueDelta {
    std::string account;
    int64_t delta = 0;
  };
  struct LocalOpReq {
    std::string account;
    int64_t amount = 0;
    bool is_withdraw = false;
  };
  struct RedReq {
    std::string account;
    int64_t amount = 0;
  };

  void RegisterHandlers(Site* site);
  void ApplyDelta(Site* site, const std::string& account, int64_t delta);
  void BroadcastDelta(Site* origin, const std::string& account,
                      int64_t delta);

  sim::Rpc* rpc_;
  // Pre-interned RPC methods / message types (resolved in the ctor).
  sim::MethodId m_local_op_ = 0;
  sim::MethodId m_red_op_ = 0;
  sim::MsgType t_delta_ = 0;
  std::vector<std::unique_ptr<Site>> sites_;
  RedBlueStats stats_;
};

}  // namespace evc::txn

#endif  // EVC_TXN_REDBLUE_H_
