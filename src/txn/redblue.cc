#include "txn/redblue.h"

namespace evc::txn {

namespace {
constexpr char kLocalOp[] = "rb.local";
constexpr char kRedOp[] = "rb.red";
constexpr char kDelta[] = "rb.delta";
constexpr sim::Time kRpcTimeout = 2 * sim::kSecond;
}  // namespace

RedBlueBank::RedBlueBank(sim::Rpc* rpc, int site_count) : rpc_(rpc) {
  EVC_CHECK(rpc_ != nullptr);
  m_local_op_ = rpc_->InternMethod(kLocalOp);
  m_red_op_ = rpc_->InternMethod(kRedOp);
  t_delta_ = rpc_->network()->InternType(kDelta);
  EVC_CHECK(site_count >= 1);
  for (int i = 0; i < site_count; ++i) {
    auto site = std::make_unique<Site>();
    site->node = rpc_->network()->AddNode();
    site->index = i;
    RegisterHandlers(site.get());
    sites_.push_back(std::move(site));
  }
}

sim::NodeId RedBlueBank::site_node(int index) const {
  EVC_CHECK(index >= 0 && index < static_cast<int>(sites_.size()));
  return sites_[index]->node;
}

void RedBlueBank::ApplyDelta(Site* site, const std::string& account,
                             int64_t delta) {
  int64_t& balance = site->balances[account];
  balance += delta;
  if (balance < 0) {
    // The invariant "balance >= 0" is broken at this site — the double-
    // spend anomaly mislabelled-blue withdrawals produce.
    ++stats_.invariant_violations;
  }
}

void RedBlueBank::BroadcastDelta(Site* origin, const std::string& account,
                                 int64_t delta) {
  BlueDelta msg{account, delta};
  for (auto& peer : sites_) {
    if (peer->node == origin->node) continue;
    rpc_->network()->Send(origin->node, peer->node, t_delta_, msg);
  }
}

void RedBlueBank::RegisterHandlers(Site* site) {
  // Blue shadow deltas commute: apply on arrival, any order.
  rpc_->network()->RegisterHandler(
      site->node, t_delta_, [this, site](sim::Message msg) {
        auto delta = std::move(msg.payload).Take<BlueDelta>();
        ApplyDelta(site, delta.account, delta.delta);
      });

  // Blue client ops (deposit / mislabelled-blue withdraw).
  rpc_->RegisterHandler(
      site->node, m_local_op_,
      [this, site](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto op = std::move(req).Take<LocalOpReq>();
        if (op.is_withdraw) {
          // Local-only invariant check: unsound globally, by design.
          if (site->balances[op.account] < op.amount) {
            respond(Status::Aborted("insufficient funds (local view)"));
            return;
          }
          ++stats_.blue_ops;
          ApplyDelta(site, op.account, -op.amount);
          BroadcastDelta(site, op.account, -op.amount);
        } else {
          ++stats_.blue_ops;
          ApplyDelta(site, op.account, op.amount);
          BroadcastDelta(site, op.account, op.amount);
        }
        respond(site->balances[op.account]);
      });

  // Red ops land only on the sequencer (site 0).
  if (site->index == 0) {
    rpc_->RegisterHandler(
        site->node, m_red_op_,
        [this, site](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
          auto op = std::move(req).Take<RedReq>();
          ++stats_.red_ops;
          // The sequencer's local balance is a safe under-approximation of
          // the global balance: it contains every red withdrawal (they all
          // execute here) and a subset of the deposits (those already
          // replicated). Approving against it can never overdraw.
          if (site->balances[op.account] < op.amount) {
            ++stats_.red_aborts;
            respond(Status::Aborted("insufficient funds (red check)"));
            return;
          }
          ApplyDelta(site, op.account, -op.amount);
          BroadcastDelta(site, op.account, -op.amount);
          respond(site->balances[op.account]);
        });
  }
}

void RedBlueBank::Deposit(sim::NodeId client, int site,
                          const std::string& account, int64_t amount,
                          OpCallback done) {
  EVC_CHECK(amount >= 0);
  LocalOpReq req{account, amount, /*is_withdraw=*/false};
  rpc_->Call(client, site_node(site), m_local_op_, std::move(req),
             kRpcTimeout, [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<int64_t>());
               }
             });
}

void RedBlueBank::WithdrawBlue(sim::NodeId client, int site,
                               const std::string& account, int64_t amount,
                               OpCallback done) {
  EVC_CHECK(amount >= 0);
  LocalOpReq req{account, amount, /*is_withdraw=*/true};
  rpc_->Call(client, site_node(site), m_local_op_, std::move(req),
             kRpcTimeout, [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<int64_t>());
               }
             });
}

void RedBlueBank::WithdrawRed(sim::NodeId client, int site,
                              const std::string& account, int64_t amount,
                              OpCallback done) {
  EVC_CHECK(amount >= 0);
  (void)site;  // red ops always route to the sequencer, wherever the client
  RedReq req{account, amount};
  rpc_->Call(client, site_node(0), m_red_op_, std::move(req),
             kRpcTimeout, [done](Result<sim::Payload> r) {
               if (!r.ok()) {
                 done(r.status());
               } else {
                 done(std::move(r).value().Take<int64_t>());
               }
             });
}

int64_t RedBlueBank::BalanceAt(int site, const std::string& account) const {
  EVC_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  auto it = sites_[site]->balances.find(account);
  return it == sites_[site]->balances.end() ? 0 : it->second;
}

bool RedBlueBank::Converged(const std::string& account) const {
  const int64_t first = BalanceAt(0, account);
  for (size_t i = 1; i < sites_.size(); ++i) {
    if (BalanceAt(static_cast<int>(i), account) != first) return false;
  }
  return true;
}

}  // namespace evc::txn
