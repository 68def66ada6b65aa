// Server-side admission control: the overload half of the resilience layer.
//
// Every node role (quorum coordinator, replica, timeline master, cache
// origin) can install an AdmissionQueue as its sim::RequestGate. Inbound
// RPCs then pass through a bounded, priority-classed queue in front of a
// fixed pool of service slots:
//
//   - kControl   (heartbeats/pings) bypasses the queue entirely: overload
//                must not read as death, or breakers/detectors amplify it.
//   - kForeground (client ops and their quorum legs) is served first.
//   - kBackground (hints, anti-entropy, migration streaming) is served only
//                when no foreground work waits, from a smaller queue.
//
// Two shedding mechanisms bound the queueing delay rather than the queue
// alone (an unbounded-delay queue is how metastable failures sustain
// themselves — see DESIGN.md §4.5):
//
//   1. Enqueue rejection: a full class queue rejects immediately with
//      kResourceExhausted carrying a retry-after hint.
//   2. CoDel-style sojourn drop: a request dequeued after waiting longer
//      than `sojourn_target` is shed instead of served — work that waited
//      that long is likely already abandoned by its caller, and serving it
//      steals capacity from requests that can still succeed.
//
// The queue also answers RequestGate::LoadPercent, which sim::Rpc
// piggybacks on every reply; background senders poll Rpc::PeerLoad and
// yield before adding traffic to a node that reports pressure.

#ifndef EVC_RESILIENCE_ADMISSION_H_
#define EVC_RESILIENCE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/rpc.h"

namespace evc::resilience {

enum class AdmissionPriority : uint8_t {
  kControl = 0,     ///< failure-detector probes: never queued, never shed
  kForeground = 1,  ///< client-facing ops and their replica legs
  kBackground = 2,  ///< hints, anti-entropy, migration streaming
};

struct AdmissionOptions {
  /// Concurrent service slots (the node's capacity model: throughput is
  /// max_concurrent / service_time requests per unit time).
  int max_concurrent = 4;
  /// How long a request holds its slot. Simulated handlers complete
  /// instantly, so this is what makes "too many requests" mean anything.
  sim::Time service_time = 1 * sim::kMillisecond;
  size_t foreground_queue_limit = 64;
  /// Background queue is deliberately small: deferred background work is
  /// retried by its own subsystem, so queueing it deeply only adds load.
  size_t background_queue_limit = 16;
  /// Dequeue-time sojourn bound (CoDel-style): a request that waited
  /// longer is shed, not served. 0 disables the drop (used by the
  /// defenses-off arm of bench_fig12_overload).
  sim::Time sojourn_target = 20 * sim::kMillisecond;
  /// Retry-after hint attached to every kResourceExhausted rejection.
  sim::Time retry_after = 50 * sim::kMillisecond;
};

struct AdmissionStats {
  obs::Tally admitted{"admission.admitted"};  ///< dispatched to a handler
  /// Shed at enqueue (bounded queue).
  obs::Tally rejected_queue_full{"admission.rejected_queue_full"};
  obs::Tally shed_sojourn{"admission.shed_sojourn"};  ///< sojourn > target
  /// All sheds, by class.
  obs::Tally shed_foreground{"admission.shed_foreground"};
  obs::Tally shed_background{"admission.shed_background"};
  uint64_t total_shed() const { return rejected_queue_full + shed_sojourn; }
};

/// Builds the kResourceExhausted rejection a gate returns, encoding the
/// retry-after hint machine-readably in the message.
Status ResourceExhaustedWithRetryAfter(sim::Time retry_after);
/// Extracts the retry-after hint from a rejection; 0 when absent or the
/// status is not kResourceExhausted.
sim::Time RetryAfterHint(const Status& status);

class AdmissionQueue : public sim::RequestGate {
 public:
  /// Gates requests addressed to `node`. Registers itself with `rpc` and as
  /// a crash participant (a crash drops the queue: the node must not serve
  /// or answer requests it logically lost). The destructor unhooks both.
  AdmissionQueue(sim::Rpc* rpc, sim::NodeId node, AdmissionOptions options);
  ~AdmissionQueue() override;

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Classifies `method`; unregistered methods default to kForeground.
  void SetPriority(sim::MethodId method, AdmissionPriority priority);

  // sim::RequestGate:
  void Admit(sim::MethodId method, std::function<void()> dispatch,
             sim::RpcResponder respond) override;
  uint32_t LoadPercent() const override;

  const AdmissionStats& stats() const { return stats_; }
  size_t queue_depth() const { return foreground_.size() + background_.size(); }
  const AdmissionOptions& options() const { return options_; }

 private:
  struct QueuedRequest {
    std::function<void()> dispatch;
    sim::RpcResponder respond;
    sim::Time enqueued_at = 0;
    AdmissionPriority priority = AdmissionPriority::kForeground;
  };

  struct CrashHook : sim::CrashParticipant {
    AdmissionQueue* owner = nullptr;
    void OnCrash(uint32_t node) override;
    void OnRestart(uint32_t node) override;
  };

  AdmissionPriority PriorityOf(sim::MethodId method) const;
  void Reject(const QueuedRequest& request, bool at_enqueue);
  void RunOne(QueuedRequest request);
  void PumpQueues();
  void UpdateDepthGauge();

  sim::Rpc* rpc_;
  sim::NodeId node_;
  AdmissionOptions options_;
  std::vector<AdmissionPriority> priority_of_;  // indexed by MethodId
  std::deque<QueuedRequest> foreground_;
  std::deque<QueuedRequest> background_;
  int active_ = 0;
  /// Bumped on crash so in-flight slot-release timers from the previous
  /// incarnation cannot free slots of the next one.
  uint64_t epoch_ = 0;
  AdmissionStats stats_;
  CrashHook crash_hook_;

  // The node's registry: the stats_ Tallies and the instruments below
  // count into it.
  obs::MetricsRegistry* obs_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  Histogram* h_sojourn_us_ = nullptr;
};

}  // namespace evc::resilience

#endif  // EVC_RESILIENCE_ADMISSION_H_
