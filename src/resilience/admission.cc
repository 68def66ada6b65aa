#include "resilience/admission.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace evc::resilience {

namespace {
constexpr char kRetryAfterTag[] = "retry_after_us=";
}  // namespace

Status ResourceExhaustedWithRetryAfter(sim::Time retry_after) {
  return Status::ResourceExhausted(
      std::string("overloaded; ") + kRetryAfterTag +
      std::to_string(retry_after));
}

sim::Time RetryAfterHint(const Status& status) {
  if (!status.IsResourceExhausted()) return 0;
  const std::string& msg = status.message();
  const size_t pos = msg.find(kRetryAfterTag);
  if (pos == std::string::npos) return 0;
  const char* digits = msg.c_str() + pos + sizeof(kRetryAfterTag) - 1;
  char* end = nullptr;
  const long long parsed = std::strtoll(digits, &end, 10);
  if (end == digits || parsed <= 0) return 0;
  return static_cast<sim::Time>(parsed);
}

void AdmissionQueue::CrashHook::OnCrash(uint32_t /*node*/) {
  // Queued requests and occupied slots are volatile state: the node must
  // neither serve nor answer them after losing power. Dropped silently —
  // the callers' RPC timeouts are the correct failure signal.
  owner->foreground_.clear();
  owner->background_.clear();
  owner->active_ = 0;
  ++owner->epoch_;  // void the previous incarnation's slot-release timers
  owner->UpdateDepthGauge();
}

void AdmissionQueue::CrashHook::OnRestart(uint32_t /*node*/) {}

AdmissionQueue::AdmissionQueue(sim::Rpc* rpc, sim::NodeId node,
                               AdmissionOptions options)
    : rpc_(rpc), node_(node), options_(options) {
  EVC_CHECK(rpc_ != nullptr);
  EVC_CHECK(options_.max_concurrent >= 1);
  EVC_CHECK(options_.service_time >= 1);
  obs_ = &rpc_->simulator()->metrics().node(node_);
  for (obs::Tally* t : {&stats_.admitted, &stats_.rejected_queue_full,
                        &stats_.shed_sojourn, &stats_.shed_foreground,
                        &stats_.shed_background}) {
    t->Inc(*obs_, 0);
  }
  g_queue_depth_ = &obs_->GaugeFor("admission.queue_depth");
  h_sojourn_us_ = &obs_->HistogramFor("admission.sojourn_us");
  crash_hook_.owner = this;
  rpc_->simulator()->RegisterCrashParticipant(node_, &crash_hook_);
  rpc_->SetRequestGate(node_, this);
}

AdmissionQueue::~AdmissionQueue() {
  rpc_->SetRequestGate(node_, nullptr);
  rpc_->simulator()->UnregisterCrashParticipant(&crash_hook_);
}

void AdmissionQueue::SetPriority(sim::MethodId method,
                                 AdmissionPriority priority) {
  if (priority_of_.size() <= method) {
    priority_of_.resize(method + 1, AdmissionPriority::kForeground);
  }
  priority_of_[method] = priority;
}

AdmissionPriority AdmissionQueue::PriorityOf(sim::MethodId method) const {
  if (method < priority_of_.size()) return priority_of_[method];
  return AdmissionPriority::kForeground;
}

void AdmissionQueue::Admit(sim::MethodId method,
                           std::function<void()> dispatch,
                           sim::RpcResponder respond) {
  const AdmissionPriority priority = PriorityOf(method);
  // Control traffic is never queued: an overloaded node that stops
  // answering pings looks dead, trips breakers, and converts overload into
  // (apparent) failure — the amplification this subsystem exists to stop.
  if (priority == AdmissionPriority::kControl) {
    stats_.admitted.Inc(*obs_);
    dispatch();
    return;
  }

  QueuedRequest request{std::move(dispatch), std::move(respond),
                        rpc_->simulator()->Now(), priority};
  std::deque<QueuedRequest>& queue =
      priority == AdmissionPriority::kBackground ? background_ : foreground_;
  const size_t limit = priority == AdmissionPriority::kBackground
                           ? options_.background_queue_limit
                           : options_.foreground_queue_limit;
  if (queue.size() >= limit) {
    stats_.rejected_queue_full.Inc(*obs_);
    Reject(request, /*at_enqueue=*/true);
    return;
  }
  queue.push_back(std::move(request));
  PumpQueues();
}

void AdmissionQueue::Reject(const QueuedRequest& request, bool /*at_enqueue*/) {
  if (request.priority == AdmissionPriority::kBackground) {
    stats_.shed_background.Inc(*obs_);
  } else {
    stats_.shed_foreground.Inc(*obs_);
  }
  request.respond(ResourceExhaustedWithRetryAfter(options_.retry_after));
}

void AdmissionQueue::RunOne(QueuedRequest request) {
  ++active_;
  stats_.admitted.Inc(*obs_);
  request.dispatch();
  const uint64_t epoch = epoch_;
  rpc_->simulator()->ScheduleAfter(options_.service_time, [this, epoch] {
    if (epoch != epoch_) return;  // crashed since: slot no longer exists
    --active_;
    PumpQueues();
  });
}

void AdmissionQueue::PumpQueues() {
  while (active_ < options_.max_concurrent) {
    std::deque<QueuedRequest>* queue = nullptr;
    if (!foreground_.empty()) {
      queue = &foreground_;
    } else if (!background_.empty()) {
      queue = &background_;
    } else {
      break;
    }
    QueuedRequest request = std::move(queue->front());
    queue->pop_front();
    const sim::Time sojourn =
        rpc_->simulator()->Now() - request.enqueued_at;
    h_sojourn_us_->Add(static_cast<double>(sojourn));
    if (options_.sojourn_target > 0 && sojourn > options_.sojourn_target) {
      // CoDel-style drop: by the time this request reached the front it
      // had already waited past the delay bound; its caller has likely
      // timed out or retried, so serving it now is pure wasted capacity.
      stats_.shed_sojourn.Inc(*obs_);
      Reject(request, /*at_enqueue=*/false);
      continue;
    }
    RunOne(std::move(request));
  }
  UpdateDepthGauge();
}

void AdmissionQueue::UpdateDepthGauge() {
  g_queue_depth_->Set(static_cast<double>(queue_depth()));
}

uint32_t AdmissionQueue::LoadPercent() const {
  // 0..50: service slots filling up. 50..100: queues filling up. Monotone
  // in pressure, so background callers can yield on a simple threshold.
  const size_t queued = queue_depth();
  double load;
  if (queued == 0) {
    load = 50.0 * static_cast<double>(active_) /
           static_cast<double>(options_.max_concurrent);
  } else {
    const size_t capacity =
        options_.foreground_queue_limit + options_.background_queue_limit;
    load = 50.0 + 50.0 * static_cast<double>(queued) /
                      static_cast<double>(std::max<size_t>(1, capacity));
  }
  return static_cast<uint32_t>(std::clamp(load, 0.0, 100.0));
}

}  // namespace evc::resilience
