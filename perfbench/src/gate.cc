#include "gate.h"

namespace evc::perf {

std::string CheckStoreClaims(const StoreOutputs& out, SpanLog* spans) {
  verify::SessionCheckResult session;
  {
    SpanLog::Scope span(spans, Layer::kVerify, "verify.session_guarantees");
    session = verify::CheckSessionGuarantees(out.history);
  }
  if (session.malformed) return "history malformed: two writes share a value";
  if (!session.ok()) {
    std::string why = "session guarantee violated: " + session.ToString();
    if (!session.violations.empty()) {
      why += " first: " + session.violations.front().ToString();
    }
    return why;
  }
  verify::ConvergenceResult conv;
  {
    SpanLog::Scope span(spans, Layer::kVerify, "verify.convergence");
    conv = verify::CheckConvergence(out.replicas, out.acked, out.covered);
  }
  if (!conv.ok()) return "convergence violated: " + conv.ToString();
  if (out.fork_violations > 0) {
    return "timeline forked at " + std::to_string(out.fork_violations) +
           " (key, seqno) position(s)";
  }
  return "";
}

void PlantStaleRead(StoreOutputs* out, int64_t now) {
  out->history.push_back(verify::RecWrite(0, "planted", "planted-value", now,
                                          now + 1, /*acked=*/true));
  out->history.push_back(verify::RecRead(0, "planted", {}, now + 2, now + 3));
}

}  // namespace evc::perf
