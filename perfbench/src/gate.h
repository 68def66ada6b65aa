// evc-perf correctness gate: the claims verify/fuzz.h states for a store,
// checked on one rep's recorded outputs with the repo's own checkers.

#ifndef EVC_PERFBENCH_GATE_H_
#define EVC_PERFBENCH_GATE_H_

#include <string>
#include <vector>

#include "perf.h"
#include "verify/convergence.h"
#include "verify/session_guarantees.h"

namespace evc::perf {

/// What a sim workload rep hands to the gate.
struct StoreOutputs {
  /// Every client op, sessions interleaved, each session in completion
  /// order; write values are unique across the history.
  std::vector<verify::RecordedOp> history;
  /// Final visible state of every replica after quiescence.
  std::vector<verify::ReplicaState> replicas;
  std::vector<verify::AckedWrite> acked;
  verify::CoveredPredicate covered;  ///< null = value membership
  /// Timeline stores: (key, seqno) pairs observed with two values.
  size_t fork_violations = 0;
};

/// Checks all four session guarantees (cached reads included), replica
/// convergence, no lost acked writes, and timeline fork-freedom. Returns ""
/// when every claim holds, else the first violated claim. Checker calls are
/// recorded as verify-layer spans in `spans` (may be null).
std::string CheckStoreClaims(const StoreOutputs& out, SpanLog* spans);

/// Appends an acked write by session 0 and a later read by session 0 that
/// returns not-found for the same key: a read-your-writes violation.
void PlantStaleRead(StoreOutputs* out, int64_t now);

}  // namespace evc::perf

#endif  // EVC_PERFBENCH_GATE_H_
