// evc_perf_selftest: the benchmark's own checks must have teeth. Each case
// plants one defect in otherwise-good outputs and requires the gate (or
// the fingerprint comparison) to report it. Exits 1 on the first miss.

#include <cstdio>
#include <string>

#include "gate.h"
#include "perf.h"

namespace evc::perf {
namespace {

using verify::RecRead;
using verify::RecWrite;

/// Two sessions, two replicas that agree, every acked write visible.
StoreOutputs Good() {
  StoreOutputs out;
  out.history = {
      RecWrite(0, "k", "a", 0, 10),
      RecRead(0, "k", {"a"}, 20, 30),
      RecWrite(1, "k", "b", 40, 50),
      RecRead(0, "k", {"b"}, 60, 70),
      RecRead(1, "k", {"b"}, 60, 70, /*from_cache=*/true),
  };
  out.replicas = {{{"k", {"b"}}}, {{"k", {"b"}}}};
  out.acked = {{"k", "a"}, {"k", "b"}};
  // "b" was written after "a" was read, so it supersedes it.
  out.covered = [](const verify::AckedWrite& w,
                   const std::vector<std::string>& final_values) {
    return w.value == "a" || final_values.front() == w.value;
  };
  return out;
}

/// Runs every case; returns the number of defects that went unnoticed.
int Run() {
  int failures = 0;
  auto Expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "MISS", what);
    if (!ok) ++failures;
  };
  Expect(CheckStoreClaims(Good(), nullptr).empty(),
         "good outputs pass the gate");

  StoreOutputs stale = Good();
  PlantStaleRead(&stale, 100);
  Expect(CheckStoreClaims(stale, nullptr).find("session guarantee") == 0,
         "a read missing its session's own acked write fails the gate");

  StoreOutputs cached = Good();
  cached.history.push_back(RecRead(1, "k", {"a"}, 80, 90, /*from_cache=*/true));
  Expect(!CheckStoreClaims(cached, nullptr).empty(),
         "a cached read that goes back in time fails the gate");

  StoreOutputs diverged = Good();
  diverged.replicas[1]["k"] = {"a"};
  Expect(CheckStoreClaims(diverged, nullptr).find("convergence") == 0,
         "replicas that disagree fail the gate");

  StoreOutputs lost = Good();
  lost.acked.push_back({"k", "c"});
  Expect(CheckStoreClaims(lost, nullptr).find("convergence") == 0,
         "a lost acked write fails the gate");

  StoreOutputs forked = Good();
  forked.fork_violations = 1;
  Expect(CheckStoreClaims(forked, nullptr).find("timeline forked") == 0,
         "a forked timeline fails the gate");

  StoreOutputs malformed = Good();
  malformed.history.push_back(RecWrite(1, "k", "a", 80, 90));
  Expect(!CheckStoreClaims(malformed, nullptr).empty(),
         "a history reusing a write value fails the gate");

  Fingerprint a, b;
  a.Add("sim.events", 100);
  a.Add("net.sent", 40);
  b = a;
  Expect(a.DiffFrom(b).empty(), "identical fingerprints match");
  b.Add("net.sent", 41);
  Expect(a.DiffFrom(b) == "net.sent", "a changed count breaks the fingerprint");
  Fingerprint other;
  other.Add("exports", 1);
  Expect(!a.DiffFrom(other).empty(), "disjoint fingerprints do not match");
  return failures;
}

}  // namespace
}  // namespace evc::perf

int main() {
  const int failures = evc::perf::Run();
  std::printf("%s\n", failures == 0 ? "selftest: ok" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
