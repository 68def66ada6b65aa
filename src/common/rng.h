// Deterministic pseudo-random number generation.
//
// All randomized components in evc (workloads, latency models, gossip peer
// selection, Monte-Carlo staleness estimation) draw from an explicitly seeded
// Rng so that every experiment is bit-reproducible. We use xoshiro256**,
// seeded through SplitMix64 as its authors recommend.

#ifndef EVC_COMMON_RNG_H_
#define EVC_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "common/status.h"

namespace evc {

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** deterministic PRNG. Not cryptographic; fast and high quality
/// for simulation purposes.
class Rng {
 public:
  /// Seeds the generator; two Rng instances with the same seed produce
  /// identical streams.
  explicit Rng(uint64_t seed = 0xdecafbadULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from `seed`.
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  /// Returns the next 64 uniformly distributed bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound) {
    EVC_CHECK(bound > 0);
    // Lemire-style: threshold below which we must reject.
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const uint64_t r = NextU64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    EVC_CHECK(lo <= hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    // span == 0 means the whole 64-bit range.
    const uint64_t r = (span == 0) ? NextU64() : NextBounded(span);
    return lo + static_cast<int64_t>(r);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool NextBool(double p) { return NextDouble() < p; }

  /// Exponentially distributed double with the given mean (> 0).
  double NextExponential(double mean) {
    EVC_CHECK(mean > 0);
    double u;
    do {
      u = NextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Standard normal via Box–Muller (one value per call; the pair's second
  /// value is discarded to keep the state machine simple and deterministic).
  double NextGaussian(double mean = 0.0, double stddev = 1.0) {
    double u1;
    do {
      u1 = NextDouble();
    } while (u1 <= 1e-12);
    const double u2 = NextDouble();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    return mean + stddev * z;
  }

  /// Forks an independent child generator whose stream is a pure function of
  /// this generator's current state and `stream_id`. Used to give each
  /// simulated node its own stream without cross-coupling.
  Rng Fork(uint64_t stream_id) {
    uint64_t mix = NextU64() ^ (stream_id * 0x9e3779b97f4a7c15ULL);
    return Rng(mix);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace evc

#endif  // EVC_COMMON_RNG_H_
