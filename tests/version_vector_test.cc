#include "clock/version_vector.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/encoding.h"
#include "common/rng.h"

namespace evc {
namespace {

TEST(VersionVectorTest, EmptyVectorsAreEqual) {
  VersionVector a, b;
  EXPECT_EQ(a.Compare(b), CausalOrder::kEqual);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.Descends(b));
}

TEST(VersionVectorTest, IncrementCreatesDominance) {
  VersionVector a, b;
  a.Increment(0);
  EXPECT_EQ(a.Compare(b), CausalOrder::kAfter);
  EXPECT_EQ(b.Compare(a), CausalOrder::kBefore);
  EXPECT_TRUE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
}

TEST(VersionVectorTest, ConcurrentWhenDisjointReplicas) {
  VersionVector a, b;
  a.Increment(0);
  b.Increment(1);
  EXPECT_EQ(a.Compare(b), CausalOrder::kConcurrent);
  EXPECT_EQ(b.Compare(a), CausalOrder::kConcurrent);
  EXPECT_TRUE(a.ConcurrentWith(b));
}

TEST(VersionVectorTest, MixedComponentsConcurrent) {
  VersionVector a, b;
  a.Set(0, 2);
  a.Set(1, 1);
  b.Set(0, 1);
  b.Set(1, 2);
  EXPECT_EQ(a.Compare(b), CausalOrder::kConcurrent);
}

TEST(VersionVectorTest, MergeIsJoin) {
  VersionVector a, b;
  a.Set(0, 3);
  a.Set(1, 1);
  b.Set(1, 4);
  b.Set(2, 2);
  const VersionVector m = VersionVector::Merge(a, b);
  EXPECT_EQ(m.Get(0), 3u);
  EXPECT_EQ(m.Get(1), 4u);
  EXPECT_EQ(m.Get(2), 2u);
  // Join dominates (or equals) both inputs.
  EXPECT_TRUE(m.Descends(a));
  EXPECT_TRUE(m.Descends(b));
}

TEST(VersionVectorTest, SetZeroErasesEntry) {
  VersionVector a;
  a.Set(5, 7);
  EXPECT_EQ(a.size(), 1u);
  a.Set(5, 0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.Get(5), 0u);
}

TEST(VersionVectorTest, TotalEventsSumsCounters) {
  VersionVector a;
  a.Set(0, 3);
  a.Set(7, 4);
  EXPECT_EQ(a.TotalEvents(), 7u);
}

TEST(VersionVectorTest, ToStringRendersEntries) {
  VersionVector a;
  a.Set(1, 2);
  EXPECT_EQ(a.ToString(), "{r1:2}");
  EXPECT_EQ(VersionVector().ToString(), "{}");
}

TEST(VersionVectorTest, EncodeDecodeRoundTrip) {
  VersionVector a;
  a.Set(0, 1);
  a.Set(42, 100000);
  a.Set(7, 3);
  std::string buf;
  a.EncodeTo(&buf);
  auto decoded = VersionVector::Decode(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, a);
}

TEST(VersionVectorTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(VersionVector::Decode("\xff\xff\xff").ok());
  std::string buf;
  VersionVector a;
  a.Set(1, 1);
  a.EncodeTo(&buf);
  buf += "trailing";
  EXPECT_TRUE(VersionVector::Decode(buf).status().IsCorruption());
}

// --- property tests over random vectors ------------------------------------

VersionVector RandomVector(Rng& rng, uint32_t max_replicas, uint64_t max_ctr) {
  VersionVector vv;
  const uint32_t n = static_cast<uint32_t>(rng.NextBounded(max_replicas + 1));
  for (uint32_t i = 0; i < n; ++i) {
    vv.Set(static_cast<uint32_t>(rng.NextBounded(max_replicas)),
           rng.NextBounded(max_ctr) + 1);
  }
  return vv;
}

class VersionVectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VersionVectorPropertyTest, CompareIsAntisymmetric) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    VersionVector a = RandomVector(rng, 6, 5);
    VersionVector b = RandomVector(rng, 6, 5);
    const CausalOrder ab = a.Compare(b);
    const CausalOrder ba = b.Compare(a);
    switch (ab) {
      case CausalOrder::kEqual:
        EXPECT_EQ(ba, CausalOrder::kEqual);
        EXPECT_EQ(a, b);
        break;
      case CausalOrder::kBefore:
        EXPECT_EQ(ba, CausalOrder::kAfter);
        break;
      case CausalOrder::kAfter:
        EXPECT_EQ(ba, CausalOrder::kBefore);
        break;
      case CausalOrder::kConcurrent:
        EXPECT_EQ(ba, CausalOrder::kConcurrent);
        break;
    }
  }
}

TEST_P(VersionVectorPropertyTest, MergeIsCommutativeAssociativeIdempotent) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 500; ++trial) {
    VersionVector a = RandomVector(rng, 6, 5);
    VersionVector b = RandomVector(rng, 6, 5);
    VersionVector c = RandomVector(rng, 6, 5);
    EXPECT_EQ(VersionVector::Merge(a, b), VersionVector::Merge(b, a));
    EXPECT_EQ(VersionVector::Merge(VersionVector::Merge(a, b), c),
              VersionVector::Merge(a, VersionVector::Merge(b, c)));
    EXPECT_EQ(VersionVector::Merge(a, a), a);
  }
}

TEST_P(VersionVectorPropertyTest, IncrementAlwaysDominatesOriginal) {
  Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 500; ++trial) {
    VersionVector a = RandomVector(rng, 6, 5);
    VersionVector b = a;
    b.Increment(static_cast<uint32_t>(rng.NextBounded(6)));
    EXPECT_EQ(b.Compare(a), CausalOrder::kAfter);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionVectorPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- the flat vector against a std::map reference model ---------------------

using Model = std::map<uint32_t, uint64_t>;

void ModelSet(Model* m, uint32_t r, uint64_t v) {
  if (v == 0) {
    m->erase(r);
  } else {
    (*m)[r] = v;
  }
}

std::string ModelEncode(const Model& m) {
  std::string out;
  PutVarint64(&out, m.size());
  for (const auto& [r, c] : m) {
    PutVarint64(&out, r);
    PutVarint64(&out, c);
  }
  return out;
}

CausalOrder ModelCompare(const Model& a, const Model& b) {
  std::set<uint32_t> replicas;
  for (const auto& [r, c] : a) replicas.insert(r);
  for (const auto& [r, c] : b) replicas.insert(r);
  bool less = false, greater = false;
  for (uint32_t r : replicas) {
    const uint64_t x = a.count(r) ? a.at(r) : 0;
    const uint64_t y = b.count(r) ? b.at(r) : 0;
    less |= x < y;
    greater |= x > y;
  }
  if (less && greater) return CausalOrder::kConcurrent;
  if (less) return CausalOrder::kBefore;
  if (greater) return CausalOrder::kAfter;
  return CausalOrder::kEqual;
}

void ExpectMatchesModel(const VersionVector& vv, const Model& m) {
  ASSERT_EQ(vv.size(), m.size());
  auto it = m.begin();
  for (const auto& [r, c] : vv.entries()) {
    EXPECT_EQ(r, it->first);
    EXPECT_EQ(c, it->second);
    ++it;
  }
  for (uint32_t r = 0; r < 10; ++r) {
    EXPECT_EQ(vv.Get(r), m.count(r) ? m.at(r) : 0);
  }
  std::string enc;
  vv.EncodeTo(&enc);
  EXPECT_EQ(enc, ModelEncode(m));
}

// A random (replica, counter) list encoded in the wire format but in any
// order, with duplicates and zero counters: Decode must fold it exactly as
// successive Set calls on the model do.
std::string RandomWireVector(Rng& rng, Model* model) {
  const uint64_t n = rng.NextBounded(7);
  std::string out;
  PutVarint64(&out, n);
  for (uint64_t i = 0; i < n; ++i) {
    const auto r = static_cast<uint32_t>(rng.NextBounded(8));
    const uint64_t c = rng.NextBool(0.2) ? 0 : rng.NextBounded(1u << 20);
    PutVarint64(&out, r);
    PutVarint64(&out, c);
    ModelSet(model, r, c);
  }
  return out;
}

class FlatVectorModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatVectorModelTest, EveryOperationMatchesMapModel) {
  Rng rng(GetParam());
  VersionVector vv[3];
  Model model[3];
  for (int step = 0; step < 2000; ++step) {
    const size_t i = rng.NextBounded(3);
    const size_t j = rng.NextBounded(3);
    const auto r = static_cast<uint32_t>(rng.NextBounded(8));
    switch (rng.NextBounded(5)) {
      case 0: {  // Set, including Set(r, 0) erasure
        const uint64_t v = rng.NextBool(0.3) ? 0 : rng.NextBounded(300) + 1;
        vv[i].Set(r, v);
        ModelSet(&model[i], r, v);
        break;
      }
      case 1:
        EXPECT_EQ(vv[i].Increment(r), ++model[i][r]);
        break;
      case 2: {
        vv[i].MergeWith(vv[j]);
        const Model other = model[j];
        for (const auto& [rr, c] : other) {
          if (c > model[i][rr]) model[i][rr] = c;
        }
        break;
      }
      case 3: {
        Model decoded;
        const std::string wire = RandomWireVector(rng, &decoded);
        auto got = VersionVector::Decode(wire);
        ASSERT_TRUE(got.ok());
        vv[i] = *got;
        model[i] = decoded;
        break;
      }
      default: {
        EXPECT_EQ(vv[i].Compare(vv[j]), ModelCompare(model[i], model[j]));
        std::string enc;
        vv[i].EncodeTo(&enc);
        auto round = VersionVector::Decode(enc);
        ASSERT_TRUE(round.ok());
        EXPECT_EQ(*round, vv[i]);
        break;
      }
    }
    ExpectMatchesModel(vv[i], model[i]);
    EXPECT_EQ(vv[i] == vv[j], model[i] == model[j]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVectorModelTest,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

// --- dotted version vectors --------------------------------------------------

TEST(DottedVersionVectorTest, ContainsDotInContext) {
  VersionVector ctx;
  ctx.Set(0, 3);
  DottedVersionVector dvv(ctx, Dot{1, 5});
  EXPECT_TRUE(dvv.Contains(Dot{0, 2}));
  EXPECT_TRUE(dvv.Contains(Dot{0, 3}));
  EXPECT_FALSE(dvv.Contains(Dot{0, 4}));
  EXPECT_TRUE(dvv.Contains(Dot{1, 5}));   // its own dot
  EXPECT_FALSE(dvv.Contains(Dot{1, 4}));  // gap below the dot
}

TEST(DottedVersionVectorTest, DominanceDetectsCausalOverwrite) {
  // Writer sees version tagged (r0,1) and overwrites: context {r0:1}, dot
  // (r0,2). The new write dominates the old.
  DottedVersionVector old_version(VersionVector(), Dot{0, 1});
  VersionVector ctx;
  ctx.Set(0, 1);
  DottedVersionVector new_version(ctx, Dot{0, 2});
  EXPECT_TRUE(new_version.Dominates(old_version));
  EXPECT_FALSE(old_version.Dominates(new_version));
  EXPECT_EQ(new_version.Compare(old_version), CausalOrder::kAfter);
}

TEST(DottedVersionVectorTest, BlindConcurrentWritesAreSiblings) {
  // Two clients write with empty contexts at different replicas.
  DottedVersionVector a(VersionVector(), Dot{0, 1});
  DottedVersionVector b(VersionVector(), Dot{1, 1});
  EXPECT_EQ(a.Compare(b), CausalOrder::kConcurrent);
}

TEST(DottedVersionVectorTest, SameServerConcurrentClientsKeptDistinct) {
  // The motivating DVV case: two clients, both with empty read context,
  // write through the SAME server. Naive version vectors would merge them;
  // dots keep them distinct siblings.
  DottedVersionVector first(VersionVector(), Dot{0, 1});
  VersionVector ctx_second;  // still empty: second client read nothing
  DottedVersionVector second(ctx_second, Dot{0, 2});
  EXPECT_EQ(first.Compare(second), CausalOrder::kConcurrent);
}

TEST(DottedVersionVectorTest, FlattenAbsorbsDot) {
  VersionVector ctx;
  ctx.Set(0, 1);
  DottedVersionVector dvv(ctx, Dot{0, 3});
  const VersionVector flat = dvv.Flatten();
  EXPECT_EQ(flat.Get(0), 3u);
}

TEST(DottedVersionVectorTest, ToStringShowsDot) {
  DottedVersionVector dvv(VersionVector(), Dot{2, 9});
  EXPECT_NE(dvv.ToString().find("(2,9)"), std::string::npos);
}

}  // namespace
}  // namespace evc
