#include "storage/versioned_store.h"

#include <gtest/gtest.h>

#include "common/encoding.h"
#include "common/hash.h"
#include "common/rng.h"

namespace evc {
namespace {

LamportTimestamp Ts(uint64_t c, uint32_t node = 0) {
  return LamportTimestamp{c, node};
}

TEST(VersionedStoreTest, GetMissingIsEmpty) {
  VersionedStore store(0);
  EXPECT_TRUE(store.Get("nope").empty());
  EXPECT_TRUE(store.ContextFor("nope").empty());
  EXPECT_EQ(store.KeyDigest("nope"), 0u);
}

TEST(VersionedStoreTest, PutThenGet) {
  VersionedStore store(0);
  store.Put("k", "v1", VersionVector(), Ts(1));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "v1");
  EXPECT_FALSE(versions[0].tombstone);
}

TEST(VersionedStoreTest, CausalOverwriteReplacesVersion) {
  VersionedStore store(0);
  store.Put("k", "v1", VersionVector(), Ts(1));
  const VersionVector ctx = store.ContextFor("k");
  store.Put("k", "v2", ctx, Ts(2));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "v2");
}

TEST(VersionedStoreTest, BlindWritesSameCoordinatorFalselyOverwrite) {
  // With plain server-id version vectors, two blind writes through the SAME
  // coordinator get vv {r0:1} then {r0:2}: the second "dominates" and
  // silently discards the first even though the clients were concurrent.
  // This is the documented false-overwrite weakness of version vectors that
  // dotted version vectors repair (see DottedVersionVector tests).
  VersionedStore store(0);
  store.Put("k", "a", VersionVector(), Ts(1));
  store.Put("k", "b", VersionVector(), Ts(2));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "b");
}

TEST(VersionedStoreTest, BlindWritesAtDifferentReplicasCreateSiblings) {
  VersionedStore a(0), b(1);
  a.Put("k", "from-a", VersionVector(), Ts(1, 0));
  b.Put("k", "from-b", VersionVector(), Ts(1, 1));
  a.MergeRemote("k", b.GetRaw("k"));
  EXPECT_EQ(a.Get("k").size(), 2u);
}

TEST(VersionedStoreTest, WriteAfterRemoteMergeDominatesOwnSlot) {
  // Regression: if the context's own-replica slot is ahead of the local
  // write counter (possible after merging remote state that includes our
  // earlier writes), a new write must still strictly dominate the context.
  VersionedStore a(0);
  VersionVector ctx;
  ctx.Set(0, 10);  // context claims to have seen our event #10
  Version v = a.Put("k", "x", ctx, Ts(1));
  EXPECT_GT(v.vv.Get(0), 10u);
  EXPECT_TRUE(v.vv.Dominates(ctx));
}

TEST(VersionedStoreTest, WriteWithMergedContextResolvesSiblings) {
  VersionedStore store(0);
  store.Put("k", "a", VersionVector(), Ts(1));
  store.Put("k", "b", VersionVector(), Ts(2));
  const VersionVector ctx = store.ContextFor("k");
  store.Put("k", "merged", ctx, Ts(3));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "merged");
}

TEST(VersionedStoreTest, LwwPolicyKeepsNewestTimestamp) {
  VersionedStore store(0, {ConflictPolicy::kLastWriterWins});
  store.Put("k", "older", VersionVector(), Ts(5, 1));
  store.Put("k", "newer", VersionVector(), Ts(9, 2));
  auto versions = store.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "newer");
}

TEST(VersionedStoreTest, LwwLosesConcurrentUpdate) {
  // The lost-update anomaly: two concurrent writes, LWW silently discards
  // one. This is the behaviour Fig. 5 quantifies.
  VersionedStore store(0, {ConflictPolicy::kLastWriterWins});
  store.Put("cart", "milk", VersionVector(), Ts(10, 1));
  store.Put("cart", "eggs", VersionVector(), Ts(11, 2));
  auto versions = store.Get("cart");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "eggs");  // "milk" is gone forever
}

TEST(VersionedStoreTest, DeleteWritesTombstone) {
  VersionedStore store(0);
  store.Put("k", "v", VersionVector(), Ts(1));
  store.Delete("k", store.ContextFor("k"), Ts(2));
  EXPECT_TRUE(store.Get("k").empty());
  auto raw = store.GetRaw("k");
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_TRUE(raw[0].tombstone);
}

TEST(VersionedStoreTest, ConcurrentDeleteAndWriteBothSurvive) {
  // Delete at replica 0 concurrent with an overwrite at replica 1 (both
  // started from the same read context): after merging, both the tombstone
  // and the new value coexist as siblings; the live read sees the value.
  VersionedStore a(0), b(1);
  a.Put("k", "v", VersionVector(), Ts(1, 0));
  b.MergeRemote("k", a.GetRaw("k"));
  const VersionVector ctx = a.ContextFor("k");
  a.Delete("k", ctx, Ts(2, 0));
  b.Put("k", "resurrect", ctx, Ts(3, 1));
  a.MergeRemote("k", b.GetRaw("k"));
  auto raw = a.GetRaw("k");
  EXPECT_EQ(raw.size(), 2u);
  auto live = a.Get("k");
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].value, "resurrect");
}

TEST(VersionedStoreTest, MergeRemoteIdempotent) {
  VersionedStore a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1));
  const auto versions = a.GetRaw("k");
  EXPECT_TRUE(b.MergeRemote("k", versions));
  EXPECT_FALSE(b.MergeRemote("k", versions));  // no change second time
  EXPECT_EQ(b.Get("k").size(), 1u);
}

TEST(VersionedStoreTest, MergeRemoteKeepsConcurrentFromBothReplicas) {
  VersionedStore a(0), b(1);
  a.Put("k", "from-a", VersionVector(), Ts(1, 0));
  b.Put("k", "from-b", VersionVector(), Ts(1, 1));
  EXPECT_TRUE(a.MergeRemote("k", b.GetRaw("k")));
  EXPECT_EQ(a.Get("k").size(), 2u);
  // And merging back the union into b converges both replicas.
  EXPECT_TRUE(b.MergeRemote("k", a.GetRaw("k")));
  EXPECT_EQ(a.KeyDigest("k"), b.KeyDigest("k"));
}

TEST(VersionedStoreTest, MergeRemoteDropsDominated) {
  VersionedStore a(0), b(1);
  a.Put("k", "v1", VersionVector(), Ts(1));
  b.MergeRemote("k", a.GetRaw("k"));
  // b overwrites causally.
  b.Put("k", "v2", b.ContextFor("k"), Ts(2));
  // Old version from a must not resurrect in b, and v2 replaces v1 in a.
  EXPECT_FALSE(b.MergeRemote("k", a.GetRaw("k")));
  EXPECT_TRUE(a.MergeRemote("k", b.GetRaw("k")));
  ASSERT_EQ(a.Get("k").size(), 1u);
  EXPECT_EQ(a.Get("k")[0].value, "v2");
}

TEST(VersionedStoreTest, KeyDigestIsOrderIndependent) {
  VersionedStore a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1, 0));
  b.Put("k", "y", VersionVector(), Ts(1, 1));
  VersionedStore m1(2), m2(3);
  m1.MergeRemote("k", a.GetRaw("k"));
  m1.MergeRemote("k", b.GetRaw("k"));
  m2.MergeRemote("k", b.GetRaw("k"));
  m2.MergeRemote("k", a.GetRaw("k"));
  EXPECT_EQ(m1.KeyDigest("k"), m2.KeyDigest("k"));
  EXPECT_NE(m1.KeyDigest("k"), 0u);
}

TEST(VersionedStoreTest, CountsTrackState) {
  VersionedStore store(0);
  VersionedStore peer(1);
  EXPECT_EQ(store.key_count(), 0u);
  store.Put("a", "1", VersionVector(), Ts(1, 0));
  store.Put("b", "2", VersionVector(), Ts(2, 0));
  peer.Put("b", "3", VersionVector(), Ts(3, 1));
  store.MergeRemote("b", peer.GetRaw("b"));  // creates a sibling under "b"
  EXPECT_EQ(store.key_count(), 2u);
  EXPECT_EQ(store.version_count(), 3u);
}

TEST(VersionedStoreTest, PurgeTombstonesRemovesFullyDeletedKeys) {
  VersionedStore store(0);
  store.Put("gone", "v", VersionVector(), Ts(1));
  store.Delete("gone", store.ContextFor("gone"), Ts(2));
  store.Put("alive", "v", VersionVector(), Ts(3));
  EXPECT_EQ(store.PurgeTombstones(), 1u);
  EXPECT_EQ(store.key_count(), 1u);
  EXPECT_FALSE(store.Get("alive").empty());
}

TEST(VersionedStoreTest, ForEachKeyIteratesInOrder) {
  VersionedStore store(0);
  store.Put("b", "2", VersionVector(), Ts(1));
  store.Put("a", "1", VersionVector(), Ts(2));
  std::vector<std::string> keys;
  store.ForEachKey([&](const std::string& k, const std::vector<Version>&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST(VersionTest, EncodeDecodeRoundTrip) {
  Version v;
  v.value = "payload \x01\x02";
  v.vv.Set(3, 9);
  v.lww_ts = Ts(77, 5);
  v.tombstone = true;
  std::string buf;
  v.EncodeTo(&buf);
  Decoder dec(buf);
  auto decoded = Version::DecodeFrom(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->value, v.value);
  EXPECT_EQ(decoded->vv, v.vv);
  EXPECT_EQ(decoded->lww_ts, v.lww_ts);
  EXPECT_EQ(decoded->tombstone, v.tombstone);
  EXPECT_EQ(decoded->Digest(), v.Digest());
}

// Golden digests: Version::Digest and KeyDigest feed Merkle roots and
// read-repair decisions, so any change to their value is a protocol change.
// These constants were produced by the original buffer-building formula.
TEST(VersionTest, DigestGoldenValues) {
  Version a;
  a.value = "v";
  a.vv.Set(0, 1);
  a.lww_ts = Ts(1, 0);
  Version b;  // tombstone; multi-byte varints in the vector and timestamp
  b.tombstone = true;
  b.vv.Set(2, 300);
  b.vv.Set(7, uint64_t{1} << 40);
  b.lww_ts = Ts(70000, 7);
  Version c;  // empty vector; a 200-byte value has a two-byte length prefix
  c.value = std::string(200, 'x');
  c.lww_ts = Ts(5, 3);
  EXPECT_EQ(a.Digest(), 0x43e4972e6ddedb51ULL);
  EXPECT_EQ(b.Digest(), 0xb07364e3535f5724ULL);
  EXPECT_EQ(c.Digest(), 0xd01bed05cad4bb8aULL);

  Version d;
  d.value = "w";
  d.vv.Set(1, 1);
  d.lww_ts = Ts(1, 1);
  VersionedStore store(0);
  store.MergeRemote("k", {a});
  store.MergeRemote("k", {d});
  ASSERT_EQ(store.GetRaw("k").size(), 2u);
  EXPECT_EQ(store.KeyDigest("k"), 0x22cc5a094f2c96e9ULL);
  EXPECT_EQ(SiblingSetDigest(Fnv1a64("k"), {d, a}), 0x22cc5a094f2c96e9ULL);
  store.MergeRemote("user42", {b, c});  // b dominates c
  EXPECT_EQ(store.KeyDigest("user42"), 0xf8e9913d7095c4aeULL);
  EXPECT_EQ(SiblingSetDigest(Fnv1a64("user42"), {}), 0u);
}

TEST(VersionTest, StreamedDigestEqualsHashOfEncodedBytes) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Version v;
    v.value = std::string(rng.NextBounded(300), 'a' + trial % 26);
    for (int e = static_cast<int>(rng.NextBounded(5)); e > 0; --e) {
      v.vv.Set(static_cast<uint32_t>(rng.NextBounded(1u << 20)),
               rng.NextU64() >> rng.NextBounded(64));
    }
    v.lww_ts = Ts(rng.NextU64() >> rng.NextBounded(64),
                  static_cast<uint32_t>(rng.NextU64()));
    v.tombstone = rng.NextBool(0.3);
    std::string buf;
    PutLengthPrefixed(&buf, v.value);
    v.vv.EncodeTo(&buf);
    PutVarint64(&buf, v.lww_ts.counter);
    PutVarint64(&buf, v.lww_ts.node);
    buf.push_back(v.tombstone ? 1 : 0);
    EXPECT_EQ(v.Digest(), Fnv1a64(buf));
  }
}

// Property: random cross-merging of three replicas converges to identical
// sibling sets regardless of merge order (strong eventual consistency of the
// sibling-store itself).
class StoreConvergencePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreConvergencePropertyTest, ReplicasConvergeUnderAnyMergeOrder) {
  Rng rng(GetParam());
  VersionedStore replicas[3] = {VersionedStore(0), VersionedStore(1),
                                VersionedStore(2)};
  const std::string key = "k";
  uint64_t ts = 1;
  // Random local writes (sometimes causal, sometimes blind) at random
  // replicas, interleaved with random pairwise merges.
  for (int step = 0; step < 200; ++step) {
    const int r = static_cast<int>(rng.NextBounded(3));
    if (rng.NextBool(0.5)) {
      const VersionVector ctx =
          rng.NextBool(0.5) ? replicas[r].ContextFor(key) : VersionVector();
      replicas[r].Put(key, "v" + std::to_string(step), ctx,
                      Ts(ts++, static_cast<uint32_t>(r)));
    } else {
      const int peer = static_cast<int>(rng.NextBounded(3));
      replicas[r].MergeRemote(key, replicas[peer].GetRaw(key));
    }
  }
  // Full pairwise exchange until quiescent.
  bool changed = true;
  int rounds = 0;
  while (changed && rounds < 20) {
    changed = false;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (i == j) continue;
        changed |= replicas[i].MergeRemote(key, replicas[j].GetRaw(key));
      }
    }
    ++rounds;
  }
  EXPECT_LT(rounds, 20);
  EXPECT_EQ(replicas[0].KeyDigest(key), replicas[1].KeyDigest(key));
  EXPECT_EQ(replicas[1].KeyDigest(key), replicas[2].KeyDigest(key));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreConvergencePropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace evc
