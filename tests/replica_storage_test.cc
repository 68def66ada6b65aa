#include "storage/replica_storage.h"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "common/encoding.h"
#include "common/hash.h"
#include "common/rng.h"

namespace evc {
namespace {

LamportTimestamp Ts(uint64_t c, uint32_t node = 0) {
  return LamportTimestamp{c, node};
}

TEST(ReplicaStorageTest, PutGetRoundTrip) {
  ReplicaStorage rs(0);
  rs.Put("k", "v", VersionVector(), Ts(1));
  auto versions = rs.Get("k");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "v");
  EXPECT_GT(rs.wal()->size_bytes(), 0u);
}

TEST(ReplicaStorageTest, RecoveryRestoresExactState) {
  ReplicaStorage rs(0);
  rs.Put("a", "1", VersionVector(), Ts(1));
  rs.Put("b", "2", VersionVector(), Ts(2));
  rs.Put("a", "3", rs.ContextFor("a"), Ts(3));
  rs.Delete("b", rs.ContextFor("b"), Ts(4));
  const uint64_t root_before = rs.merkle().RootDigest();
  const size_t keys_before = rs.key_count();

  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 4u);
  EXPECT_EQ(rs.merkle().RootDigest(), root_before);
  EXPECT_EQ(rs.key_count(), keys_before);
  ASSERT_EQ(rs.Get("a").size(), 1u);
  EXPECT_EQ(rs.Get("a")[0].value, "3");
  EXPECT_TRUE(rs.Get("b").empty());       // tombstoned
  EXPECT_FALSE(rs.GetRaw("b").empty());   // tombstone retained
}

TEST(ReplicaStorageTest, RecoveryWithTornTailDropsOnlyTail) {
  ReplicaStorage rs(0);
  rs.Put("a", "1", VersionVector(), Ts(1));
  const uint64_t good = rs.wal()->size_bytes();
  rs.Put("b", "2", VersionVector(), Ts(2));
  rs.wal()->TruncateTo(good + 2);  // tear the second record
  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 1u);
  EXPECT_FALSE(rs.Get("a").empty());
  EXPECT_TRUE(rs.Get("b").empty());
  EXPECT_EQ(rs.wal()->size_bytes(), good);  // tail truncated away
}

TEST(ReplicaStorageTest, PostRecoveryWritesDoNotReuseCounters) {
  ReplicaStorage rs(7);
  rs.Put("k", "v1", VersionVector(), Ts(1));
  const uint64_t counter_before = rs.GetRaw("k")[0].vv.Get(7);
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  rs.Put("k2", "v2", VersionVector(), Ts(2));
  const uint64_t counter_after = rs.GetRaw("k2")[0].vv.Get(7);
  EXPECT_GT(counter_after, counter_before);
}

TEST(ReplicaStorageTest, PostRecoveryOverwriteStillDominates) {
  ReplicaStorage rs(3);
  rs.Put("k", "v1", VersionVector(), Ts(1));
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  rs.Put("k", "v2", rs.ContextFor("k"), Ts(2));
  auto versions = rs.Get("k");
  ASSERT_EQ(versions.size(), 1u);  // no spurious sibling
  EXPECT_EQ(versions[0].value, "v2");
}

TEST(ReplicaStorageTest, MergeRemoteJournaled) {
  ReplicaStorage a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1, 0));
  EXPECT_TRUE(b.MergeRemote("k", a.GetRaw("k")));
  ASSERT_TRUE(b.CrashAndRecover().ok());
  ASSERT_EQ(b.Get("k").size(), 1u);
  EXPECT_EQ(b.Get("k")[0].value, "x");
}

TEST(ReplicaStorageTest, DuplicateMergeNotJournaledTwice) {
  ReplicaStorage a(0), b(1);
  a.Put("k", "x", VersionVector(), Ts(1, 0));
  b.MergeRemote("k", a.GetRaw("k"));
  const uint64_t wal_size = b.wal()->size_bytes();
  b.MergeRemote("k", a.GetRaw("k"));  // no-op
  EXPECT_EQ(b.wal()->size_bytes(), wal_size);
}

TEST(ReplicaStorageTest, NonDurableModeSkipsWal) {
  ReplicaStorageOptions opts;
  opts.durable = false;
  ReplicaStorage rs(0, opts);
  rs.Put("k", "v", VersionVector(), Ts(1));
  EXPECT_EQ(rs.wal()->size_bytes(), 0u);
}

TEST(ReplicaStorageTest, MerkleTracksStateAcrossReplicas) {
  ReplicaStorage a(0), b(1);
  EXPECT_EQ(a.merkle().RootDigest(), b.merkle().RootDigest());
  a.Put("k", "v", VersionVector(), Ts(1, 0));
  EXPECT_NE(a.merkle().RootDigest(), b.merkle().RootDigest());
  b.MergeRemote("k", a.GetRaw("k"));
  EXPECT_EQ(a.merkle().RootDigest(), b.merkle().RootDigest());
}

TEST(ReplicaStorageTest, CheckpointShrinksLogAndPreservesState) {
  ReplicaStorage rs(0);
  // Heavy overwrite traffic: the log holds 200 records for 5 keys.
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    rs.Put(key, "v" + std::to_string(i), rs.ContextFor(key), Ts(i + 1));
  }
  const uint64_t root = rs.merkle().RootDigest();
  const uint64_t log_before = rs.wal()->size_bytes();
  const uint64_t reclaimed = rs.Checkpoint();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(rs.wal()->size_bytes(), log_before / 10);
  // Recovery from the checkpointed log reproduces the exact state.
  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 5u);  // one record per live key
  EXPECT_EQ(rs.merkle().RootDigest(), root);
  ASSERT_EQ(rs.Get("k0").size(), 1u);
  EXPECT_EQ(rs.Get("k0")[0].value, "v195");
}

TEST(ReplicaStorageTest, WritesAfterCheckpointStillRecover) {
  ReplicaStorage rs(0);
  rs.Put("a", "1", {}, Ts(1));
  rs.Checkpoint();
  rs.Put("b", "2", {}, Ts(2));
  rs.Put("a", "3", rs.ContextFor("a"), Ts(3));
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  ASSERT_EQ(rs.Get("a").size(), 1u);
  EXPECT_EQ(rs.Get("a")[0].value, "3");
  EXPECT_EQ(rs.Get("b")[0].value, "2");
}

// Satellite pin: the full checkpoint -> crash -> replay round-trip. The
// recovered state must be bit-exact (merkle root, version count, values,
// tombstones) with a checkpoint record in the middle of the log, and the
// recovered store must keep journaling correctly afterwards.
TEST(ReplicaStorageTest, CheckpointCrashReplayRoundTrip) {
  ReplicaStorage rs(2);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i % 7);
    rs.Put(key, "pre" + std::to_string(i), rs.ContextFor(key), Ts(i + 1));
  }
  rs.Delete("k6", rs.ContextFor("k6"), Ts(60));
  ASSERT_GT(rs.Checkpoint(), 0u);
  // Post-checkpoint traffic, including a resurrection of the tombstone.
  rs.Put("k6", "reborn", rs.ContextFor("k6"), Ts(61));
  rs.Put("k0", "post", rs.ContextFor("k0"), Ts(62));
  rs.Delete("k1", rs.ContextFor("k1"), Ts(63));

  const uint64_t root = rs.merkle().RootDigest();
  const size_t versions = rs.version_count();
  auto replayed = rs.CrashAndRecover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_GT(*replayed, 3u);  // checkpoint records + the post-checkpoint tail
  EXPECT_EQ(rs.merkle().RootDigest(), root);
  EXPECT_EQ(rs.version_count(), versions);
  EXPECT_EQ(rs.Get("k6")[0].value, "reborn");
  EXPECT_EQ(rs.Get("k0")[0].value, "post");
  EXPECT_TRUE(rs.Get("k1").empty());      // tombstoned
  EXPECT_FALSE(rs.GetRaw("k1").empty());  // tombstone retained

  // The recovered store journals new writes: a second crash loses nothing.
  rs.Put("k2", "after-recovery", rs.ContextFor("k2"), Ts(64));
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  EXPECT_EQ(rs.Get("k2")[0].value, "after-recovery");
}

TEST(ReplicaStorageTest, CheckpointCounterFloorSurvives) {
  // Regression: after checkpoint + recovery, new writes must still not
  // reuse version-vector slots.
  ReplicaStorage rs(4);
  for (int i = 0; i < 10; ++i) {
    rs.Put("k", "v" + std::to_string(i), rs.ContextFor("k"), Ts(i + 1));
  }
  const uint64_t counter = rs.GetRaw("k")[0].vv.Get(4);
  rs.Checkpoint();
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  rs.Put("k2", "x", {}, Ts(99));
  EXPECT_GT(rs.GetRaw("k2")[0].vv.Get(4), counter);
}

// Property: random workload + crash at a random point recovers to exactly
// the state encoded by the surviving log prefix.
class CrashRecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashRecoveryPropertyTest, RecoveryIsExact) {
  Rng rng(GetParam());
  ReplicaStorage rs(0);
  uint64_t ts = 1;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(10));
    if (rng.NextBool(0.8)) {
      rs.Put(key, "v" + std::to_string(i),
             rng.NextBool(0.7) ? rs.ContextFor(key) : VersionVector(),
             Ts(ts++));
    } else {
      rs.Delete(key, rs.ContextFor(key), Ts(ts++));
    }
  }
  const uint64_t root = rs.merkle().RootDigest();
  const size_t versions = rs.version_count();
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  EXPECT_EQ(rs.merkle().RootDigest(), root);
  EXPECT_EQ(rs.version_count(), versions);
  // Second recovery is also exact (idempotent).
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  EXPECT_EQ(rs.merkle().RootDigest(), root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- cached digests and the bucket index ------------------------------------

// The bucket index points into the store's table nodes: a copy would carry
// dangling pointers, so neither type may be copied; moves hand the nodes over.
static_assert(!std::is_copy_constructible_v<VersionedStore>);
static_assert(!std::is_copy_assignable_v<VersionedStore>);
static_assert(std::is_nothrow_move_constructible_v<VersionedStore>);
static_assert(!std::is_copy_constructible_v<ReplicaStorage>);
static_assert(!std::is_copy_assignable_v<ReplicaStorage>);

// KeyDigest from scratch: the formula spelled out over each version's
// encoded bytes, independent of the store's cache and of SiblingSetDigest.
uint64_t ScratchDigest(const std::string& key,
                       const std::vector<Version>& versions) {
  uint64_t acc = 0;
  for (const Version& v : versions) {
    std::string buf;
    PutLengthPrefixed(&buf, v.value);
    v.vv.EncodeTo(&buf);
    PutVarint64(&buf, v.lww_ts.counter);
    PutVarint64(&buf, v.lww_ts.node);
    buf.push_back(v.tombstone ? 1 : 0);
    acc ^= Mix64(Fnv1a64(key) ^ Fnv1a64(buf));
  }
  return acc;
}

std::string Encoded(const std::vector<Version>& versions) {
  std::string out;
  for (const Version& v : versions) v.EncodeTo(&out);
  return out;
}

constexpr int kKeySpace = 24;

// Every key's cached digest, the version count and the key count agree with
// a from-scratch recomputation over the store's contents.
void ExpectCachesMatchScratch(const VersionedStore& store) {
  size_t keys = 0, versions = 0;
  std::string prev;
  store.ForEachKey([&](const std::string& key,
                       const std::vector<Version>& siblings) {
    EXPECT_TRUE(keys == 0 || prev < key) << "ForEachKey out of order";
    prev = key;
    ++keys;
    versions += siblings.size();
    EXPECT_FALSE(siblings.empty()) << key;
    EXPECT_EQ(store.KeyDigest(key), ScratchDigest(key, siblings)) << key;
  });
  EXPECT_EQ(store.key_count(), keys);
  EXPECT_EQ(store.version_count(), versions);
  for (int k = 0; k < kKeySpace; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(store.KeyDigest(key), ScratchDigest(key, store.GetRaw(key)));
  }
}

// The Merkle tree equals one built from scratch over the current contents.
void ExpectMerkleMatchesScratch(const ReplicaStorage& rs) {
  MerkleTree scratch(rs.merkle().depth());
  rs.store().ForEachKey(
      [&](const std::string& key, const std::vector<Version>& siblings) {
        scratch.UpdateKey(key, 0, ScratchDigest(key, siblings));
      });
  EXPECT_EQ(rs.merkle().RootDigest(), scratch.RootDigest());
}

// Differential: the index-backed CollectBuckets returns exactly the ordered
// (key, siblings) list of a full ordered scan filtered by BucketFor, for
// random bucket subsets listed in random order.
void ExpectBucketsMatchScan(const ReplicaStorage& rs, Rng& rng) {
  const size_t leaves = rs.merkle().leaf_count();
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<size_t> buckets;
    std::set<size_t> wanted;
    for (size_t b = 0; b < leaves; ++b) {
      if (rng.NextBool(trial == 0 ? 1.0 : 0.3)) buckets.push_back(b);
    }
    for (size_t i = buckets.size(); i > 1; --i) {
      std::swap(buckets[i - 1], buckets[rng.NextBounded(i)]);
    }
    wanted.insert(buckets.begin(), buckets.end());
    KeyedVersions scan;
    rs.store().ForEachKey(
        [&](const std::string& key, const std::vector<Version>& siblings) {
          if (wanted.count(rs.merkle().BucketFor(key)) > 0) {
            scan.emplace_back(key, siblings);
          }
        });
    const KeyedVersions got = rs.CollectBuckets(buckets);
    ASSERT_EQ(got.size(), scan.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, scan[i].first);
      EXPECT_EQ(Encoded(got[i].second), Encoded(scan[i].second));
    }
  }
}

// One random mutation of `self`: a causal or blind put, a delete, or a merge
// of `peer`'s siblings for the key (S is VersionedStore or ReplicaStorage).
template <typename S>
void RandomMutation(Rng& rng, S* self, const S& peer, uint32_t node,
                    uint64_t* ts) {
  const std::string key = "k" + std::to_string(rng.NextBounded(kKeySpace));
  const uint64_t roll = rng.NextBounded(10);
  const uint64_t t = (*ts)++;
  if (roll < 4) {
    self->Put(key, "v" + std::to_string(t),
              rng.NextBool(0.6) ? self->ContextFor(key) : VersionVector(),
              Ts(t, node));
  } else if (roll < 6) {
    self->Delete(key, self->ContextFor(key), Ts(t, node));
  } else {
    self->MergeRemote(key, peer.GetRaw(key));
  }
}

struct CacheCase {
  uint64_t seed;
  ConflictPolicy policy;
};

class CachedDigestPropertyTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CachedDigestPropertyTest, VersionedStoreCacheMatchesScratch) {
  Rng rng(GetParam().seed);
  VersionedStoreOptions opts;
  opts.conflict_policy = GetParam().policy;
  VersionedStore a(0, opts), b(1, opts);
  uint64_t ts = 1;
  for (int step = 0; step < 400; ++step) {
    const bool at_a = rng.NextBool(0.5);
    RandomMutation(rng, at_a ? &a : &b, at_a ? b : a, at_a ? 0 : 1, &ts);
    if (step % 50 == 49) {
      ExpectCachesMatchScratch(a);
      ExpectCachesMatchScratch(b);
    }
    if (step % 100 == 99) {
      a.PurgeTombstones();  // erasure keeps the caches exact
      ExpectCachesMatchScratch(a);
    }
  }
}

TEST_P(CachedDigestPropertyTest, ReplicaStorageSurvivesCrashAndCheckpoint) {
  Rng rng(GetParam().seed + 100);
  ReplicaStorageOptions opts;
  opts.store.conflict_policy = GetParam().policy;
  opts.merkle_depth = 3;  // 8 buckets: several keys share each one
  ReplicaStorage a(0, opts), b(1, opts);
  uint64_t ts = 1;
  for (int step = 0; step < 400; ++step) {
    const bool at_a = rng.NextBool(0.5);
    RandomMutation(rng, at_a ? &a : &b, at_a ? b : a, at_a ? 0 : 1, &ts);
    if (step % 40 == 39) {
      ReplicaStorage* rs = rng.NextBool(0.5) ? &a : &b;
      if (rng.NextBool(0.5)) rs->Checkpoint();
      ASSERT_TRUE(rs->CrashAndRecover().ok());
    }
    if (step % 20 == 19) {
      for (const ReplicaStorage* rs : {&a, &b}) {
        ExpectCachesMatchScratch(rs->store());
        ExpectMerkleMatchesScratch(*rs);
        ExpectBucketsMatchScan(*rs, rng);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CachedDigestPropertyTest,
    ::testing::Values(CacheCase{1, ConflictPolicy::kSiblings},
                      CacheCase{2, ConflictPolicy::kSiblings},
                      CacheCase{3, ConflictPolicy::kSiblings},
                      CacheCase{1, ConflictPolicy::kLastWriterWins},
                      CacheCase{2, ConflictPolicy::kLastWriterWins},
                      CacheCase{3, ConflictPolicy::kLastWriterWins}));

TEST(ReplicaStorageTest, BucketIndexSurvivesRecoveryReassignment) {
  // RecoverFromLog replaces the store wholesale; the index built before
  // the crash must not leak into (or dangle under) the recovered store.
  Rng rng(7);
  ReplicaStorageOptions opts;
  opts.merkle_depth = 2;
  ReplicaStorage rs(0, opts);
  for (int i = 0; i < 40; ++i) {
    rs.Put("k" + std::to_string(i), "v", VersionVector(), Ts(i + 1));
  }
  ExpectBucketsMatchScan(rs, rng);  // builds the index
  ASSERT_TRUE(rs.CrashAndRecover().ok());
  ExpectBucketsMatchScan(rs, rng);
  rs.Put("late", "v", VersionVector(), Ts(100));  // linked after rebuild
  ExpectBucketsMatchScan(rs, rng);
}

TEST(VersionedStoreIndexTest, MovedStoreKeepsAValidIndex) {
  VersionedStore src(0);
  for (int i = 0; i < 30; ++i) {
    src.Put("k" + std::to_string(i), "v", VersionVector(), Ts(i + 1));
  }
  auto in_bucket_zero = [](const VersionedStore& s) {
    std::vector<std::string> keys;
    s.ForEachKeyInBuckets(
        4, {0}, [&](const std::string& key, const std::vector<Version>&) {
          keys.push_back(key);
        });
    return keys;
  };
  const std::vector<std::string> before = in_bucket_zero(src);
  VersionedStore moved(std::move(src));
  EXPECT_EQ(in_bucket_zero(moved), before);
  VersionedStore assigned(9);
  assigned.Put("gone", "v", VersionVector(), Ts(1));
  in_bucket_zero(assigned);  // index over nodes the assignment frees
  assigned = std::move(moved);
  EXPECT_EQ(in_bucket_zero(assigned), before);
  // Erasing through the moved index unlinks cleanly.
  for (const std::string& key : before) {
    assigned.Delete(key, assigned.ContextFor(key), Ts(50));
  }
  EXPECT_EQ(assigned.PurgeTombstones(), before.size());
  EXPECT_TRUE(in_bucket_zero(assigned).empty());
}

}  // namespace
}  // namespace evc
