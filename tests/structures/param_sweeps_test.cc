// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) over structure
// configuration spaces: dequeue capacities, hash-table bucket counts (from one giant
// chain to nearly chain-free), workload mixes, and skip-list level caps.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/benchsupport/workload.h"
#include "src/common/bucket.h"
#include "src/common/rng.h"
#include "src/structures/dequeue.h"
#include "src/structures/hash_tm_short.h"
#include "src/structures/skip_tm_short.h"
#include "src/tm/config.h"
#include "src/tm/variants.h"
#include "tests/structures/set_battery.h"

namespace spectm {
namespace {

// --- Dequeue capacity sweep -------------------------------------------------------------

class DequeueCapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DequeueCapacitySweep, FillDrainWrapInvariants) {
  const std::size_t cap = GetParam();
  SpecDequeue<Val> q(cap);
  // Fill exactly to capacity from alternating ends.
  for (std::size_t i = 0; i < cap; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(q.PushLeft(EncodeInt(i + 1))) << "cap " << cap << " i " << i;
    } else {
      ASSERT_TRUE(q.PushRight(EncodeInt(i + 1)));
    }
  }
  ASSERT_FALSE(q.PushLeft(EncodeInt(999)));
  ASSERT_FALSE(q.PushRight(EncodeInt(999)));
  // Drain completely; count must equal capacity.
  std::size_t drained = 0;
  while (q.PopLeft() != 0) {
    ++drained;
  }
  ASSERT_EQ(drained, cap);
  ASSERT_EQ(q.PopRight(), 0u);
  // Wrap-around cycles at every queue occupancy.
  for (std::uint64_t round = 1; round <= 3 * cap + 5; ++round) {
    ASSERT_TRUE(q.PushRight(EncodeInt(round)));
    ASSERT_EQ(DecodeInt(q.PopLeft()), round);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, DequeueCapacitySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 64, 257),
                         [](const auto& info) {
                           return "cap" + std::to_string(info.param);
                         });

// --- Hash-table bucket-count sweep --------------------------------------------------------

class HashBucketSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashBucketSweep, FuzzAtExtremeChainLengths) {
  SpecHashSet<Val> set(GetParam());
  testbattery::FuzzAgainstReference(set, 8000, 256, 5150 + GetParam());
}

TEST_P(HashBucketSweep, ConcurrentAccountingAtExtremeChainLengths) {
  SpecHashSet<Val> set(GetParam());
  testbattery::ConcurrentSharedKeyAccounting(set, 4, 4000, 64);
}

// The shared multiply-high reduction: always in range, the extremes map to the
// end buckets, and mixed consecutive keys reach every bucket.
TEST_P(HashBucketSweep, BucketOfStaysInRangeAndCoversEveryBucket) {
  const std::size_t n = GetParam();
  EXPECT_EQ(BucketOf(0, n), 0u);
  EXPECT_EQ(BucketOf(~std::uint64_t{0}, n), n - 1);
  std::vector<std::size_t> hits(n, 0);
  for (std::uint64_t key = 0; key < 64 * n; ++key) {
    const std::size_t b = BucketOf(MixKey(key), n);
    ASSERT_LT(b, n) << "key " << key;
    ++hits[b];
  }
  for (std::size_t b = 0; b < n; ++b) {
    EXPECT_GT(hits[b], 0u) << "bucket " << b << " of " << n << " never chosen";
  }
}

INSTANTIATE_TEST_SUITE_P(Buckets, HashBucketSweep,
                         ::testing::Values(1, 2, 7, 64, 4096),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

// --- Workload-mix sweep --------------------------------------------------------------------

using MixParam = std::tuple<int, std::uint64_t>;  // lookup pct, key range

class WorkloadMixSweep : public ::testing::TestWithParam<MixParam> {};

TEST_P(WorkloadMixSweep, OpMixRespectsRequestedRatios) {
  const auto [lookup_pct, key_range] = GetParam();
  Xorshift128Plus rng(42);
  int lookups = 0, inserts = 0, removes = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    switch (PickOp(rng, lookup_pct)) {
      case SetOp::kLookup:
        ++lookups;
        break;
      case SetOp::kInsert:
        ++inserts;
        break;
      case SetOp::kRemove:
        ++removes;
        break;
    }
    EXPECT_LT(PickKey(rng, key_range), key_range);
  }
  EXPECT_NEAR(static_cast<double>(lookups) / kSamples, lookup_pct / 100.0, 0.01);
  // §4.4: "the ratio of insert and remove operations is equal".
  if (lookup_pct < 100) {
    EXPECT_NEAR(static_cast<double>(inserts), static_cast<double>(removes),
                0.05 * (inserts + removes) + 100);
  }
}

TEST_P(WorkloadMixSweep, SetSizeStaysRoughlyConstant) {
  const auto [lookup_pct, key_range] = GetParam();
  SpecHashSet<Val> set(1024);
  WorkloadConfig cfg;
  cfg.key_range = key_range;
  cfg.lookup_pct = lookup_pct;
  PrefillHalf(set, cfg);
  // Count initial membership.
  std::uint64_t initial = 0;
  for (std::uint64_t k = 0; k < key_range; ++k) {
    initial += set.Contains(k) ? 1 : 0;
  }
  Xorshift128Plus rng(7);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = PickKey(rng, key_range);
    switch (PickOp(rng, cfg.lookup_pct)) {
      case SetOp::kLookup:
        set.Contains(key);
        break;
      case SetOp::kInsert:
        set.Insert(key);
        break;
      case SetOp::kRemove:
        set.Remove(key);
        break;
    }
  }
  std::uint64_t final_count = 0;
  for (std::uint64_t k = 0; k < key_range; ++k) {
    final_count += set.Contains(k) ? 1 : 0;
  }
  // Equal insert/remove rates keep the set near half-full (§4.4); allow wide slack
  // since this is a random walk.
  EXPECT_NEAR(static_cast<double>(final_count), static_cast<double>(initial),
              0.25 * static_cast<double>(key_range));
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, WorkloadMixSweep,
    ::testing::Combine(::testing::Values(0, 10, 50, 90, 98, 100),
                       ::testing::Values<std::uint64_t>(256, 65536)),
    [](const auto& info) {
      return "lu" + std::to_string(std::get<0>(info.param)) + "_range" +
             std::to_string(std::get<1>(info.param));
    });

// --- Skip-list level-cap sweep ---------------------------------------------------------------

class SkipLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkipLevelSweep, LevelGeneratorHonorsCap) {
  const int cap = GetParam();
  Xorshift128Plus rng(cap * 31 + 1);
  int max_seen = 0;
  for (int i = 0; i < 100000; ++i) {
    const int lvl = rng.NextSkipListLevel(cap);
    ASSERT_GE(lvl, 1);
    ASSERT_LE(lvl, cap);
    max_seen = std::max(max_seen, lvl);
  }
  if (cap <= 8) {
    EXPECT_EQ(max_seen, cap) << "the cap level should be reached with 100k samples";
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, SkipLevelSweep, ::testing::Values(1, 2, 4, 8, 32),
                         [](const auto& info) {
                           return "cap" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace spectm
