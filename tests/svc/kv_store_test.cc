// Service-level battery for the sharded KV store (src/svc/kv_store.h):
// batched-transaction correctness and conservation under concurrency across
// all four service engine families, plus deterministic probe rows — one
// descriptor per batch (amortization), stripe_skips on region-local batches
// (partitioned counter), counter-only skips on quiet single-client batches,
// and simd_batches on wide batch validation (read-log batch kernel).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/rng.h"
#include "src/common/soa_log.h"
#include "src/svc/driver.h"
#include "src/svc/kv_store.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/txdesc.h"
#include "src/tm/validate_batch.h"
#include "src/tm/valstrategy.h"
#include "src/tm/variants.h"
#include "tests/tm/held_snapshot.h"

namespace spectm {
namespace {

using svc::KvStore;

template <typename F>
struct KvStoreFamilyTest : public ::testing::Test {};

using ServiceFamilies =
    ::testing::Types<SvcOrec, SvcOrecPart, SvcVal, SvcSnapshot>;
TYPED_TEST_SUITE(KvStoreFamilyTest, ServiceFamilies);

TYPED_TEST(KvStoreFamilyTest, BatchPutGetScanRoundTrip) {
  using F = TypeParam;
  KvStore<F> store;
  constexpr std::size_t kN = 64;
  std::uint64_t keys[kN], vals[kN], out[kN];
  bool found[kN];
  for (std::size_t i = 0; i < kN; ++i) {
    keys[i] = i * 3;  // stride so keys spread over shards and buckets
    vals[i] = 1000 + i;
  }
  store.BatchPut(keys, vals, kN);

  store.BatchGet(keys, kN, out, found);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(found[i]) << "key " << keys[i];
    EXPECT_EQ(out[i], vals[i]);
  }

  // Misses report found=false and leave the value at 0.
  std::uint64_t miss_key = 1;  // not a multiple of 3
  std::uint64_t miss_out = 77;
  bool miss_found = true;
  store.BatchGet(&miss_key, 1, &miss_out, &miss_found);
  EXPECT_FALSE(miss_found);
  EXPECT_EQ(miss_out, 0u);

  // Overwrites replace in place (no duplicate nodes): re-put then re-read.
  for (std::size_t i = 0; i < kN; ++i) {
    vals[i] = 5000 + i;
  }
  store.BatchPut(keys, vals, kN);
  store.BatchGet(keys, kN, out, found);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], 5000 + i);
  }

  // Scan over [0, 3*kN): exactly the kN stride-3 keys are present.
  std::vector<std::uint64_t> scan_out(kN * 3);
  std::uint64_t sum_direct = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    sum_direct += vals[i];
  }
  EXPECT_EQ(store.BatchScan(0, kN * 3, scan_out.data()), sum_direct);
  EXPECT_EQ(scan_out[0], 5000u);
  EXPECT_EQ(scan_out[1], 0u);
  EXPECT_EQ(scan_out[3], 5001u);
}

TYPED_TEST(KvStoreFamilyTest, BatchUpdateIsReadModifyWrite) {
  using F = TypeParam;
  KvStore<F> store;
  std::uint64_t keys[8], vals[8];
  for (std::size_t i = 0; i < 8; ++i) {
    keys[i] = i;
    vals[i] = 10 * i;
  }
  store.BatchPut(keys, vals, 8);
  std::uint64_t missing = 999;
  std::uint64_t mixed[2] = {keys[3], missing};
  store.BatchUpdate(mixed, 2, [](std::size_t, std::uint64_t old_v, bool f) {
    return f ? old_v + 7 : std::uint64_t{0};
  });
  std::uint64_t v = 0;
  EXPECT_TRUE(store.Get(keys[3], &v));
  EXPECT_EQ(v, 37u);
  EXPECT_FALSE(store.Get(missing, &v));
}

// Conservation: concurrent batched transfers across shards must preserve the
// global balance — the torn-batch detector at service granularity. Each
// transfer batch moves value between key pairs inside ONE transaction, so any
// interleaving that committed half a batch would show up as a changed total.
TYPED_TEST(KvStoreFamilyTest, ConcurrentBatchTransfersConserveBalance) {
  using F = TypeParam;
  constexpr std::uint64_t kAccounts = 256;
  constexpr std::uint64_t kInitial = 1000;
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 150;
  constexpr std::size_t kBatch = 8;

  KvStore<F> store;
  {
    std::vector<std::uint64_t> keys(kAccounts), vals(kAccounts, kInitial);
    for (std::uint64_t k = 0; k < kAccounts; ++k) {
      keys[k] = k;
    }
    store.BatchPut(keys.data(), vals.data(), kAccounts);
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      Xorshift128Plus rng(0xfeedULL + static_cast<std::uint64_t>(t));
      std::uint64_t keys[kBatch];
      for (int b = 0; b < kBatchesPerThread; ++b) {
        // Distinct keys per batch (odd stride over the power-of-two account
        // space is injective): duplicate keys alias one account across array
        // entries, which breaks the pairwise-transfer arithmetic — the
        // last-write-wins aliasing BatchTransact documents.
        const std::uint64_t base = rng.NextBounded(kAccounts);
        const std::uint64_t stride = rng.NextBounded(kAccounts / 2) * 2 + 1;
        for (std::size_t i = 0; i < kBatch; ++i) {
          keys[i] = (base + i * stride) & (kAccounts - 1);
        }
        store.BatchTransact(
            keys, kBatch,
            [](std::uint64_t* vals, const std::vector<bool>& found, std::size_t n) {
              // Pairwise transfers: sum-preserving, underflow-safe, and a
              // function of the values READ (so a stale read would move the
              // wrong amount and break the total).
              for (std::size_t i = 0; i + 1 < n; i += 2) {
                if (!found[i] || !found[i + 1]) {
                  continue;
                }
                const std::uint64_t m = vals[i] < 5 ? vals[i] : 5;
                vals[i] -= m;
                vals[i + 1] += m;
              }
            });
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(store.BatchScan(0, kAccounts), kAccounts * kInitial)
      << "a torn or lost batch changed the global balance";
}

// Amortization: one descriptor activation (Start..Commit attempt) per BATCH,
// not per key — the service API's whole point. Single-threaded, so attempts
// have no abort component and the delta is exact.
TYPED_TEST(KvStoreFamilyTest, BatchAmortizesDescriptorSetup) {
  using F = TypeParam;
  constexpr std::size_t kBatch = 16;
  constexpr std::uint64_t kBatches = 32;
  KvStore<F> store;
  std::uint64_t keys[kBatch], vals[kBatch];
  for (std::size_t i = 0; i < kBatch; ++i) {
    keys[i] = i;
    vals[i] = i + 1;
  }
  store.BatchPut(keys, vals, kBatch);

  TxStats& stats = DescOf<typename F::DomainTag>().stats;
  const std::uint64_t commits_before = stats.commits.load(std::memory_order_relaxed);
  const std::uint64_t aborts_before = stats.aborts.load(std::memory_order_relaxed);
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    store.BatchUpdate(keys, kBatch, [](std::size_t, std::uint64_t old_v, bool) {
      return old_v + 1;
    });
  }
  const std::uint64_t attempts =
      stats.commits.load(std::memory_order_relaxed) - commits_before +
      stats.aborts.load(std::memory_order_relaxed) - aborts_before;
  EXPECT_EQ(attempts, kBatches) << "each batch must be exactly one transaction";
  const double descriptors_per_op =
      static_cast<double>(attempts) / static_cast<double>(kBatches * kBatch);
  EXPECT_LT(descriptors_per_op, 1.0);

  std::uint64_t v = 0;
  ASSERT_TRUE(store.Get(keys[3], &v));
  EXPECT_EQ(v, 4 + kBatches);
}

// Stripe homing: on the val layout (metadata == data word) every transactional
// word a shard publishes lives in pages of that shard's counter stripe.
TEST(KvStoreStripes, ShardAllocationIsStripeHomed) {
  using F = SvcVal;
  KvStore<F> store;  // 8 shards over 4 stripes
  std::vector<std::uint64_t> keys, vals;
  for (std::uint64_t k = 0; k < 512; ++k) {
    keys.push_back(k);
    vals.push_back(k + 1);
  }
  store.BatchPut(keys.data(), vals.data(), keys.size());

  for (std::size_t s = 0; s < store.shards(); ++s) {
    EXPECT_EQ(CounterStripeOf(store.StripeProbeSlot(s)), KvStore<F>::StripeOfShard(s));
  }
  for (std::uint64_t k = 0; k < 512; ++k) {
    F::Slot* slot = store.DebugValueSlotOf(k);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(CounterStripeOf(slot), KvStore<F>::StripeOfShard(store.ShardOf(k)))
        << "key " << k;
    EXPECT_EQ(DecodeInt(F::RawRead(slot)), k + 1);
  }
  EXPECT_EQ(store.DebugValueSlotOf(99999), nullptr);
}

// Slot layout end to end: fill, overwrite, scan and tear down a store over the
// one-word val slots and over ValSnap's SnapSlot. With a snapshot held below
// the overwrites (`held`), they leave version chains on every SnapSlot value
// word, so the sanitizer jobs prove that the teardown frees them; without
// one, every value word ends under a reign tag, which the teardown must not
// take for a node. A node of one-word slots (key, value, next) never
// straddles a cache line.
template <typename F>
void FillOverwriteScanTeardown(bool held = false) {
  constexpr std::size_t kKeys = 2048;
  std::vector<std::uint64_t> keys(kKeys), vals(kKeys), out(kKeys);
  std::uint64_t sum = 0;
  KvStore<F> store;
  {
    std::optional<HeldSnapshot> below;
    if (held) {
      below.emplace();
    }
    for (std::uint64_t round = 0; round < 3; ++round) {
      sum = 0;
      for (std::size_t k = 0; k < kKeys; ++k) {
        keys[k] = k;
        vals[k] = 10 * k + round;
        sum += vals[k];
      }
      store.BatchPut(keys.data(), vals.data(), kKeys);
    }
  }
  EXPECT_EQ(store.BatchScan(0, kKeys, out.data()), sum);
  EXPECT_EQ(out, vals);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    typename F::Slot* value = store.DebugValueSlotOf(k);
    ASSERT_NE(value, nullptr);
    if constexpr (std::is_same_v<typename F::Slot, SnapSlot>) {
      if (held) {
        EXPECT_GT(mvcc::ChainLength(value->versions), 0) << "key " << k;
      } else {
        EXPECT_TRUE(mvcc::IsReignTag(value->versions.load(std::memory_order_relaxed)))
            << "key " << k;
      }
    } else {
      // Node = {key, value, next}; `value` follows the 8-byte key.
      const auto node = reinterpret_cast<std::uintptr_t>(value) - sizeof(std::uint64_t);
      const std::size_t node_bytes = sizeof(std::uint64_t) + 2 * sizeof(typename F::Slot);
      EXPECT_EQ(node / kCacheLineSize, (node + node_bytes - 1) / kCacheLineSize)
          << "key " << k;
    }
  }
}

TEST(KvStoreLayout, OneWordValStoreRoundTripsAndTearsDown) {
  static_assert(sizeof(SvcVal::Slot) == sizeof(Word));
  FillOverwriteScanTeardown<SvcVal>();
}

TEST(KvStoreLayout, SnapshotStoreReleasesChainsAtTeardown) {
  static_assert(std::is_same_v<SvcSnapshot::Slot, SnapSlot>);
  FillOverwriteScanTeardown<SvcSnapshot>(/*held=*/true);
}

TEST(KvStoreLayout, UnpinnedSnapshotStoreEndsUnderReignTags) {
  FillOverwriteScanTeardown<SvcSnapshot>();
}

// Region-local batches on the partitioned-counter val engine: churn homed to a
// DIFFERENT stripe moves the global commit counter, but the batch's reads all
// live in one shard's stripe, so the stripe vector absorbs every would-be walk.
TEST(KvStoreStripes, RegionLocalBatchSkipsViaStripeCounters) {
  using F = SvcVal;
  using Probe = F::Full::Probe;
  KvStore<F> store;
  std::vector<std::uint64_t> all(1024), vals(1024);
  for (std::uint64_t k = 0; k < 1024; ++k) {
    all[k] = k;
    vals[k] = k + 1;
  }
  store.BatchPut(all.data(), vals.data(), all.size());

  // Collect a batch entirely inside shard 0 (stripe 0) and pick a probe slot
  // homed to a different stripe for the churn.
  std::vector<std::uint64_t> local;
  for (std::uint64_t k = 0; k < 1024 && local.size() < 16; ++k) {
    if (store.ShardOf(k) == 0) {
      local.push_back(k);
    }
  }
  ASSERT_EQ(local.size(), 16u);
  std::size_t churn_shard = 0;
  for (std::size_t s = 0; s < store.shards(); ++s) {
    if (KvStore<F>::StripeOfShard(s) != KvStore<F>::StripeOfShard(0)) {
      churn_shard = s;
      break;
    }
  }
  ASSERT_NE(KvStore<F>::StripeOfShard(churn_shard), KvStore<F>::StripeOfShard(0));
  F::Slot* churn = store.StripeProbeSlot(churn_shard);
  F::SingleWrite(churn, EncodeInt(1));

  Probe::Reset();
  std::uint64_t out[16];
  bool found[16];
  store.BatchGet(local.data(), local.size(), out, found,
                 [&](std::size_t i) {
                   // Mid-batch cross-stripe churn: bumps the global counter
                   // from a stripe the batch never reads.
                   if (i == 7) {
                     F::SingleWrite(churn, EncodeInt(2 + i));
                   }
                 });
  for (std::size_t i = 0; i < local.size(); ++i) {
    ASSERT_TRUE(found[i]);
    EXPECT_EQ(out[i], local[i] + 1);
  }
  EXPECT_GE(Probe::Get().stripe_skips, 1u)
      << "region-local batch reads must be absorbed by the stripe vector";
  EXPECT_EQ(Probe::Get().validation_walks, 0u)
      << "cross-stripe churn must not force a read-set walk";
}

// The quiet path: with one client and no foreign commits the global counter
// never moves inside a batch, so every read past the first is absorbed by the
// counter test alone — no walk, and neither the stripe nor the ring rung (the
// rungs that consult the lazily folded read signature) is ever reached.
TEST(KvStoreStripes, QuietBatchesSkipOnTheCounterAlone) {
  using F = SvcVal;
  using Probe = F::Full::Probe;
  KvStore<F> store;
  std::vector<std::uint64_t> all(1024), vals(1024);
  for (std::uint64_t k = 0; k < 1024; ++k) {
    all[k] = k;
    vals[k] = 5 * k;
  }
  store.BatchPut(all.data(), vals.data(), all.size());

  Probe::Reset();
  const SoaReadLog& log = DescOf<ValDomainTag>().val_read_log;
  std::uint64_t expected_skips = 0;
  std::uint64_t out[16];
  bool found[16];
  for (std::uint64_t b = 0; b < 8; ++b) {
    std::uint64_t keys[16];
    for (std::uint64_t i = 0; i < 16; ++i) {
      keys[i] = (b * 131 + i * 61) % 1024;  // spread over every shard
    }
    store.BatchGet(keys, 16, out, found);
    for (std::size_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(found[i]);
      EXPECT_EQ(out[i], 5 * keys[i]);
    }
    // The batch's read log is left in the descriptor until the next Start.
    ASSERT_GE(log.Size(), 2u * 16u) << "a bucket head and a value per key";
    expected_skips += log.Size() - 1;

    EXPECT_EQ(store.BatchScan(b * 64, 64), 5 * (64 * (b * 64) + 64 * 63 / 2));
    ASSERT_GE(log.Size(), 2u * 64u);
    expected_skips += log.Size() - 1;
  }
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
  EXPECT_EQ(Probe::Get().bloom_skips, 0u);
  EXPECT_EQ(Probe::Get().stripe_skips, 0u);
  EXPECT_EQ(Probe::Get().counter_skips, expected_skips)
      << "every read past the first of each batch must skip on the counter";
}

// Wide batch validation on the orec baseline: OrecL's passive local-clock
// protocol revalidates the whole read log as it grows, so a wide BatchGet
// alone drives the gathered batch kernel (simd_batches) — or the scalar body
// when the ISA lacks it.
TEST(KvStoreSimd, WideBatchValidationUsesBatchKernel) {
  using F = SvcOrec;
  using Probe = F::Full::Probe;
  KvStore<F> store;
  constexpr std::size_t kWide = 64;
  std::uint64_t keys[kWide], vals[kWide], out[kWide];
  bool found[kWide];
  for (std::size_t i = 0; i < kWide; ++i) {
    keys[i] = i * 7;
    vals[i] = i;
  }
  store.BatchPut(keys, vals, kWide);

  SetSimdEnabled(SimdAvailable());
  Probe::Reset();
  store.BatchGet(keys, kWide, out, found);
  for (std::size_t i = 0; i < kWide; ++i) {
    ASSERT_TRUE(found[i]);
    EXPECT_EQ(out[i], i);
  }
  if (SimdAvailable()) {
    EXPECT_GT(Probe::Get().simd_batches, 0u)
        << "a 64-key batch read log must reach the 4-entry gather kernel";
  } else {
    EXPECT_GT(Probe::Get().scalar_checks, 0u);
  }
}

// The request driver end-to-end: deterministic replay (same seed, same store
// contents) and region-local mode really staying inside one shard per batch.
TEST(KvStoreDriver, SeededStepStreamIsReplayIdentical) {
  using F = SvcVal;
  svc::DriverConfig cfg;
  cfg.key_space = 1 << 10;
  cfg.batch_size = 8;
  cfg.seed = 1234;
  auto run = [&cfg]() {
    KvStore<F> store;
    svc::RequestDriver<F> driver(store, cfg);
    driver.Prefill();
    for (int i = 0; i < 200; ++i) {
      driver.Step();
    }
    std::uint64_t digest = driver.scan_sink();
    for (std::uint64_t k = 0; k < cfg.key_space; k += 17) {
      std::uint64_t v = 0;
      digest = digest * 1099511628211ULL + (store.Get(k, &v) ? v : 0);
    }
    return digest;
  };
  EXPECT_EQ(run(), run()) << "same seed must replay the identical request stream";
}

TEST(KvStoreDriver, RegionLocalBatchesStayInOneShard) {
  using F = SvcVal;
  KvStore<F> store;
  svc::DriverConfig cfg;
  cfg.key_space = 1 << 10;
  cfg.batch_size = 16;
  cfg.region_local = true;
  svc::RequestDriver<F> driver(store, cfg);
  for (int b = 0; b < 32; ++b) {
    const std::vector<std::uint64_t>& keys = driver.FillKeys();
    const std::size_t shard = store.ShardOf(keys[0]);
    for (std::uint64_t k : keys) {
      EXPECT_EQ(store.ShardOf(k), shard);
    }
  }
}

}  // namespace
}  // namespace spectm
