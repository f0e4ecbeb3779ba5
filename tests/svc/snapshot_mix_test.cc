// ValSnap read-mostly service mix (the ROADMAP follow-up from PR 9): read-only
// batches routed through the pinned-snapshot family must neither validate nor
// abort under writer churn, and every batch observes one consistent cut.
//
// Two layers: deterministic single-threaded probe sections (churn injected
// INSIDE the batch window through the per-key hook, probe deltas exact) and a
// real two-thread reader/writer mix whose reader-side invariants — zero
// validation walks, zero aborts, intra-batch consistency — are collected in
// the reader thread and asserted after the join. The second layer is what the
// TSan and robustness CI subsets exercise.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/svc/kv_store.h"
#include "src/tm/config.h"
#include "src/tm/txdesc.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

using F = SvcSnapshot;
using Probe = F::Full::Probe;
using Store = svc::KvStore<F>;

constexpr std::uint64_t kKeys = 256;

void Prefill(Store& store) {
  std::vector<std::uint64_t> keys(kKeys), vals(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    keys[k] = k;
    vals[k] = 1000 + k;
  }
  store.BatchPut(keys.data(), vals.data(), kKeys);
}

// A read-only batch pinned before mid-batch churn must return the PRE-churn
// value of a key it has not reached yet — served off the version chain
// (version_hops), never by walking (validation_walks == 0), never by aborting.
TEST(SnapshotMix, MidBatchChurnIsInvisibleToThePinnedBatch) {
  Store store;
  Prefill(store);
  std::uint64_t keys[16];
  for (std::size_t i = 0; i < 16; ++i) {
    keys[i] = i * 5;
  }
  F::Slot* victim = store.DebugValueSlotOf(keys[12]);
  ASSERT_NE(victim, nullptr);

  TxStats& stats = DescOf<F::DomainTag>().stats;
  const std::uint64_t aborts_before = stats.aborts.load(std::memory_order_relaxed);
  Probe::Reset();
  std::uint64_t out[16];
  bool found[16];
  store.BatchGet(keys, 16, out, found, [&](std::size_t i) {
    if (i == 2) {
      // Overwrite a key the batch reads LATER: the displaced value must be
      // threaded onto the chain and served to this still-pinned batch.
      F::SingleWrite(victim, EncodeInt(999999));
    }
  });

  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(found[i]);
  }
  EXPECT_EQ(out[12], 1000 + keys[12]) << "snapshot must see the pre-churn value";
  std::uint64_t now = 0;
  ASSERT_TRUE(store.Get(keys[12], &now));
  EXPECT_EQ(now, 999999u) << "a fresh batch sees the churned value";

  const Probe::Counters& c = Probe::Get();
  EXPECT_GT(c.snapshot_reads, 0u);
  EXPECT_GE(c.version_hops, 1u) << "the churned key must be served past the head";
  EXPECT_EQ(c.validation_walks, 0u);
  EXPECT_EQ(stats.aborts.load(std::memory_order_relaxed), aborts_before)
      << "read-only snapshot batches never abort";
}

// Duplicate keys inside one batch bracket the churn: both reads must agree —
// the one-consistent-cut property at batch granularity.
TEST(SnapshotMix, DuplicateKeyReadsAgreeAcrossChurn) {
  Store store;
  Prefill(store);
  const std::uint64_t hot = 40;
  F::Slot* victim = store.DebugValueSlotOf(hot);
  ASSERT_NE(victim, nullptr);
  std::uint64_t keys[3] = {hot, 7, hot};
  std::uint64_t out[3];
  bool found[3];
  Probe::Reset();
  store.BatchGet(keys, 3, out, found, [&](std::size_t i) {
    if (i == 0) {
      F::SingleWrite(victim, EncodeInt(123456));
    }
  });
  ASSERT_TRUE(found[0] && found[2]);
  EXPECT_EQ(out[0], out[2]) << "one batch, one cut";
  EXPECT_EQ(out[0], 1000 + hot);
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
}

// BatchScan under the same treatment: the range sum is the pre-churn sum.
TEST(SnapshotMix, ScanSumsThePinnedCut) {
  Store store;
  Prefill(store);
  constexpr std::uint64_t kLo = 32, kN = 64;
  std::uint64_t expected = 0;
  for (std::uint64_t k = kLo; k < kLo + kN; ++k) {
    expected += 1000 + k;
  }
  F::Slot* victim = store.DebugValueSlotOf(kLo + kN - 1);
  ASSERT_NE(victim, nullptr);
  Probe::Reset();
  const std::uint64_t sum =
      store.BatchScan(kLo, kN, nullptr, nullptr, [&](std::size_t i) {
        if (i == 1) {
          F::SingleWrite(victim, EncodeInt(5000000));
        }
      });
  EXPECT_EQ(sum, expected);
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
  EXPECT_GT(Probe::Get().snapshot_reads, 0u);
}

// The real mix: one writer churning batched puts, one reader running BatchGet
// and BatchScan. Reader-side probe and stats deltas are thread-local, so the
// reader measures exactly its own work.
//
// The writer churns the UPPER half of the key space while the reader batches
// over the lower half: the churn bumps the shared commit clock and publishes
// versions at full speed — which under every precise family forces read-set
// walks — yet can never overwrite one of the reader's own reads, so the
// zero-walk/zero-abort guarantee holds unconditionally. (Overwriting the
// reader's keys hard enough to overflow a bounded chain, kMaxVersions deep,
// is the engine's one documented refresh-walk/abort path — the snapshot
// session's Refresh (val_word.h) — and is exercised by the overlapping-churn test below
// without these assertions.)
TEST(SnapshotMix, ReadOnlyBatchesNeverWalkNorAbortUnderWriterChurn) {
  Store store;
  Prefill(store);
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_done{false};
  constexpr std::uint64_t kReadHalf = kKeys / 2;

  std::thread writer([&store, &stop] {
    Xorshift128Plus rng(0xb817e5ULL);
    std::uint64_t keys[8], vals[8];
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < 8; ++i) {
        keys[i] = kReadHalf + rng.NextBounded(kKeys - kReadHalf);
        vals[i] = rng.Next() >> 8;
      }
      store.BatchPut(keys, vals, 8);
    }
  });

  std::uint64_t walks_delta = 0, aborts_delta = 0, snapshot_reads_delta = 0;
  bool batches_consistent = true;
  std::thread reader([&] {
    TxStats& stats = DescOf<F::DomainTag>().stats;
    Probe::Reset();
    const std::uint64_t aborts_before = stats.aborts.load(std::memory_order_relaxed);
    Xorshift128Plus rng(0x5ca1ab1eULL);
    std::uint64_t keys[16], out[16];
    bool found[16];
    for (int b = 0; b < 400; ++b) {
      const std::uint64_t dup = rng.NextBounded(kReadHalf);
      for (std::size_t i = 0; i < 16; ++i) {
        keys[i] = rng.NextBounded(kReadHalf);
      }
      keys[0] = dup;
      keys[15] = dup;  // intra-batch consistency witness
      store.BatchGet(keys, 16, out, found);
      if (out[0] != out[15]) {
        batches_consistent = false;
      }
      if (b % 8 == 0) {
        store.BatchScan(0, 64);
      }
    }
    walks_delta = Probe::Get().validation_walks;
    snapshot_reads_delta = Probe::Get().snapshot_reads;
    aborts_delta = stats.aborts.load(std::memory_order_relaxed) - aborts_before;
    reader_done.store(true, std::memory_order_release);
  });

  reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_TRUE(reader_done.load(std::memory_order_acquire));
  EXPECT_TRUE(batches_consistent) << "a batch observed two different cuts";
  EXPECT_EQ(walks_delta, 0u) << "snapshot reads must never validate";
  EXPECT_EQ(aborts_delta, 0u) << "read-only batches must never abort";
  EXPECT_GT(snapshot_reads_delta, 0u);

  // The store still answers coherently after the churn.
  std::uint64_t v = 0;
  EXPECT_TRUE(store.Get(0, &v));
}

// Overlapping churn: the writer hammers the very keys the reader batches
// over, which can overflow bounded version chains and drive the engine's
// refresh path (a walk, possibly an abort-and-retry inside Atomically). The
// service-level guarantee that SURVIVES that pressure is consistency: every
// committed batch is one cut (duplicate keys agree), and Atomically retries
// hide any refresh failure from the caller. This is the TSan workhorse — full
// reader/writer overlap on data, chains, and the epoch manager.
TEST(SnapshotMix, OverlappingChurnKeepsEveryBatchOneCut) {
  Store store;
  Prefill(store);
  std::atomic<bool> stop{false};

  std::thread writer([&store, &stop] {
    Xorshift128Plus rng(0xd00dULL);
    std::uint64_t keys[8], vals[8];
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < 8; ++i) {
        keys[i] = rng.NextBounded(kKeys);
        vals[i] = rng.Next() >> 8;
      }
      store.BatchPut(keys, vals, 8);
    }
  });

  bool batches_consistent = true;
  std::uint64_t snapshot_reads_delta = 0;
  std::thread reader([&] {
    Probe::Reset();
    Xorshift128Plus rng(0xacedULL);
    std::uint64_t keys[16], out[16];
    bool found[16];
    for (int b = 0; b < 300; ++b) {
      const std::uint64_t dup = rng.NextBounded(kKeys);
      for (std::size_t i = 0; i < 16; ++i) {
        keys[i] = rng.NextBounded(kKeys);
      }
      keys[0] = dup;
      keys[15] = dup;
      store.BatchGet(keys, 16, out, found);
      if (out[0] != out[15]) {
        batches_consistent = false;
      }
    }
    snapshot_reads_delta = Probe::Get().snapshot_reads;
  });

  reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_TRUE(batches_consistent)
      << "a committed batch observed two different cuts under direct conflict";
  EXPECT_GT(snapshot_reads_delta, 0u);
}

}  // namespace
}  // namespace spectm
