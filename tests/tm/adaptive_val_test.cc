// Adaptive validation engine (valstrategy.h): EWMA tracking, strategy choice and
// transitions, the writer-summary bloom ring, and the probe-verified hot-path
// claims — counter skips firing on unchanged-counter RO reads (short and full
// transactions, orec and val layouts), bloom skips rescuing stale counters when
// the intervening write traffic is disjoint, the lazy read signature being
// folded at every site that consults it, and fixed-strategy families leaving
// kAdaptive's shared inputs alone.
#include "src/tm/valstrategy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/structures/hash_tm_full.h"
#include "src/svc/kv_store.h"
#include "src/tm/config.h"
#include "src/tm/txdesc.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

TEST(AbortEwma, TracksOutcomesAndDecaysToZero) {
  TxStats stats;
  EXPECT_EQ(AbortEwmaQ16(stats), 0u);

  // Commits keep it at zero.
  for (int i = 0; i < 10; ++i) {
    UpdateAbortEwma(stats, /*aborted=*/false);
  }
  EXPECT_EQ(AbortEwmaQ16(stats), 0u);

  // A run of aborts drives it toward 100%...
  for (int i = 0; i < 100; ++i) {
    UpdateAbortEwma(stats, /*aborted=*/true);
  }
  EXPECT_GT(AbortEwmaQ16(stats), kEwmaBloomMaxQ16) << "sustained aborts look contended";

  // ...and a long abort-free run decays it all the way back to zero (the rounded
  // decrement must not stall at a small residue).
  for (int i = 0; i < 400; ++i) {
    UpdateAbortEwma(stats, /*aborted=*/false);
  }
  EXPECT_EQ(AbortEwmaQ16(stats), 0u);
}

TEST(AbortEwma, SingleAbortDoesNotFlipTheStrategy) {
  TxStats stats;
  UpdateAbortEwma(stats, /*aborted=*/true);
  // One abort from a cold start: 1/16 of full scale = 4096 Q16 — above the
  // counter-skip band but below the incremental band.
  EXPECT_LT(AbortEwmaQ16(stats), kEwmaBloomMaxQ16);
}

TEST(ChooseStrategy, AdaptiveBands) {
  EXPECT_EQ(ChooseStrategy(0), ValStrategy::kCounterSkip);
  EXPECT_EQ(ChooseStrategy(kEwmaCounterSkipMaxQ16 - 1), ValStrategy::kCounterSkip);
  EXPECT_EQ(ChooseStrategy(kEwmaCounterSkipMaxQ16), ValStrategy::kBloom);
  EXPECT_EQ(ChooseStrategy(kEwmaBloomMaxQ16 - 1), ValStrategy::kBloom);
  EXPECT_EQ(ChooseStrategy(kEwmaBloomMaxQ16), ValStrategy::kIncremental);
}

TEST(ChooseStrategy, PoorSkipEfficacyFallsBackToIncremental) {
  // When skips stopped paying for themselves, the adaptive chooser walks
  // regardless of the abort band.
  EXPECT_EQ(ChooseStrategy(0, kSkipEwmaMinQ16 - 1), ValStrategy::kIncremental);
  EXPECT_EQ(ChooseStrategy(0, kSkipEwmaMinQ16), ValStrategy::kCounterSkip);
}

// Fixed-strategy families run no chooser: with the abort EWMA at 100% and the
// skip-efficacy EWMA at 0 — where the adaptive chooser would walk — a two-read
// full transaction on a quiet domain still skips on the stable counter.
template <typename F>
class FixedStrategyIgnoresTheEwmas : public ::testing::Test {};
using FixedPreciseFamilies =
    ::testing::Types<OrecLCounterSkip, OrecLBloom, OrecLPart, ValGlobalCounter,
                     ValPerThreadCounter, ValBloom, ValPart>;
TYPED_TEST_SUITE(FixedStrategyIgnoresTheEwmas, FixedPreciseFamilies);

TYPED_TEST(FixedStrategyIgnoresTheEwmas, QuietFullTxSkips) {
  using F = TypeParam;
  using Probe = typename F::Full::Probe;
  static typename F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));
  TxStats& stats = DescOf<typename F::DomainTag>().stats;
  stats.abort_ewma_q16.store(65536u, std::memory_order_relaxed);
  stats.skip_ewma_q16.store(0u, std::memory_order_relaxed);

  Probe::Reset();
  typename F::FullTx tx;
  Word va = 0, vb = 0;
  do {
    tx.Start();
    va = tx.Read(&a);
    vb = tx.Read(&b);
  } while (!tx.Commit());
  EXPECT_EQ(DecodeInt(va), 1u);
  EXPECT_EQ(DecodeInt(vb), 2u);
  EXPECT_GE(Probe::Get().counter_skips, 1u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u)
      << "a fixed strategy walked because of the descriptor's EWMAs";
}

// Stripe-wise complement: a bloom guaranteed disjoint from `b` with bits in
// every stripe (so the probe consults all four lanes).
Bloom128 BloomNot(const Bloom128& b) {
  Bloom128 r;
  for (int s = 0; s < Bloom128::kStripes; ++s) {
    r.s[s] = ~b.s[s];
  }
  return r;
}

TEST(WriterRingTest, DisjointAndIntersectingRanges) {
  WriterRing ring;
  WriterRing::FailCounts fails;
  int x = 0, y = 0;
  const Bloom128 bx = AddrBloom128(&x);
  const Bloom128 by = AddrBloom128(&y);

  ring.Publish(1, bx);
  // Reader whose bloom misses bx: skip allowed over (0, 1].
  EXPECT_TRUE(ring.RangeDisjoint(0, 1, BloomNot(bx), &fails));
  // Reader whose bloom contains a bit of bx: must walk.
  EXPECT_FALSE(ring.RangeDisjoint(0, 1, bx, &fails));

  // Unpublished index in the range: must walk (tag mismatch).
  EXPECT_FALSE(ring.RangeDisjoint(0, 2, BloomNot(bx), &fails));

  ring.Publish(2, by);
  Bloom128 both = bx;
  both |= by;
  EXPECT_TRUE(ring.RangeDisjoint(0, 2, BloomNot(both), &fails));

  // Oversized ranges never skip.
  EXPECT_FALSE(
      ring.RangeDisjoint(0, WriterRing::kMaxSkipRange + 1, BloomNot(bx), &fails));
  EXPECT_EQ(fails.window, 1u);

  // A recycled slot (same slot index, different commit index) fails the tag check.
  const Word recycled = 1 + (Word{1} << WriterRing::kLog2Slots);
  ring.Publish(recycled, bx);
  EXPECT_FALSE(ring.RangeDisjoint(0, 1, BloomNot(bx), &fails))
      << "slot now carries a newer tag";
}

// The stripe-skipping probe: a reader with bits in only ONE stripe must still
// catch an unpublished commit (tag freshness is judged on consulted stripes) and
// an intersecting one, while genuinely disjoint same-stripe traffic passes.
TEST(WriterRingTest, SingleStripeProbeStaysSound) {
  WriterRing ring;
  WriterRing::FailCounts fails;
  Bloom128 read;
  read.s[2] = 1u << 7;  // reader occupies stripe 2 only

  // Unpublished commit in range: stale tag seen through stripe 2's lane.
  EXPECT_FALSE(ring.RangeDisjoint(0, 1, read, &fails));

  Bloom128 w_other;
  w_other.s[0] = 1u << 3;  // writer bits entirely in a stripe the reader skips
  ring.Publish(1, w_other);
  EXPECT_TRUE(ring.RangeDisjoint(0, 1, read, &fails));

  Bloom128 w_hit;
  w_hit.s[2] = 1u << 7;  // same stripe, same bit: possible overlap
  ring.Publish(2, w_hit);
  EXPECT_FALSE(ring.RangeDisjoint(0, 2, read, &fails));

  // The failure taxonomy classified both failures.
  EXPECT_GE(fails.stale, 1u);
  EXPECT_GE(fails.intersect, 1u);
}

// Acceptance: the short-tx counter skip fires on unchanged-counter RO reads — the
// second RO read of a short transaction must skip the prefix walk when no writer
// committed since the sample (orec layout, fixed counter-skip family).
TEST(CounterSkip, ShortTxOrecRoReadsSkipOnStableCounter) {
  using F = OrecLCounterSkip;
  using Probe = ValProbe<OrecLCounterTag>;
  static F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
  EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 2u);
  EXPECT_TRUE(tx.Valid());
  EXPECT_TRUE(tx.ValidateRo());
  tx.Abort();

  EXPECT_GE(Probe::Get().counter_skips, 2u)
      << "2nd read and final ValidateRo must both skip on the unchanged counter";
  EXPECT_EQ(Probe::Get().validation_walks, 0u)
      << "no RO-prefix walk may happen while the counter is stable";
}

// Same property through the val layout's persistent ShortTx sample.
TEST(CounterSkip, ShortTxValRoReadsSkipOnStableCounter) {
  using F = ValGlobalCounter;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(5));
  F::SingleWrite(&b, EncodeInt(6));

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 5u);
  EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 6u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_GE(Probe::Get().counter_skips, 1u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u)
      << "ValShortTx revalidated the whole RO set despite a stable counter";
}

// When the counter moves between reads, the skip must NOT fire: the engine walks
// (and the values are still intact, so the transaction stays valid).
TEST(CounterSkip, MovedCounterForcesTheWalk) {
  using F = OrecLCounterSkip;
  using Probe = ValProbe<OrecLCounterTag>;
  static F::Slot a, b, unrelated;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
  F::SingleWrite(&unrelated, EncodeInt(9));  // bumps the domain counter
  EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 2u);
  EXPECT_TRUE(tx.Valid()) << "disjoint write must not invalidate, only force a walk";
  tx.Abort();

  EXPECT_GE(Probe::Get().validation_walks, 1u)
      << "a moved counter with no bloom strategy must walk the prefix";
}

// Returns a slot (out of `pool`) whose orec bloom is disjoint from `read_bloom`,
// so bloom-skip tests are deterministic under ASLR (hash bits depend on addresses).
template <typename Family, std::size_t N>
typename Family::Slot* FindBloomDisjointSlot(typename Family::Slot (&pool)[N],
                                             const Bloom128& read_bloom) {
  for (auto& s : pool) {
    if (!AddrBloom128(&Family::Layout::OrecOf(s)).Intersects(read_bloom)) {
      return &s;
    }
  }
  return nullptr;
}

// Bloom strategy: a writer that commits to locations DISJOINT from the read set
// moves the counter but must not force a walk — the ring pre-filter skips it.
TEST(BloomSkip, DisjointWriterTrafficSkipsTheWalk) {
  using F = OrecLBloom;
  using Probe = ValProbe<OrecLBloomTag>;
  static F::Slot a, b;
  static F::Slot pool[64];
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));

  Bloom128 read_bloom = AddrBloom128(&F::Layout::OrecOf(a));
  read_bloom |= AddrBloom128(&F::Layout::OrecOf(b));
  F::Slot* disjoint = FindBloomDisjointSlot<F>(pool, read_bloom);
  ASSERT_NE(disjoint, nullptr) << "64 candidates always contain a disjoint bloom";

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
  F::SingleWrite(disjoint, EncodeInt(7));  // moves the counter, disjoint bloom
  EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 2u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_GE(Probe::Get().bloom_skips, 1u)
      << "disjoint intervening commit must be absorbed by the ring pre-filter";
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
}

// Bloom strategy, overlap case: a writer that DOES hit the read set must be
// caught — the skip may not fire and the transaction must invalidate.
TEST(BloomSkip, OverlappingWriterIsDetected) {
  using F = OrecLBloom;
  static F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));

  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
  F::SingleWrite(&a, EncodeInt(99));  // overlaps the read set
  tx.ReadRo(&b);
  EXPECT_FALSE(tx.Valid()) << "a changed read-set entry must invalidate the tx";
  tx.Abort();
}

// Full-transaction (local-clock) counter skip: with no concurrent writers, a
// read-heavy full transaction over the counter-skip family must do zero walks
// after the first read — the O(read-set) per-read revalidation collapses.
TEST(CounterSkip, FullTxLocalClockReadsSkipOnStableCounter) {
  using F = OrecLCounterSkip;
  using Probe = ValProbe<OrecLCounterTag>;
  static F::Slot slots[16];
  for (int i = 0; i < 16; ++i) {
    F::SingleWrite(&slots[i], EncodeInt(static_cast<std::uint64_t>(i)));
  }

  Probe::Reset();
  F::FullTx tx;
  bool done = false;
  while (!done) {
    tx.Start();
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(DecodeInt(tx.Read(&slots[i])), static_cast<std::uint64_t>(i));
    }
    done = tx.Commit();
  }
  EXPECT_GE(Probe::Get().counter_skips, 14u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u)
      << "quiescent read-heavy full tx must never walk under counter-skip";
}

// Acceptance: the EWMA switch actually transitions strategies. Drive the
// descriptor's EWMA across the bands and observe the adaptive family start
// attempts under different strategies.
TEST(AdaptiveStrategy, EwmaDrivesStrategyTransitions) {
  using F = OrecLAdaptive;
  using Probe = ValProbe<OrecLAdaptTag>;
  static F::Slot a;
  F::SingleWrite(&a, EncodeInt(1));
  TxStats& stats = DescOf<OrecLAdaptTag>().stats;
  stats.skip_ewma_q16.store(65536u);  // skips paying: isolate the abort signal

  // Phase 1: clean history -> counter-skip.
  while (AbortEwmaQ16(stats) != 0) {
    UpdateAbortEwma(stats, false);
  }
  Probe::Reset();
  {
    F::ShortTx tx;
    tx.ReadRo(&a);
    EXPECT_TRUE(tx.ValidateRo());
    tx.Abort();
  }
  EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kCounterSkip);

  // Phase 2: moderate abort pressure -> bloom.
  while (AbortEwmaQ16(stats) < kEwmaCounterSkipMaxQ16) {
    UpdateAbortEwma(stats, true);
  }
  ASSERT_LT(AbortEwmaQ16(stats), kEwmaBloomMaxQ16);
  {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.Abort();
  }
  EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kBloom);

  // Phase 3: heavy abort pressure -> incremental.
  while (AbortEwmaQ16(stats) < kEwmaBloomMaxQ16) {
    UpdateAbortEwma(stats, true);
  }
  {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.Abort();
  }
  EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kIncremental);

  EXPECT_GE(Probe::Get().strategy_switches, 2u)
      << "the probe must have recorded both band crossings";

  // Phase 4: pressure subsides -> back to counter-skip (full transactions pick the
  // strategy at Start() the same way).
  while (AbortEwmaQ16(stats) != 0) {
    UpdateAbortEwma(stats, false);
  }
  F::FullTx tx;
  do {
    tx.Start();
    tx.Read(&a);
  } while (!tx.Commit());
  EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kCounterSkip);
  EXPECT_GE(Probe::Get().strategy_switches, 3u);
}

// The val layout's adaptive engine takes the same decisions through its
// ValidationPolicy counter.
TEST(AdaptiveStrategy, ValAdaptiveSkipsWhenQuiescent) {
  using F = ValAdaptive;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(3));
  F::SingleWrite(&b, EncodeInt(4));
  TxStats& stats = DescOf<ValDomainTag>().stats;
  stats.skip_ewma_q16.store(65536u);
  while (AbortEwmaQ16(stats) != 0) {
    UpdateAbortEwma(stats, false);
  }

  Probe::Reset();
  F::FullTx tx;
  Word va = 0, vb = 0;
  do {
    tx.Start();
    va = tx.Read(&a);
    vb = tx.Read(&b);
  } while (!tx.Commit());
  EXPECT_EQ(DecodeInt(va), 3u);
  EXPECT_EQ(DecodeInt(vb), 4u);
  EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kCounterSkip);
  EXPECT_GE(Probe::Get().counter_skips, 1u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
}

// Skip-efficacy feedback, end to end: when the counter moves between every
// pair of reads, the adaptive engine must decay toward incremental — and the
// periodic probe must keep re-trying a skip so it can recover in quiet phases.
TEST(AdaptiveStrategy, PoorEfficacyDecaysToIncrementalAndProbesBack) {
  using F = OrecLAdaptive;
  using Probe = ValProbe<OrecLAdaptTag>;
  static F::Slot a, b, churn;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));
  TxStats& stats = DescOf<OrecLAdaptTag>().stats;
  while (AbortEwmaQ16(stats) != 0) {
    UpdateAbortEwma(stats, false);
  }
  stats.skip_ewma_q16.store(65536u);

  // Defeat every skip: a disjoint write between the two RO reads moves the
  // counter each attempt, so each attempt walks (efficacy miss).
  for (int i = 0; i < 200; ++i) {
    F::ShortTx tx;
    tx.ReadRo(&a);
    F::SingleWrite(&churn, EncodeInt(static_cast<std::uint64_t>(i)));
    tx.ReadRo(&b);
    EXPECT_TRUE(tx.Valid());
    tx.Reset();  // fresh attempt; strategy re-chosen from the decayed EWMA
  }
  EXPECT_LT(SkipEwmaQ16(stats), kSkipEwmaMinQ16) << "misses must decay the EWMA";
  {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.Abort();
  }
  // The engine may be in a probe attempt (1 in kSkipProbePeriod); retry a few
  // times to observe the steady incremental choice.
  int incremental_seen = 0;
  for (int i = 0; i < 8; ++i) {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.Abort();
    incremental_seen += Probe::Get().last_strategy == ValStrategy::kIncremental;
  }
  EXPECT_GE(incremental_seen, 6) << "poor efficacy must steer attempts to walking";

  // Quiet phase: probes fire every kSkipProbePeriod attempts, hit, and pull the
  // EWMA back up until skips are the steady choice again.
  for (int i = 0; i < 600; ++i) {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.ReadRo(&b);
    EXPECT_TRUE(tx.Valid());
    tx.Abort();
  }
  EXPECT_GE(SkipEwmaQ16(stats), kSkipEwmaMinQ16)
      << "probe hits in a quiet phase must restore skip efficacy";
  {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.Abort();
    EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kCounterSkip);
  }
}

// Multi-threaded sanity for the bloom ring under real concurrency: disjoint-slot
// writers churn while RO pairs are read; pairs must stay consistent and at least
// some reads should be absorbed by skips. (The heavyweight cross-family battery
// lives in concurrency_test.cc, which includes the new families.)
TEST(BloomSkip, ConcurrentDisjointChurnKeepsPairsConsistent) {
  using F = OrecLBloom;
  static F::Slot pair_a, pair_b;
  static F::Slot churn[8];
  F::SingleWrite(&pair_a, EncodeInt(0));
  F::SingleWrite(&pair_b, EncodeInt(0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      const Word v = EncodeInt(static_cast<std::uint64_t>(i) + 1);
      while (true) {
        F::ShortTx tx;
        tx.ReadRw(&pair_a);
        tx.ReadRw(&pair_b);
        if (!tx.Valid()) {
          tx.Abort();
          continue;
        }
        tx.CommitRw({v, v});
        break;
      }
      F::SingleWrite(&churn[i % 8], EncodeInt(static_cast<std::uint64_t>(i)));
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      F::ShortTx tx;
      const Word va = tx.ReadRo(&pair_a);
      const Word vb = tx.ReadRo(&pair_b);
      if (!tx.Valid() || !tx.ValidateRo()) {
        continue;
      }
      if (va != vb) {
        torn.fetch_add(1);
      }
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
}

// Linked-structure regression for the commit-time skip protocol: concurrent
// inserts/removes on a transactional hash set must keep (successful inserts -
// successful removes) equal to the final cardinality. The crossing-committer
// write skew this pins down (two committers whose read sets cross each other's
// write sets both skipping/passing validation) manifests exactly as a lost
// unlink: a Remove returns true while its victim stays reachable, breaking this
// balance — and later corrupting the heap via a double retire. Fixed by the
// bump-before-validate + own-index commit discipline (valstrategy.h).
template <typename Family>
void RunLinkedSetBalanceCheck(std::uint64_t seed) {
  TmHashSet<Family> set(64);
  constexpr int kWorkers = 4;
  constexpr int kOpsPerThread = 120000;
  constexpr std::uint64_t kKeys = 512;
  std::vector<std::int64_t> balance(kWorkers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      Xorshift128Plus rng(seed + static_cast<std::uint64_t>(t) * 7919);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeys);
        if (rng.Next() & 1) {
          if (set.Insert(k)) {
            ++balance[static_cast<std::size_t>(t)];
          }
        } else {
          if (set.Remove(k)) {
            --balance[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::int64_t expected = 0;
  for (const std::int64_t b : balance) {
    expected += b;
  }
  std::int64_t present = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    present += set.Contains(k) ? 1 : 0;
  }
  EXPECT_EQ(present, expected)
      << "insert/remove balance diverged from the set cardinality: a commit "
         "skipped validation past a crossing committer (lost unlink/insert)";
}

TEST(CommitSkipProtocol, LinkedSetBalanceOrecLBloom) {
  RunLinkedSetBalanceCheck<OrecLBloom>(0xb100f);
}

TEST(CommitSkipProtocol, LinkedSetBalanceOrecLCounterSkip) {
  RunLinkedSetBalanceCheck<OrecLCounterSkip>(0xc075);
}

TEST(CommitSkipProtocol, LinkedSetBalanceValBloom) {
  RunLinkedSetBalanceCheck<ValBloom>(0x7a1b);
}

TEST(CommitSkipProtocol, LinkedSetBalanceValAdaptive) {
  RunLinkedSetBalanceCheck<ValAdaptive>(0xada9);
}

// Crossing-committers regression, re-derived for the PARTITIONED skip protocol:
// the per-stripe commit skip (expected = anchor + own-bump contribution per
// READ-occupied stripe) must keep two crossing committers from write-skewing
// past each other exactly as the global own-index test did — a lost unlink
// breaks the insert/remove balance below. Both partitioned families run in the
// TSan smoke subset via this test binary.
TEST(CommitSkipProtocol, LinkedSetBalanceOrecLPart) {
  RunLinkedSetBalanceCheck<OrecLPart>(0x9a47);
}

TEST(CommitSkipProtocol, LinkedSetBalanceValPart) {
  RunLinkedSetBalanceCheck<ValPart>(0x57a1);
}

// --- Partitioned NOrec: per-stripe counters -------------------------------------

// The sharded bump, once per publishing path: every commit that releases a
// value makes exactly one PublishWriterCommit, which moves the global counter by
// one and exactly its write set's stripes by one, adds one to
// summary_publishes and the write mask's popcount to stripe_bumps.
template <typename Summary, typename Probe, typename Commit>
void ExpectOneShardedPublish(const char* path, unsigned write_mask,
                             const Commit& commit) {
  const StripeSample before = Summary::StripeSampleNow();
  const Word global_before = Summary::Sample();
  Probe::Reset();
  commit();
  EXPECT_EQ(Summary::Sample(), global_before + 1) << path;
  for (int s = 0; s < kCounterStripes; ++s) {
    EXPECT_EQ(Summary::StripeNow(s), before.v[s] + ((write_mask >> s) & 1u))
        << path << ", stripe " << s;
  }
  EXPECT_EQ(Probe::Get().summary_publishes, 1u) << path;
  EXPECT_EQ(Probe::Get().stripe_bumps,
            static_cast<std::uint64_t>(CountStripeBits(write_mask)))
      << path;
}

// Drives every publishing path of family F on two slots whose metadata words
// (`meta_of`) lie in different counter stripes.
template <typename F, typename Summary, typename Probe, std::size_t N,
          typename MetaOf>
void ExpectEveryPathShardsTheBump(typename F::Slot (&pool)[N],
                                  const MetaOf& meta_of) {
  typename F::Slot* a = &pool[0];
  typename F::Slot* b = nullptr;
  for (auto& s : pool) {
    if (CounterStripeOf(meta_of(s)) != CounterStripeOf(meta_of(*a))) {
      b = &s;
      break;
    }
  }
  ASSERT_NE(b, nullptr) << "the pool must span two counter stripes";
  const unsigned mask_a = 1u << CounterStripeOf(meta_of(*a));
  const unsigned mask_b = 1u << CounterStripeOf(meta_of(*b));
  F::SingleWrite(a, EncodeInt(1));
  F::SingleWrite(b, EncodeInt(2));

  ExpectOneShardedPublish<Summary, Probe>("full commit", mask_a | mask_b, [&] {
    typename F::FullTx tx;
    tx.Start();
    tx.Write(a, EncodeInt(3));
    tx.Write(b, EncodeInt(4));
    EXPECT_TRUE(tx.Commit());
  });
  ExpectOneShardedPublish<Summary, Probe>("CommitRw", mask_a | mask_b, [&] {
    typename F::ShortTx tx;
    tx.ReadRw(a);
    tx.ReadRw(b);
    EXPECT_TRUE(tx.CommitRw({EncodeInt(5), EncodeInt(6)}));
  });
  ExpectOneShardedPublish<Summary, Probe>("CommitMixed", mask_b, [&] {
    typename F::ShortTx tx;
    tx.ReadRo(a);
    tx.ReadRw(b);
    EXPECT_TRUE(tx.CommitMixed({EncodeInt(7)}));
  });
  ExpectOneShardedPublish<Summary, Probe>("SingleWrite", mask_a,
                                          [&] { F::SingleWrite(a, EncodeInt(8)); });
  ExpectOneShardedPublish<Summary, Probe>("SingleCas", mask_a, [&] {
    EXPECT_EQ(F::SingleCas(a, EncodeInt(8), EncodeInt(9)), EncodeInt(8));
  });
}

TEST(PartitionedSkip, StripeCountersShardTheBump) {
  static OrecLPart::Slot orec_pool[256];  // hash-scattered orecs: two stripes occur
  ExpectEveryPathShardsTheBump<OrecLPart, OrecLPart::Full::Summary,
                               ValProbe<OrecLPartTag>>(
      orec_pool,
      [](OrecLPart::Slot& s) { return &OrecLPart::Layout::OrecOf(s); });
  static ValPart::Slot val_pool[1024];  // 8 KiB of slots: two 4 KiB stripes
  ExpectEveryPathShardsTheBump<ValPart, GlobalCounterBloomValidation,
                               ValProbe<ValDomainTag>>(
      val_pool, [](ValPart::Slot& s) { return &s.word; });
}

// The shared commit counters a counting summary of F's domain would bump: the
// val domain's two precise policies, or the orec domain's WriterSummary in
// either stripe configuration.
template <typename F>
Word DomainCommitCounters() {
  if constexpr (std::is_same_v<typename F::DomainTag, ValDomainTag>) {
    return GlobalCounterValidation::Sample() + GlobalCounterBloomValidation::Sample();
  } else {
    return WriterSummary<typename F::DomainTag, false>::Sample() +
           WriterSummary<typename F::DomainTag, true>::Sample();
  }
}

// The null summary tracks no commits: the non-reuse val family and the passive
// orec families (global and local clock, both layouts) bump nothing on any
// publishing path, so no publish may be counted either.
template <typename F>
class NonReuseCommitsPublishNothing : public ::testing::Test {};
using NullSummaryFamilies = ::testing::Types<Val, OrecG, OrecL, TvarL>;
TYPED_TEST_SUITE(NonReuseCommitsPublishNothing, NullSummaryFamilies);

TYPED_TEST(NonReuseCommitsPublishNothing, OnEveryPublishingPath) {
  using F = TypeParam;
  using Summary = typename F::Full::Summary;
  using Probe = ValProbe<typename F::DomainTag>;
  static_assert(std::is_same_v<Summary, NonReuseValidation> &&
                    std::is_same_v<typename F::Short::Summary, Summary>,
                "a passive family's engines share the null summary");
  static typename F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));
  const auto expect_nothing_published = [](const char* path, const auto& commit) {
    const Word summary_before = Summary::Sample();
    const Word counters_before = DomainCommitCounters<F>();
    Probe::Reset();
    commit();
    EXPECT_EQ(Probe::Get().summary_publishes, 0u) << path;
    EXPECT_EQ(Probe::Get().stripe_bumps, 0u) << path;
    EXPECT_EQ(Summary::Sample(), summary_before) << path;
    EXPECT_EQ(DomainCommitCounters<F>(), counters_before) << path;
  };
  expect_nothing_published("full commit", [&] {
    typename F::FullTx tx;
    tx.Start();
    tx.Write(&a, EncodeInt(3));
    tx.Write(&b, EncodeInt(4));
    EXPECT_TRUE(tx.Commit());
  });
  expect_nothing_published("CommitRw", [&] {
    typename F::ShortTx tx;
    tx.ReadRw(&a);
    tx.ReadRw(&b);
    EXPECT_TRUE(tx.CommitRw({EncodeInt(5), EncodeInt(6)}));
  });
  expect_nothing_published("CommitMixed", [&] {
    typename F::ShortTx tx;
    tx.ReadRo(&a);
    tx.ReadRw(&b);
    EXPECT_TRUE(tx.CommitMixed({EncodeInt(7)}));
  });
  expect_nothing_published("SingleWrite",
                           [&] { F::SingleWrite(&a, EncodeInt(8)); });
  expect_nothing_published("SingleCas", [&] {
    EXPECT_EQ(F::SingleCas(&a, EncodeInt(8), EncodeInt(9)), EncodeInt(8));
  });
  EXPECT_EQ(DecodeInt(F::SingleRead(&a)), 9u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&b)), 7u);
}

// Every read-set walk is counted, whatever the family's mode. A passive
// local-clock full transaction of n reads walks once per read after the first
// (the prefix-only walk; nothing to skip against) and not at its read-only
// commit.
TEST(WalkCount, PassiveLocalClockFullTxWalksOncePerLaterRead) {
  using F = OrecL;
  using Probe = ValProbe<OrecLTag>;
  constexpr int kReads = 6;
  static F::Slot slots[kReads];
  for (int i = 0; i < kReads; ++i) {
    F::SingleWrite(&slots[i], EncodeInt(static_cast<std::uint64_t>(i)));
  }
  Probe::Reset();
  F::FullTx tx;
  tx.Start();
  for (int i = 0; i < kReads; ++i) {
    EXPECT_EQ(DecodeInt(tx.Read(&slots[i])), static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(tx.Commit());
  EXPECT_EQ(Probe::Get().validation_walks, static_cast<std::uint64_t>(kReads - 1));
}

// A global-clock read past the snapshot extends it: one walk, however many
// reads the transaction makes; the read-only commit walks nothing.
TEST(WalkCount, GlobalClockExtensionIsOneWalk) {
  using F = OrecG;
  using Probe = ValProbe<OrecGTag>;
  static F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));
  Probe::Reset();
  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&a)), 1u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u) << "reads within rv never walk";
  F::SingleWrite(&b, EncodeInt(3));  // b's version passes the snapshot
  EXPECT_EQ(DecodeInt(tx.Read(&b)), 3u);
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(Probe::Get().validation_walks, 1u) << "the timebase extension";
  EXPECT_TRUE(tx.Commit());
  EXPECT_EQ(Probe::Get().validation_walks, 1u);
}

// Returns a slot from `pool` whose counter stripe is NOT in `occupied_mask`
// (metadata word = the val-layout data word). The pool must span enough 4 KiB
// regions that every stripe occurs in it.
template <std::size_t N>
ValSlot* FindStripeDisjointValSlot(ValSlot (&pool)[N], unsigned occupied_mask) {
  for (auto& s : pool) {
    if (((occupied_mask >> CounterStripeOf(&s.word)) & 1u) == 0) {
      return &s;
    }
  }
  return nullptr;
}

// Acceptance: disjoint-STRIPE writer traffic moves the global counter but not
// the reader's occupied stripes — the partitioned skip fires with zero walks and
// without ever consulting the ring.
TEST(PartitionedSkip, DisjointStripeChurnSkipsWithoutWalks) {
  using F = ValPart;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot pair_a, pair_b;
  static F::Slot pool[4096];  // 32 KiB of slots: every 4 KiB stripe occurs
  F::SingleWrite(&pair_a, EncodeInt(1));
  F::SingleWrite(&pair_b, EncodeInt(2));
  const unsigned occupied =
      (1u << CounterStripeOf(&pair_a.word)) | (1u << CounterStripeOf(&pair_b.word));
  F::Slot* churn = FindStripeDisjointValSlot(pool, occupied);
  ASSERT_NE(churn, nullptr);
  F::SingleWrite(churn, EncodeInt(3));

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_a)), 1u);
  F::SingleWrite(churn, EncodeInt(7));  // bumps the global counter, other stripe
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_b)), 2u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_GE(Probe::Get().stripe_skips, 1u)
      << "disjoint-stripe traffic must be absorbed by the stripe vector";
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
  EXPECT_EQ(Probe::Get().cross_stripe_walks, 0u);
  EXPECT_GE(Probe::Get().stripe_bumps, 1u) << "the churn writer bumped its stripe";
}

// Same property through the hash-scattered orec table (stripes there are
// effectively random per orec, but with a two-entry read set a disjoint stripe
// still exists and the skip must fire).
TEST(PartitionedSkip, OrecLayoutDisjointStripeChurnSkips) {
  using F = OrecLPart;
  using Probe = ValProbe<OrecLPartTag>;
  static F::Slot a, b;
  static F::Slot pool[256];
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));
  const unsigned occupied = (1u << CounterStripeOf(&F::Layout::OrecOf(a))) |
                            (1u << CounterStripeOf(&F::Layout::OrecOf(b)));
  F::Slot* churn = nullptr;
  for (auto& s : pool) {
    if (((occupied >> CounterStripeOf(&F::Layout::OrecOf(s))) & 1u) == 0) {
      churn = &s;
      break;
    }
  }
  ASSERT_NE(churn, nullptr) << "256 hash-scattered orecs always hit a free stripe";

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
  F::SingleWrite(churn, EncodeInt(9));
  EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 2u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_GE(Probe::Get().stripe_skips, 1u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
}

// Same-stripe but bloom-disjoint traffic: the stripe vector cannot prove
// anything (an occupied stripe moved), so the engine must fall back to the ring
// — which still absorbs the walk because the churn bloom misses the read bloom.
TEST(PartitionedSkip, SameStripeDisjointTrafficFallsBackToRing) {
  using F = ValPart;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot pair_a, pair_b;
  static F::Slot pool[4096];
  F::SingleWrite(&pair_a, EncodeInt(1));
  F::SingleWrite(&pair_b, EncodeInt(2));
  Bloom128 read_bloom = AddrBloom128(&pair_a.word);
  read_bloom |= AddrBloom128(&pair_b.word);
  const unsigned occupied =
      (1u << CounterStripeOf(&pair_a.word)) | (1u << CounterStripeOf(&pair_b.word));
  F::Slot* churn = nullptr;
  for (auto& s : pool) {
    if (((occupied >> CounterStripeOf(&s.word)) & 1u) != 0 &&
        !AddrBloom128(&s.word).Intersects(read_bloom)) {
      churn = &s;
      break;
    }
  }
  ASSERT_NE(churn, nullptr);

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_a)), 1u);
  F::SingleWrite(churn, EncodeInt(5));  // moves an OCCUPIED stripe, disjoint bloom
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_b)), 2u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_EQ(Probe::Get().stripe_skips, 0u)
      << "a moved occupied stripe must not stripe-skip";
  EXPECT_GE(Probe::Get().bloom_skips, 1u) << "the ring is the fallback";
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
}

// Correctness under the partitioned family: a write that actually hits the read
// set must still invalidate the reader (stripe check fails, ring intersects, the
// walk sees the changed value).
TEST(PartitionedSkip, SameLocationWriteIsDetected) {
  using F = ValPart;
  static F::Slot pair_a, pair_b;
  F::SingleWrite(&pair_a, EncodeInt(1));
  F::SingleWrite(&pair_b, EncodeInt(2));

  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_a)), 1u);
  F::SingleWrite(&pair_a, EncodeInt(99));
  tx.ReadRo(&pair_b);
  EXPECT_FALSE(tx.Valid()) << "a changed read-set entry must invalidate the tx";
  tx.Abort();
}

// Commit-time partitioned skip: a committing writer whose read-occupied stripes
// saw only its own bump (foreign traffic entirely in other stripes) skips its
// final walk via the per-stripe expected-increment test.
TEST(PartitionedSkip, CommitSkipSurvivesDisjointStripeTraffic) {
  using F = ValPart;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot read_slot, write_slot;
  static F::Slot pool[4096];
  F::SingleWrite(&read_slot, EncodeInt(4));
  F::SingleWrite(&write_slot, EncodeInt(5));
  const unsigned occupied = 1u << CounterStripeOf(&read_slot.word);
  F::Slot* churn = FindStripeDisjointValSlot(pool, occupied);
  ASSERT_NE(churn, nullptr);

  Probe::Reset();
  F::FullTx tx;
  Word v = 0;
  do {
    tx.Start();
    v = tx.Read(&read_slot);
    F::SingleWrite(churn, EncodeInt(11));  // foreign bump, disjoint stripe
    tx.Write(&write_slot, EncodeInt(6));
  } while (!tx.Commit());
  EXPECT_EQ(DecodeInt(v), 4u);
  EXPECT_GE(Probe::Get().stripe_skips, 1u)
      << "the commit must skip through the per-stripe test, not walk";
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
}

// --- Lazy read signature: every consult site folds the whole log -------------
//
// The read bloom and stripe mask are folded from the read log only when a skip
// test finds the global counter moved (StrategyState). A consult site that
// skipped the fold would test an EMPTY (or partial) signature, and an empty
// signature passes both the stripe test and the ring test vacuously — so each
// case below plants a real conflict on an entry that only the fold can name,
// and checks that the skip did not fire. Covered: the per-read consult
// (TrySkipRead) of full and short transactions, and the commit-time consult
// (TrySkipCommit) of both, on the stripe (kStripe) and bloom (kBloom)
// strategies over the val layout, plus the orec-layout engines.

// The metadata word a family's skip signature hashes for `s`.
template <typename F>
const void* MetaWordOf(typename F::Slot* s) {
  if constexpr (std::is_same_v<typename F::Slot, ValSlot>) {
    return &s->word;
  } else {
    return &F::Layout::OrecOf(*s);
  }
}

// First slot in `pool` (other than the `avoid` slots) whose metadata word lies
// in a stripe accepted by `want_stripe` and whose bloom misses `avoid_bloom`.
template <typename F, std::size_t N, typename StripeOk>
typename F::Slot* PickSlot(typename F::Slot (&pool)[N], StripeOk want_stripe,
                           const Bloom128& avoid_bloom) {
  for (auto& s : pool) {
    const void* m = MetaWordOf<F>(&s);
    if (want_stripe(CounterStripeOf(m)) && !AddrBloom128(m).Intersects(avoid_bloom)) {
      return &s;
    }
  }
  return nullptr;
}

// One attempt's reads, through a full or a short transaction.
template <typename F>
struct FullReads {
  typename F::FullTx tx;
  FullReads() { tx.Start(); }
  ~FullReads() { tx.Commit(); }
  void Read(typename F::Slot* s) { tx.Read(s); }
  bool ok() const { return tx.ok(); }
};

template <typename F>
struct ShortReads {
  typename F::ShortTx tx;
  void Read(typename F::Slot* s) { tx.ReadRo(s); }
  bool ok() const { return tx.Valid(); }
};

// Reads X, lets a foreign single-op commit overwrite X, then reads Y in X's
// stripe (bloom-disjoint from X): the consult on Y must fold X, see X's stripe
// moved and X's bloom in the ring, walk, and detect the change. With
// `warm_fold`, an earlier consult (after a bloom- and stripe-disjoint foreign
// commit, which the first skip absorbs) folds a prefix first, so the failing
// consult must continue from the fold cursor instead of starting over.
template <typename F, template <typename> class Reads>
void RunReadConsultCase(bool warm_fold) {
  using Probe = typename F::Full::Probe;
  static typename F::Slot pool[4096];  // spans every 4 KiB stripe region
  typename F::Slot* x = &pool[0];
  const int x_stripe = CounterStripeOf(MetaWordOf<F>(x));
  const Bloom128 x_bloom = AddrBloom128(MetaWordOf<F>(x));
  typename F::Slot* y =
      PickSlot<F>(pool, [&](int s) { return s == x_stripe; }, x_bloom);
  ASSERT_NE(y, nullptr);
  Bloom128 read_bloom = x_bloom;
  read_bloom |= AddrBloom128(MetaWordOf<F>(y));
  typename F::Slot* w =
      PickSlot<F>(pool, [&](int s) { return s == x_stripe; }, read_bloom);
  ASSERT_NE(w, nullptr);
  read_bloom |= AddrBloom128(MetaWordOf<F>(w));
  typename F::Slot* z =
      PickSlot<F>(pool, [&](int s) { return s != x_stripe; }, read_bloom);
  ASSERT_NE(z, nullptr);

  Probe::Reset();
  bool ok = false;
  {
    Reads<F> reads;
    if (warm_fold) {
      reads.Read(w);
      F::SingleWrite(z, EncodeInt(3));  // disjoint: the next consult skips
    }
    reads.Read(x);
    // Foreign commit over a logged entry; a fresh value, since the val layout
    // validates by value.
    F::SingleWrite(x, EncodeInt(DecodeInt(F::SingleRead(x)) + 1));
    reads.Read(y);
    ok = reads.ok();
  }
  const typename Probe::Counters& c = Probe::Get();
  EXPECT_FALSE(ok) << "the overwritten read of X went undetected";
  EXPECT_EQ(c.validation_walks, 1u) << "the consult on Y must walk";
  if constexpr (F::kValStrategy == ValStrategy::kStripe) {
    EXPECT_EQ(c.cross_stripe_walks, 1u);
    EXPECT_EQ(c.stripe_skips, warm_fold ? 1u : 0u);
    EXPECT_EQ(c.bloom_skips, 0u);
  } else {
    EXPECT_EQ(c.stripe_skips, 0u);
    EXPECT_EQ(c.bloom_skips, warm_fold ? 1u : 0u);
  }
}

TEST(LazySignature, FullTxReadConsultFoldsValPart) {
  RunReadConsultCase<ValPart, FullReads>(false);
  RunReadConsultCase<ValPart, FullReads>(true);
}

TEST(LazySignature, FullTxReadConsultFoldsValBloom) {
  RunReadConsultCase<ValBloom, FullReads>(false);
  RunReadConsultCase<ValBloom, FullReads>(true);
}

TEST(LazySignature, ShortTxReadConsultFoldsValPart) {
  RunReadConsultCase<ValPart, ShortReads>(false);
  RunReadConsultCase<ValPart, ShortReads>(true);
}

TEST(LazySignature, ShortTxReadConsultFoldsValBloom) {
  RunReadConsultCase<ValBloom, ShortReads>(false);
  RunReadConsultCase<ValBloom, ShortReads>(true);
}

TEST(LazySignature, ReadConsultFoldsOrecLayout) {
  for (const bool warm_fold : {false, true}) {
    RunReadConsultCase<OrecLPart, FullReads>(warm_fold);
    RunReadConsultCase<OrecLPart, ShortReads>(warm_fold);
    RunReadConsultCase<OrecLBloom, FullReads>(warm_fold);
    RunReadConsultCase<OrecLBloom, ShortReads>(warm_fold);
  }
}

// Commit-time consult through the service API: a BatchUpdate reads and
// rewrites keys X and Y; after its last key — so no per-read consult can catch
// it — the hook overwrites X with a foreign single-op commit (first attempt
// only). Every per-read skip saw a still counter, so the commit's TrySkipCommit
// is the first consult: it must fold the log, refuse the skip, walk, and abort
// the attempt. The retry then reads the foreign value: X ends at 500 + 1, where
// a skipped fold would commit the lost update 10 + 1.
template <typename F>
void RunBatchCommitConsultCase() {
  using Probe = typename F::Full::Probe;
  svc::KvStore<F> store;
  std::vector<std::uint64_t> keys(64), vals(64, 10);
  for (std::uint64_t k = 0; k < keys.size(); ++k) {
    keys[k] = k;
  }
  store.BatchPut(keys.data(), vals.data(), keys.size());
  const std::uint64_t batch[2] = {3, 7};
  typename F::Slot* x = store.DebugValueSlotOf(batch[0]);
  ASSERT_NE(x, nullptr);

  Probe::Reset();
  const std::uint64_t aborts_before =
      F::Full::StatsForCurrentThread().aborts.load(std::memory_order_relaxed);
  bool churned = false;
  store.BatchUpdate(
      batch, 2, [](std::size_t, std::uint64_t v, bool) { return v + 1; },
      [&](std::size_t i) {
        if (i == 1 && !churned) {
          churned = true;
          F::SingleWrite(x, EncodeInt(500));
        }
      });
  std::uint64_t vx = 0, vy = 0;
  ASSERT_TRUE(store.Get(batch[0], &vx));
  ASSERT_TRUE(store.Get(batch[1], &vy));
  EXPECT_EQ(vx, 501u) << "the commit skipped past a foreign write to its read set";
  EXPECT_EQ(vy, 11u);
  EXPECT_EQ(F::Full::StatsForCurrentThread().aborts.load(std::memory_order_relaxed),
            aborts_before + 1);
  const typename Probe::Counters& c = Probe::Get();
  EXPECT_GE(c.validation_walks, 1u) << "the commit consult must walk";
  EXPECT_EQ(c.stripe_skips, 0u);
  EXPECT_EQ(c.bloom_skips, 0u);
}

TEST(LazySignature, BatchCommitConsultFoldsValPart) {
  RunBatchCommitConsultCase<ValPart>();
}

TEST(LazySignature, BatchCommitConsultFoldsValBloom) {
  RunBatchCommitConsultCase<ValBloom>();
}

TEST(LazySignature, BatchCommitConsultFoldsOrecLayout) {
  RunBatchCommitConsultCase<OrecLPart>();
  RunBatchCommitConsultCase<OrecLBloom>();
}

// Short-transaction commit consult (CommitMixed): read X, foreign commit over
// X, lock W in X's stripe, commit. The RO log's only consult is the commit's.
template <typename F>
void RunShortCommitConsultCase() {
  using Probe = typename F::Full::Probe;
  static typename F::Slot pool[4096];
  typename F::Slot* x = &pool[0];
  const int x_stripe = CounterStripeOf(MetaWordOf<F>(x));
  typename F::Slot* w = PickSlot<F>(
      pool, [&](int s) { return s == x_stripe; }, AddrBloom128(MetaWordOf<F>(x)));
  ASSERT_NE(w, nullptr);
  F::SingleWrite(w, EncodeInt(20));

  Probe::Reset();
  typename F::ShortTx tx;
  tx.ReadRo(x);
  F::SingleWrite(x, EncodeInt(21));  // foreign commit over the logged read
  tx.ReadRw(w);
  ASSERT_TRUE(tx.Valid());
  EXPECT_FALSE(tx.CommitMixed({EncodeInt(22)}))
      << "the commit skipped past a foreign write to its read set";
  EXPECT_EQ(DecodeInt(F::SingleRead(w)), 20u) << "the aborted commit stored";
  const typename Probe::Counters& c = Probe::Get();
  EXPECT_EQ(c.validation_walks, 1u) << "the commit consult must walk";
  EXPECT_EQ(c.stripe_skips, 0u);
  EXPECT_EQ(c.bloom_skips, 0u);
}

TEST(LazySignature, ShortTxCommitConsultFolds) {
  RunShortCommitConsultCase<ValPart>();
  RunShortCommitConsultCase<ValBloom>();
  RunShortCommitConsultCase<OrecLPart>();
  RunShortCommitConsultCase<OrecLBloom>();
}

// --- Strategy-band hysteresis (enter/exit dead bands) ---------------------------

TEST(ChooseStrategy, AbortBandEdgesAreHysteretic) {
  const std::uint32_t lower_band =
      (kEwmaCounterSkipExitQ16 + kEwmaCounterSkipMaxQ16) / 2;
  // Inside the counter-skip/bloom dead band the previous choice sticks — the
  // single-threshold design flipped here on every EWMA wiggle.
  EXPECT_EQ(ChooseStrategy(lower_band, 65536u,
                           /*has_prev=*/true, ValStrategy::kCounterSkip),
            ValStrategy::kCounterSkip);
  EXPECT_EQ(ChooseStrategy(lower_band, 65536u,
                           /*has_prev=*/true, ValStrategy::kBloom),
            ValStrategy::kBloom);
  // Leaving through the exit edge flips back.
  EXPECT_EQ(ChooseStrategy(kEwmaCounterSkipExitQ16 - 1,
                           65536u, /*has_prev=*/true, ValStrategy::kBloom),
            ValStrategy::kCounterSkip);
  // Upper (bloom/incremental) band behaves the same way.
  const std::uint32_t upper_band = (kEwmaBloomExitQ16 + kEwmaBloomMaxQ16) / 2;
  EXPECT_EQ(ChooseStrategy(upper_band, 65536u,
                           /*has_prev=*/true, ValStrategy::kIncremental),
            ValStrategy::kIncremental);
  EXPECT_EQ(ChooseStrategy(upper_band, 65536u,
                           /*has_prev=*/true, ValStrategy::kBloom),
            ValStrategy::kBloom);
  EXPECT_EQ(ChooseStrategy(kEwmaBloomExitQ16 - 1, 65536u,
                           /*has_prev=*/true, ValStrategy::kIncremental),
            ValStrategy::kBloom);
}

TEST(ChooseStrategy, SkipEfficacyRecoveryIsHysteretic) {
  const std::uint32_t in_band = (kSkipEwmaMinQ16 + kSkipEwmaRecoverQ16) / 2;
  // A thread that fell back to walking needs the RECOVER threshold to resume...
  EXPECT_EQ(ChooseStrategy(0, in_band,
                           /*has_prev=*/true, ValStrategy::kIncremental),
            ValStrategy::kIncremental);
  // ...while a thread still skipping keeps skipping at the same efficacy.
  EXPECT_EQ(ChooseStrategy(0, in_band,
                           /*has_prev=*/true, ValStrategy::kCounterSkip),
            ValStrategy::kCounterSkip);
  EXPECT_EQ(ChooseStrategy(0, kSkipEwmaRecoverQ16,
                           /*has_prev=*/true, ValStrategy::kIncremental),
            ValStrategy::kCounterSkip);
}

// End-to-end flap regression: an abort EWMA wiggling INSIDE the dead band must
// not alternate the strategy attempts start with; leaving the band through the
// exit edge flips exactly once.
TEST(StrategyHysteresis, InBandEwmaWiggleDoesNotFlap) {
  using F = OrecLAdaptive;
  using Probe = ValProbe<OrecLAdaptTag>;
  static F::Slot a;
  F::SingleWrite(&a, EncodeInt(1));
  TxStats& stats = DescOf<OrecLAdaptTag>().stats;
  stats.skip_ewma_q16.store(65536u);  // isolate the abort-band signal

  // Rise through the enter edge: attempts settle on bloom.
  while (AbortEwmaQ16(stats) < kEwmaCounterSkipMaxQ16) {
    UpdateAbortEwma(stats, true);
  }
  {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.Abort();
  }
  ASSERT_EQ(Probe::Get().last_strategy, ValStrategy::kBloom);

  const std::uint64_t switches_before = Probe::Get().strategy_switches;
  const std::uint32_t mid =
      (kEwmaCounterSkipExitQ16 + kEwmaCounterSkipMaxQ16) / 2;
  for (int i = 0; i < 64; ++i) {
    // Wiggle around the old single threshold's position (today's enter edge sits
    // where the memoryless band edge sat): alternating values inside the band —
    // the memoryless chooser alternated strategies on every such wiggle.
    const std::uint32_t wiggle = mid + (i % 2 == 0 ? -64 : +64);
    stats.abort_ewma_q16.store(wiggle, std::memory_order_relaxed);
    ASSERT_GE(AbortEwmaQ16(stats), kEwmaCounterSkipExitQ16);
    ASSERT_LT(AbortEwmaQ16(stats), kEwmaCounterSkipMaxQ16);
    F::ShortTx tx;
    tx.ReadRo(&a);  // pure-RO attempt: its Abort() leaves the EWMA untouched
    tx.Abort();
    EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kBloom)
        << "in-band wiggling must never flip the strategy";
  }
  EXPECT_EQ(Probe::Get().strategy_switches, switches_before);

  // Falling through the exit edge finally flips, once.
  stats.abort_ewma_q16.store(kEwmaCounterSkipExitQ16 - 1,
                             std::memory_order_relaxed);
  {
    F::ShortTx tx;
    tx.ReadRo(&a);
    tx.Abort();
  }
  EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kCounterSkip);
  EXPECT_EQ(Probe::Get().strategy_switches, switches_before + 1);
}

// The val families share one ValProbe (ValDomainTag), so ValAdaptive's
// hysteresis memory sits beside the attempts of every fixed-strategy val
// family. Those attempts run no chooser and must leave the memory alone: a
// ValPart attempt between two in-band ValAdaptive attempts may neither reset
// the adaptive choice nor count a switch.
TEST(StrategyHysteresis, FixedFamilyAttemptsLeaveTheAdaptiveMemoryAlone) {
  using Probe = ValProbe<ValDomainTag>;
  static ValAdaptive::Slot a;
  static ValPart::Slot b;
  ValAdaptive::SingleWrite(&a, EncodeInt(1));
  ValPart::SingleWrite(&b, EncodeInt(2));
  TxStats& stats = DescOf<ValDomainTag>().stats;
  stats.skip_ewma_q16.store(65536u);  // isolate the abort-band signal
  const auto adaptive_attempt = [&] {
    ValAdaptive::ShortTx tx;
    tx.ReadRo(&a);  // pure-RO attempt: its Abort() leaves the EWMA untouched
    tx.Abort();
  };

  // Enter the bloom band, then sit inside the lower dead band: bloom sticks.
  stats.abort_ewma_q16.store(kEwmaCounterSkipMaxQ16, std::memory_order_relaxed);
  adaptive_attempt();
  ASSERT_EQ(Probe::Get().last_strategy, ValStrategy::kBloom);
  stats.abort_ewma_q16.store((kEwmaCounterSkipExitQ16 + kEwmaCounterSkipMaxQ16) / 2,
                             std::memory_order_relaxed);
  adaptive_attempt();
  ASSERT_EQ(Probe::Get().last_strategy, ValStrategy::kBloom);
  const std::uint64_t switches_before = Probe::Get().strategy_switches;

  {
    ValPart::ShortTx tx;
    tx.ReadRo(&b);
    tx.Abort();
  }
  adaptive_attempt();
  EXPECT_EQ(Probe::Get().last_strategy, ValStrategy::kBloom)
      << "a fixed-strategy attempt reset the adaptive hysteresis memory";
  EXPECT_EQ(Probe::Get().strategy_switches, switches_before)
      << "no adaptive transition happened, so none may be counted";
}

// The skip-efficacy EWMA is kAdaptive's input, and it sits in the descriptor
// every val family shares (DescOf<ValDomainTag>). A fixed family's per-read
// skips must neither pay for updating it nor move it: a 3-read ValPart
// transaction on a quiet domain skips twice and leaves it where it was. The
// ValAdaptive twin shows the same transaction still feeds it.
template <typename F>
std::uint32_t SkipEwmaAfterQuietThreeReadTx() {
  static typename F::Slot a, b, c;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));
  F::SingleWrite(&c, EncodeInt(3));
  TxStats& stats = DescOf<ValDomainTag>().stats;
  stats.abort_ewma_q16.store(0u, std::memory_order_relaxed);  // counter-skip band
  stats.skip_ewma_q16.store(30000u, std::memory_order_relaxed);
  using Probe = ValProbe<ValDomainTag>;
  const std::uint64_t skips_before = Probe::Get().counter_skips;
  typename F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&a)), 1u);
  EXPECT_EQ(DecodeInt(tx.Read(&b)), 2u);
  EXPECT_EQ(DecodeInt(tx.Read(&c)), 3u);
  const std::uint32_t ewma = stats.skip_ewma_q16.load(std::memory_order_relaxed);
  EXPECT_TRUE(tx.Commit());
  EXPECT_EQ(Probe::Get().counter_skips - skips_before, 2u)
      << "the quiet reads did not skip, so the EWMA saw no consult";
  return ewma;
}

TEST(StrategyIsolation, FixedFamilySkipsLeaveTheAdaptiveEwmaAlone) {
  EXPECT_EQ(SkipEwmaAfterQuietThreeReadTx<ValPart>(), 30000u)
      << "a fixed-strategy family fed the adaptive skip-efficacy EWMA";
}

TEST(StrategyIsolation, AdaptiveSkipsStillFeedTheEwma) {
  EXPECT_GT(SkipEwmaAfterQuietThreeReadTx<ValAdaptive>(), 30000u)
      << "ValAdaptive's skips no longer feed its efficacy EWMA";
}

}  // namespace
}  // namespace spectm
