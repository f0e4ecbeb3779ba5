// Engine-detail tests for short transactions: version restoration on abort, the
// invisible-read property, lock observability across APIs, orec encoding, and the
// OrecTable hash distribution.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/tm/config.h"
#include "src/tm/orec.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

// --- Orec word encoding ------------------------------------------------------------------

TEST(OrecEncoding, VersionRoundTrip) {
  for (Word v : {0ULL, 1ULL, 42ULL, (1ULL << 62) - 1}) {
    const Word w = MakeOrecVersion(v);
    EXPECT_FALSE(OrecIsLocked(w));
    EXPECT_EQ(OrecVersionOf(w), v);
  }
}

TEST(OrecEncoding, LockedCarriesOwner) {
  TxDesc& desc = DescOf<struct EncodingTestTag>();
  const Word w = MakeOrecLocked(&desc);
  EXPECT_TRUE(OrecIsLocked(w));
  EXPECT_EQ(OrecOwnerOf(w), &desc);
}

TEST(OrecTable, DeterministicMapping) {
  OrecTable table(10);
  int x;
  EXPECT_EQ(&table.ForAddr(&x), &table.ForAddr(&x));
  EXPECT_EQ(table.Size(), 1024u);
}

TEST(OrecTable, SpreadsSequentialAddresses) {
  OrecTable table(10);
  std::vector<std::uint64_t> arena(4096);
  std::set<const void*> distinct;
  for (const auto& w : arena) {
    distinct.insert(&table.ForAddr(&w));
  }
  // Fibonacci hashing on sequential addresses should spread across most buckets.
  EXPECT_GT(distinct.size(), 700u);
}

// The striped table's whole point (orec.h): an orec occupies the SAME
// partitioned-counter stripe as every data address that maps to it, so
// stripe-keyed validation agrees whether it keys off data words or orecs.
TEST(OrecTable, StripedOrecSharesCounterStripeWithItsData) {
  OrecTableT<OrecStriping::kStriped> table;  // clamps to >= kMinStripedLog2
  std::vector<std::uint64_t> arena(1u << 14);
  for (const auto& w : arena) {
    EXPECT_EQ(CounterStripeOf(&table.ForAddr(&w)), CounterStripeOf(&w))
        << "orec stripe diverges from data stripe for " << &w;
  }
}

// Same-region addresses must still scatter across lines WITHIN their segment
// (the in-segment Fibonacci hash), or the striped table would serialize every
// structurally local read set onto a handful of orecs.
TEST(OrecTable, StripedSpreadsWithinSegment) {
  OrecTableT<OrecStriping::kStriped> table;
  std::vector<std::uint64_t> arena(512);  // one 4 KiB region's worth of words
  std::set<const void*> distinct;
  for (const auto& w : arena) {
    distinct.insert(&table.ForAddr(&w));
  }
  EXPECT_GT(distinct.size(), 300u);
}

// The default-size hashed table (config.h kOrecTableLog2) must scatter
// separately heap-allocated slots at least as well as a uniform random map:
// n = 4096 slots over N = 2^16 orecs reach N·(1 − e^(−n/N)) ≈ 3968 distinct
// orecs by the birthday bound. A hash that clustered allocator strides would
// fall well short and turn into false conflicts in the orec engines.
TEST(OrecTable, HashedSpreadsHeapSlots) {
  OrecTable table;
  ASSERT_EQ(table.Size(), std::size_t{1} << kOrecTableLog2);
  std::vector<std::unique_ptr<std::atomic<Word>>> slots;
  slots.reserve(4096);
  std::set<const void*> distinct;
  for (int i = 0; i < 4096; ++i) {
    slots.push_back(std::make_unique<std::atomic<Word>>(0));
    distinct.insert(&table.ForAddr(slots.back().get()));
  }
  EXPECT_GE(distinct.size(), 3800u);
}

// --- Abort semantics ----------------------------------------------------------------------

template <typename Family>
class ShortTmDetail : public ::testing::Test {};

using AllFamilies = ::testing::Types<OrecG, OrecL, TvarG, TvarL, Val>;
TYPED_TEST_SUITE(ShortTmDetail, AllFamilies);

// Aborting an RW transaction must restore meta-data exactly: a reader that recorded
// the location BEFORE the aborted transaction must still validate successfully
// afterwards (an abort publishes nothing, so it must not look like a commit).
TYPED_TEST(ShortTmDetail, AbortIsInvisibleToReaders) {
  using F = TypeParam;
  typename F::Slot a;
  F::SingleWrite(&a, EncodeInt(5));

  typename F::ShortTx reader;
  EXPECT_EQ(DecodeInt(reader.ReadRo(&a)), 5u);

  // Another thread locks and aborts.
  std::thread t([&] {
    typename F::ShortTx w;
    EXPECT_EQ(DecodeInt(w.ReadRw(&a)), 5u);
    ASSERT_TRUE(w.Valid());
    w.Abort();
  });
  t.join();

  EXPECT_TRUE(reader.ValidateRo())
      << "an aborted RW transaction must leave no observable trace";
}

// ...whereas a committed RW transaction must invalidate that same reader.
TYPED_TEST(ShortTmDetail, CommitIsVisibleToReaders) {
  using F = TypeParam;
  typename F::Slot a;
  F::SingleWrite(&a, EncodeInt(5));

  typename F::ShortTx reader;
  EXPECT_EQ(DecodeInt(reader.ReadRo(&a)), 5u);

  std::thread t([&] {
    typename F::ShortTx w;
    w.ReadRw(&a);
    ASSERT_TRUE(w.Valid());
    w.CommitRw({EncodeInt(6)});
  });
  t.join();

  EXPECT_FALSE(reader.ValidateRo());
}

// Invisible reads: a read-only transaction must not block or abort concurrent
// writers in any way (§4.1 "We use invisible reads").
TYPED_TEST(ShortTmDetail, RoReadsDoNotBlockWriters) {
  using F = TypeParam;
  typename F::Slot a;
  F::SingleWrite(&a, EncodeInt(1));

  typename F::ShortTx reader;
  reader.ReadRo(&a);
  ASSERT_TRUE(reader.Valid());

  // Writers on another thread proceed freely while the RO record is live.
  std::thread t([&] {
    for (int i = 0; i < 100; ++i) {
      typename F::ShortTx w;
      const Word v = w.ReadRw(&a);
      ASSERT_TRUE(w.Valid()) << "RO reader must be invisible to writers";
      w.CommitRw({EncodeInt(DecodeInt(v) + 1)});
    }
  });
  t.join();
  EXPECT_EQ(DecodeInt(F::SingleRead(&a)), 101u);
  EXPECT_FALSE(reader.ValidateRo());
}

// A lock held by an RW transaction must make concurrent RW readers fail fast
// (conservative deadlock avoidance, §2.2/§2.4) rather than block.
TYPED_TEST(ShortTmDetail, ConflictFailsFast) {
  using F = TypeParam;
  typename F::Slot a;
  std::atomic<bool> locked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    typename F::ShortTx w;
    w.ReadRw(&a);
    locked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
    }
    w.Abort();
  });
  while (!locked.load(std::memory_order_acquire)) {
  }

  typename F::ShortTx contender;
  contender.ReadRw(&a);
  EXPECT_FALSE(contender.Valid());
  contender.Abort();

  typename F::ShortTx ro;
  ro.ReadRo(&a);
  EXPECT_FALSE(ro.Valid()) << "RO reads treat locked locations conservatively";

  release.store(true, std::memory_order_release);
  holder.join();
}

// Partial-arity transactions: every RW width from 1 to kMaxShortWrites commits the
// right values in access order.
TYPED_TEST(ShortTmDetail, AllRwArities) {
  using F = TypeParam;
  std::vector<typename F::Slot> slots(kMaxShortWrites);
  for (int width = 1; width <= kMaxShortWrites; ++width) {
    for (int i = 0; i < width; ++i) {
      F::SingleWrite(&slots[static_cast<std::size_t>(i)], EncodeInt(0));
    }
    typename F::ShortTx t;
    for (int i = 0; i < width; ++i) {
      t.ReadRw(&slots[static_cast<std::size_t>(i)]);
    }
    ASSERT_TRUE(t.Valid());
    switch (width) {
      case 1:
        t.CommitRw({EncodeInt(1)});
        break;
      case 2:
        t.CommitRw({EncodeInt(1), EncodeInt(2)});
        break;
      case 3:
        t.CommitRw({EncodeInt(1), EncodeInt(2), EncodeInt(3)});
        break;
      default:
        t.CommitRw({EncodeInt(1), EncodeInt(2), EncodeInt(3), EncodeInt(4)});
        break;
    }
    for (int i = 0; i < width; ++i) {
      EXPECT_EQ(DecodeInt(F::SingleRead(&slots[static_cast<std::size_t>(i)])),
                static_cast<std::uint64_t>(i) + 1)
          << "width " << width << " slot " << i;
    }
  }
}

// A ShortTx destroyed without Commit/Abort must release its locks (RAII safety
// net), so the location stays usable.
TYPED_TEST(ShortTmDetail, DestructorReleasesLocks) {
  using F = TypeParam;
  typename F::Slot a;
  F::SingleWrite(&a, EncodeInt(3));
  {
    typename F::ShortTx t;
    t.ReadRw(&a);
    ASSERT_TRUE(t.Valid());
    // No commit, no abort: scope exit must clean up.
  }
  typename F::ShortTx t2;
  EXPECT_EQ(DecodeInt(t2.ReadRw(&a)), 3u);
  EXPECT_TRUE(t2.Valid());
  t2.Abort();
}

}  // namespace
}  // namespace spectm
