// Engine-level tests for the full (BaseTM) transaction paths that the cross-variant
// suites don't isolate: timebase extension, large write sets through the hash write
// set, read-only commit shortcuts, lock-release on abort, and shared-orec-table
// collisions.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/tm/config.h"
#include "src/tm/layout.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

// --- Timebase extension (global clock only) -------------------------------------------

// A transaction that reads, then observes other commits advancing the clock, then
// reads a freshly-updated location must extend rather than abort (Riegel et al.):
// the first read stays valid, so extension succeeds and the transaction commits.
TEST(FullTmExtension, ReadAfterClockAdvanceExtends) {
  using F = OrecG;
  F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));

  typename F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&a)), 1u);

  // Other "transactions" commit meanwhile, pushing b's version past this tx's rv.
  for (int i = 0; i < 5; ++i) {
    F::SingleWrite(&b, EncodeInt(10 + static_cast<std::uint64_t>(i)));
  }

  const Word vb = tx.Read(&b);  // must trigger extension, not failure
  EXPECT_TRUE(tx.ok());
  EXPECT_EQ(DecodeInt(vb), 14u);
  EXPECT_TRUE(tx.Commit());
}

// If the already-read location changed, extension must fail and the reader aborts.
TEST(FullTmExtension, ExtensionFailsWhenReadSetStale) {
  using F = OrecG;
  F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));

  typename F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&a)), 1u);

  F::SingleWrite(&a, EncodeInt(2));  // invalidates the read set
  F::SingleWrite(&b, EncodeInt(3));  // pushes b past rv

  tx.Read(&b);
  EXPECT_FALSE(tx.ok());
  EXPECT_FALSE(tx.Commit());
}

// --- Write-set behaviour ----------------------------------------------------------------

template <typename Family>
class FullTmSuite : public ::testing::Test {};

using AllFamilies = ::testing::Types<OrecG, OrecL, TvarG, TvarL, Val>;
TYPED_TEST_SUITE(FullTmSuite, AllFamilies);

TYPED_TEST(FullTmSuite, LargeWriteSetCommitsAtomically) {
  using F = TypeParam;
  constexpr int kSlots = 1000;  // far beyond the write-set hash's initial capacity
  std::vector<typename F::Slot> slots(kSlots);
  typename F::FullTx tx;
  do {
    tx.Start();
    for (int i = 0; i < kSlots; ++i) {
      tx.Write(&slots[static_cast<std::size_t>(i)], EncodeInt(static_cast<std::uint64_t>(i) + 1));
    }
  } while (!tx.Commit());
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(DecodeInt(F::SingleRead(&slots[static_cast<std::size_t>(i)])),
              static_cast<std::uint64_t>(i) + 1);
  }
}

TYPED_TEST(FullTmSuite, OverwriteInWriteSetKeepsLastValue) {
  using F = TypeParam;
  typename F::Slot a;
  typename F::FullTx tx;
  do {
    tx.Start();
    for (std::uint64_t v = 1; v <= 100; ++v) {
      tx.Write(&a, EncodeInt(v));
    }
  } while (!tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(&a)), 100u);
}

TYPED_TEST(FullTmSuite, ReadOnlyTransactionLeavesNoTrace) {
  using F = TypeParam;
  typename F::Slot a;
  F::SingleWrite(&a, EncodeInt(7));
  // A read-only transaction must not disturb concurrent writers in any way that a
  // subsequent RW transaction could observe (versions, locks, values).
  for (int i = 0; i < 10; ++i) {
    typename F::FullTx tx;
    do {
      tx.Start();
      tx.Read(&a);
    } while (!tx.Commit());
  }
  typename F::ShortTx t;
  EXPECT_EQ(DecodeInt(t.ReadRw(&a)), 7u);
  EXPECT_TRUE(t.Valid());
  t.Abort();
}

TYPED_TEST(FullTmSuite, FailedCommitRestoresLocks) {
  using F = TypeParam;
  typename F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(1));

  // Read a, then have another thread change it, then try to write b: commit-time
  // validation fails; afterwards BOTH locations must be unlocked and unchanged (b)
  // or carry the concurrent update (a).
  typename F::FullTx tx;
  tx.Start();
  const Word va = tx.Read(&a);
  EXPECT_EQ(DecodeInt(va), 1u);
  std::thread interferer([&] { F::SingleWrite(&a, EncodeInt(2)); });
  interferer.join();
  tx.Write(&b, EncodeInt(99));
  EXPECT_FALSE(tx.Commit()) << "stale read set must fail validation";

  EXPECT_EQ(DecodeInt(F::SingleRead(&a)), 2u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&b)), 1u) << "failed commit must not publish";
  // Locks must be free: a fresh short tx can acquire both immediately.
  typename F::ShortTx t;
  t.ReadRw(&a);
  t.ReadRw(&b);
  EXPECT_TRUE(t.Valid());
  t.Abort();
}

TYPED_TEST(FullTmSuite, BlindWriteWithoutRead) {
  using F = TypeParam;
  typename F::Slot a;
  F::SingleWrite(&a, EncodeInt(5));
  typename F::FullTx tx;
  do {
    tx.Start();
    tx.Write(&a, EncodeInt(6));  // no prior read of a
  } while (!tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(&a)), 6u);
}

// --- Shared-orec-table collisions --------------------------------------------------------

// Finds two distinct slots in an array that hash to the same ownership record, then
// runs a transaction writing both: the engine must handle re-locking its own orec.
TEST(FullTmCollision, TwoSlotsOneOrec) {
  using F = OrecG;
  using Layout = OrecLayout<OrecGTag>;
  // Fibonacci hashing is low-discrepancy on sequential addresses, so a collision
  // needs a long lag; but 2^kOrecTableLog2 + 1 distinct slots cannot all take
  // distinct orecs (pigeonhole), so an arena one slot larger than the table is
  // guaranteed to contain a colliding pair whatever its base address.
  constexpr int kProbe = (1 << kOrecTableLog2) + 1;
  static std::vector<F::Slot> arena(kProbe);  // static: the table hash uses addresses
  std::unordered_map<const void*, int> seen;
  seen.reserve(kProbe);
  int first = -1, second = -1;
  for (int i = 0; i < kProbe && second < 0; ++i) {
    const void* orec = &Layout::OrecOf(arena[static_cast<std::size_t>(i)]);
    const auto [it, inserted] = seen.emplace(orec, i);
    if (!inserted) {
      first = it->second;
      second = i;
    }
  }
  ASSERT_GE(second, 0) << "no orec collision found in probe range";

  typename F::FullTx tx;
  do {
    tx.Start();
    tx.Write(&arena[static_cast<std::size_t>(first)], EncodeInt(11));
    tx.Write(&arena[static_cast<std::size_t>(second)], EncodeInt(22));
  } while (!tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(&arena[static_cast<std::size_t>(first)])), 11u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&arena[static_cast<std::size_t>(second)])), 22u);

  // Short transactions hit the same collision path via kAlreadyOwned entries.
  typename F::ShortTx t;
  const Word v1 = t.ReadRw(&arena[static_cast<std::size_t>(first)]);
  const Word v2 = t.ReadRw(&arena[static_cast<std::size_t>(second)]);
  ASSERT_TRUE(t.Valid());
  EXPECT_EQ(DecodeInt(v1), 11u);
  EXPECT_EQ(DecodeInt(v2), 22u);
  t.CommitRw({EncodeInt(33), EncodeInt(44)});
  EXPECT_EQ(DecodeInt(F::SingleRead(&arena[static_cast<std::size_t>(second)])), 44u);
}

}  // namespace
}  // namespace spectm
