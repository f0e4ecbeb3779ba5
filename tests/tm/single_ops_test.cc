// Linearizability of single-operation transactions (§2.2): "the Tx_Single_*
// operations are linearizable and so if read r1 sees a value written by a
// transaction TxA then a subsequent read r2 must see all TxA's writes."
//
// The mechanism behind the property: a committing transaction holds each location's
// lock until that location's own release store, so a single read can never observe
// the pre-commit value of one location after having observed the post-commit value
// of another — it waits on the lock instead.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/tm/config.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

template <typename Family>
class SingleOpLinearizability : public ::testing::Test {};

using AllFamilies = ::testing::Types<OrecG, OrecL, TvarG, TvarL, Val, ValGlobalCounter,
                                     ValPerThreadCounter>;
TYPED_TEST_SUITE(SingleOpLinearizability, AllFamilies);

// Writers atomically set {a, b} to the same increasing value via short RW2
// transactions. A reader performing r1 = read(a) THEN r2 = read(b) must never see
// r2 < r1: if r1 already shows commit k, commit k's write to b must be visible (or
// the read must wait on b's lock).
TYPED_TEST(SingleOpLinearizability, SubsequentReadSeesWholeCommit) {
  using F = TypeParam;
  typename F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(0));
  F::SingleWrite(&b, EncodeInt(0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> reads_done{0};
  // Writers start once every reader has read a pair: on a loaded host the
  // writers can otherwise finish before any reader is scheduled, and the
  // check would run on no overlapping reads at all.
  constexpr int kReaders = 4;
  std::atomic<int> readers_started{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t ra = DecodeInt(F::SingleRead(&a));
        const std::uint64_t rb = DecodeInt(F::SingleRead(&b));
        if (rb < ra) {
          violations.fetch_add(1);
        }
        if (local++ == 0) {
          readers_started.fetch_add(1, std::memory_order_release);
        }
      }
      reads_done.fetch_add(local);
    });
  }

  std::vector<std::thread> writers;
  std::atomic<std::uint64_t> next{1};
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      while (readers_started.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (int i = 0; i < 30000; ++i) {
        const std::uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
        while (true) {
          typename F::ShortTx t;
          // Write a FIRST: the dangerous interleaving is a visible before b.
          const Word va = t.ReadRw(&a);
          t.ReadRw(&b);
          if (!t.Valid()) {
            t.Abort();
            continue;
          }
          // Only move values forward so the reader invariant is monotone.
          const std::uint64_t cur = DecodeInt(va);
          const std::uint64_t val = k > cur ? k : cur;
          t.CommitRw({EncodeInt(val), EncodeInt(val)});
          break;
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
}

// Single writes must be immediately visible to single reads on another thread
// (message passing through a transactional word).
TYPED_TEST(SingleOpLinearizability, MessagePassing) {
  using F = TypeParam;
  typename F::Slot flag, data;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0};

  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (DecodeInt(F::SingleRead(&flag)) == 1) {
        if (DecodeInt(F::SingleRead(&data)) != 42) {
          bad.fetch_add(1);
        }
        break;
      }
    }
  });
  F::SingleWrite(&data, EncodeInt(42));
  F::SingleWrite(&flag, EncodeInt(1));
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(bad.load(), 0u);
}

// SingleCas failure must report the actual current value (not a stale one).
TYPED_TEST(SingleOpLinearizability, FailedCasReturnsCurrentValue) {
  using F = TypeParam;
  typename F::Slot a;
  F::SingleWrite(&a, EncodeInt(10));
  const Word observed = F::SingleCas(&a, EncodeInt(99), EncodeInt(0));
  EXPECT_EQ(DecodeInt(observed), 10u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&a)), 10u);
}

}  // namespace
}  // namespace spectm
