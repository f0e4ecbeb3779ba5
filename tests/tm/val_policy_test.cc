// Unit tests for the value-based validation policies (§2.4): the non-reuse default,
// the global commit counter (Dalessandro et al.), and the distributed per-thread
// counters — plus the writer-side protocol ordering they rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "src/tm/config.h"
#include "src/tm/val_eager.h"
#include "src/tm/val_word.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

// The val layout is one word (§2.4, Fig. 3(c)) in every family but ValSnap,
// whose SnapSlot adds the MVCC chain head. Distinct slot types are what stop a
// one-word family from writing a ValSnap slot without publishing its version.
template <typename... Families>
void ExpectOneWordSlots() {
  for (const auto& [name, bytes] :
       {std::pair{typeid(Families).name(), sizeof(typename Families::Slot)}...}) {
    EXPECT_EQ(bytes, sizeof(Word)) << name;
  }
}

TEST(ValSlotLayout, OneWordInEveryFamilyButSnapshot) {
  ExpectOneWordSlots<Val, ValGlobalCounter, ValPerThreadCounter, ValBloom,
                     ValAdaptive, ValPart, ValEager>();
  EXPECT_EQ(sizeof(ValSnap::Slot), 2 * sizeof(Word));
  EXPECT_FALSE((std::is_same_v<Val::Slot, ValSnap::Slot>));
  EXPECT_TRUE((std::is_same_v<ValSnap::Slot, SnapSlot>));
}

TEST(ValPolicies, NonReuseIsAlwaysStable) {
  const Word s = NonReuseValidation::Sample();
  PublishWriterCommit<NonReuseValidation, ValProbe<ValDomainTag>>(nullptr, {});
  EXPECT_TRUE(NonReuseValidation::Stable(s));
}

TEST(ValPolicies, GlobalCounterDetectsCommits) {
  const Word s = GlobalCounterValidation::Sample();
  EXPECT_TRUE(GlobalCounterValidation::Stable(s));
  GlobalCounterValidation::OnWriterCommit(nullptr, {});
  EXPECT_FALSE(GlobalCounterValidation::Stable(s));
  const Word s2 = GlobalCounterValidation::Sample();
  EXPECT_TRUE(GlobalCounterValidation::Stable(s2));
}

TEST(ValPolicies, PerThreadCountersDetectOwnCommit) {
  TxDesc& desc = DescOf<ValDomainTag>();
  const Word s = PerThreadCounterValidation::Sample();
  PerThreadCounterValidation::OnWriterCommit(&desc, {});
  EXPECT_FALSE(PerThreadCounterValidation::Stable(s));
}

TEST(ValPolicies, PerThreadCountersDetectOtherThreadsCommits) {
  const Word s = PerThreadCounterValidation::Sample();
  std::thread other([] {
    PerThreadCounterValidation::OnWriterCommit(&DescOf<ValDomainTag>(), {});
  });
  other.join();
  EXPECT_FALSE(PerThreadCounterValidation::Stable(s));
}

TEST(ValPolicies, PerThreadSumIsMonotone) {
  Word last = PerThreadCounterValidation::Sample();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        PerThreadCounterValidation::OnWriterCommit(&DescOf<ValDomainTag>(), {});
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const Word now = PerThreadCounterValidation::Sample();
  EXPECT_GE(now, last + 4000);
}

// The engine-level guarantee the counters provide: an RO2 pair validated under a
// counter policy must never observe values from two different committed states even
// when values recycle (A -> B -> A churn), which NonReuseValidation by design does
// not promise. This hammers exactly that pattern.
template <typename Family>
void RunAbaChurn() {
  typename Family::Slot x, y;
  Family::SingleWrite(&x, EncodeInt(0));
  Family::SingleWrite(&y, EncodeInt(0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      // Writers toggle BOTH words between 0 and 1 together: values recycle
      // constantly, so validation cannot lean on non-reuse.
      for (int i = 0; i < 30000; ++i) {
        while (true) {
          typename Family::ShortTx t;
          const Word vx = t.ReadRw(&x);
          t.ReadRw(&y);
          if (!t.Valid()) {
            t.Abort();
            continue;
          }
          const Word next = vx == EncodeInt(0) ? EncodeInt(1) : EncodeInt(0);
          t.CommitRw({next, next});
          break;
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        typename Family::ShortTx t;
        const Word vx = t.ReadRo(&x);
        const Word vy = t.ReadRo(&y);
        if (!t.Valid() || !t.ValidateRo()) {
          continue;
        }
        if (vx != vy) {
          torn.fetch_add(1);
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
  EXPECT_EQ(torn.load(), 0u);
}

TEST(ValPolicies, GlobalCounterKeepsPairsConsistentUnderValueRecycling) {
  RunAbaChurn<ValGlobalCounter>();
}

TEST(ValPolicies, PerThreadCountersKeepPairsConsistentUnderValueRecycling) {
  RunAbaChurn<ValPerThreadCounter>();
}

// Note: the same churn under plain `Val` (NonReuseValidation) happens to pass too,
// because the writers here lock BOTH words (case 1 of §2.4) — every transaction
// updates everything it reads. The counter modes exist for programs outside the
// three special cases; this test documents that they are at least as strong.
TEST(ValPolicies, NonReuseSafeWhenWritersLockEverything) { RunAbaChurn<Val>(); }

// The bloom-ring policy and the adaptive engine must be exactly as strong as the
// plain counter under value recycling — skips may only fire when provably safe.
TEST(ValPolicies, BloomRingKeepsPairsConsistentUnderValueRecycling) {
  RunAbaChurn<ValBloom>();
}

TEST(ValPolicies, AdaptiveEngineKeepsPairsConsistentUnderValueRecycling) {
  RunAbaChurn<ValAdaptive>();
}

}  // namespace
}  // namespace spectm
