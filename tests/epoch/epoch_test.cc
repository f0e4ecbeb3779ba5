#include "src/epoch/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace spectm {
namespace {

struct Canary {
  static std::atomic<int> live;
  std::uint64_t payload = 0xabcdef;
  Canary() { live.fetch_add(1); }
  ~Canary() {
    payload = 0xdead;
    live.fetch_sub(1);
  }
};
std::atomic<int> Canary::live{0};

TEST(Epoch, RetireEventuallyFrees) {
  EpochManager mgr;
  {
    EpochManager::Guard g(mgr);
    for (int i = 0; i < 10; ++i) {
      mgr.Retire(new Canary);
    }
  }
  EXPECT_EQ(mgr.PendingCount(), 10u);
  mgr.ReclaimAllForTesting();
  EXPECT_EQ(mgr.PendingCount(), 0u);
  EXPECT_EQ(Canary::live.load(), 0);
  EXPECT_EQ(mgr.FreedCount(), 10u);
}

TEST(Epoch, DestructorFreesPending) {
  Canary::live.store(0);
  {
    EpochManager mgr;
    EpochManager::Guard g(mgr);
    mgr.Retire(new Canary);
  }
  EXPECT_EQ(Canary::live.load(), 0);
}

TEST(Epoch, ActiveGuardBlocksReclamation) {
  EpochManager mgr;
  std::atomic<bool> guard_held{false};
  std::atomic<bool> release{false};
  Canary* observed = nullptr;

  std::thread reader([&] {
    EpochManager::Guard g(mgr);
    guard_held.store(true);
    while (!release.load()) {
      CpuRelax();
    }
  });
  while (!guard_held.load()) {
    CpuRelax();
  }

  {
    EpochManager::Guard g(mgr);
    observed = new Canary;
    mgr.Retire(observed);
  }
  // The reader entered before the retire and has not exited: the object must not be
  // freed no matter how hard we try to advance.
  for (int i = 0; i < 4; ++i) {
    EpochManager::Guard g(mgr);
    mgr.Retire(new Canary);  // churn to trigger advance attempts
  }
  mgr.ReclaimAllForTesting();
  EXPECT_EQ(observed->payload, 0xabcdefULL) << "object freed under an active guard";

  release.store(true);
  reader.join();
  mgr.ReclaimAllForTesting();
  EXPECT_EQ(Canary::live.load(), 0);
}

TEST(Epoch, GlobalEpochAdvancesWhenQuiescent) {
  EpochManager mgr;
  const std::uint64_t before = mgr.GlobalEpoch();
  mgr.ReclaimAllForTesting();
  EXPECT_GT(mgr.GlobalEpoch(), before);
}

TEST(Epoch, ManyThreadsRetireConcurrently) {
  Canary::live.store(0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  {
    EpochManager mgr;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          EpochManager::Guard g(mgr);
          auto* c = new Canary;
          // Touch the object while protected, then retire it.
          ASSERT_EQ(c->payload, 0xabcdefULL);
          mgr.Retire(c);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    mgr.ReclaimAllForTesting();
    EXPECT_EQ(mgr.PendingCount(), 0u);
  }
  EXPECT_EQ(Canary::live.load(), 0);
}

// Readers continuously dereference nodes published by a writer that retires them:
// the epoch scheme must prevent any use-after-free (payload corruption detected via
// the canary value written by the destructor).
TEST(Epoch, ReadersNeverObserveFreedMemory) {
  EpochManager mgr;
  std::atomic<Canary*> shared{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochManager::Guard g(mgr);
        Canary* c = shared.load(std::memory_order_acquire);
        if (c->payload != 0xabcdefULL) {
          bad.fetch_add(1);
        }
      }
    });
  }

  for (int i = 0; i < 5000; ++i) {
    EpochManager::Guard g(mgr);
    Canary* next = new Canary;
    Canary* old = shared.exchange(next, std::memory_order_acq_rel);
    mgr.Retire(old);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u);
  {
    EpochManager::Guard g(mgr);
    mgr.Retire(shared.load());
  }
  mgr.ReclaimAllForTesting();
  EXPECT_EQ(mgr.PendingCount(), 0u);
}

// Real-parallelism race: two retirers replace a two-node path while two readers
// follow it under Guards. The deleter poisons each node before freeing it, so a
// reader that reaches a freed node sees the poison (and ASan reports the read).
TEST(Epoch, ReadersFollowingATwoNodePathNeverReachAFreedNode) {
  static constexpr std::uint64_t kLive = 0x11fe11fe;
  static constexpr std::uint64_t kPoison = 0xdeadbeef;
  struct PathNode {
    std::uint64_t payload = kLive;
    PathNode* next = nullptr;
  };
  auto make_path = [] {
    auto* tail = new PathNode;
    auto* head = new PathNode;
    head->next = tail;
    return head;
  };
  auto poison_and_delete = [](void* p) {
    auto* n = static_cast<PathNode*>(p);
    n->payload = kPoison;
    delete n;
  };

  EpochManager mgr;
  std::atomic<PathNode*> path{make_path()};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> reads{0};
  constexpr int kRetirers = 2;
  constexpr int kSwapsPerRetirer = 50000;  // two retires per swap: 200K in total
  // A reader descheduled inside its Guard blocks every advance; on a loaded
  // host that can outlast the swaps above, so retirers go on (up to this
  // bound) until a free has happened while the readers still run.
  constexpr int kMaxSwapsPerRetirer = 20 * kSwapsPerRetirer;
  std::atomic<std::uint64_t> swaps{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        EpochManager::Guard g(mgr);
        const PathNode* head = path.load(std::memory_order_acquire);
        const PathNode* tail = head->next;
        if (head->payload != kLive || tail->payload != kLive) {
          bad.fetch_add(1);
        }
        ++n;
      }
      reads.fetch_add(n);
    });
  }
  std::vector<std::thread> retirers;
  for (int w = 0; w < kRetirers; ++w) {
    retirers.emplace_back([&] {
      for (int i = 0; i < kSwapsPerRetirer ||
                      (mgr.FreedCount() == 0 && i < kMaxSwapsPerRetirer);
           ++i) {
        EpochManager::Guard g(mgr);
        PathNode* old = path.exchange(make_path(), std::memory_order_acq_rel);
        PathNode* old_tail = old->next;
        mgr.Retire(old, poison_and_delete);
        mgr.Retire(old_tail, poison_and_delete);
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : retirers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u) << "a reader reached a poisoned (freed) node";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(mgr.FreedCount(), 0u) << "no advance ever freed anything";
  {
    EpochManager::Guard g(mgr);
    PathNode* last = path.load();
    mgr.Retire(last->next, poison_and_delete);
    mgr.Retire(last, poison_and_delete);
  }
  mgr.ReclaimAllForTesting();
  EXPECT_EQ(mgr.PendingCount(), 0u);
  EXPECT_EQ(mgr.FreedCount(), 2u * swaps.load() + 2u);
}

// A manager built in the storage of a destroyed one must not inherit the
// thread's slot hint: the hint is keyed by instance id, not address alone.
TEST(Epoch, ManagerRebuiltInPlaceGetsAFreshSlot) {
  Canary::live.store(0);
  alignas(EpochManager) unsigned char storage[sizeof(EpochManager)];
  auto* old_mgr = new (storage) EpochManager;
  // A helper claims slot 0 first, so this thread's slot in old_mgr is slot 1,
  // a slot the rebuilt manager's scans do not reach until someone claims it.
  std::atomic<bool> claimed{false};
  std::atomic<bool> release{false};
  std::thread helper([&] {
    { EpochManager::Guard g(*old_mgr); }
    claimed.store(true);
    while (!release.load()) {
      CpuRelax();
    }
  });
  while (!claimed.load()) {
    CpuRelax();
  }
  { EpochManager::Guard g(*old_mgr); }
  release.store(true);
  helper.join();
  old_mgr->~EpochManager();

  auto* mgr = new (storage) EpochManager;
  ASSERT_EQ(static_cast<void*>(mgr), static_cast<void*>(old_mgr));
  {
    EpochManager::Guard g(*mgr);
    for (int i = 0; i < 10; ++i) {
      mgr->Retire(new Canary);
    }
  }
  EXPECT_EQ(mgr->PendingCount(), 10u) << "retired into a slot the manager never claimed";
  mgr->ReclaimAllForTesting();
  EXPECT_EQ(mgr->PendingCount(), 0u);
  EXPECT_EQ(Canary::live.load(), 0);
  mgr->~EpochManager();
}

// Pins the announcement mode: where the kernel offers private expedited
// membarrier, a silent fall back to the seq_cst store is a failure.
TEST(Epoch, AsymmetricFencesWhereverTheKernelOffersThem) {
  EpochManager mgr;
  EXPECT_EQ(mgr.AsymmetricFences(), GlobalEpochManager().AsymmetricFences())
      << "the announcement path is chosen once per process";
#if defined(__linux__) && defined(SYS_membarrier)
  const long cmds = syscall(SYS_membarrier, MEMBARRIER_CMD_QUERY, 0, 0);
  if (cmds > 0 && (cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) != 0) {
    EXPECT_TRUE(mgr.AsymmetricFences());
  } else {
    EXPECT_FALSE(mgr.AsymmetricFences());
  }
#else
  EXPECT_FALSE(mgr.AsymmetricFences());
#endif
}

TEST(Epoch, GlobalManagerSingleton) {
  EpochManager& a = GlobalEpochManager();
  EpochManager& b = GlobalEpochManager();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace spectm
