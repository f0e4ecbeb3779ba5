#include "src/epoch/epoch.h"

#include <cassert>
#include <mutex>
#include <unordered_map>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/common/failpoint.h"

namespace spectm {
namespace {

// Registry of live managers so that thread-exit cleanup never touches a destroyed
// manager. All accesses are cold (manager construction/destruction, thread exit).
struct LiveManagers {
  std::mutex mu;
  std::unordered_map<std::uint64_t, EpochManager*> by_id;
};

LiveManagers& Managers() {
  static LiveManagers* m = new LiveManagers;  // leaked: must outlive all TLS dtors
  return *m;
}

std::atomic<std::uint64_t> next_instance_id{1};

#if defined(__linux__) && defined(SYS_membarrier)
long Membarrier(int cmd) { return syscall(SYS_membarrier, cmd, 0, 0); }

// Registers the process for private expedited membarrier once, at the first
// manager construction. The result picks every manager's announcement path.
bool AsymmetricFencesAvailable() {
  static const bool available = [] {
    const long cmds = Membarrier(MEMBARRIER_CMD_QUERY);
    return cmds > 0 && (cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) != 0 &&
           Membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) == 0;
  }();
  return available;
}

// Executes a full memory barrier on every CPU running a thread of this process.
bool HeavyFence() { return Membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0; }
#else
bool AsymmetricFencesAvailable() { return false; }
bool HeavyFence() { return false; }
#endif

}  // namespace

struct EpochManager::Orphans {
  std::mutex mu;
  std::vector<LimboBag> bags;
};

// Per-thread cache mapping managers to their claimed ThreadState. Slots are released
// (and limbo handed off) when the thread exits.
struct EpochThreadCache {
  struct Slot {
    std::uint64_t instance_id = 0;
    EpochManager* mgr = nullptr;
    EpochManager::ThreadState* state = nullptr;
  };
  static constexpr int kSlots = 16;
  Slot slots[kSlots];

  ~EpochThreadCache() {
    EpochManager::hint_ = EpochManager::ThreadHint{};
    std::lock_guard<std::mutex> lock(Managers().mu);
    for (Slot& s : slots) {
      if (s.state == nullptr) {
        continue;
      }
      auto it = Managers().by_id.find(s.instance_id);
      if (it != Managers().by_id.end()) {
        it->second->ReleaseThreadState(s.state);
      }
    }
  }

  EpochManager::ThreadState** Find(std::uint64_t id, EpochManager* mgr) {
    for (Slot& s : slots) {
      if (s.instance_id == id && s.mgr == mgr) {
        return &s.state;
      }
    }
    return nullptr;
  }

  void Insert(std::uint64_t id, EpochManager* mgr, EpochManager::ThreadState* st) {
    for (Slot& s : slots) {
      if (s.state == nullptr) {
        s = Slot{id, mgr, st};
        return;
      }
    }
    assert(false && "EpochThreadCache: too many live EpochManager instances per thread");
  }
};

namespace {
EpochThreadCache& ThreadCache() {
  thread_local EpochThreadCache cache;
  return cache;
}
}  // namespace

EpochManager::EpochManager()
    : orphans_(new Orphans),
      instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      asymmetric_fences_(AsymmetricFencesAvailable()) {
  global_epoch_->store(2, std::memory_order_relaxed);  // start >1 so epoch-2 is valid
  std::lock_guard<std::mutex> lock(Managers().mu);
  Managers().by_id.emplace(instance_id_, this);
}

EpochManager::~EpochManager() {
  {
    std::lock_guard<std::mutex> lock(Managers().mu);
    Managers().by_id.erase(instance_id_);
  }
  // At destruction no thread may be inside a Guard (standard quiescence contract).
  // Free everything still in limbo: slot bags first, then orphans.
  const int claimed = ClaimedSlots();
  for (int i = 0; i < claimed; ++i) {
    for (LimboBag& bag : threads_[i].bags) {
      FreeBag(&bag, &freed_count_);
    }
  }
  {
    std::lock_guard<std::mutex> lock(orphans_->mu);
    for (LimboBag& bag : orphans_->bags) {
      FreeBag(&bag, &freed_count_);
    }
  }
  delete orphans_;
}

EpochManager::ThreadState* EpochManager::RefillHint() {
  EpochThreadCache& cache = ThreadCache();
  ThreadState* state = nullptr;
  if (ThreadState** found = cache.Find(instance_id_, this)) {
    state = *found;
  } else {
    for (int i = 0; i < kMaxThreads && state == nullptr; ++i) {
      bool expected = false;
      if (threads_[i].used.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
        state = &threads_[i];
        // Raise the high-water mark before this thread's first announcement or
        // pin; the seq_cst load/CAS is what the bounded scans rely on.
        int claimed = claimed_slots_.load(std::memory_order_seq_cst);
        while (claimed < i + 1 &&
               !claimed_slots_.compare_exchange_weak(claimed, i + 1,
                                                     std::memory_order_seq_cst)) {
        }
      }
    }
    assert(state != nullptr && "EpochManager: more than kMaxThreads concurrent threads");
    cache.Insert(instance_id_, this, state);
  }
  hint_ = ThreadHint{this, instance_id_, state};
  return state;
}

void EpochManager::ReleaseThreadState(ThreadState* ts) {
  // Hand surviving limbo objects to the orphan list so a later advance frees them.
  {
    std::lock_guard<std::mutex> lock(orphans_->mu);
    for (LimboBag& bag : ts->bags) {
      if (!bag.objects.empty()) {
        orphans_->bags.push_back(std::move(bag));
        bag.objects.clear();
      }
    }
  }
  ts->word.store(0, std::memory_order_release);
  ts->pin.store(kNoSnapshot, std::memory_order_release);
  ts->guard_depth = 0;
  ts->retires_since_scan = 0;
  ts->used.store(false, std::memory_order_release);
}

std::uint64_t EpochManager::SnapshotDoneStamp(std::uint64_t counter_now) const {
  // Schedule point (PR 9): the done-stamp scan racing pin publication — the
  // window the two-step pin protocol exists for.
  SPECTM_SCHED_POINT(failpoint::Site::kDoneStampAdvance);
  std::uint64_t done = counter_now;
  const int claimed = ClaimedSlots();
  for (int i = 0; i < claimed; ++i) {
    const std::uint64_t p = threads_[i].pin.load(std::memory_order_seq_cst);
    if (p == kPinPending) {
      return 0;  // a pin is mid-publication: no safe bound exists yet
    }
    if (p != kNoSnapshot && p < done) {
      done = p;
    }
  }
  return done;
}

void EpochManager::Retire(void* p, void (*deleter)(void*)) {
  ThreadState* ts = StateForCurrentThread();
  assert((ts->word.load(std::memory_order_relaxed) & 1) != 0 &&
         "Retire requires an active Guard");
  // Schedule point (PR 8): an object entering limbo while a concurrent
  // advance scans — the reclamation race the 3-bag residue argument covers.
  SPECTM_SCHED_POINT(failpoint::Site::kEpochRetire);
  const std::uint64_t e = UnlinkEpoch();
  LimboBag& bag = ts->bags[e % 3];
  if (bag.epoch != e) {
    // This residue-class bag holds objects from epoch e - 3, which is freeable now
    // (global >= (e-3)+2 holds since global == e).
    FreeBag(&bag, &freed_count_);
    bag.epoch = e;
  }
  bag.objects.push_back(RetiredObject{p, deleter});
  if (++ts->retires_since_scan >= kScanInterval) {
    ts->retires_since_scan = 0;
    TryAdvanceAndReclaim(ts);
  }
}

void EpochManager::TryAdvanceAndReclaim(ThreadState* ts) {
  const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
  // Schedule point between the epoch load and the fence + straggler scan: an
  // advance interleaved anywhere inside Enter's publish-then-recheck handshake
  // must either see the activity word or be adopted by the re-check.
  SPECTM_SCHED_POINT(failpoint::Site::kEpochAdvance);
  // The heavy fence comes AFTER the epoch load: an announcement it does not
  // make visible to the scan is then re-checked against a global >= e
  // (docs/VALIDATION.md §11). No fence, no advance.
  if (asymmetric_fences_ && !HeavyFence()) {
    return;
  }
  const int claimed = ClaimedSlots();
  for (int i = 0; i < claimed; ++i) {
    const std::uint64_t w = threads_[i].word.load(std::memory_order_seq_cst);
    if ((w & 1) != 0 && (w >> 1) != e) {
      return;  // a straggler is still in an older epoch
    }
  }
  std::uint64_t expected = e;
  global_epoch_->compare_exchange_strong(expected, e + 1, std::memory_order_seq_cst);
  const std::uint64_t now = global_epoch_->load(std::memory_order_seq_cst);
  FlushFreeableBags(ts, now);
  AbsorbOrphans(now);
}

void EpochManager::FlushFreeableBags(ThreadState* ts, std::uint64_t global) {
  for (LimboBag& bag : ts->bags) {
    if (!bag.objects.empty() && bag.epoch + 2 <= global) {
      FreeBag(&bag, &freed_count_);
    }
  }
}

void EpochManager::FreeBag(LimboBag* bag, std::atomic<std::uint64_t>* freed_counter) {
  for (const RetiredObject& obj : bag->objects) {
    obj.deleter(obj.ptr);
  }
  freed_counter->fetch_add(bag->objects.size(), std::memory_order_relaxed);
  bag->objects.clear();
}

void EpochManager::AbsorbOrphans(std::uint64_t global) {
  std::unique_lock<std::mutex> lock(orphans_->mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    return;
  }
  for (std::size_t i = 0; i < orphans_->bags.size();) {
    if (orphans_->bags[i].epoch + 2 <= global) {
      FreeBag(&orphans_->bags[i], &freed_count_);
      orphans_->bags[i] = std::move(orphans_->bags.back());
      orphans_->bags.pop_back();
    } else {
      ++i;
    }
  }
}

std::size_t EpochManager::PendingCount() const {
  std::size_t n = 0;
  const int claimed = ClaimedSlots();
  for (int i = 0; i < claimed; ++i) {
    for (const LimboBag& bag : threads_[i].bags) {
      n += bag.objects.size();
    }
  }
  std::lock_guard<std::mutex> lock(orphans_->mu);
  for (const LimboBag& bag : orphans_->bags) {
    n += bag.objects.size();
  }
  return n;
}

void EpochManager::ReclaimAllForTesting() {
  for (int i = 0; i < 8; ++i) {
    TryAdvance();  // each round can move the epoch forward by one
  }
  const std::uint64_t now = global_epoch_->load(std::memory_order_seq_cst);
  const int claimed = ClaimedSlots();
  for (int i = 0; i < claimed; ++i) {
    FlushFreeableBags(&threads_[i], now);
  }
  AbsorbOrphans(now);
}

EpochManager& GlobalEpochManager() {
  static EpochManager* mgr = new EpochManager;  // leaked: outlives TLS destructors
  return *mgr;
}

}  // namespace spectm
