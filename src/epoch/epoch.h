// Epoch-based memory reclamation (Fraser, "Practical lock freedom", 2003).
//
// §4.1: "We use a conventional epoch-based system for memory management, based on that
// described by Fraser. This mechanism ensures that a location is not deallocated by
// one thread while it is being accessed transactionally by another thread."
//
// Scheme: a global epoch counter advances only when every thread currently inside a
// critical region has observed the current epoch. An object retired in epoch e may be
// freed once the global epoch reaches e + 2: at that point every thread that could
// hold a reference (i.e. entered during epoch e or earlier) has exited its region.
//
// The reclaimer also underpins the `val` layout's value-based validation: node
// pointers satisfy the paper's "non-re-use" property (§2.4, case 3) precisely because
// a node's address cannot be recycled while any concurrent operation might still
// compare against it.
//
// Entering a region is the per-operation cost every structure pays, so it is inline
// and cheap. The thread's slot comes from a one-entry thread-local hint; the
// announcement's store-load fence is asymmetric where the kernel supports it: the
// reader pays only a compiler fence, and the rare advance pays a process-wide
// membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) issued AFTER it loads the epoch it
// wants to advance. Where registering for that command fails (non-Linux, seccomp),
// the announcement is a seq_cst store as in Fraser's original. Advance and pin scans
// stop at the high-water mark of claimed slots. docs/VALIDATION.md §11 carries the
// ordering argument for all three.
//
// Managers are instantiable (tests create private ones); a process-wide instance is
// available via GlobalEpochManager().
#ifndef SPECTM_EPOCH_EPOCH_H_
#define SPECTM_EPOCH_EPOCH_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"

namespace spectm {

class EpochManager {
  struct ThreadState;

 public:
  static constexpr int kMaxThreads = 256;

  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // RAII critical region. Operations that read or write shared nodes must hold a
  // Guard for their whole duration; Retire may only be called under a Guard.
  // Guards nest: an inner Guard on a manager the thread already occupies is a
  // counter bump, and only the outermost Exit retracts the activity word (the
  // MVCC retire paths run under possibly-already-held guards). The guard keeps
  // the thread's slot, so leaving the region needs no second lookup.
  class Guard {
   public:
    explicit Guard(EpochManager& mgr) : ts_(mgr.Enter()) {}
    ~Guard() { Exit(ts_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    ThreadState* const ts_;
  };

  // Nullable Guard: an empty slot until Acquire(), released at destruction or
  // by an explicit Release(). Same nesting semantics as Guard. Exists because
  // val-engine transactions hold a guard only in snapshot mode, and a
  // disengaged std::optional<Guard> payload trips GCC's maybe-uninitialized
  // analysis in every non-snapshot instantiation.
  class GuardSlot {
   public:
    GuardSlot() = default;
    ~GuardSlot() { Release(); }
    GuardSlot(const GuardSlot&) = delete;
    GuardSlot& operator=(const GuardSlot&) = delete;

    void Acquire(EpochManager& mgr) {
      if (ts_ == nullptr) {
        ts_ = mgr.Enter();
      }
    }

    void Release() {
      if (ts_ != nullptr) {
        Exit(ts_);
        ts_ = nullptr;
      }
    }

   private:
    ThreadState* ts_ = nullptr;
  };

  // Defers destruction of p until no concurrent critical region can reference it.
  void Retire(void* p, void (*deleter)(void*));

  template <typename T>
  void Retire(T* p) {
    Retire(static_cast<void*>(p), [](void* q) { delete static_cast<T*>(q); });
  }

  // The epoch to tag an object with that the caller has just unlinked: a region
  // that may still hold a reference was announced at or below the returned e, so
  // the object may be reused or freed once GlobalEpoch() >= e + 2. Caller holds a
  // Guard. The seq_cst fence orders the unlink before the epoch load; without it
  // the load could run ahead of a still-buffered unlink store, and a reader that
  // announced e + 1 could yet load the old pointer (docs/VALIDATION.md §11.6).
  // Retire tags its bags with this; reclaimers that park objects themselves (the
  // MVCC node pool's limbo, src/tm/mvcc.h) tag with it too.
  std::uint64_t UnlinkEpoch() const {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return global_epoch_->load(std::memory_order_acquire);
  }

  // Attempts one epoch advance, then frees what this thread's bags and the orphan
  // list allow. Retire calls it every kScanInterval retires; a reclaimer that
  // parks objects outside Retire's bags calls it itself, since no Retire traffic
  // may be there to move the epoch. Legal inside or outside a Guard; inside one,
  // the caller's own announcement lets the epoch move at most one step.
  void TryAdvance() {
    ThreadState* ts = Enter();
    TryAdvanceAndReclaim(ts);
    Exit(ts);
  }

  // --- Snapshot pins (MVCC, src/tm/mvcc.h) ------------------------------------------
  //
  // A read-only snapshot transaction publishes the commit-clock value it reads
  // at, and version-chain splicing truncates only nodes whose stamp is <= the
  // minimum published pin (the "done stamp"). Publication is two-step so the
  // scan can never race a pin into premature reclamation: BeginSnapshotPin()
  // marks intent BEFORE the clock is sampled, SetSnapshotPin() fills in the
  // sampled value, and SnapshotDoneStamp() returns 0 (reclaim nothing) while
  // any thread's pin is still in the intent state. docs/VALIDATION.md §10
  // carries the ordering argument.

  static constexpr std::uint64_t kNoSnapshot = ~std::uint64_t{0};
  static constexpr std::uint64_t kPinPending = ~std::uint64_t{0} - 1;

  // pin := kPinPending (intent, pre-sample). seq_cst: SnapshotDoneStamp's scan
  // either sees it (and then reclaims nothing) or is ordered wholly before it, in
  // which case the pin's eventual stamp is >= the clock value the scanner
  // bounded itself by.
  void BeginSnapshotPin() {
    StateForCurrentThread()->pin.store(kPinPending, std::memory_order_seq_cst);
  }
  // pin := s (the sampled clock value)
  void SetSnapshotPin(std::uint64_t s) {
    StateForCurrentThread()->pin.store(s, std::memory_order_seq_cst);
  }
  // pin := kNoSnapshot
  void UnpinSnapshot() {
    StateForCurrentThread()->pin.store(kNoSnapshot, std::memory_order_release);
  }

  // min(counter_now, every published pin); 0 while any pin is mid-publication.
  // `counter_now` must be sampled from the commit clock BEFORE the call.
  std::uint64_t SnapshotDoneStamp(std::uint64_t counter_now) const;

  // --- Introspection / test support -------------------------------------------------

  std::uint64_t GlobalEpoch() const { return global_epoch_->load(std::memory_order_acquire); }

  // True when announcements use the asymmetric fence (relaxed store + compiler
  // fence, membarrier on advance); false on the seq_cst-store fallback. Chosen
  // once per process from the membarrier registration result.
  bool AsymmetricFences() const { return asymmetric_fences_; }

  // Number of objects retired by all threads but not yet freed.
  std::size_t PendingCount() const;

  // Total objects freed so far.
  std::uint64_t FreedCount() const { return freed_count_.load(std::memory_order_relaxed); }

  // Attempts to advance epochs and reclaim everything possible. Only meaningful when
  // callers know no guard is active (e.g. single-threaded test teardown); with active
  // guards it simply reclaims as much as is safe.
  void ReclaimAllForTesting();

 private:
  struct RetiredObject {
    void* ptr;
    void (*deleter)(void*);
  };

  // One limbo bag per epoch residue class (mod 3); a bag holds objects retired during
  // `epoch` and becomes freeable when the global epoch reaches epoch + 2.
  struct LimboBag {
    std::uint64_t epoch = 0;
    std::vector<RetiredObject> objects;
  };

  struct alignas(kCacheLineSize) ThreadState {
    // (local_epoch << 1) | active. Written by the owner, scanned by advancers.
    std::atomic<std::uint64_t> word{0};
    // Claimed by a live thread. Scans need not check it: a released slot's word
    // and pin are reset to inactive/kNoSnapshot before the flag is cleared.
    std::atomic<bool> used{false};
    // Pinned snapshot stamp (kNoSnapshot when idle, kPinPending mid-publish).
    // Written by the owner, scanned by SnapshotDoneStamp.
    std::atomic<std::uint64_t> pin{kNoSnapshot};
    // Owner-only Guard nesting depth; the activity bit in `word` is published
    // on 0 -> 1 and retracted on 1 -> 0.
    std::uint64_t guard_depth = 0;
    LimboBag bags[3];
    std::uint64_t retires_since_scan = 0;
  };

  // The thread's slot in the most recently used manager. Keyed by instance id as
  // well as address: a manager constructed where a destroyed one lived must not
  // inherit that manager's slot.
  struct ThreadHint {
    const EpochManager* mgr;
    std::uint64_t instance_id;
    ThreadState* state;
  };
  static inline thread_local ThreadHint hint_{};  // zero-initialized: no manager

  ThreadState* StateForCurrentThread() {
    const ThreadHint& h = hint_;
    if (h.mgr == this && h.instance_id == instance_id_) {
      return h.state;
    }
    return RefillHint();
  }
  // Hint miss: finds (or claims) the slot in the thread's cache and refills the hint.
  ThreadState* RefillHint();

  ThreadState* Enter() {
    ThreadState* ts = StateForCurrentThread();
    if (ts->guard_depth++ == 0) {
      Announce(ts);
    }
    return ts;
  }

  // Publishes activity at the current global epoch and re-checks, so that an
  // advance racing with us either sees the activity or we adopt the newer epoch.
  void Announce(ThreadState* ts) {
    std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
    while (true) {
      if (asymmetric_fences_) {
        // The advancer's membarrier orders this store before the re-check load
        // for any advance that could miss it (docs/VALIDATION.md §11).
        ts->word.store((e << 1) | 1, std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
      } else {
        ts->word.store((e << 1) | 1, std::memory_order_seq_cst);
      }
      // Schedule point: an advance between the announcement and its re-check.
      SPECTM_SCHED_POINT(failpoint::Site::kEpochAnnounce);
      const std::uint64_t now = global_epoch_->load(std::memory_order_seq_cst);
      if (now == e) {
        return;
      }
      e = now;
    }
  }

  static void Exit(ThreadState* ts) {
    assert(ts->guard_depth > 0 && "Exit without matching Enter");
    if (--ts->guard_depth > 0) {
      return;  // inner Guard: an enclosing one still owns the activity word
    }
    ts->word.store(ts->word.load(std::memory_order_relaxed) & ~1ULL,
                   std::memory_order_release);
  }

  // Slots [0, ClaimedSlots()) are every slot any thread has ever claimed.
  int ClaimedSlots() const { return claimed_slots_.load(std::memory_order_seq_cst); }

  void TryAdvanceAndReclaim(ThreadState* ts);
  void FlushFreeableBags(ThreadState* ts, std::uint64_t global);
  static void FreeBag(LimboBag* bag, std::atomic<std::uint64_t>* freed_counter);
  void AbsorbOrphans(std::uint64_t global);

  // Called by the thread-local cache when a thread exits: moves its limbo objects to
  // the orphan list and frees its slot.
  void ReleaseThreadState(ThreadState* ts);

  friend struct EpochThreadCache;

  CacheAligned<std::atomic<std::uint64_t>> global_epoch_{};
  std::atomic<std::uint64_t> freed_count_{0};
  // High-water mark of claimed slots, raised (seq_cst) by a claiming thread
  // before its first announcement or pin; scans stop here.
  std::atomic<int> claimed_slots_{0};
  ThreadState threads_[kMaxThreads];

  // Limbo objects from exited threads, protected by a mutex (cold path only).
  struct Orphans;
  Orphans* orphans_;

  const std::uint64_t instance_id_;
  const bool asymmetric_fences_;

  static constexpr std::uint64_t kScanInterval = 64;  // retires between advance scans
};

// Process-wide manager used by the default data-structure instantiations.
EpochManager& GlobalEpochManager();

}  // namespace spectm

#endif  // SPECTM_EPOCH_EPOCH_H_
