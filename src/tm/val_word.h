// The `val` meta-data layout (Figure 3(c)): a transactional location is ONE word in
// which bit 0 is reserved as the STM lock bit. Only the MVCC snapshot family's
// slots (SnapSlot below) carry a second word, the version-chain head.
//
//   unlocked: the 63-bit application value (bit 0 clear — aligned pointer or
//             EncodeInt()-shifted integer, §2.4)
//   locked:   (TxDesc* | 1) — the displaced value is saved in the owner's record
//
// "Traditional STMs need to perform a sequence of three reads (orec, data word and
// then orec again) to get a correct snapshot... When data and meta-data are held in
// the same word, this sequence becomes a single atomic read. Similarly, at
// commit-time, the entire TVar can be updated by an atomic write." (§2.4)
//
// With no version numbers, read-only validation is value-based. The paper identifies
// three cases where that is safe without extra machinery (§2.4): (1) transactions
// that update everything they read (locks pin all of it), (2) "mostly-read-write"
// transactions with a single read-only location (the read is the linearization
// point), (3) locations with the non-re-use property (here: node pointers protected
// by epoch-based reclamation). For the general case, Dalessandro et al.'s global
// commit counter — or the distributed per-thread variant — makes value-based
// validation safe; both are provided as ValidationPolicy implementations and their
// cost is measured in bench/abl_val_validation.
#ifndef SPECTM_TM_VAL_WORD_H_
#define SPECTM_TM_VAL_WORD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/common/thread_registry.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/txdesc.h"
#include "src/tm/valstrategy.h"

namespace spectm {

// A val slot, chosen by the validation policy's kMvcc marker. ValSlot is the
// paper's layout: exactly the data+lock word. SnapSlot adds the MVCC chain head
// word: an indirect, bounded, newest-first list of displaced values, or the
// odd reign tag of a commit that kept none (src/tm/mvcc.h), which only
// kMvcc-policy engines read or write. The in-place protocol on `word` is the
// same for both.
template <bool kVersioned>
struct ValSlotT {
  std::atomic<Word> word{0};
};

template <>
struct ValSlotT<true> {
  std::atomic<Word> word{0};
  mvcc::ChainHead versions{0};
};

using ValSlot = ValSlotT<false>;
using SnapSlot = ValSlotT<true>;

static_assert(sizeof(ValSlot) == sizeof(Word), "the val layout is one word");
// ValFullTm recovers a SnapSlot from its logged word pointer (reinterpret_cast),
// which needs `word` at offset 0 of a standard-layout slot.
static_assert(std::is_standard_layout_v<SnapSlot> && offsetof(SnapSlot, word) == 0,
              "SnapSlot must be pointer-interconvertible with its word");

constexpr bool ValIsLocked(Word w) { return (w & kLockBit) != 0; }

inline TxDesc* ValOwnerOf(Word w) {
  return reinterpret_cast<TxDesc*>(static_cast<std::uintptr_t>(w & ~kLockBit));
}

inline Word MakeValLocked(TxDesc* owner) {
  return static_cast<Word>(reinterpret_cast<std::uintptr_t>(owner)) | kLockBit;
}

// --- Validation policies -------------------------------------------------------------
//
// Protocol shared by all writers (short RW commits, full commits, single writes):
// while holding the lock(s), publish through PublishWriterCommit (valstrategy.h,
// which calls the policy's OnWriterCommit) BEFORE the value stores that
// release them — and, for commits that validate a read set, BEFORE that final
// validation (bump-before-validate; see the crossing-committer note in
// valstrategy.h — a writer may only skip its commit-time walk when no foreign
// bump lies between its sample anchor and its own bump). A validator whose
// Sample() is stable across a value re-check then knows that any commit it could
// have missed was still holding its locks during the re-check — and a held lock
// always fails the value comparison, because a locked word has bit 0 set and
// recorded values never do.

// `kPrecise` marks policies whose counter genuinely tracks writer commits: for those,
// "counter unchanged since the log was last fully validated" proves no writer
// released any value in between (writers bump while holding their locks, before the
// releasing stores, and lock acquisition precedes the bump — so a writer whose bump
// is not yet visible was still holding its locks during the last value re-check,
// where a held lock always fails the comparison). Engines use it to skip redundant
// per-read revalidation. NonReuseValidation's trivially-stable pseudo-counter proves
// nothing, so it must not enable that fast path.

// `kHasBloomRing` marks policies that additionally publish each writer's write-set
// bloom into a WriterRing (valstrategy.h), enabling the bloom-summary skip: a
// reader whose counter went stale can still avoid the O(read-set) walk when every
// intervening commit's bloom is disjoint from its read bloom. Writers hand
// OnWriterCommit a WriteSignature<kHasBloomRing>: ring policies receive the
// folded write-set bloom, ring-less ones an unfolded signature they ignore.
// Only kCounterSkip families may run over a ring-less policy (StrategyState's
// static_asserts).

// `kPartitioned` marks policies whose counter is additionally sharded into
// per-stripe counters keyed by the metadata word's address region
// (valstrategy.h kCounterStripes): writers' signatures carry the stripe mask of
// their write set, and kStripe readers skip walks when every READ-occupied
// stripe is unchanged. Non-partitioned policies ignore the mask, and
// StrategyState rejects a kStripe family over one at compile time.

// `kMvcc` marks the policy whose writers additionally publish each displaced
// value onto the slot's version chain (src/tm/mvcc.h), stamped with their own
// commit index, while a snapshot below the commit is pinned or pending (else
// they stamp the slot's reign) — the precondition for pinned-snapshot reads,
// which the val engines run exactly when the policy is kMvcc
// (mvcc::SnapshotSession below).
// It also selects the slot type: SnapSlot when true, the one-word ValSlot when
// false, so a chain touch on a one-word slot cannot compile.

// Case-3 reliance, NonReuseValidation, is the null writer summary; it lives in
// valstrategy.h because the passive orec families use it too.

// One shared commit counter (Dalessandro et al.): cheap to read, but every writer
// commit contends on one cache line.
struct GlobalCounterValidation {
  static constexpr const char* kName = "global-counter";
  static constexpr bool kPrecise = true;
  static constexpr bool kHasBloomRing = false;
  static constexpr bool kPartitioned = false;
  static constexpr bool kMvcc = false;

  static std::atomic<Word>& Counter() {
    static CacheAligned<std::atomic<Word>> counter;
    return *counter;
  }

  static Word Sample() { return Counter().load(std::memory_order_seq_cst); }
  static bool Stable(Word sample) { return Sample() == sample; }
  static Word OnWriterCommit(TxDesc* /*self*/,
                             const WriteSignature<false>& /*sig*/) {
    return Counter().fetch_add(1, std::memory_order_seq_cst) + 1;
  }
};

// Global counter + write-set bloom ring: the commit bump doubles as the publication
// index for the writer's Bloom128 write bloom, so readers can pre-filter stale
// counters. It IS the domain's WriterSummary (valstrategy.h) — ONE implementation
// of the counter+ring protocol serves both the orec and the val layouts — on a
// private domain tag, so families on this policy form their own validation domain.
struct ValRingDomainTag {};
struct GlobalCounterBloomValidation : WriterSummary<ValRingDomainTag> {
  static constexpr const char* kName = "global-counter-bloom";
  static constexpr bool kMvcc = false;
};

// MVCC snapshot policy (PR 9): writer-side protocol identical to the
// partitioned counter+bloom policy — same ValRingDomainTag summary, same stripe
// counters, same ring — plus kMvcc: committing writers publish the displaced
// values a pinned snapshot can still need onto the slots' version chains,
// stamped with their own commit index (src/tm/mvcc.h). Read-only transactions
// pin a snapshot from this clock and read through the chains with zero
// validation (mvcc::SnapshotSession); read-write transactions keep the
// precise stripe protocol unchanged.
struct SnapshotValidation : GlobalCounterBloomValidation {
  static constexpr const char* kName = "snapshot";
  static constexpr bool kMvcc = true;
};

// One snapshot read against `s` at pinned snapshot stamp `snapshot`: the
// current word if its reign began at or before the snapshot, else the newest
// chain version whose interval [floor, stamp) contains it. Loops past the two
// transient states (commit lock held with no usable version yet; unstamped
// head) — in-flight writers resolve both in a handful of instructions, and on
// a single core the yield hands them the CPU. Returns ok == false only when
// the version the snapshot needs is gone: the chain was truncated below it
// (deepest floor > snapshot), or a reign tag newer than it kept no chain at
// all. The caller must refresh its snapshot, never guess.
struct SnapshotReadResult {
  Word value = 0;
  int hops = 0;    // chain nodes dereferenced (0 = in-place fast path)
  bool ok = false;
};

inline SnapshotReadResult SnapshotReadSlot(SnapSlot* s, Word snapshot) {
  for (int spins = 0;; ++spins) {
    const Word w = s->word.load(std::memory_order_acquire);
    const Word h = s->versions.load(std::memory_order_acquire);
    // Schedule point: a writer may push over the head node and trim it (or
    // replace the chain with its reign tag) here, so the node is read below
    // only because the pool's grace period keeps it from reuse until this
    // reader's Guard exits (mvcc.h NodePool).
    SPECTM_SCHED_POINT(failpoint::Site::kSnapshotHeadLoad);
    mvcc::VersionNode* head = mvcc::NodeOf(h);
    const Word head_stamp = mvcc::HeadStamp(h);
    if (head == nullptr && head_stamp > snapshot) {
      // A reign tag newer than the snapshot: that commit kept no version,
      // because no pin below it was published when it scanned.
      return {0, 0, false};
    }
    if (!ValIsLocked(w)) {
      if (head == nullptr || (head_stamp != mvcc::kUnstamped && head_stamp <= snapshot)) {
        return {w, 0, true};  // current value already reigned at the snapshot
      }
      // head_stamp == kUnstamped here means our two loads straddled a
      // writer's push: retry (the next word load sees its lock or its store).
    } else {
      // Commit lock held. The chain serves the read iff a stamped head with
      // stamp > snapshot exists (the in-flight writer cannot affect versions
      // at or below its own displaced head); otherwise the value this
      // snapshot needs is still in the owner's lock log — wait it out.
      if (head != nullptr && head_stamp != mvcc::kUnstamped && head_stamp > snapshot) {
        // fall through to the walk
      } else {
        if (spins >= kReadLockSpin) {
          std::this_thread::yield();
        }
        SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
        CpuRelax();
        continue;
      }
    }
    if (head_stamp == mvcc::kUnstamped) {
      SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
      CpuRelax();
      continue;
    }
    // Walk newest -> oldest for the node covering the snapshot. Invariant on
    // every node reached: stamp > snapshot (head was checked; each deeper
    // node's stamp equals its predecessor's floor, which exceeded the
    // snapshot for us to descend).
    int hops = 0;
    for (mvcc::VersionNode* n = head; n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      ++hops;
      if (n->floor <= snapshot) {
        return {n->word, hops, true};
      }
    }
    return {0, hops, false};  // truncated below the snapshot
  }
}

namespace mvcc {

// The MVCC side of a val transaction attempt, written once for both val
// engines and the short engine's single ops: the snapshot pin, the chain
// reads, the truncation refresh, write promotion, and the writer's
// displaced-value publish. A kMvcc policy gets the session specialized below;
// every other policy gets this empty one, whose members compile to nothing,
// so the engines call them without conditions.
template <typename Validation, typename Probe, bool = Validation::kMvcc>
class SnapshotSession {
 public:
  void Pin() {}
  void Unpin() {}
  static constexpr bool in_snapshot() { return false; }
  template <typename State, typename AddrAt, typename Validate>
  static bool Promote(std::size_t /*logged*/, const State& /*state*/,
                      const AddrAt& /*addr_at*/, const Validate& /*validate*/) {
    return true;
  }
  template <typename Slot, typename State, typename Validate>
  static bool Read(Slot* /*s*/, std::size_t /*logged*/, const State& /*state*/,
                   const Validate& /*validate*/, Word* /*value*/) {
    return false;
  }
  template <typename Slot>
  static void TombstoneUnstampedHead(Slot* /*s*/) {}
  template <typename Entries, typename SlotOf>
  static void PublishVersions(Word /*own_idx*/, const Entries& /*locked*/,
                              const SlotOf& /*slot_of*/) {}
};

template <typename Validation, typename Probe>
class SnapshotSession<Validation, Probe, true> {
 public:
  // Pin-then-sample (two-step, epoch.h): the done-stamp scan either sees the
  // pending pin and reclaims nothing, or ran wholly before it and bounded
  // itself by a clock value our sample can only meet or exceed — either way
  // no node this snapshot can reach is recycled, and no commit below the
  // snapshot's stamp elides its version (PublishVersions). The epoch Guard
  // is taken first and held until Unpin: chain memory retired by writers
  // (NodePool Recycle/DrainDeferred) cannot return to the allocator while
  // this attempt may still be dereferencing a chain pointer.
  void Pin() {
    chain_guard_.Acquire(MvccEpoch());
    Repin();
    in_snapshot_ = true;
    chain_served_ = false;
  }

  void Unpin() {
    ReleasePin();
    chain_guard_.Release();
  }

  // True until promotion: reads still run through the chains at the pin,
  // which is published exactly this long.
  bool in_snapshot() const { return in_snapshot_; }

  // Write promotion, before the attempt's first lock: the `logged` values
  // read at the snapshot become an ordinary read log, proven current by
  // `state`'s skip ladder (`addr_at` as for TrySkipRead) while no logged value
  // came from a chain, else by the engine's walk (`validate`). A writer that
  // committed over any of them since the snapshot fails both: the snapshot
  // cut cannot extend to a write (docs/VALIDATION.md §10). The family's
  // read-write protocol then governs the attempt, which reads no chain, so
  // the registry pin goes at once: held to this attempt's own commit, it
  // would make that commit (and every other writer's meanwhile) push versions
  // no reader needs. The guard stays until Unpin. No-op once promoted.
  template <typename State, typename AddrAt, typename Validate>
  bool Promote(std::size_t logged, const State& state, const AddrAt& addr_at,
               const Validate& validate) {
    if (!in_snapshot_) {
      return true;
    }
    ReleasePin();
    return logged == 0 ||
           (!chain_served_ && state.TrySkipRead(nullptr, logged, addr_at)) ||
           validate();
  }

  // One snapshot-phase read: a single chain traversal at the pinned stamp —
  // no sandwich, no revalidation of the earlier reads. The only exit that is
  // not wait-free is a chain truncated below the snapshot, which refreshes
  // the pin (Refresh). Returns false only when that refresh fails; on success
  // the caller logs *value for a later promotion.
  template <typename State, typename Validate>
  bool Read(SnapSlot* s, std::size_t logged, const State& state,
            const Validate& validate, Word* value) {
    while (true) {
      const SnapshotReadResult r = SnapshotReadSlot(s, snapshot_ts_);
      if (r.ok) {
        typename Probe::Counters& probe = Probe::Get();
        ++probe.snapshot_reads;
        probe.version_hops += static_cast<std::uint64_t>(r.hops);
        chain_served_ |= r.hops != 0;
        *value = r.value;
        return true;
      }
      if (!Refresh(logged, state, validate)) {
        return false;
      }
    }
  }

  // Abort-path repair, called with the slot's lock still held: a throw inside
  // the publish window (kVersionPublish) left our unstamped node at the head;
  // tombstone it before the restoring store releases the lock (mvcc.h).
  static void TombstoneUnstampedHead(SnapSlot* s) {
    mvcc::TombstoneUnstampedHead(s->versions);
  }

  // The writer's displaced-value publish (full commit, short commit, single
  // op), decided once per commit by the done stamp, scanned after this
  // commit's bump at `own_idx`:
  //   * done >= own_idx: no snapshot below this commit is pinned or pending,
  //     so none can select a displaced value. Each slot's head becomes the
  //     commit's reign tag and its old chain is reclaimed (StampReign).
  //   * otherwise: threads each locked entry's old_value onto
  //     slot_of(entry)'s chain, stamped with own_idx, and trims every chain
  //     against the done stamp.
  // Either way the elision is sound whatever the scan found: a reader at
  // S < own_idx that meets the tag refreshes rather than reading a stale
  // value. The bump-then-scan order only makes that refresh impossible for
  // a pinned reader (docs/VALIDATION.md §10). Then drains this thread's
  // deferred nodes. The caller holds every lock in `locked`, after its
  // commit-time validation, so a kVersionPublish throw (push path only)
  // unwinds into TombstoneUnstampedHead.
  template <typename Entries, typename SlotOf>
  static void PublishVersions(Word own_idx, const Entries& locked,
                              const SlotOf& slot_of) {
    NodePool& pool = Pool();
    const Word done = MvccEpoch().SnapshotDoneStamp(Validation::Sample());
    PublishStats pub;
    if (done >= own_idx) {
      for (const auto& e : locked) {
        StampReign(slot_of(e)->versions, own_idx, done, pool, &pub);
      }
    } else {
      for (const auto& e : locked) {
        PublishVersion(slot_of(e)->versions, e.old_value, own_idx, done, pool,
                       &pub);
      }
    }
    pool.DrainDeferred(done);
    typename Probe::Counters& probe = Probe::Get();
    probe.versions_retired += static_cast<std::uint64_t>(pub.retired);
    probe.chain_splices += static_cast<std::uint64_t>(pub.splices);
  }

 private:
  void ReleasePin() {
    if (in_snapshot_) {
      MvccEpoch().UnpinSnapshot();
      in_snapshot_ = false;
    }
  }

  void Repin() {
    EpochManager& mgr = MvccEpoch();
    mgr.BeginSnapshotPin();
    snapshot_ts_ = Validation::Sample();
    mgr.SetSnapshotPin(snapshot_ts_);
  }

  // Truncation fallback: move the pin forward and prove the `logged` values
  // simultaneously valid with the engine's walk (`validate`), which loops to
  // a stable clock point and re-anchors `state` there. That point, which may
  // lie past the new pin, becomes the snapshot (the pin below it just
  // protects more than needed). This is the one place a snapshot attempt can
  // walk or abort, and it takes a writer that both overflowed a chain and
  // overwrote one of our reads: a genuine conflict, never mere same-stripe
  // traffic.
  template <typename State, typename Validate>
  bool Refresh(std::size_t logged, const State& state, const Validate& validate) {
    Repin();
    if (logged == 0) {
      return true;
    }
    if (!validate()) {
      return false;
    }
    snapshot_ts_ = state.sample();
    return true;
  }

  Word snapshot_ts_ = 0;       // the pinned read stamp
  bool in_snapshot_ = false;   // reads run through the chains; pin published
  bool chain_served_ = false;  // some logged value came from a version node
  EpochManager::GuardSlot chain_guard_;
};

}  // namespace mvcc

// Distributed counters (§2.4 last paragraph): each thread bumps its own padded
// counter on commit — "fast to (logically) increment the shared counter, at the cost
// of reading all of the threads' counters" when validating. Counters only increase,
// so an unchanged sum implies every individual counter is unchanged.
struct PerThreadCounterValidation {
  static constexpr const char* kName = "per-thread-counters";
  static constexpr bool kPrecise = true;
  static constexpr bool kHasBloomRing = false;
  static constexpr bool kPartitioned = false;
  static constexpr bool kMvcc = false;

  static Word Sample() {
    const int bound = ThreadRegistry::IdBound();
    Word sum = 0;
    for (int i = 0; i < bound; ++i) {
      sum += Counters()[i]->load(std::memory_order_seq_cst);
    }
    return sum;
  }

  static bool Stable(Word sample) { return Sample() == sample; }

  // No single commit index exists for a distributed sum; callers use the uniform
  // "Sample() == sample + 1 after own bump" test instead (sums count all bumps,
  // so anchor+1 means exactly this writer's own).
  static Word OnWriterCommit(TxDesc* self,
                             const WriteSignature<false>& /*sig*/) {
    Counters()[self->thread_slot]->fetch_add(1, std::memory_order_seq_cst);
    return 0;
  }

 private:
  static CacheAligned<std::atomic<Word>>* Counters() {
    static CacheAligned<std::atomic<Word>> counters[ThreadRegistry::kMaxThreads];
    return counters;
  }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_WORD_H_
