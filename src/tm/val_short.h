// SpecTM short transactions over the `val` layout (§2.4) — the paper's fastest
// variant ("val-short"), matching lock-free CAS-based code within a few percent.
//
// Mechanics relative to short_tm.h:
//   * an RW read is a single CAS (value -> owner|1); the displaced value both *is*
//     the read result and the abort-restore record;
//   * commit is a plain release store per location — data and meta-data update in one
//     atomic write, no version to publish, no clock to increment;
//   * RO validation compares values; a locked word can never equal a recorded value
//     (bit 0), so lock detection is free;
//   * the general-case safety net is the ValidationPolicy commit counter (see
//     val_word.h); the default NonReuseValidation makes it a no-op.
//
// Single-operation transactions collapse to bare atomic instructions: SingleRead is
// one load, SingleCas one compare-and-swap — this is precisely how val-short "closes
// the gap with the performance of the CAS-based implementation" (§2.4).
#ifndef SPECTM_TM_VAL_SHORT_H_
#define SPECTM_TM_VAL_SHORT_H_

#include <atomic>
#include <cassert>
#include <initializer_list>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/inline_vec.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/val_word.h"
#include "src/tm/valstrategy.h"

namespace spectm {

struct ValDomainTag {};

template <typename ValidationT, ValMode kMode = ValMode::kCounterSkip>
class ValShortTm {
 public:
  using Validation = ValidationT;
  using Slot = ValSlotT<Validation::kMvcc>;
  using Probe = ValProbe<ValDomainTag>;
  using Cm = SerialCm<ValDomainTag>;
  using Gate = SerialGate<ValDomainTag>;
  static constexpr ValMode kValMode = kMode;
  static constexpr bool kStrategic = Validation::kPrecise;
  static constexpr bool kSnapshotMode = kMode == ValMode::kSnapshot;
  static_assert(!kSnapshotMode || Validation::kMvcc,
                "ValMode::kSnapshot requires a kMvcc validation policy");

  class ShortTx {
   public:
    ShortTx() : desc_(&DescOf<ValDomainTag>()) { StartAttempt(); }
    ~ShortTx() {
      if (!finished_) {
        Abort();
      }
    }
    ShortTx(const ShortTx&) = delete;
    ShortTx& operator=(const ShortTx&) = delete;

    // Encounter-time locking in one CAS; the displaced word is the value read.
    Word ReadRw(Slot* s) {
      assert(!finished_);
      if (!valid_) {
        return 0;
      }
      // Contract violation (§2.2) must not become memory corruption in release
      // builds: invalidate instead of pushing past the InlineVec bound.
      if (rw_.Full()) {
        UnwindForOverflow();
        return 0;
      }
      // First lock makes this attempt a committer: announce at the gate so a
      // serial-irrevocable transaction (src/tm/serial.h) can exclude us; fail
      // fast while the token is held.
      if (!EnterGateForFirstLock()) {
        return 0;
      }
      if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
        valid_ = false;
        return 0;
      }
      Word w = s->word.load(std::memory_order_relaxed);
      while (true) {
        if (ValIsLocked(w)) {
          assert(ValOwnerOf(w) != desc_ && "accesses must name distinct locations");
          valid_ = false;  // conservative deadlock avoidance (§2.4)
          return 0;
        }
        if (s->word.compare_exchange_weak(w, MakeValLocked(desc_),
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
          rw_.PushBack(RwEntry{s, w});
          return w;
        }
      }
    }

    // Invisible read; value recorded for later validation. Earlier entries are
    // revalidated so the caller always sees a consistent prefix.
    Word ReadRo(Slot* s) {
      assert(!finished_);
      if (!valid_) {
        return 0;
      }
      if (ro_.Full()) {  // overflow invalidates instead of corrupting (see ReadRw)
        UnwindForOverflow();
        return 0;
      }
      if constexpr (kSnapshotMode) {
        // Snapshot phase: one chain traversal at the pinned stamp — no
        // incremental revalidation of the earlier entries, ever.
        if (snapshot_phase_) {
          return SnapshotReadRo(s);
        }
      }
      const Word w = s->word.load(std::memory_order_acquire);
      if (ValIsLocked(w)) {
        assert(ValOwnerOf(w) != desc_ && "RO and RW sets must be disjoint");
        valid_ = false;
        return 0;
      }
      if (SPECTM_FAILPOINT(failpoint::Site::kPostReadPreSandwich)) {
        valid_ = false;
        return 0;
      }
      // Fast path: the first RO entry is trivially consistent on its own (RW entries
      // are pinned by our locks), so only subsequent reads pay the revalidation.
      const bool first_ro = ro_.Empty();
      ro_.PushBack(RoEntry{s, w, /*upgraded=*/false});
      if (!first_ro) {
        // Strategy fast paths (valstrategy.h StrategyState): the persistent
        // anchor names a counter value at which the whole RO log was
        // simultaneously valid (every entry was read unlocked, so any writer
        // that bumped before the anchor had already released these words). A
        // stable counter — or all-disjoint intervening write blooms — lets the
        // read-set walk be skipped and the value just read join a still-valid
        // snapshot.
        bool ok;
        if constexpr (kStrategic) {
          ok = state_.TrySkipRead(&desc_->stats, ro_.Size(), LoggedWords()) ==
                   StratState::ReadSkip::kSkipped ||
               ValidateRo();
        } else {
          ok = ValidateRo();
        }
        if (!ok) {
          valid_ = false;
          return 0;
        }
      }
      return w;
    }

    bool Valid() const { return valid_; }

    // Value-based validation of the RO set (Tx_RO_k_Is_Valid). Under a counter-based
    // ValidationPolicy this loops until the commit counter is stable across a full
    // value re-check (NOrec-style), re-anchoring the persistent sample so later
    // reads can skip; under NonReuseValidation it is one pass.
    bool ValidateRo() const {
      if (SPECTM_FAILPOINT(failpoint::Site::kPreValidate)) {
        return false;
      }
      ++Probe::Get().validation_walks;
      typename StratState::Snapshot snap = state_.DrawSnapshot();
      while (true) {
        for (const RoEntry& e : ro_) {
          if (e.upgraded) {
            continue;  // pinned by our own lock
          }
          if (e.slot->word.load(std::memory_order_acquire) != e.value) {
            return false;  // changed — or locked, which can never equal a value
          }
        }
        if (Validation::Stable(snap.global)) {
          state_.ReanchorStable(snap);
          return true;
        }
        snap = state_.DrawSnapshot();
      }
    }

    // Tx_Upgrade_RO_x_To_RW_y: lock the location at exactly the value observed.
    bool UpgradeRoToRw(int ro_index) {
      assert(!finished_);
      if (!valid_) {
        return false;
      }
      assert(ro_index >= 0 && static_cast<std::size_t>(ro_index) < ro_.Size());
      if (rw_.Full()) {  // overflow invalidates instead of corrupting (see ReadRw)
        UnwindForOverflow();
        return false;
      }
      if (!EnterGateForFirstLock()) {  // upgrades lock too (see ReadRw)
        return false;
      }
      if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
        valid_ = false;
        return false;
      }
      RoEntry& e = ro_[static_cast<std::size_t>(ro_index)];
      Word expected = e.value;
      if (!e.slot->word.compare_exchange_strong(expected, MakeValLocked(desc_),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
        valid_ = false;
        return false;
      }
      e.upgraded = true;
      rw_.PushBack(RwEntry{e.slot, e.value});
      return true;
    }

    // Tx_RW_k_Commit: one release store per location — store value == release lock.
    // Always succeeds (encounter-time locks pin the read set); bool for interface
    // parity with fine-grained adapters.
    bool CommitRw(std::initializer_list<Word> values) {
      assert(valid_ && !finished_);
      assert(values.size() == rw_.Size() && "commit arity must match RW access count");
      // Before the stores, while locks are held.
      [[maybe_unused]] const Word own_idx = PublishWriterSummary();
      if constexpr (kSnapshotMode) {
        PublishShortVersions(own_idx);
      }
      const Word* v = values.begin();
      for (std::size_t i = 0; i < rw_.Size(); ++i) {
        assert((v[i] & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
        rw_[i].slot->word.store(v[i], std::memory_order_release);
      }
      Finish(/*committed=*/true);
      return true;
    }

    // Tx_RO_x_RW_y_Commit: validate the remaining RO entries, then commit.
    //
    // Writer-summary order: bump-and-publish BEFORE the final RO validation
    // (bump-before-validate, valstrategy.h); the own-idx skip test keeps two
    // crossing committers from passing each other. A pure-RO mixed commit holds
    // no locks, publishes nothing, and validates the ordinary way.
    bool CommitMixed(std::initializer_list<Word> values) {
      assert(valid_ && !finished_);
      assert(values.size() == rw_.Size());
      bool ro_ok;
      [[maybe_unused]] Word own_idx = 0;
      if constexpr (kStrategic) {
        if (rw_.Empty()) {
          // A pure-RO snapshot commit never promoted (promotion rides the
          // first lock): the log is simultaneously valid at the pinned stamp
          // by construction — no validation at all, the tentpole property.
          if constexpr (kSnapshotMode) {
            ro_ok = snapshot_phase_ || ValidateRo();
          } else {
            ro_ok = ValidateRo();
          }
        } else {
          unsigned write_stripes = 0;
          own_idx = PublishWriterSummary(&write_stripes);
          ro_ok = state_.TrySkipCommit(own_idx, write_stripes, ro_.Size(),
                                       LoggedWords()) ||
                  ValidateRo();
        }
      } else {
        ro_ok = ValidateRo();
      }
      if (!ro_ok) {
        Abort();
        return false;
      }
      if constexpr (kSnapshotMode) {
        if (!rw_.Empty()) {
          PublishShortVersions(own_idx);  // locks still held
        }
      }
      const Word* v = values.begin();
      for (std::size_t i = 0; i < rw_.Size(); ++i) {
        assert((v[i] & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
        rw_[i].slot->word.store(v[i], std::memory_order_release);
      }
      Finish(/*committed=*/true);
      return true;
    }

    // Tx_RW_k_Abort: put the displaced values back. Restores, never publishes: no
    // value was released, so the commit counter must not move.
    void Abort() {
      UnpinIfPinned();
      // After an overflow unwind the displaced values were already restored —
      // re-storing them here would clobber whatever other transactions
      // committed into those slots since.
      if (!unwound_) {
        RestoreDisplacedValues();
      }
      // Values restored BEFORE the gate exit: a draining serial transaction
      // must never observe flags at zero while our locks stand.
      ExitGateIfHeld();
      ReleaseSerialIfHeld();
      const bool untouched = rw_.Empty() && ro_.Empty() && valid_;
      // A still-valid, read-only record being dropped is the paper's normal RO
      // completion/cleanup pattern ("successful validation serves in the place of
      // commit"), not contention — keep it out of the abort-rate EWMA that
      // steers the adaptive engine, while the raw abort statistic keeps its
      // historical meaning.
      const bool contention = !(rw_.Empty() && valid_);
      finished_ = true;
      valid_ = false;
      if (!untouched) {
        desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
        if (contention) {
          UpdateAbortEwma(desc_->stats, /*aborted=*/true);
          // Phase-1 backoff + streak watchdog (the seed retried short
          // transactions hot; see short_tm.h).
          Cm::NoteAbortBackoff(*desc_);
        }
      }
    }

    void Reset() {
      if (!finished_) {
        Abort();
      }
      rw_.Clear();
      ro_.Clear();
      valid_ = true;
      finished_ = false;
      unwound_ = false;
      StartAttempt();
    }

    std::size_t RwCount() const { return rw_.Size(); }
    std::size_t RoCount() const { return ro_.Size(); }

   private:
    struct RwEntry {
      Slot* slot;
      Word old_value;
    };
    struct RoEntry {
      Slot* slot;
      Word value;
      bool upgraded;
    };

    // The RO log's metadata words, as StrategyState's skip calls take them for
    // the lazy signature fold.
    auto LoggedWords() const {
      return [this](std::size_t i) { return &ro_[i].slot->word; };
    }

    // Re-arms the strategy state for a fresh attempt (StrategyState: choose +
    // probe tick + anchor drawn BEFORE any read — the skip soundness argument
    // needs the sample no later than the first read). Also the escalation
    // checkpoint (src/tm/serial.h): past the hysteretic abort-streak threshold
    // the attempt takes the serialization token up front. Serial commits still
    // publish the writer summary below — concurrent readers' skip anchors
    // depend on it (VALIDATION.md "Serial-irrevocable interop").
    void StartAttempt() {
      // Health watchdog attempt-start feed (no-op unless SPECTM_HEALTH):
      // observes foreign serial holds before the escalation decision below,
      // and refreshes the ring-saturation gauge from this thread's intersect
      // failures so the window close in OnOutcome sees the current level.
      Cm::NoteAttemptStart(*desc_);
      if constexpr (health::kEnabled && Validation::kHasBloomRing) {
        health::SetRingGauge<ValDomainTag>(
            Validation::Summary::Fails().intersect);
      }
      if (!serial_ && Cm::ShouldEscalate(*desc_)) {
        Gate::AcquireSerial(desc_);
        serial_ = true;
        Cm::NoteEscalated(*desc_);
      }
      if constexpr (kStrategic) {
        state_.StartAttempt(kMode, Validation::kHasBloomRing, desc_->stats);
      }
      if constexpr (kSnapshotMode) {
        // Two-step pin (epoch.h): announce intent, sample, publish — the
        // done-stamp scan can never miss a pin below its clock bound. The
        // epoch Guard spans the pin so retired chain nodes' memory outlives
        // any pointer this transaction may still dereference (mvcc.h).
        EpochManager& mgr = mvcc::MvccEpoch();
        chain_guard_.Acquire(mgr);
        mgr.BeginSnapshotPin();
        snapshot_ts_ = Validation::Sample();
        mgr.SetSnapshotPin(snapshot_ts_);
        pinned_ = true;
        snapshot_phase_ = true;
      }
    }

    // Restores every displaced value recorded in the RW set. Shared by Abort()
    // and the overflow unwind; the value store is also the lock release.
    void RestoreDisplacedValues() {
      for (const RwEntry& e : rw_) {
        if constexpr (kSnapshotMode) {
          // A throw inside the publish window leaves our unstamped node at
          // the head: tombstone it while the lock still stands (mvcc.h).
          mvcc::TombstoneUnstampedHead(e.slot->versions);
        }
        e.slot->word.store(e.old_value, std::memory_order_release);
      }
    }

    // Contract-overflow unwind (§2.2 violations surfaced safely): restores the
    // displaced values, retracts the gate flag, and releases the serial token —
    // the same mandatory order as Abort() — the moment the overflow is
    // detected, instead of holding every lock until the caller notices
    // Valid() == false and aborts. The recorded access arrays are kept intact
    // (RwCount()/RoCount() still describe the overflowing transaction for
    // diagnosis); Abort() skips its restore loop afterwards, because the
    // released slots may since have been re-locked and committed by others.
    // Kept out of line: this is a cold contract-violation path, and inlining
    // it into the access fast paths only bloats them (and trips GCC's
    // flow-insensitive maybe-uninitialized analysis on the InlineVec storage).
#if defined(__GNUC__)
    __attribute__((cold, noinline))
#endif
    void UnwindForOverflow() {
      RestoreDisplacedValues();
      ExitGateIfHeld();
      ReleaseSerialIfHeld();
      unwound_ = true;
      valid_ = false;
    }

    bool EnterGateForFirstLock() {
      if constexpr (kSnapshotMode) {
        if (snapshot_phase_) {
          // Write promotion: leave the snapshot and bring the read log to
          // "now" — one value-based walk at a stable clock point, after which
          // the ordinary stripe protocol governs the rest of the attempt.
          snapshot_phase_ = false;
          if (!ro_.Empty() && !ValidateRo()) {
            valid_ = false;
            return false;
          }
        }
      }
      if (serial_ || gated_) {
        return true;
      }
      if (!Gate::TryEnterCommitter(desc_)) {
        valid_ = false;  // token held: fail fast, restart via Abort/Reset
        return false;
      }
      gated_ = true;
      return true;
    }

    void ExitGateIfHeld() {
      if (gated_) {
        Gate::ExitCommitter(desc_);
        gated_ = false;
      }
    }

    void ReleaseSerialIfHeld() {
      if (serial_) {
        Gate::ReleaseSerial(desc_);
        serial_ = false;
      }
    }

    // Writer-side summary: bump the commit counter — only the stripes this write
    // set touches, under a partitioned policy — and publish the write-set bloom,
    // while all locks are held, before the releasing stores and before any final
    // commit validation (valstrategy.h ordering). Returns the writer's own commit
    // index (0 when the policy has none) and, via `out_stripes`, the bumped
    // stripe mask for the partitioned commit-skip test. A pure-RO commit (empty
    // RW set) releases nothing and must not move the counter.
    Word PublishWriterSummary(unsigned* out_stripes = nullptr) {
      if (rw_.Empty()) {
        return 0;
      }
      WriteSignature<Validation::kHasBloomRing> sig;
      for (const RwEntry& e : rw_) {
        sig.Add(&e.slot->word);
      }
      if (out_stripes != nullptr) {
        *out_stripes = sig.stripes;
      }
      return PublishWriterCommit<Validation, Probe>(desc_, sig);
    }

    void Finish(bool committed) {
      UnpinIfPinned();
      // The releasing stores already happened; the gate can drop now (and
      // must not before — see Abort()).
      ExitGateIfHeld();
      finished_ = true;
      valid_ = false;
      if (committed) {
        desc_->stats.commits.fetch_add(1, std::memory_order_relaxed);
        UpdateAbortEwma(desc_->stats, /*aborted=*/false);
        if (serial_) {
          Gate::ReleaseSerial(desc_);
          serial_ = false;
          Cm::OnSerialCommit(*desc_);
        } else {
          Cm::OnOptimisticCommit(*desc_);
        }
      } else {
        ReleaseSerialIfHeld();
      }
    }

    // --- MVCC snapshot machinery (compiled only under kSnapshotMode) -------

    // One snapshot-phase RO read: a single chain traversal at the pinned
    // stamp, logged like any other RO entry (promotion revalidates the log at
    // "now", so a stale snapshot value correctly fails the upgrade path).
    Word SnapshotReadRo(Slot* s) {
      while (true) {
        const SnapshotReadResult r = SnapshotReadSlot(s, snapshot_ts_);
        if (r.ok) {
          typename Probe::Counters& probe = Probe::Get();
          ++probe.snapshot_reads;
          probe.version_hops += static_cast<std::uint64_t>(r.hops);
          ro_.PushBack(RoEntry{s, r.value, /*upgraded=*/false});
          return r.value;
        }
        if (!RefreshShortSnapshot()) {
          valid_ = false;
          return 0;
        }
      }
    }

    // Truncation fallback (see val_full.h RefreshSnapshot): re-pin forward
    // and prove the existing log simultaneously valid at a stable point.
    bool RefreshShortSnapshot() {
      EpochManager& mgr = mvcc::MvccEpoch();
      mgr.BeginSnapshotPin();
      snapshot_ts_ = Validation::Sample();
      mgr.SetSnapshotPin(snapshot_ts_);
      if (ro_.Empty()) {
        return true;
      }
      if (!ValidateRo()) {
        return false;
      }
      snapshot_ts_ = state_.sample();
      return true;
    }

    // Threads every displaced value onto its slot's chain, stamped with this
    // commit's clock index. Locks held for the whole loop.
    void PublishShortVersions(Word own_idx) {
      mvcc::NodePool& pool = mvcc::Pool();
      const Word done =
          mvcc::MvccEpoch().SnapshotDoneStamp(Validation::Sample());
      mvcc::PublishStats pub;
      for (const RwEntry& e : rw_) {
        mvcc::PublishVersion(e.slot->versions, e.old_value, own_idx, done,
                             pool, &pub);
      }
      pool.DrainDeferred(done);
      typename Probe::Counters& probe = Probe::Get();
      probe.versions_retired += static_cast<std::uint64_t>(pub.retired);
      probe.chain_splices += static_cast<std::uint64_t>(pub.splices);
    }

    void UnpinIfPinned() {
      if constexpr (kSnapshotMode) {
        if (pinned_) {
          mvcc::MvccEpoch().UnpinSnapshot();
          pinned_ = false;
          chain_guard_.Release();
        }
      }
    }

    using StratState = StrategyState<Validation, Probe>;

    TxDesc* desc_;
    InlineVec<RwEntry, kMaxShortWrites> rw_;
    InlineVec<RoEntry, kMaxShortReads> ro_;
    StratState state_;
    bool valid_ = true;
    bool finished_ = false;
    bool unwound_ = false;  // overflow unwind already restored the values
    bool serial_ = false;   // this attempt holds the serialization token
    bool gated_ = false;    // this attempt announced itself as a committer
    // Snapshot mode only (dead otherwise): pinned read stamp, pin-published
    // flag, whether reads still run through the chains, and the epoch Guard
    // held for the pin's duration (keeps retired chain nodes' memory alive
    // past any pointer this transaction may still hold).
    Word snapshot_ts_ = 0;
    bool pinned_ = false;
    bool snapshot_phase_ = false;
    EpochManager::GuardSlot chain_guard_;
  };

  // --- Single-operation transactions --------------------------------------------------

  // One atomic load (spinning past transient locks). Under kSnapshotMode the
  // lock may cover a publish window (mvcc.h) and the unstamped head holds the
  // still-current value — but reading it through the chain is unsound without
  // a snapshot pin: node memory is recycled pool-side once selection-dead, so
  // an unpinned dereference can land on a node already reused for a different
  // slot's publish (ABA on the head pointer defeats any revalidation). The
  // window is a handful of owner instructions; spin it out like any lock.
  static Word SingleRead(Slot* s) {
    while (true) {
      const Word w = s->word.load(std::memory_order_acquire);
      if (!ValIsLocked(w)) {
        return w;
      }
      SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
      CpuRelax();
    }
  }

  // One atomic CAS from the observed unlocked value to the new value: never clobbers
  // a concurrent owner's lock word.
  //
  // Counter protocol note: under a precise ValidationPolicy, single-op writers must
  // follow the same lock -> bump -> releasing-store discipline as every other
  // writer. A bare bump around an unlocked CAS is NOT enough: a writer that has
  // bumped but not yet stored is invisible to validators (nothing is locked), so a
  // reader sampling after the bump could log the pre-store value and then
  // counter-skip past the change. Precise policies therefore pay one extra atomic
  // (lock-displace, bump, store-release); NonReuseValidation keeps the paper's
  // single-CAS fast path, which is the whole point of the default val-short mode.
  static void SingleWrite(Slot* s, Word value) {
    assert((value & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
    // A committer like any other — including the bare-CAS non-reuse path: an
    // ungated single-op store could invalidate a serial transaction's value
    // log, the one abort serial mode promises away. Waits (no retry loop to
    // fail fast into), bounded by the serial transaction's solo execution.
    TxDesc* self = &DescOf<ValDomainTag>();
    Gate::EnterCommitterWait(self);
    // Unwind guard (src/tm/txguard.h): the bump under a precise policy hosts
    // pause-style fail points that can throw with the value lock displaced and
    // the gate flag announced. Serves the normal return too (never dismissed);
    // the lock guard below is destroyed first, restoring the displaced value
    // before the gate flag drops — the mandatory release order.
    TxUnwindGuard gate_guard([self] { Gate::ExitCommitter(self); });
    if constexpr (Validation::kPrecise) {
      Word w = s->word.load(std::memory_order_relaxed);
      while (true) {
        if (ValIsLocked(w)) {
          SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
          CpuRelax();
          w = s->word.load(std::memory_order_relaxed);
          continue;
        }
        if (s->word.compare_exchange_weak(w, MakeValLocked(self),
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
          break;
        }
      }
      TxUnwindGuard lock_guard([s, w] {
        if constexpr (kSnapshotMode) {
          // A throw inside the publish window below leaves our unstamped
          // node at the head: tombstone it while the lock still stands.
          mvcc::TombstoneUnstampedHead(s->versions);
        }
        s->word.store(w, std::memory_order_release);
      });
      [[maybe_unused]] const Word own_idx = PublishSingle(s, self);
      if constexpr (kSnapshotMode) {
        PublishSingleVersion(s, w, own_idx);
      }
      s->word.store(value, std::memory_order_release);
      lock_guard.Dismiss();  // the value store above was the lock release
      return;
    }
    Word w = s->word.load(std::memory_order_relaxed);
    while (true) {
      if (ValIsLocked(w)) {
        SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
        CpuRelax();
        w = s->word.load(std::memory_order_relaxed);
        continue;
      }
      if (s->word.compare_exchange_weak(w, value, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return;
      }
    }
  }

  // One atomic CAS — identical cost to raw hardware CAS (§2.4) under the default
  // non-reuse policy. Returns the observed value; success iff it equals `expected`.
  // Precise policies use the lock-displace protocol (see SingleWrite).
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    assert((desired & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
    // Gated like SingleWrite, non-reuse path included (see the note there).
    TxDesc* self = &DescOf<ValDomainTag>();
    Gate::EnterCommitterWait(self);
    // Same guard pattern as SingleWrite: gate retract on every exit, value
    // restored first when the precise-path bump throws mid-publication.
    TxUnwindGuard gate_guard([self] { Gate::ExitCommitter(self); });
    if constexpr (Validation::kPrecise) {
      while (true) {
        Word w = s->word.load(std::memory_order_acquire);
        if (ValIsLocked(w)) {
          SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
          CpuRelax();
          continue;
        }
        if (w != expected) {
          return w;
        }
        if (s->word.compare_exchange_weak(w, MakeValLocked(self),
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
          // Locked at the expected value: bump (one location -> one stripe),
          // then store == release.
          TxUnwindGuard lock_guard([s, w] {
            if constexpr (kSnapshotMode) {
              // Tombstone a half-published node before the restoring store
              // releases the lock (see SingleWrite).
              mvcc::TombstoneUnstampedHead(s->versions);
            }
            s->word.store(w, std::memory_order_release);
          });
          [[maybe_unused]] const Word own_idx = PublishSingle(s, self);
          if constexpr (kSnapshotMode) {
            PublishSingleVersion(s, w, own_idx);
          }
          s->word.store(desired, std::memory_order_release);
          lock_guard.Dismiss();  // the value store above was the lock release
          return expected;
        }
      }
    }
    while (true) {
      Word w = s->word.load(std::memory_order_acquire);
      if (ValIsLocked(w)) {
        SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
        CpuRelax();
        continue;
      }
      if (w != expected) {
        return w;
      }
      if (s->word.compare_exchange_weak(w, desired, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return expected;
      }
    }
  }

  static TxStats& StatsForCurrentThread() { return DescOf<ValDomainTag>().stats; }

 private:
  // Single-op precise-path writer summary: a one-location write set.
  static Word PublishSingle(Slot* s, TxDesc* self) {
    WriteSignature<Validation::kHasBloomRing> sig;
    sig.Add(&s->word);
    return PublishWriterCommit<Validation, Probe>(self, sig);
  }

  // Single-op precise-path version publish: one displaced value onto one
  // chain, stamped with the single-op's own commit index. Caller holds the
  // slot lock; called between the counter bump and the releasing store.
  static void PublishSingleVersion(Slot* s, Word displaced, Word own_idx) {
    mvcc::NodePool& pool = mvcc::Pool();
    const Word done = mvcc::MvccEpoch().SnapshotDoneStamp(Validation::Sample());
    mvcc::PublishStats pub;
    mvcc::PublishVersion(s->versions, displaced, own_idx, done, pool, &pub);
    pool.DrainDeferred(done);
    typename Probe::Counters& probe = Probe::Get();
    probe.versions_retired += static_cast<std::uint64_t>(pub.retired);
    probe.chain_splices += static_cast<std::uint64_t>(pub.splices);
  }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_SHORT_H_
