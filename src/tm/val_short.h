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
//     val_word.h); the default NonReuseValidation makes it a no-op;
//   * under a kMvcc policy (ValSnap) RO reads run at a pinned snapshot through
//     the version chains until the first lock promotes the attempt, and every
//     writer publishes the displaced values a pinned snapshot can still need
//     (mvcc::SnapshotSession, val_word.h).
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
#include "src/tm/config.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/val_word.h"
#include "src/tm/valstrategy.h"

namespace spectm {

struct ValDomainTag {};

// kStrategy (valstrategy.h) is the validation strategy the family's readers
// run over the policy's counter: RO reads keep a persistent sample so a
// stable counter (or a kBloom/kStripe summary proof) skips the RO-set
// revalidation. kIncremental, the one strategy a non-precise policy takes,
// always walks.
template <typename ValidationT, ValStrategy kStrategy>
class ValShortTm {
 public:
  using Validation = ValidationT;
  using Summary = Validation;
  using Slot = ValSlotT<Validation::kMvcc>;
  using Probe = ValProbe<ValDomainTag>;
  using Cm = SerialCm<ValDomainTag>;
  using Gate = SerialGate<ValDomainTag>;

 private:
  using Session = mvcc::SnapshotSession<Validation, Probe>;
  // An RW-set entry: the locked slot and the value its lock displaced (the
  // read result, the abort-restore record, and the version a snapshot
  // policy publishes).
  struct RwEntry {
    Slot* slot;
    Word old_value;
  };
  static Slot* SlotOf(const RwEntry& e) { return e.slot; }

 public:

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
      if (snap_.in_snapshot()) {
        // Snapshot phase: one chain traversal at the pinned stamp — no
        // incremental revalidation of the earlier entries, ever. Logged like
        // any other RO entry: promotion revalidates the log at "now", so a
        // stale snapshot value correctly fails the upgrade path.
        Word v;
        if (!snap_.Read(s, ro_.Size(), state_, [this] { return ValidateRo(); },
                        &v)) {
          valid_ = false;
          return 0;
        }
        ro_.PushBack(RoEntry{s, v, /*upgraded=*/false});
        return v;
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
      // Strategy fast paths (valstrategy.h StrategyState): the persistent
      // anchor names a counter value at which the whole RO log was
      // simultaneously valid (every entry was read unlocked, so any writer
      // that bumped before the anchor had already released these words). A
      // stable counter — or all-disjoint intervening write blooms — lets the
      // read-set walk be skipped and the value just read join a still-valid
      // snapshot.
      const bool first_ro = ro_.Empty();
      ro_.PushBack(RoEntry{s, w, /*upgraded=*/false});
      if (!first_ro &&
          !state_.TrySkipRead(&desc_->stats, ro_.Size(), LoggedWords()) &&
          !ValidateRo()) {
        valid_ = false;
        return 0;
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
      Session::PublishVersions(PublishWriterSummary(), rw_, SlotOf);
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
      Word own_idx = 0;
      if (rw_.Empty()) {
        // A pure-RO snapshot commit never promoted (promotion rides the
        // first lock): the log is simultaneously valid at the pinned stamp
        // by construction — no validation at all.
        ro_ok = snap_.in_snapshot() || ValidateRo();
      } else {
        unsigned write_stripes = 0;
        own_idx = PublishWriterSummary(&write_stripes);
        ro_ok = state_.TrySkipCommit(own_idx, write_stripes, ro_.Size(),
                                     LoggedWords()) ||
                ValidateRo();
      }
      if (!ro_ok) {
        Abort();
        return false;
      }
      if (!rw_.Empty()) {
        Session::PublishVersions(own_idx, rw_, SlotOf);  // locks still held
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
      snap_.Unpin();
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
      // and refreshes the ring-saturation gauge.
      Cm::NoteAttemptStart(*desc_);
      FeedRingGauge<ValDomainTag, Validation>();
      if (!serial_ && Cm::ShouldEscalate(*desc_)) {
        Gate::AcquireSerial(desc_);
        serial_ = true;
        Cm::NoteEscalated(*desc_);
      }
      state_.StartAttempt(desc_->stats);
      snap_.Pin();
    }

    // Restores every displaced value recorded in the RW set. Shared by Abort()
    // and the overflow unwind; the value store is also the lock release.
    void RestoreDisplacedValues() {
      for (const RwEntry& e : rw_) {
        Session::TombstoneUnstampedHead(e.slot);  // before the lock release
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
      // Write promotion (a snapshot attempt's first lock): bring the read log
      // to "now" before anything is locked.
      if (!snap_.Promote(ro_.Size(), [this] { return ValidateRo(); })) {
        valid_ = false;
        return false;
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
      snap_.Unpin();
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

    using StratState = StrategyState<Validation, Probe, kStrategy>;

    TxDesc* desc_;
    InlineVec<RwEntry, kMaxShortWrites> rw_;
    InlineVec<RoEntry, kMaxShortReads> ro_;
    StratState state_;
    bool valid_ = true;
    bool finished_ = false;
    bool unwound_ = false;  // overflow unwind already restored the values
    bool serial_ = false;   // this attempt holds the serialization token
    bool gated_ = false;    // this attempt announced itself as a committer
    Session snap_;          // empty unless the policy is kMvcc
  };

  // --- Single-operation transactions --------------------------------------------------

  // One atomic load (spinning past transient locks). Under a kMvcc policy the
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
        Session::TombstoneUnstampedHead(s);  // before the lock release
        s->word.store(w, std::memory_order_release);
      });
      PublishSingle(s, w, self);
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
            Session::TombstoneUnstampedHead(s);  // before the lock release
            s->word.store(w, std::memory_order_release);
          });
          PublishSingle(s, w, self);
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
  // Single-op precise-path commit publication: a one-location write set, and
  // under a kMvcc policy its displaced value published onto the slot's chain
  // stamped with the single op's own commit index. Caller holds the slot
  // lock; called before the releasing store.
  static void PublishSingle(Slot* s, Word displaced, TxDesc* self) {
    WriteSignature<Validation::kHasBloomRing> sig;
    sig.Add(&s->word);
    const RwEntry locked[] = {{s, displaced}};
    Session::PublishVersions(PublishWriterCommit<Validation, Probe>(self, sig),
                             locked, SlotOf);
  }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_SHORT_H_
