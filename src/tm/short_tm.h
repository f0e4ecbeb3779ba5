// SpecTM specialized short transactions over orec-based layouts (§2.2).
//
// The programmer contract (checked with assertions in debug builds, free in release,
// exactly as §2.2 "Code complexity" prescribes):
//   * at most kMaxShortReads RO and kMaxShortWrites RW locations per transaction;
//   * every access names a distinct memory location;
//   * the RO and RW sets are disjoint (upgrades move a location from RO to RW);
//   * all writes are deferred to commit, whose argument list supplies the new values
//     in RW-read order;
//   * no write-to-read dependencies (a location written is never subsequently read).
//
// What the restrictions buy (§2.2):
//   * no update log and no read-after-write checks — values arrive at commit;
//   * RW reads lock eagerly (encounter-time locking), so a read-write transaction
//     needs no commit-time validation at all: every location it read is pinned;
//   * all book-keeping lives in fixed-size arrays inside the stack-allocated
//     ShortTx record — no dynamic logs, no dynamic operation indices.
//
// Conflicts never block: any locked orec invalidates the transaction (deadlock is
// avoided conservatively, §2.4), the caller releases its locks via Abort() and
// restarts, mirroring the paper's `goto restart` idiom.
//
// Single-operation transactions (Tx_Single_* in Figure 2) are provided as statics;
// they are linearizable and synchronize with both short and full transactions of the
// same domain because all of them agree on the orec protocol.
#ifndef SPECTM_TM_SHORT_TM_H_
#define SPECTM_TM_SHORT_TM_H_

#include <atomic>
#include <cassert>
#include <initializer_list>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/inline_vec.h"
#include "src/common/tagged.h"
#include "src/tm/clock.h"
#include "src/tm/layout.h"
#include "src/tm/orec.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/valstrategy.h"

namespace spectm {

// kStrategy (valstrategy.h) is the validation strategy the family's readers
// run. Any but kIncremental gives the domain a WriterSummary: RW commits and
// single-op writers bump it while holding their orec locks, and RO readers
// carry a persistent counter sample so an unchanged counter (or disjoint write
// blooms) skips the per-read RO-prefix revalidation. kIncremental is the
// zero-overhead default: its Summary is the null NonReuseValidation, so the
// strategy and publish calls below compile to nothing — the seed's behavior.
template <typename LayoutT, typename ClockT, typename DomainTag,
          ValStrategy kStrategy = ValStrategy::kIncremental>
class ShortTm {
 public:
  using Layout = LayoutT;
  using Clock = ClockT;
  using Slot = typename Layout::Slot;
  using Summary = OrecSummary<DomainTag, kStrategy>;
  using Probe = ValProbe<DomainTag>;
  using Cm = SerialCm<DomainTag>;
  using Gate = SerialGate<DomainTag>;

  // The TX_RECORD of Figure 2: stack-allocated, fixed-size, reusable after Abort().
  class ShortTx {
   public:
    ShortTx() : desc_(&DescOf<DomainTag>()) { StartAttempt(); }
    ~ShortTx() {
      // Defensive RAII: a record abandoned mid-transaction must not leak locks.
      if (!finished_) {
        Abort();
      }
    }
    ShortTx(const ShortTx&) = delete;
    ShortTx& operator=(const ShortTx&) = delete;

    // --- Read-write accesses (Tx_RW_R1, Tx_RW_R2, ...) -------------------------------
    //
    // Encounter-time locking: the orec is acquired at read time; the returned value
    // cannot change until this transaction commits or aborts. On conflict the
    // transaction is invalidated and 0 is returned; the caller must Abort() and
    // restart (checking Valid() first, as with ..._Is_Valid in the paper).
    Word ReadRw(Slot* s) {
      assert(!finished_);
      if (!valid_) {
        return 0;
      }
      // Exceeding the fixed-size location arrays is a contract violation (§2.2), but
      // it must not become memory corruption in release builds: invalidate the
      // transaction instead of pushing past the InlineVec bound. The caller's normal
      // Valid()/Abort()/restart path then surfaces the bug safely.
      if (rw_.Full()) {
        UnwindForOverflow();
        return 0;
      }
      // Encounter-time locking makes every RW transaction a committer from its
      // first lock onward: announce at the committer gate BEFORE that lock so a
      // serial-irrevocable transaction (src/tm/serial.h) can exclude us. Fail
      // fast while the token is held — the caller's normal restart loop retries.
      if (!EnterGateForFirstLock()) {
        return 0;
      }
      if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
        valid_ = false;
        return 0;
      }
      std::atomic<Word>& orec = Layout::OrecOf(*s);
      Word w = orec.load(std::memory_order_relaxed);
      while (true) {
        if (OrecIsLocked(w)) {
          if (OrecOwnerOf(w) == desc_) {
            // Two distinct slots collided on one shared-table orec; it is already
            // pinned by us, so just record the access without re-locking.
            rw_.PushBack(RwEntry{s, &orec, kAlreadyOwned});
            return Layout::Data(*s).load(std::memory_order_acquire);
          }
          valid_ = false;  // conservative: never wait while holding locks
          return 0;
        }
        if (orec.compare_exchange_weak(w, MakeOrecLocked(desc_),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
          rw_.PushBack(RwEntry{s, &orec, w});
          return Layout::Data(*s).load(std::memory_order_acquire);
        }
      }
    }

    // --- Read-only accesses (Tx_RO_R1, Tx_RO_R2, ...) --------------------------------
    //
    // Invisible reads: record (orec, version) and revalidate the earlier entries so
    // the caller always observes a consistent prefix (bounded by kMaxShortReads, so
    // the incremental cost is a handful of cached loads).
    Word ReadRo(Slot* s) {
      assert(!finished_);
      if (!valid_) {
        return 0;
      }
      if (ro_.Full()) {  // overflow invalidates instead of corrupting (see ReadRw)
        UnwindForOverflow();
        return 0;
      }
      std::atomic<Word>& orec = Layout::OrecOf(*s);
      while (true) {
        const Word o1 = orec.load(std::memory_order_acquire);
        if (OrecIsLocked(o1)) {
          assert(OrecOwnerOf(o1) != desc_ && "RO and RW sets must be disjoint");
          valid_ = false;
          return 0;
        }
        const Word value = Layout::Data(*s).load(std::memory_order_acquire);
        SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostReadPreSandwich);
        const Word o2 = orec.load(std::memory_order_acquire);
        if (o1 != o2) {
          continue;
        }
        if (SPECTM_FAILPOINT(failpoint::Site::kPostReadPreSandwich)) {
          valid_ = false;
          return 0;
        }
        // Fast path: the entry just sandwiched is consistent at its own read
        // instant; only EARLIER entries need re-checking (orec versions are
        // monotone, so matching then-and-now means unchanged in between — including
        // at this read's instant, the common consistency point). The first RO read
        // validates nothing.
        //
        // Strategy fast paths (valstrategy.h): the persistent sample_ names a
        // domain-counter value at which the whole RO log was valid; a stable
        // counter — or all-disjoint intervening write blooms — skips the walk.
        // The walk runs AFTER the push: a tracked walk covers the entry just
        // read too, so the re-anchored sample vouches for it (valstrategy.h
        // tail rule), while the passive walk keeps the seed's prefix-only shape
        // (StrategyState::PerReadWalkLength).
        const bool first_ro = ro_.Empty();
        ro_.PushBack(RoEntry{s, &orec, OrecVersionOf(o1)});
        if (!first_ro &&
            !state_.TrySkipRead(&desc_->stats, ro_.Size(), LoggedOrecs()) &&
            !ValidateRoPrefixTracked(StratState::PerReadWalkLength(ro_.Size()))) {
          valid_ = false;
          return 0;
        }
        return value;
      }
    }

    // Current validity (Tx_RW_k_Is_Valid). For pure-RW transactions this is the only
    // check needed: locks pin every location read.
    bool Valid() const { return valid_; }

    // Revalidates the RO set (Tx_RO_k_Is_Valid). For a read-only transaction a final
    // successful call serves in place of commit (§2.2: "Successful validation serves
    // in the place of commit").
    bool ValidateRo() const {
      // No EWMA feedback here (nullptr): the final validate is not a per-read
      // skip opportunity the adaptive engine should learn from.
      return state_.TrySkipRead(nullptr, ro_.Size(), LoggedOrecs()) ||
             ValidateRoPrefixTracked(ro_.Size());
    }

    // Tx_Upgrade_RO_x_To_RW_y: promote the ro_index-th read into the write set by
    // locking its orec at exactly the version observed. Returns false (transaction
    // invalidated) if the location changed or is locked.
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
      Word expected = MakeOrecVersion(e.version);
      if (!e.orec->compare_exchange_strong(expected, MakeOrecLocked(desc_),
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        if (OrecIsLocked(expected) && OrecOwnerOf(expected) == desc_) {
          // Shared-table collision: another of our RW entries owns this orec.
          rw_.PushBack(RwEntry{e.slot, e.orec, kAlreadyOwned});
          return true;
        }
        valid_ = false;
        return false;
      }
      rw_.PushBack(RwEntry{e.slot, e.orec, MakeOrecVersion(e.version)});
      return true;
    }

    // Tx_RW_k_Commit: stores values[i] to the i-th RW location (RW-read order) and
    // releases the locks. Pure-RW transactions need no validation (§2.2 point iii), so
    // this always succeeds; the bool return exists only so fine-grained full-tx
    // adapters can share the interface.
    bool CommitRw(std::initializer_list<Word> values) {
      assert(valid_ && !finished_);
      assert(values.size() == rw_.Size() && "commit arity must match RW access count");
      PublishWriterSummary();  // before the data stores, while every lock is held
      const Word* v = values.begin();
      for (std::size_t i = 0; i < rw_.Size(); ++i) {
        Layout::Data(*rw_[i].slot).store(v[i], std::memory_order_release);
      }
      ReleaseLocksCommitted();
      Finish(/*committed=*/true);
      return true;
    }

    // Tx_RO_x_RW_y_Commit: validates the remaining RO entries, then commits the RW
    // set. Returns false — with all locks released and values untouched — if
    // validation fails; the caller restarts.
    //
    // Writer-summary order: bump-and-publish BEFORE the final RO validation
    // (bump-before-validate, valstrategy.h): of two crossing committers the one
    // that bumps second fails its own-idx skip test and walks into the other's
    // encounter-time locks. A pure-RO mixed commit (empty RW set) holds no locks,
    // publishes nothing, and validates the ordinary way.
    bool CommitMixed(std::initializer_list<Word> values) {
      assert(valid_ && !finished_);
      assert(values.size() == rw_.Size());
      bool ro_ok;
      if (rw_.Empty()) {
        ro_ok = ValidateRo();
      } else {
        unsigned write_stripes = 0;
        const Word own_idx = PublishWriterSummary(&write_stripes);
        // Else the plain conservative walk: a foreign lock fails it, which the
        // crossing-committer argument requires at commit time.
        ro_ok = state_.TrySkipCommit(own_idx, write_stripes, ro_.Size(),
                                     LoggedOrecs()) ||
                ValidateRoPrefix(ro_.Size());
      }
      if (!ro_ok) {
        Abort();
        return false;
      }
      const Word* v = values.begin();
      for (std::size_t i = 0; i < rw_.Size(); ++i) {
        Layout::Data(*rw_[i].slot).store(v[i], std::memory_order_release);
      }
      ReleaseLocksCommitted();
      Finish(/*committed=*/true);
      return true;
    }

    // Tx_RW_k_Abort: releases locks restoring the pre-transaction versions. Also the
    // required cleanup path after any access invalidated the transaction.
    void Abort() {
      // After an overflow unwind the encounter locks were already restored —
      // re-storing the saved words here would clobber whatever other
      // transactions committed into those slots since.
      if (!unwound_) {
        ReleaseLocksAborted();
      }
      // Locks are restored above BEFORE the gate exit: a draining serial
      // transaction must never observe flags at zero while our locks stand.
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
          // Phase-1 backoff + streak watchdog. The seed applied backoff only in
          // the full engines; short transactions retried hot, which is exactly
          // the lock-step livelock shape the two-phase manager exists to break.
          Cm::NoteAbortBackoff(*desc_);
        }
      }
    }

    // Re-arms the record for the caller's `goto restart` loop, releasing any locks
    // still held.
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
      std::atomic<Word>* orec;
      Word old_word;  // pre-lock orec body; kAlreadyOwned for hash-collision repeats
    };
    struct RoEntry {
      Slot* slot;
      std::atomic<Word>* orec;
      Word version;
    };

    // Odd (locked-looking) and never a valid owner pointer: cannot collide with a
    // genuine displaced orec word, which is always an even version.
    static constexpr Word kAlreadyOwned = ~Word{0};

    // The RO log's orecs, as StrategyState's skip calls take them for the lazy
    // signature fold.
    auto LoggedOrecs() const {
      return [this](std::size_t i) { return ro_[i].orec; };
    }

    // Re-arms the strategy state for a fresh attempt (StrategyState: choose +
    // probe tick + anchor drawn BEFORE any read — the skip soundness argument
    // needs the sample no later than the first read). Also the escalation
    // checkpoint: past the (hysteretic) abort-streak threshold this attempt
    // takes the serialization token up front and cannot conflict thereafter.
    void StartAttempt() {
      // Health watchdog attempt-start feed (no-op unless SPECTM_HEALTH):
      // observes foreign serial holds before the escalation decision below,
      // and refreshes the ring-saturation gauge.
      Cm::NoteAttemptStart(*desc_);
      FeedRingGauge<DomainTag, Summary>();
      if (!serial_ && Cm::ShouldEscalate(*desc_)) {
        Gate::AcquireSerial(desc_);
        serial_ = true;
        Cm::NoteEscalated(*desc_);
      }
      state_.StartAttempt(desc_->stats);
    }

    // Restores every displaced orec word recorded in the RW set. Shared by
    // Abort() and the overflow unwind; hash-collision repeats (kAlreadyOwned)
    // are skipped — only the entry that actually displaced a word restores it.
    void ReleaseLocksAborted() {
      for (const RwEntry& e : rw_) {
        if (e.old_word != kAlreadyOwned) {
          e.orec->store(e.old_word, std::memory_order_release);
        }
      }
    }

    // Contract-overflow unwind (§2.2 violations surfaced safely): releases the
    // encounter-time locks, retracts the gate flag, and releases the serial
    // token — the same mandatory order as Abort() — the moment the overflow is
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
      ReleaseLocksAborted();
      ExitGateIfHeld();
      ReleaseSerialIfHeld();
      unwound_ = true;
      valid_ = false;
    }

    // Committer-gate entry, once per attempt, before the FIRST lock CAS.
    // Serial attempts own the token and skip the gate.
    bool EnterGateForFirstLock() {
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

    // Writer-side summary: bump the domain counter — only the stripes this write
    // set touches — and publish the write-set bloom while all orec locks are
    // held, before any data store and before the final commit validation
    // (valstrategy.h ordering). Returns the writer's own commit index (0 when
    // nothing was published) and, via `out_stripes`, the stripe mask it bumped
    // (for the partitioned commit-skip test). A pure-RO commit (empty RW set)
    // releases nothing and must not move the counter.
    Word PublishWriterSummary(unsigned* out_stripes = nullptr) {
      if (rw_.Empty()) {
        return 0;
      }
      WriteSignature<Summary::kHasBloomRing> sig;
      for (const RwEntry& e : rw_) {
        sig.Add(e.orec);
      }
      if (out_stripes != nullptr) {
        *out_stripes = sig.stripes;
      }
      return PublishWriterCommit<Summary, Probe>(desc_, sig);
    }

    // Tracked walk: one pass (orec versions are monotone, so a single matching
    // pass is a valid snapshot) plus the best-effort anchor confirm
    // (StrategyState): the pre-walk sample becomes the new skip anchor only if
    // the counter stayed stable across the walk; otherwise the walk result
    // stands but the anchor is invalidated.
    bool ValidateRoPrefixTracked(std::size_t count) const {
      const typename StratState::Snapshot pre_walk = state_.DrawSnapshot();
      if (!ValidateRoPrefix(count)) {
        return false;
      }
      state_.ConfirmAnchorAfterWalk(pre_walk);
      return true;
    }

    // Validates the first `count` RO entries (the passive per-read walk excludes
    // the freshly sandwiched tail entry). Every RO walk of this engine runs
    // here, so here is where walks are counted.
    bool ValidateRoPrefix(std::size_t count) const {
      if (SPECTM_FAILPOINT(failpoint::Site::kPreValidate)) {
        return false;
      }
      ++Probe::Get().validation_walks;
      for (std::size_t i = 0; i < count; ++i) {
        const RoEntry& e = ro_[i];
        const Word w = e.orec->load(std::memory_order_acquire);
        if (w == MakeOrecVersion(e.version)) {
          continue;
        }
        if (OrecIsLocked(w) && OrecOwnerOf(w) == desc_) {
          continue;  // upgraded by us; the lock pins it
        }
        return false;
      }
      return true;
    }

    void ReleaseLocksCommitted() {
      if (rw_.Empty()) {
        return;  // nothing locked: no orecs to release, no timestamp to draw
      }
      Word wv = 0;
      if constexpr (Clock::kHasGlobalClock) {
        wv = Clock::NextCommitVersion();
      }
      for (const RwEntry& e : rw_) {
        if (e.old_word != kAlreadyOwned) {
          e.orec->store(MakeOrecVersion(Clock::ReleaseVersion(wv, e.old_word)),
                        std::memory_order_release);
        }
      }
    }

    void Finish(bool committed) {
      // Locks were released by the caller; the gate can drop now (and must
      // not before — see Abort()).
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
        desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
        UpdateAbortEwma(desc_->stats, /*aborted=*/true);
        Cm::NoteAbortBackoff(*desc_);
      }
    }

    using StratState = StrategyState<Summary, Probe, kStrategy>;

    TxDesc* desc_;
    InlineVec<RwEntry, kMaxShortWrites> rw_;
    InlineVec<RoEntry, kMaxShortReads> ro_;
    StratState state_;
    bool valid_ = true;
    bool finished_ = false;
    bool unwound_ = false;  // overflow unwind already released the locks
    bool serial_ = false;   // this attempt holds the serialization token
    bool gated_ = false;    // this attempt announced itself as a committer
  };

  // --- Single-operation transactions (Tx_Single_*, Figure 2) -------------------------

  // Linearizable single-word transactional read: orec–data–orec sandwich.
  static Word SingleRead(Slot* s) {
    std::atomic<Word>& orec = Layout::OrecOf(*s);
    while (true) {
      const Word o1 = orec.load(std::memory_order_acquire);
      if (OrecIsLocked(o1)) {
        SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
        CpuRelax();
        continue;
      }
      const Word value = Layout::Data(*s).load(std::memory_order_acquire);
      const Word o2 = orec.load(std::memory_order_acquire);
      if (o1 == o2) {
        return value;
      }
    }
  }

  // Linearizable single-word transactional write. A committer like any other:
  // it waits out a serial transaction at the gate (it has no abort/retry loop
  // to fail fast into), bounded by the serial transaction's solo execution.
  static void SingleWrite(Slot* s, Word value) {
    std::atomic<Word>& orec = Layout::OrecOf(*s);
    TxDesc* self = &DescOf<DomainTag>();
    Gate::EnterCommitterWait(self);
    // Unwind guards (src/tm/txguard.h): the publication sequence below hosts
    // pause-style fail points that can throw with the orec locked and the gate
    // flag announced. Reverse destruction order enforces the mandatory release
    // sequence — orec restored first, gate flag retracted second. The gate
    // guard also serves the normal return (never dismissed).
    TxUnwindGuard gate_guard([self] { Gate::ExitCommitter(self); });
    const Word old_word = AcquireOrec(&orec, self);
    TxUnwindGuard lock_guard([&orec, old_word] {
      orec.store(old_word, std::memory_order_release);
    });
    PublishSingle(&orec, self);  // locked, before the data store
    Layout::Data(*s).store(value, std::memory_order_release);
    Word wv = 0;
    if constexpr (Clock::kHasGlobalClock) {
      wv = Clock::NextCommitVersion();
    }
    orec.store(MakeOrecVersion(Clock::ReleaseVersion(wv, old_word)),
               std::memory_order_release);
    lock_guard.Dismiss();  // the version store above was the lock release
  }

  // Linearizable single-word transactional compare-and-swap. Returns the observed
  // value; the CAS succeeded iff the return value equals `expected`.
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    std::atomic<Word>& orec = Layout::OrecOf(*s);
    TxDesc* self = &DescOf<DomainTag>();
    Gate::EnterCommitterWait(self);
    // Same guard pair as SingleWrite; the compare-mismatch path returns
    // through both guards, which restore the unchanged orec word (no update:
    // version unchanged) and retract the gate flag in the mandatory order.
    TxUnwindGuard gate_guard([self] { Gate::ExitCommitter(self); });
    const Word old_word = AcquireOrec(&orec, self);
    TxUnwindGuard lock_guard([&orec, old_word] {
      orec.store(old_word, std::memory_order_release);
    });
    const Word observed = Layout::Data(*s).load(std::memory_order_acquire);
    if (observed != expected) {
      return observed;
    }
    PublishSingle(&orec, self);  // locked, before the data store
    Layout::Data(*s).store(desired, std::memory_order_release);
    Word wv = 0;
    if constexpr (Clock::kHasGlobalClock) {
      wv = Clock::NextCommitVersion();
    }
    orec.store(MakeOrecVersion(Clock::ReleaseVersion(wv, old_word)),
               std::memory_order_release);
    lock_guard.Dismiss();  // the version store above was the lock release
    return observed;
  }

  static TxStats& StatsForCurrentThread() { return DescOf<DomainTag>().stats; }

 private:
  // Single-op writer summary: a one-location write set.
  static void PublishSingle(const std::atomic<Word>* orec, TxDesc* self) {
    WriteSignature<Summary::kHasBloomRing> sig;
    sig.Add(orec);
    PublishWriterCommit<Summary, Probe>(self, sig);
  }

  // Spin-acquires an orec. Safe only for single-op transactions, which hold no other
  // locks (no deadlock) — multi-location transactions must fail fast instead.
  static Word AcquireOrec(std::atomic<Word>* orec, TxDesc* self) {
    while (true) {
      SPECTM_FAILPOINT_PAUSE(failpoint::Site::kLockAcquire);
      Word w = orec->load(std::memory_order_relaxed);
      if (!OrecIsLocked(w) &&
          orec->compare_exchange_weak(w, MakeOrecLocked(self), std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return w;
      }
      SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
      CpuRelax();
    }
  }
};

}  // namespace spectm

#endif  // SPECTM_TM_SHORT_TM_H_
