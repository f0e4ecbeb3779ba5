// General-purpose transactions over the `val` layout ("val-full").
//
// Needed for two reasons: (1) the paper's Figure 5 measures it (its per-read read-set
// revalidation "dominates execution time"), and (2) the val-short data structures use
// it as the fall-back for operations that exceed short-transaction limits — e.g.
// skip-list towers above level 2 (§3) — so it must share the 1-bit-lock protocol with
// ValShortTm.
//
// Design: value-based read log (there are no versions to record), hash write set,
// deferred updates, commit-time locking. Opacity is preserved by revalidating the
// whole value log after every read under the ValidationPolicy's commit-counter
// stability rule (NOrec-style); with NonReuseValidation the counter check vanishes
// and soundness rests on the paper's special cases, exactly as in Figure 5's setup
// ("The val-full RO transactions assume the non-re-use property from Section 2.4").
//
// The read log is SoA (src/common/soa_log.h; the expected-word lane holds the
// values read) and the revalidation walk runs through the batch kernel
// (validate_batch.h) — this engine walks more than any other (per READ under
// counter policies), so it gains the most from gather-compare.
//
// The per-read revalidation is strategy-driven (valstrategy.h StrategyState),
// by the family's kStrategy: kCounterSkip reproduces the classic NOrec skip;
// kBloom adds the write-bloom pre-filter and kStripe the per-stripe counters
// (both need a kHasBloomRing policy, kStripe a kPartitioned one); kAdaptive
// re-picks per attempt from the descriptor's abort-rate EWMA. kIncremental,
// the one strategy a non-precise policy takes, always walks.
// Under a kMvcc policy (ValSnap) reads run at a pinned snapshot through the
// version chains until the first Write() promotes the attempt (and drops its
// pin), and commits publish the displaced values a pinned snapshot can still
// need (mvcc::SnapshotSession, val_word.h).
#ifndef SPECTM_TM_VAL_FULL_H_
#define SPECTM_TM_VAL_FULL_H_

#include <atomic>
#include <cassert>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/tm/config.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/val_short.h"
#include "src/tm/val_word.h"
#include "src/tm/validate_batch.h"
#include "src/tm/valstrategy.h"

namespace spectm {

template <typename ValidationT, ValStrategy kStrategy>
class ValFullTm {
 public:
  using Validation = ValidationT;
  using Summary = Validation;
  using Slot = ValSlotT<Validation::kMvcc>;
  using Probe = ValProbe<ValDomainTag>;
  using Cm = SerialCm<ValDomainTag>;
  using Gate = SerialGate<ValDomainTag>;

  class Tx {
   public:
    Tx() = default;
    Tx(const Tx&) = delete;
    Tx& operator=(const Tx&) = delete;

    // Defensive unwind for manual retry loops that let an exception escape
    // between Start() and Commit(): value locks are only ever held inside
    // Commit() (which unwinds them internally), so here only the serial token
    // and the attempt accounting can be outstanding.
    ~Tx() {
      if (desc_ != nullptr && active_) {
        AbortForUnwind();
      }
    }

    void Start() {
      desc_ = &DescOf<ValDomainTag>();
      desc_->val_read_log.Clear();
      desc_->wset.Clear();
      desc_->val_lock_log.clear();
      active_ = true;
      user_abort_ = false;
      // Health watchdog attempt-start feed (no-op unless SPECTM_HEALTH):
      // observes foreign serial holds before the escalation decision below,
      // and refreshes the ring-saturation gauge.
      Cm::NoteAttemptStart(*desc_);
      FeedRingGauge<ValDomainTag, Validation>();
      // Serial escalation (src/tm/serial.h): token before the first read, so
      // the attempt observes a committer-quiescent domain and cannot abort.
      // The serial commit below still bumps/publishes the writer summary —
      // concurrent READERS keep validating against it (see VALIDATION.md
      // "Serial-irrevocable interop").
      if (!serial_ && Cm::ShouldEscalate(*desc_)) {
        Gate::AcquireSerial(desc_);
        serial_ = true;
        Cm::NoteEscalated(*desc_);
      }
      state_.StartAttempt(desc_->stats);
      snap_.Pin();
    }

    Word Read(Slot* s) {
      if (!active_) {
        return 0;
      }
      if (snap_.in_snapshot()) {  // the wset is empty until promotion
        Word w;
        if (!snap_.Read(s, desc_->val_read_log.Size(), state_,
                        [this] { return ValidateReads(); }, &w)) {
          return Fail();
        }
        desc_->val_read_log.PushBack(&s->word, w);
        return w;
      }
      Word buffered;
      if (desc_->wset.Lookup(s, &buffered)) {  // bloom-filtered: miss is AND+TEST
        return buffered;
      }
      int spins = 0;
      Word w;
      while (true) {
        w = s->word.load(std::memory_order_acquire);
        if (!ValIsLocked(w)) {
          break;
        }
        // Commit-time locking: owner is mid-commit; wait briefly, then concede.
        if (++spins > kReadLockSpin) {
          return Fail();
        }
        CpuRelax();
      }
      desc_->val_read_log.PushBack(&s->word, w);
      // Per-read revalidation — the val-full cost highlighted in Figure 5 — with
      // strategy-dependent fast paths:
      //   * a one-entry log is trivially consistent (a single location);
      //   * under a precise commit counter (val_word.h), an unchanged counter since
      //     the log was last fully valid proves no writer released a value in
      //     between (NOrec's observation), so the O(read-set) re-check is skipped.
      //     The anchor always names a counter value at which the whole log was
      //     valid, so the entry just appended joins a still-valid snapshot;
      //   * under kBloom, a moved counter still skips the walk when every
      //     intervening commit's write bloom is disjoint from this read set
      //     (the anchor then advances to the current counter). The read
      //     signature is folded from the log only then (StrategyState).
      if (desc_->val_read_log.Size() > 1 &&
          !state_.TrySkipRead(&desc_->stats, desc_->val_read_log.Size(),
                              LoggedWords()) &&
          !ValidateReads()) {
        return Fail();
      }
      return w;
    }

    void Write(Slot* s, Word value) {
      if (!active_) {
        return;
      }
      assert((value & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
      // Promotion (a snapshot attempt's first write): the snapshot values must
      // hold at the current clock before this attempt may buffer writes.
      if (!snap_.Promote(desc_->val_read_log.Size(), state_, LoggedWords(),
                         [this] { return ValidateReads(); })) {
        Fail();
        return;
      }
      desc_->wset.Put(s, value);
    }

    void AbortTx() { user_abort_ = true; }

    bool ok() const { return active_; }

    bool Commit() {
      if (!active_) {
        OnAbort();
        return false;
      }
      active_ = false;
      if (user_abort_) {
        snap_.Unpin();
        desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
        UpdateAbortEwma(desc_->stats, /*aborted=*/true);
        ReleaseSerialIfHeld();
        return false;
      }
      if (desc_->wset.Empty()) {
        OnCommit();
        return true;  // reads were kept consistent incrementally
      }
      // Committer gate: announce before the first lock CAS; fail fast while a
      // serial transaction holds the token (read-only transactions above never
      // get here and keep running).
      if (!serial_) {
        if (!Gate::TryEnterCommitter(desc_)) {
          OnAbort();
          return false;
        }
        gated_ = true;
      }
      // Unwind guard over the locked region: every early conflict return AND
      // any exception erupting between the first lock CAS and the end of
      // validation (fail-point throw injection — nothing else on this path
      // throws) runs one release sequence, in OnAbort's mandatory order:
      // displaced values restored, then the gate flag retracted, then the
      // serial token released (docs/VALIDATION.md §8).
      TxUnwindGuard cleanup([this] {
        ReleaseLocks();
        OnAbort();
      });
      WriteSignature<Validation::kHasBloomRing> write_sig;
      for (const WriteSet::Entry& e : desc_->wset) {
        auto* word = &static_cast<Slot*>(e.addr)->word;
        write_sig.Add(word);
        if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
          return false;
        }
        Word w = word->load(std::memory_order_relaxed);
        while (true) {
          if (ValIsLocked(w)) {
            // Never wait while holding locks (conservative deadlock avoidance).
            return false;
          }
          if (word->compare_exchange_weak(w, MakeValLocked(desc_),
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
            desc_->val_lock_log.push_back(ValLockLogEntry{word, w});
            break;
          }
        }
      }
      // Writer bump-and-publish BEFORE the commit-time validation and the stores,
      // while every lock is held (bump-before-validate, valstrategy.h): of two
      // crossing committers the one that bumps second fails its skip test below
      // and walks into the other's locks. Under a partitioned policy only the
      // counter stripes this write set touches are bumped.
      const Word own_idx = PublishWriterCommit<Validation, Probe>(desc_, write_sig);
      // Commit-time skip (StrategyState): own bump index == anchor + 1 (or, for
      // policies without a single index, a fresh sample at anchor + 1) proves no
      // foreign writer released a value since the log was last known valid (our
      // own commit locks pin the rest); under kStripe the same test runs
      // per READ-occupied stripe with the own-bump contribution subtracted, and
      // under kBloom/kStripe foreign commits before our bump may intervene if
      // their write blooms miss our read bloom.
      if (!state_.TrySkipCommit(own_idx, write_sig.stripes,
                                desc_->val_read_log.Size(), LoggedWords()) &&
          !ValidateReads()) {
        return false;
      }
      // Version publication runs after validation (the commit is decided)
      // but before the guard dismisses: the kVersionPublish pause inside
      // can throw, and the unwind must tombstone the half-published heads
      // while we still hold every lock.
      Session::PublishVersions(own_idx, desc_->val_lock_log, SlotOf);
      cleanup.Dismiss();  // past the last throwing/failing operation: commit
      for (const WriteSet::Entry& e : desc_->wset) {
        // The value store is also the lock release: one atomic write (§2.4).
        static_cast<Slot*>(e.addr)->word.store(e.value, std::memory_order_release);
      }
      OnCommit();
      return true;
    }

    // Unwind entry point for the retry loop (and the destructor): finishes an
    // attempt that an exception tore out of the BODY. Value locks are only
    // ever held inside Commit(), which unwinds them internally, so here only
    // the serial token and the attempt accounting can be outstanding.
    // Idempotent: after Commit's internal guard already finished the attempt,
    // this is a no-op. No backoff — like a user abort, a cancel is not
    // contention.
    void AbortForUnwind() {
      if (!active_) {
        return;
      }
      active_ = false;
      snap_.Unpin();
      ReleaseSerialIfHeld();
      desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/true);
    }

   private:
    using StratState = StrategyState<Validation, Probe, kStrategy>;
    using Session = mvcc::SnapshotSession<Validation, Probe>;

    Word Fail() {
      active_ = false;
      return 0;
    }

    // The read log's metadata words (the SoA pointer lane), as StrategyState's
    // skip calls take them for the lazy signature fold.
    auto LoggedWords() const {
      return [ptrs = desc_->val_read_log.Ptrs()](std::size_t i) {
        return ptrs[i];
      };
    }

    // The slot behind a lock-log entry: SnapSlot (like ValSlot) is
    // standard-layout with `word` first (static_assert in val_word.h), so the
    // logged word pointer is pointer-interconvertible with its slot.
    static Slot* SlotOf(const ValLockLogEntry& l) {
      return reinterpret_cast<Slot*>(l.word);
    }

    // Value-based read-log validation under commit-counter stability, batched:
    // each pass runs the whole SoA log through the gather-compare kernel; entries
    // locked by our own commit are compared against the displaced value they
    // held. Starts from a FRESH counter sample (the old anchor is known-stale
    // whenever this runs — the skip already failed, or our own commit bump moved
    // the counter — so looping on it would guarantee a wasted second walk), and
    // re-anchors once a sample is stable across a full pass.
    bool ValidateReads() {
      if (SPECTM_FAILPOINT(failpoint::Site::kPreValidate)) {
        return false;
      }
      ++Probe::Get().validation_walks;
      typename StratState::Snapshot snap = state_.DrawSnapshot();
      typename Probe::Counters& probe = Probe::Get();
      while (true) {
        const bool pass = ValidateEqualSpan(
            desc_->val_read_log.Ptrs(), desc_->val_read_log.Words(),
            desc_->val_read_log.Size(), probe.simd_batches, probe.scalar_checks,
            [this](std::size_t i, Word observed) {
              return ValIsLocked(observed) && ValOwnerOf(observed) == desc_ &&
                     FindDisplacedValue(desc_->val_read_log.PtrAt(i)) ==
                         desc_->val_read_log.WordAt(i);
            });
        if (!pass) {
          return false;
        }
        if (Validation::Stable(snap.global)) {
          state_.ReanchorStable(snap);
          return true;
        }
        snap = state_.DrawSnapshot();
      }
    }

    Word FindDisplacedValue(const std::atomic<Word>* word) const {
      for (const ValLockLogEntry& l : desc_->val_lock_log) {
        if (l.word == word) {
          return l.old_value;
        }
      }
      assert(false && "self-locked word missing from lock log");
      return ~Word{0};
    }

    // Restores every displaced value; the store is also the lock release, so
    // a snapshot slot's half-published head (a kVersionPublish throw) is
    // tombstoned first, while the lock still stands.
    void ReleaseLocks() {
      for (const ValLockLogEntry& l : desc_->val_lock_log) {
        Session::TombstoneUnstampedHead(SlotOf(l));
        l.word->store(l.old_value, std::memory_order_release);
      }
      desc_->val_lock_log.clear();
    }

    // Gate held through the releasing stores (the value store IS the lock
    // release here), so a draining serial transaction never sees our locks.
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

    void OnCommit() {
      snap_.Unpin();
      ExitGateIfHeld();
      desc_->stats.commits.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/false);
      if (serial_) {
        Gate::ReleaseSerial(desc_);
        serial_ = false;
        Cm::OnSerialCommit(*desc_);
      } else {
        Cm::OnOptimisticCommit(*desc_);
      }
    }

    void OnAbort() {
      snap_.Unpin();
      ExitGateIfHeld();
      ReleaseSerialIfHeld();  // fail-point aborts can hit a serial attempt
      desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/true);
      Cm::NoteAbortBackoff(*desc_);
    }

    TxDesc* desc_ = nullptr;
    StratState state_;
    bool active_ = false;
    bool user_abort_ = false;
    bool serial_ = false;  // this attempt holds the serialization token
    bool gated_ = false;   // this attempt announced itself as a committer
    Session snap_;         // empty unless the policy is kMvcc
  };

  // Convenience retry wrapper: runs `body(tx)` until it commits. Exception
  // contract (src/tm/txguard.h): a TxCancel thrown anywhere inside the body
  // aborts the attempt through the ordinary unwind path, then either retries
  // (Policy::kRetry) or returns false with nothing published (Policy::kAbort).
  // Any OTHER exception aborts the attempt the same way and rethrows, with
  // every displaced value restored and the serial token released before the
  // exception leaves this frame. Returns true iff a body execution committed.
  template <typename Body>
  static bool Atomically(Body&& body) {
    Tx tx;
    while (true) {
      try {
        tx.Start();
        body(tx);
        if (tx.Commit()) {
          return true;
        }
      } catch (const TxCancel& cancel) {
        tx.AbortForUnwind();
        if (cancel.policy == TxCancel::Policy::kAbort) {
          return false;
        }
      } catch (...) {
        tx.AbortForUnwind();
        throw;
      }
    }
  }

  static TxStats& StatsForCurrentThread() { return DescOf<ValDomainTag>().stats; }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_FULL_H_
