// BaseTM: the general-purpose word-based STM (§2.1, §4.1).
//
// Algorithm: TL2 (Dice, Shalev, Shavit) with
//   * timebase extension (Riegel, Fetzer, Felber) — a read that observes a version
//     newer than the transaction's snapshot revalidates the read set against a fresh
//     clock sample instead of aborting;
//   * the hash-based write set of Spear et al. for O(1) read-after-write checks
//     (with a descriptor-resident bloom so the common MISS costs one AND+TEST);
//   * commit-time locking, invisible reads, deferred updates;
//   * opacity: with a global clock via rv-sampling + extension, with local per-orec
//     clocks via full read-set revalidation after every read (§4.1);
//   * contention management: self-abort plus randomized linear backoff (SwissTM's
//     first phase), driven by the caller's retry loop; past an abort streak of
//     kSerialEscalationStreak the next attempt runs serial-irrevocable behind the
//     domain's SerialGate (src/tm/serial.h) — it excludes every other committer
//     (read-only transactions keep running) and therefore cannot conflict-abort,
//     bounding the streak.
//
// Read-set layout: the log is SoA (src/common/soa_log.h) storing (orec, expected
// unlocked orec body) lanes, and every validation walk runs through the batch
// kernel (validate_batch.h) — AVX2 gather-compare four entries per iteration
// where available, scalar otherwise, identical abort decisions either way.
//
// Usage pattern (mirrors the paper's §2.1 example):
//
//   typename Tm::Tx tx;
//   do {
//     tx.Start();
//     Word v = tx.Read(&slot);
//     if (!tx.ok()) continue;            // conflict: Read returned 0, tx will retry
//     tx.Write(&slot, v + EncodeInt(1));
//   } while (!tx.Commit());
//
// Read() returns 0 and poisons the transaction on conflict; callers must check ok()
// before acting on values in ways that could fault (e.g. dereferencing). Commit()
// returns false on conflict or user abort and performs the backoff, so the retry loop
// needs no extra contention handling.
#ifndef SPECTM_TM_FULL_TM_H_
#define SPECTM_TM_FULL_TM_H_

#include <atomic>
#include <cassert>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/tm/clock.h"
#include "src/tm/layout.h"
#include "src/tm/orec.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/validate_batch.h"
#include "src/tm/valstrategy.h"

namespace spectm {

// kStrategy (valstrategy.h) is the validation strategy the family's readers
// run. Any but kIncremental gives the domain a WriterSummary (commit counter +
// write-bloom ring): writers bump it while holding their commit locks, and
// local-clock readers use it to skip the otherwise per-read O(read-set)
// revalidation (§4.1's "-l" cost). kIncremental is the zero-overhead default:
// its Summary is the null NonReuseValidation, so the strategy and publish
// calls below compile to nothing — the seed's behavior.
template <typename LayoutT, typename ClockT, typename DomainTag,
          ValStrategy kStrategy = ValStrategy::kIncremental>
class FullTm {
 public:
  using Layout = LayoutT;
  using Clock = ClockT;
  using Slot = typename Layout::Slot;
  using Summary = OrecSummary<DomainTag, kStrategy>;
  using Probe = ValProbe<DomainTag>;
  using Cm = SerialCm<DomainTag>;
  using Gate = SerialGate<DomainTag>;
  // Reader-side strategy only pays off where per-read revalidation exists: the
  // local-clock families. Global-clock readers keep rv-sampling + extension.
  static_assert(kStrategy == ValStrategy::kIncremental || !Clock::kHasGlobalClock,
                "a global-clock family validates by rv-sampling and extension; "
                "a writer summary would have no per-read walk to skip");

  class Tx {
   public:
    Tx() = default;
    Tx(const Tx&) = delete;
    Tx& operator=(const Tx&) = delete;

    // Defensive unwind for manual retry loops that let an exception escape
    // between Start() and Commit(): no commit lock can be outstanding here
    // (Commit never escapes while holding any — its internal guard sees to
    // that), but the serial token and the attempt accounting can be.
    ~Tx() {
      if (desc_ != nullptr && active_) {
        AbortForUnwind();
      }
    }

    void Start() {
      desc_ = &DescOf<DomainTag>();
      desc_->read_log.Clear();
      desc_->wset.Clear();
      desc_->lock_log.clear();
      active_ = true;
      user_abort_ = false;
      // Health watchdog attempt-start feed (no-op unless SPECTM_HEALTH):
      // observes foreign serial holds before the escalation decision below,
      // and refreshes the ring-saturation gauge.
      Cm::NoteAttemptStart(*desc_);
      FeedRingGauge<DomainTag, Summary>();
      // Two-phase contention manager, phase 2: past the (hysteretic) streak
      // threshold this attempt runs serial-irrevocable. Token first, reads
      // after — once AcquireSerial returns, no other committer is in flight,
      // so nothing this attempt reads can be invalidated before Commit.
      if (!serial_ && Cm::ShouldEscalate(*desc_)) {
        Gate::AcquireSerial(desc_);
        serial_ = true;
        Cm::NoteEscalated(*desc_);
      }
      if constexpr (Clock::kHasGlobalClock) {
        rv_ = Clock::Sample();
      }
      // Strategy choice + probe tick + anchor, shared across engines
      // (StrategyState): the anchor is drawn before the first read, so the
      // skip argument's "every entry admitted no earlier than the sample it
      // is judged against" holds for the whole attempt.
      state_.StartAttempt(desc_->stats);
    }

    // Transactional read. Returns the buffered value for locations this transaction
    // has already written. On conflict returns 0 with ok() == false.
    Word Read(Slot* s) {
      if (!active_) {
        return 0;
      }
      Word buffered;
      if (desc_->wset.Lookup(s, &buffered)) {  // bloom-filtered: miss is AND+TEST
        return buffered;
      }
      std::atomic<Word>& orec = Layout::OrecOf(*s);
      int spins = 0;
      while (true) {
        const Word o1 = orec.load(std::memory_order_acquire);
        if (OrecIsLocked(o1)) {
          // Commit-time locking: the owner is mid-commit; wait briefly, then concede.
          if (++spins <= kReadLockSpin) {
            CpuRelax();
            continue;
          }
          return Fail();
        }
        const Word value = Layout::Data(*s).load(std::memory_order_acquire);
        // Widen the data-load -> version-recheck window (and optionally force
        // a conflict) under fault injection; no-op in production builds.
        SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostReadPreSandwich);
        const Word o2 = orec.load(std::memory_order_acquire);
        if (o1 != o2) {
          continue;  // raced with a commit; re-sandwich
        }
        if (SPECTM_FAILPOINT(failpoint::Site::kPostReadPreSandwich)) {
          return Fail();
        }
        // o1 is the unlocked orec body — exactly the word validation expects to
        // re-observe, so it goes into the log's expected-word lane verbatim.
        if constexpr (Clock::kHasGlobalClock) {
          if (OrecVersionOf(o1) > rv_) {
            // The clock moved past rv; let the policy refresh its cached sample
            // so the extension below reloads the real clock.
            Clock::OnStaleRead(OrecVersionOf(o1));
            // Timebase extension: advance the snapshot if the read set still holds.
            if (!Extend()) {
              return Fail();
            }
            continue;
          }
          desc_->read_log.PushBack(&orec, o1);
          return value;
        } else {
          desc_->read_log.PushBack(&orec, o1);
          // No snapshot number to compare against: preserve opacity by revalidating
          // the read set after every read (§4.1, the "-l" cost). Fast path: the
          // entry just appended was read through an orec-data-orec sandwich, so it
          // is consistent as of its own read instant; only the EARLIER entries need
          // re-checking. Orec versions advance monotonically on every committed
          // update, so an earlier entry whose version matches both at its original
          // read and now was unchanged for the whole interval in between — including
          // the new entry's read instant, which therefore serves as the single
          // consistency point for the full set. A first read validates nothing.
          //
          // Strategy fast paths (valstrategy.h): a stable domain commit counter —
          // or all-disjoint intervening write blooms — proves the earlier entries
          // unchanged without walking them. A walk that re-anchors the sample
          // must cover the FULL log, tail included (valstrategy.h tail rule);
          // PerReadWalkLength says how much of it this family's walk covers.
          const std::size_t logged = desc_->read_log.Size();
          if (logged > 1 &&
              !state_.TrySkipRead(&desc_->stats, logged, LoggedOrecs()) &&
              !ValidatePrefixTracked(StratState::PerReadWalkLength(logged))) {
            return Fail();
          }
          return value;
        }
      }
    }

    // Deferred update: buffered in the write set, flushed on commit.
    void Write(Slot* s, Word value) {
      if (!active_) {
        return;
      }
      desc_->wset.Put(s, value);
    }

    // Programmatic abort (e.g. the skip list's "window changed" bail-out, Fig. 4).
    // The transaction still terminates through Commit(), which will return false
    // without publishing anything; no backoff is applied for user aborts.
    void AbortTx() { user_abort_ = true; }

    bool ok() const { return active_; }

    // Attempts to commit. On success returns true. On conflict (or if the transaction
    // was already poisoned) applies contention-manager backoff and returns false; on
    // user abort returns false immediately.
    bool Commit() {
      if (!active_) {
        OnAbort();
        return false;
      }
      active_ = false;
      if (user_abort_) {
        desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
        UpdateAbortEwma(desc_->stats, /*aborted=*/true);
        ReleaseSerialIfHeld();  // user abort must not wedge the domain
        return false;
      }
      if (desc_->wset.Empty()) {
        // Read-only: reads were kept consistent throughout (rv/extension or
        // incremental validation), so there is nothing left to check. Readers
        // never enter the committer gate — this is the path that keeps running
        // concurrently with a serial transaction.
        OnCommit();
        return true;
      }
      // Committer gate: announce before the first lock CAS so a serial owner
      // can drain us, and fail fast if the token is held (retry via backoff;
      // bounded by the serial transaction's solo execution). A serial attempt
      // holds the token instead and skips the gate.
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
      // locks restored, then the gate flag retracted, then the serial token
      // released (docs/VALIDATION.md §8).
      TxUnwindGuard cleanup([this] {
        ReleaseLocks();
        OnAbort();
      });
      if (!LockWriteSet()) {
        return false;
      }
      Word wv = 0;
      bool skip_validation = false;
      if constexpr (Clock::kHasGlobalClock) {
        const CommitStamp stamp = Clock::NextCommitStamp();
        wv = stamp.wv;
        // TL2 optimization: if no other transaction committed since our snapshot,
        // the read set cannot have changed. Requires a UNIQUE stamp — a GV4-adopted
        // timestamp is shared with a racing committer whose writes may overlap our
        // read set, so adopters always validate.
        skip_validation = stamp.unique && wv == rv_ + 1;
      }
      // Writer summary: bump-and-publish while every commit lock is held, BEFORE
      // the commit-time validation below and before any data store or orec
      // release. Bump-before-validate is what lets the skip paths stay sound
      // between two crossing committers (valstrategy.h): whichever bumps second
      // fails its own skip test and walks into the first one's locks. The
      // stripe mask shards the bump: only the counter stripes this write set
      // touches move, so disjoint-stripe readers keep their anchors.
      WriteSignature<Summary::kHasBloomRing> write_sig;
      for (const LockLogEntry& l : desc_->lock_log) {
        write_sig.Add(l.orec);
      }
      const Word own_idx = PublishWriterCommit<Summary, Probe>(desc_, write_sig);
      // Commit-time skip (StrategyState): own_idx == sample + 1 proves no
      // foreign commit bumped since the log was last known valid (writers that
      // bump after us validate after our locks are visible and detect us
      // instead); under kStripe the same holds one stripe at a time, and
      // under kBloom/kStripe foreign commits in (sample, own_idx) may
      // intervene as long as their write blooms miss our read bloom. Our own
      // commit locks pin the write set regardless. The commit-time walk is the
      // plain conservative one: a foreign lock on a read-log entry fails it,
      // which the crossing-committer argument needs.
      if (!skip_validation &&
          !state_.TrySkipCommit(own_idx, write_sig.stripes,
                                desc_->read_log.Size(), LoggedOrecs()) &&
          !ValidateReadLogPrefix(desc_->read_log.Size())) {
        return false;
      }
      cleanup.Dismiss();  // past the last throwing/failing operation: commit
      for (const WriteSet::Entry& e : desc_->wset) {
        Layout::Data(*static_cast<Slot*>(e.addr)).store(e.value, std::memory_order_release);
      }
      for (const LockLogEntry& l : desc_->lock_log) {
        l.orec->store(MakeOrecVersion(Clock::ReleaseVersion(wv, l.old_word)),
                      std::memory_order_release);
      }
      OnCommit();
      return true;
    }

    // Unwind entry point for the retry loop (and the destructor): finishes an
    // attempt that an exception tore out of the BODY. Locks are only ever held
    // inside Commit(), which unwinds them internally, so here only the serial
    // token and the attempt accounting can be outstanding. Idempotent: after
    // Commit's internal guard already finished the attempt, this is a no-op.
    // No backoff — like a user abort, a cancel is not contention.
    void AbortForUnwind() {
      if (!active_) {
        return;
      }
      active_ = false;
      ReleaseSerialIfHeld();
      desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/true);
    }

   private:
    using StratState = StrategyState<Summary, Probe, kStrategy>;

    Word Fail() {
      active_ = false;
      conflicted_ = true;
      return 0;
    }

    // The read log's orecs (the SoA pointer lane), as StrategyState's skip
    // calls take them for the lazy signature fold.
    auto LoggedOrecs() const {
      return [ptrs = desc_->read_log.Ptrs()](std::size_t i) { return ptrs[i]; };
    }

    // Tracked walk: one pass (orec versions are monotone, so a single matching
    // pass is a valid snapshot — no NOrec retry loop needed) plus a best-effort
    // anchor: the snapshot (global sample + stripe vector) taken before the walk
    // becomes the new skip anchor only if the global counter is still stable
    // after it (StrategyState's confirm rule).
    bool ValidatePrefixTracked(std::size_t count) {
      const typename StratState::Snapshot pre_walk = state_.DrawSnapshot();
      if (!ValidateReadLogPrefix(count)) {
        return false;
      }
      state_.ConfirmAnchorAfterWalk(pre_walk);
      return true;
    }

    // Validates the first `count` read-log entries (the per-read fast path excludes
    // the freshly sandwiched tail entry) through the batch kernel: gather-compare
    // over the SoA lanes where SIMD is enabled, scalar otherwise. The expected-word
    // lane holds unlocked orec bodies, so a mismatch is either a real conflict or
    // an orec this transaction itself locked at commit time — tolerated iff the
    // displaced body still matches. Every read-set walk of this engine (per
    // read, extension, commit) runs here, so here is where walks are counted.
    bool ValidateReadLogPrefix(std::size_t count) const {
      // Forced failure here exercises every abort edge that follows a walk —
      // including the post-publish one (summary bumped, then abort), which the
      // soundness argument claims is conservative-but-safe.
      if (SPECTM_FAILPOINT(failpoint::Site::kPreValidate)) {
        return false;
      }
      typename Probe::Counters& probe = Probe::Get();
      ++probe.validation_walks;
      return ValidateEqualSpan(
          desc_->read_log.Ptrs(), desc_->read_log.Words(), count,
          probe.simd_batches, probe.scalar_checks,
          [this](std::size_t i, Word observed) {
            return OrecIsLocked(observed) && OrecOwnerOf(observed) == desc_ &&
                   FindLockedOldWord(desc_->read_log.PtrAt(i)) ==
                       desc_->read_log.WordAt(i);
          });
    }

    Word FindLockedOldWord(const std::atomic<Word>* orec) const {
      for (const LockLogEntry& l : desc_->lock_log) {
        if (l.orec == orec) {
          return l.old_word;
        }
      }
      assert(false && "self-locked orec missing from lock log");
      return 0;
    }

    // Timebase extension (global clock only): sample a fresh timestamp, prove the
    // read set is still intact, and adopt the new snapshot.
    bool Extend() {
      const Word t = Clock::Sample();
      if (!ValidateReadLogPrefix(desc_->read_log.Size())) {
        return false;
      }
      rv_ = t;
      return true;
    }

    bool LockWriteSet() {
      for (const WriteSet::Entry& e : desc_->wset) {
        if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
          return false;  // partial-lock abort: ReleaseLocks restores the prefix
        }
        std::atomic<Word>& orec = Layout::OrecOf(*static_cast<Slot*>(e.addr));
        Word w = orec.load(std::memory_order_relaxed);
        while (true) {
          if (OrecIsLocked(w)) {
            if (OrecOwnerOf(w) == desc_) {
              break;  // two slots hashed to one orec; already ours
            }
            return false;  // deadlock avoidance: never wait while holding locks
          }
          if (orec.compare_exchange_weak(w, MakeOrecLocked(desc_),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
            desc_->lock_log.push_back(LockLogEntry{&orec, w});
            break;
          }
        }
      }
      return true;
    }

    void ReleaseLocks() {
      for (const LockLogEntry& l : desc_->lock_log) {
        l.orec->store(l.old_word, std::memory_order_release);
      }
      desc_->lock_log.clear();
    }

    // The gate is held through the releasing stores: a serial transaction must
    // not see flags drained while our commit locks are still planted, or its
    // own (fail-fast) lock acquisition could hit them and abort — the one
    // thing serial mode promises cannot happen.
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
      ExitGateIfHeld();
      // A serial attempt cannot conflict-abort, but a forced (fail-point)
      // abort can land here; the token MUST go back either way.
      ReleaseSerialIfHeld();
      desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/true);
      Cm::NoteAbortBackoff(*desc_);
    }

    TxDesc* desc_ = nullptr;
    Word rv_ = 0;
    StratState state_;
    bool active_ = false;
    bool conflicted_ = false;
    bool user_abort_ = false;
    bool serial_ = false;  // this attempt holds the serialization token
    bool gated_ = false;   // this attempt announced itself as a committer
  };

  // Convenience retry wrapper: runs `body(tx)` until it commits. The body must
  // tolerate re-execution and check tx.ok() before dereferencing read results.
  //
  // Exception contract (src/tm/txguard.h): a TxCancel thrown anywhere inside
  // the body aborts the attempt through the ordinary unwind path, then either
  // retries (Policy::kRetry) or returns false with nothing published
  // (Policy::kAbort). Any OTHER exception — a foreign throw from user code, or
  // an injected fault erupting inside Commit itself — aborts the attempt the
  // same way and rethrows, with every lock restored and the serial token
  // released before the exception leaves this frame. Returns true iff a body
  // execution committed.
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

  static TxStats& StatsForCurrentThread() { return DescOf<DomainTag>().stats; }
};

}  // namespace spectm

#endif  // SPECTM_TM_FULL_TM_H_
