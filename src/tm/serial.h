// Phase two of the contention manager: serial-irrevocable escalation.
//
// src/common/backoff.h implements the first phase of SwissTM's two-phase
// contention manager (§4.1, randomized linear backoff). This header adds the
// second phase: a descriptor whose consecutive-abort streak
// (Backoff::attempts()) crosses kSerialEscalationStreak re-runs its
// transaction in SERIAL-IRREVOCABLE mode — it acquires the domain's
// serialization token, waits out every in-flight committer, and then runs the
// completely ordinary commit protocol with the guarantee that no other
// committer can interleave, so it cannot conflict-abort. Livelock-prone
// streaks become bounded: max_abort_streak <= escalation threshold + O(1).
//
// The gate is reader-writer shaped ON PURPOSE, and the asymmetry is the whole
// soundness story (docs/VALIDATION.md "Serial-irrevocable interop"):
//
//   * Only COMMITTERS (lock-acquiring / summary-publishing transactions)
//     participate. Read-only transactions never touch the gate and keep
//     running concurrently with a serial transaction.
//   * The serial transaction still runs the normal publication protocol —
//     commit-counter bump, per-stripe bumps, ring publish, in the normal
//     bump-before-validate order — because concurrent READERS are still
//     relying on those counters for their NOrec / partitioned skip anchors.
//     A serial mode that skipped publication would let a reader "counter
//     unchanged => skip the walk" straight past the serial writer's stores.
//
// Deadlock-freedom: a committer NEVER blocks while inside the gate (every
// lock acquisition on the commit path is fail-fast), so the serial drain
// terminates; and the serial owner acquires its first lock only after the
// drain, so it can never contend with an in-gate committer. Committers that
// arrive while the token is held fail fast at the gate and retry through the
// normal abort/backoff loop, which is bounded by the serial transaction's
// (finite, solo) execution.
//
// Hysteresis: a serial commit starts a cooldown of kSerialCooldownCommits
// optimistic commits during which the escalation threshold is doubled, so one
// contention storm does not pin the system serial (mirrors the adaptive
// strategy dead-band pattern).
#ifndef SPECTM_TM_SERIAL_H_
#define SPECTM_TM_SERIAL_H_

#include <atomic>
#include <cstdint>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/health.h"
#include "src/common/thread_registry.h"
#include "src/tm/txdesc.h"

namespace spectm {

// Streak at which a descriptor escalates to serial-irrevocable mode.
inline constexpr std::uint64_t kSerialEscalationStreak = 16;
// Optimistic commits after a serial commit during which the threshold doubles.
inline constexpr std::uint32_t kSerialCooldownCommits = 8;

namespace internal {
inline std::atomic<std::uint64_t>& EscalationStreakVar() {
  static std::atomic<std::uint64_t> v{kSerialEscalationStreak};
  return v;
}
}  // namespace internal

// Runtime-adjustable escalation threshold, process-wide. 0 disables
// escalation entirely (the "unbounded streak" baseline the pathological
// bench contrasts against); tests use small values to force escalation
// deterministically.
inline std::uint64_t SerialEscalationStreak() {
  return internal::EscalationStreakVar().load(std::memory_order_relaxed);
}
inline void SetSerialEscalationStreak(std::uint64_t streak) {
  internal::EscalationStreakVar().store(streak, std::memory_order_relaxed);
}

// Thread-local contention-management counters, one set per TM domain; same
// probe idiom as ValProbe/ClockProbe — tests and benches assert deltas.
template <typename DomainTag>
struct CmProbe {
  struct Counters {
    std::uint64_t escalations = 0;      // serial-mode entries
    std::uint64_t serial_commits = 0;   // commits under the token
    std::uint64_t backoff_spins = 0;    // phase-1 spins actually waited
    std::uint64_t max_abort_streak = 0; // streak high-water since Reset()
    // Replay identity of the LAST descriptor that backed off / escalated on
    // this thread (see TxDesc::NextBackoffSerial): with the fail-point seed,
    // these two values make an injected-schedule failure reproducible from
    // the probe dump alone. Latest-value gauges, not deltas.
    std::uint64_t backoff_serial = 0;
    std::uint64_t backoff_seed = 0;
  };

  static Counters& Tls() {
    thread_local Counters c;
    return c;
  }
  static Counters Get() { return Tls(); }
  static void Reset() { Tls() = Counters{}; }
};

// The serialization token, one per TM domain. Distributed reader-writer
// style: committers announce themselves in a per-thread-slot flag (their own
// cache line — the common no-serial case stays contention-free), the serial
// side owns a single pointer word.
//
// Committer:  flag++ (seq_cst);  owner = load(seq_cst);
//             owner set and not self -> flag--, fail fast.
// Serial:     CAS owner nullptr->desc (seq_cst);  spin until all flags == 0.
//
// Both sides write-then-read with seq_cst, so in the total order either the
// committer sees the owner (and retreats) or the serial side sees the
// committer's flag (and waits him out) — they can never both proceed.
template <typename DomainTag>
class SerialGate {
 public:
  // Committer fast path. Call before the FIRST lock acquisition of the
  // attempt (commit time for the full engines, encounter time for the short
  // ones). False means a serial transaction holds the token: fail fast,
  // abort the attempt, retry through backoff.
  static bool TryEnterCommitter(TxDesc* self) {
    std::atomic<std::uint32_t>& flag = committers_[self->thread_slot].value;
    flag.fetch_add(1, std::memory_order_seq_cst);
    // THE Dekker window: flag raised, owner not yet examined. A serial
    // acquirer interleaved here must see the flag (and drain us) because both
    // sides are seq_cst — the schedule point lets the explorer drive every
    // interleaving through the gap instead of sampling it.
    SPECTM_SCHED_POINT(failpoint::Site::kSerialGateEnter);
    TxDesc* owner = serial_owner_.load(std::memory_order_seq_cst);
    if (owner != nullptr && owner != self) {
      flag.fetch_sub(1, std::memory_order_release);
      return false;
    }
    return true;
  }

  // Blocking variant for single-op writers, which have no abort/retry loop of
  // their own. Bounded by the serial transaction's solo execution.
  static void EnterCommitterWait(TxDesc* self) {
    while (!TryEnterCommitter(self)) {
      SPECTM_SCHED_SPIN(failpoint::Site::kSerialGateEnter);
      CpuRelax();
    }
  }

  // Matches every successful TryEnterCommitter/EnterCommitterWait, on commit
  // AND abort paths. Runs on exception-unwind paths, so the plant is a pure
  // schedule point (never injects, never throws).
  static void ExitCommitter(TxDesc* self) {
    SPECTM_SCHED_POINT(failpoint::Site::kSerialGateExit);
    committers_[self->thread_slot].value.fetch_sub(1, std::memory_order_release);
  }

  // Serial side: take the token (spinning out any other serial owner), then
  // drain every announced committer. After this returns, no other committer
  // can hold or acquire a lock in this domain until ReleaseSerial.
  static void AcquireSerial(TxDesc* self) {
    TxDesc* expected = nullptr;
    while (!serial_owner_.compare_exchange_weak(expected, self,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed)) {
      expected = nullptr;
      SPECTM_SCHED_SPIN(failpoint::Site::kSerialTokenAcquire);
      CpuRelax();
    }
    const int bound = ThreadRegistry::IdBound();
    for (int i = 0; i < bound; ++i) {
      if (i == self->thread_slot) {
        continue;  // never self-drain (defensive; serial attempts skip the gate)
      }
      while (committers_[i].value.load(std::memory_order_seq_cst) != 0) {
        // Forced hand-off, not a decision: under cooperative control the
        // announced committer is parked and must run to retract its flag.
        SPECTM_SCHED_SPIN(failpoint::Site::kSerialTokenAcquire);
        CpuRelax();
      }
    }
    // Token held, drain complete: from here no committer may pass the gate
    // until ReleaseSerial. The explorer asserts exactly that.
    SPECTM_SCHED_POINT(failpoint::Site::kSerialTokenAcquire);
  }

  // Release on EVERY exit from serial mode — commit, user abort, or a forced
  // (fail-point) abort — or the domain wedges. Unwind path: pure plant only.
  static void ReleaseSerial(TxDesc* self) {
    (void)self;
    SPECTM_SCHED_POINT(failpoint::Site::kSerialTokenRelease);
    serial_owner_.store(nullptr, std::memory_order_seq_cst);
  }

  static TxDesc* SerialOwner() {
    return serial_owner_.load(std::memory_order_acquire);
  }

  // Diagnostic/test helper: the sum of every announced committer flag. A
  // cleanly unwound domain reads 0 here — exception_safety_test asserts it
  // after every injected throw, because a leaked flag is invisible to normal
  // traffic right up until the next AcquireSerial spins on it forever.
  static std::uint64_t AnnouncedCommitters() {
    std::uint64_t n = 0;
    const int bound = ThreadRegistry::IdBound();
    for (int i = 0; i < bound; ++i) {
      n += committers_[i].value.load(std::memory_order_acquire);
    }
    return n;
  }

 private:
  static inline std::atomic<TxDesc*> serial_owner_{nullptr};
  static inline CacheAligned<std::atomic<std::uint32_t>>
      committers_[ThreadRegistry::kMaxThreads]{};
};

// Policy glue the engines call. Keeps the watchdog/hysteresis arithmetic in
// one place so all four engines agree on when to escalate.
template <typename DomainTag>
struct SerialCm {
  using Gate = SerialGate<DomainTag>;
  using Probe = CmProbe<DomainTag>;

  // Consult at attempt start: does the streak warrant serial mode? During a
  // cooldown the threshold is doubled (hysteresis), so a descriptor that just
  // went serial must earn the next escalation against a higher bar. While the
  // health watchdog holds the domain degraded, escalation is DECLINED outright
  // (and counted in HealthProbe::throttled_escalations): under an abort storm
  // every streak saturates at once, and serializing them all converts the
  // storm into a gate convoy — widened backoff is the storm response instead.
  static bool ShouldEscalate(const TxDesc& desc) {
    const std::uint64_t threshold = SerialEscalationStreak();
    if (threshold == 0) {
      return false;
    }
    const std::uint64_t effective =
        desc.cm_cooldown > 0 ? threshold * 2 : threshold;
    if (desc.backoff.attempts() < effective) {
      return false;
    }
    if (health::EscalationThrottled<DomainTag>()) {
      return false;
    }
    return true;
  }

  // Call at every attempt start (all four engines' Start/Reset paths route
  // here): feeds the watchdog's serial-gate hold-count signal — K consecutive
  // attempt starts observing a FOREIGN token holder degrade the domain.
  static void NoteAttemptStart(TxDesc& desc) {
#if defined(SPECTM_HEALTH)
    TxDesc* owner = Gate::SerialOwner();
    const bool foreign = owner != nullptr && owner != &desc;
    if (health::NoteAttemptStart<DomainTag>(desc.backoff, foreign) ==
        health::Event::kDegraded) {
      EmitHealthSnapshot(desc);
    }
#else
    static_cast<void>(desc);
#endif
  }

  // Phase-1 backoff plus watchdog accounting, called on every contention
  // abort. Returns the streak so callers can log/assert on it.
  static std::uint64_t NoteAbortBackoff(TxDesc& desc) {
    typename Probe::Counters& probe = Probe::Tls();
    probe.backoff_spins += desc.backoff.OnAbort();
    probe.backoff_serial = desc.backoff_serial;
    probe.backoff_seed = desc.backoff_seed;
    const std::uint64_t streak = desc.backoff.attempts();
    if (streak > probe.max_abort_streak) {
      probe.max_abort_streak = streak;
    }
    if (streak > desc.stats.max_abort_streak.load(std::memory_order_relaxed)) {
      desc.stats.max_abort_streak.store(streak, std::memory_order_relaxed);
    }
#if defined(SPECTM_HEALTH)
    if (health::OnOutcome<DomainTag>(desc.backoff, /*committed=*/false) ==
        health::Event::kDegraded) {
      EmitHealthSnapshot(desc);
    }
#endif
    return streak;
  }

  static void NoteEscalated(TxDesc& desc) {
    typename Probe::Counters& probe = Probe::Tls();
    ++probe.escalations;
    probe.backoff_serial = desc.backoff_serial;
    probe.backoff_seed = desc.backoff_seed;
  }

  static void OnOptimisticCommit(TxDesc& desc) {
    desc.backoff.OnCommit();
    if (desc.cm_cooldown > 0) {
      --desc.cm_cooldown;
    }
#if defined(SPECTM_HEALTH)
    health::OnOutcome<DomainTag>(desc.backoff, /*committed=*/true);
#endif
  }

  static void OnSerialCommit(TxDesc& desc) {
    desc.backoff.OnCommit();
    desc.cm_cooldown = kSerialCooldownCommits;
    ++Probe::Tls().serial_commits;
#if defined(SPECTM_HEALTH)
    health::OnOutcome<DomainTag>(desc.backoff, /*committed=*/true);
#endif
  }

#if defined(SPECTM_HEALTH)
  // Assembled here rather than in health.h because only this layer can see
  // both sides: the generic watchdog state AND the domain's CM/stat probes.
  // Stored per-thread (health::LastSnapshot<DomainTag>()); together with the
  // fail-point seed, backoff_serial + backoff_seed make the failing schedule
  // replayable from this dump alone.
  static void EmitHealthSnapshot(TxDesc& desc) {
    const typename Probe::Counters cm = Probe::Get();
    const health::Counters h = health::HealthProbe<DomainTag>::Get();
    const TxStatsRegistry::Totals totals = TxStatsRegistry::Snapshot();
    health::SnapshotBuilder b;
    b.Add("commits", totals.commits)
        .Add("aborts", totals.aborts)
        .Add("max_abort_streak", totals.max_abort_streak)
        .Add("escalations", cm.escalations)
        .Add("serial_commits", cm.serial_commits)
        .Add("backoff_spins", cm.backoff_spins)
        .Add("probe_max_abort_streak", cm.max_abort_streak)
        .Add("backoff_serial", desc.backoff_serial)
        .Add("backoff_seed", desc.backoff_seed)
        .Add("streak", desc.backoff.attempts())
        .Add("cooldown", desc.cm_cooldown)
        .Add("backoff_widening", desc.backoff.widening())
        .Add("health_samples", h.samples)
        .Add("health_storms", h.storms)
        .Add("degrade_enters", h.degrade_enters)
        .Add("degrade_exits", h.degrade_exits)
        .Add("throttled_escalations", h.throttled_escalations)
        .Add("gate_overruns", h.gate_overruns)
        .Add("ring_saturated_windows", h.ring_saturated_windows)
        .Add("ring_intersect_fails", health::RingGauge<DomainTag>());
    health::StoreSnapshot<DomainTag>(b.Finish());
  }
#endif
};

}  // namespace spectm

#endif  // SPECTM_TM_SERIAL_H_
