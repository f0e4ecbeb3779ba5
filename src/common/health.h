// Domain health watchdog: event-count-driven degradation detector with
// graceful-degradation responses, compiled to zero-cost no-ops unless
// SPECTM_HEALTH is defined (same build-gate pattern as failpoint.h, pinned by
// static_asserts in tests/common/health_test.cc).
//
// A misbehaving workload — an abort storm from pathological contention, a
// serial-token holder that never drains, a saturated writer ring — should
// degrade the domain's throughput, not its liveness or anyone's correctness.
// The watchdog is deliberately *event-counted*, never wall-clocked: a window
// is N attempt outcomes, a gate-hold overrun is K consecutive attempt starts
// observing a foreign serial owner. That keeps every decision deterministic
// under fixed-seed schedules (the fail-point layer's replay property extends
// to the watchdog's) and meaningful on a 1-core host, where wall-clock
// heuristics misfire on scheduler artifacts.
//
// Layering: this header knows nothing about descriptors, orecs, or the gate —
// it sees only (a) outcome booleans fed to it, (b) the thread's Backoff to
// widen, and (c) an opaque DomainTag to shard its state per TM domain. The
// domain integration (sampling CmProbe, consulting the throttle from the
// escalation decision, assembling the diagnostics snapshot) lives in
// src/tm/serial.h, which can see both sides.
//
// Responses on entering the degraded state:
//   * escalation throttling — EscalationThrottled() reports true, and the
//     contention manager declines serial escalation (an abort storm escalating
//     every streak into the serial gate converts contention into convoying);
//   * backoff widening — the phase-1 randomized backoff's spin budget is
//     multiplied (Backoff::SetWidening) until the storm subsides;
//   * a JSON diagnostics snapshot of every probe counter is assembled by the
//     integration layer and stored per-thread (LastSnapshot), so a failure in
//     an injected schedule is replayable from the dump alone.
//
// Exit is hysteretic, like every other adaptive edge in this tree (strategy
// bands, CM cooldown): enter at >= 1/2 of a window aborted, exit only
// when <= 1/8 aborts — a wiggling workload keeps its state instead of flapping.
#ifndef SPECTM_COMMON_HEALTH_H_
#define SPECTM_COMMON_HEALTH_H_

#include <cstdint>

#include "src/common/backoff.h"

#if defined(SPECTM_HEALTH)
#include <atomic>
#include <string>
#include <utility>
#endif

namespace spectm {
namespace health {

// What a feed call observed crossing a window boundary. The integration layer
// reacts to kDegraded by emitting the diagnostics snapshot.
enum class Event : std::uint8_t {
  kNone = 0,
  kDegraded,   // this window crossed the storm threshold (or gate overrun)
  kRecovered,  // a degraded domain's window fell back under the exit threshold
};

// Probe counters: per-thread, per-domain, always cheap to read. Zeroed (and
// never ticked) when the watchdog is compiled out.
struct Counters {
  std::uint64_t samples = 0;                // windows closed
  std::uint64_t storms = 0;                 // abort-storm windows detected
  std::uint64_t degrade_enters = 0;         // healthy -> degraded transitions
  std::uint64_t degrade_exits = 0;          // degraded -> healthy transitions
  std::uint64_t throttled_escalations = 0;  // escalations declined while degraded
  std::uint64_t gate_overruns = 0;          // K-consecutive foreign-owner streaks
  std::uint64_t ring_saturated_windows = 0; // windows whose ring-fail delta stormed
  std::uint64_t snapshots = 0;              // diagnostics snapshots stored
};

// Tunables. The window is runtime-adjustable (tests plant small storms); the
// thresholds are compile-time — they are ratios, not magnitudes, so they need
// no per-workload tuning.
inline constexpr std::uint32_t kHealthWindowDefault = 64;
inline constexpr std::uint32_t kHealthGateHoldLimit = 128;
inline constexpr std::uint32_t kHealthDegradedWiden = 4;

#if !defined(SPECTM_HEALTH)

// ---- Disabled build: every entry point folds to a constant -------------------
//
// The functions stay templated and constexpr so call sites compile unchanged
// and the optimizer has nothing to keep: no thread-locals, no atomics, no
// strings exist in this translation mode. tests/common/health_test.cc pins
// the constant-foldability with static_asserts.

inline constexpr bool kEnabled = false;

constexpr std::uint32_t HealthWindow() { return kHealthWindowDefault; }
constexpr void SetHealthWindow(std::uint32_t) {}

template <typename Tag>
struct HealthProbe {
  static constexpr Counters Get() { return Counters{}; }
  static constexpr void Reset() {}
};

template <typename Tag>
constexpr Event OnOutcome(Backoff&, bool) {
  return Event::kNone;
}

template <typename Tag>
constexpr Event NoteAttemptStart(Backoff&, bool) {
  return Event::kNone;
}

template <typename Tag>
constexpr bool EscalationThrottled() {
  return false;
}

template <typename Tag>
constexpr bool Degraded() {
  return false;
}

template <typename Tag>
constexpr void SetRingGauge(std::uint64_t) {}

template <typename Tag>
constexpr std::uint64_t RingGauge() {
  return 0;
}

template <typename Tag>
constexpr void ResetForTest() {}

#else  // SPECTM_HEALTH

inline constexpr bool kEnabled = true;

namespace internal {

inline std::atomic<std::uint32_t>& WindowRef() {
  static std::atomic<std::uint32_t> window{kHealthWindowDefault};
  return window;
}

// Per-thread, per-domain watchdog state. Thread-local by the same argument as
// CmProbe: outcomes are observed by the thread that produced them, so the
// monitor needs no synchronization and adds no shared-cache-line traffic to
// the attempt path.
template <typename Tag>
struct ThreadState {
  std::uint32_t window_events = 0;
  std::uint32_t window_aborts = 0;
  std::uint32_t foreign_serial_streak = 0;
  std::uint64_t ring_window_anchor = 0;  // ring gauge at the window's open
  bool degraded = false;

  static ThreadState& Tls() {
    thread_local ThreadState s;
    return s;
  }
};

template <typename Tag>
inline std::string& SnapshotSlot() {
  thread_local std::string snapshot;
  return snapshot;
}

// WriterRing saturation gauge: the val engines publish their cumulative
// intersect-failure count here (a ring whose blooms keep colliding absorbs no
// skips — the domain is paying summary maintenance for nothing). Latest-value
// gauge; the window logic differences it.
template <typename Tag>
inline std::uint64_t& RingGaugeSlot() {
  thread_local std::uint64_t gauge = 0;
  return gauge;
}

}  // namespace internal

inline std::uint32_t HealthWindow() {
  return internal::WindowRef().load(std::memory_order_relaxed);
}

// Window length in outcomes; 0 is clamped to 1 (a zero window would never
// close and silently disable the watchdog).
inline void SetHealthWindow(std::uint32_t n) {
  internal::WindowRef().store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

template <typename Tag>
struct HealthProbe {
  static Counters& Tls() {
    thread_local Counters counters;
    return counters;
  }
  static Counters Get() { return Tls(); }
  static void Reset() { Tls() = Counters{}; }
};

template <typename Tag>
inline Event EnterDegraded(Backoff& backoff) {
  auto& s = internal::ThreadState<Tag>::Tls();
  auto& p = HealthProbe<Tag>::Tls();
  ++p.degrade_enters;
  s.degraded = true;
  backoff.SetWidening(kHealthDegradedWiden);
  return Event::kDegraded;
}

// Feed one attempt outcome (commit or abort). Returns a transition event when
// this outcome closed a window that crossed a threshold.
template <typename Tag>
inline Event OnOutcome(Backoff& backoff, bool committed) {
  auto& s = internal::ThreadState<Tag>::Tls();
  ++s.window_events;
  if (!committed) {
    ++s.window_aborts;
  }
  if (s.window_events < HealthWindow()) {
    return Event::kNone;
  }
  auto& p = HealthProbe<Tag>::Tls();
  ++p.samples;
  const std::uint32_t events = s.window_events;
  const std::uint32_t aborts = s.window_aborts;
  s.window_events = 0;
  s.window_aborts = 0;
  const std::uint64_t ring_now = internal::RingGaugeSlot<Tag>();
  const std::uint64_t ring_delta = ring_now - s.ring_window_anchor;
  s.ring_window_anchor = ring_now;
  // Ring saturation: on average every attempt of the window lost a skip to a
  // bloom intersection — the summary machinery is defeated, same treatment as
  // an abort storm (the widened backoff sheds the writer traffic causing it).
  const bool ring_saturated = ring_delta >= events;
  if (ring_saturated) {
    ++p.ring_saturated_windows;
  }
  if (!s.degraded) {
    if (aborts * 2 >= events) {  // enter: at least half the window aborted
      ++p.storms;
      return EnterDegraded<Tag>(backoff);
    }
    if (ring_saturated) {
      return EnterDegraded<Tag>(backoff);
    }
    return Event::kNone;
  }
  if (aborts * 8 <= events && !ring_saturated) {  // hysteretic exit
    ++p.degrade_exits;
    s.degraded = false;
    backoff.SetWidening(1);
    return Event::kRecovered;
  }
  return Event::kNone;
}

// Feed one attempt start. `foreign_serial_active` is "some OTHER descriptor
// holds the domain's serial token right now": K consecutive such observations
// mean this thread is starving behind a long serial hold, which degrades the
// domain exactly like an abort storm (and in particular stops THIS thread
// from piling its own escalation onto the convoy).
template <typename Tag>
inline Event NoteAttemptStart(Backoff& backoff, bool foreign_serial_active) {
  auto& s = internal::ThreadState<Tag>::Tls();
  if (!foreign_serial_active) {
    s.foreign_serial_streak = 0;
    return Event::kNone;
  }
  if (++s.foreign_serial_streak < kHealthGateHoldLimit) {
    return Event::kNone;
  }
  s.foreign_serial_streak = 0;
  ++HealthProbe<Tag>::Tls().gate_overruns;
  if (!s.degraded) {
    return EnterDegraded<Tag>(backoff);
  }
  return Event::kNone;
}

// Consulted by the contention manager's escalation decision: while degraded,
// serial escalation is declined (and counted), because under an abort storm
// the gate drains slower than the streaks saturate — escalating everyone
// converts contention into convoying.
template <typename Tag>
inline bool EscalationThrottled() {
  auto& s = internal::ThreadState<Tag>::Tls();
  if (!s.degraded) {
    return false;
  }
  ++HealthProbe<Tag>::Tls().throttled_escalations;
  return true;
}

template <typename Tag>
inline bool Degraded() {
  return internal::ThreadState<Tag>::Tls().degraded;
}

template <typename Tag>
inline void SetRingGauge(std::uint64_t cumulative_intersect_fails) {
  internal::RingGaugeSlot<Tag>() = cumulative_intersect_fails;
}

template <typename Tag>
inline std::uint64_t RingGauge() {
  return internal::RingGaugeSlot<Tag>();
}

// Diagnostics snapshot storage (assembled by the integration layer; see
// SerialCm::EmitHealthSnapshot in src/tm/serial.h).
template <typename Tag>
inline void StoreSnapshot(std::string json) {
  internal::SnapshotSlot<Tag>() = std::move(json);
  ++HealthProbe<Tag>::Tls().snapshots;
}

template <typename Tag>
inline const std::string& LastSnapshot() {
  return internal::SnapshotSlot<Tag>();
}

template <typename Tag>
inline void ResetForTest() {
  internal::ThreadState<Tag>::Tls() = internal::ThreadState<Tag>{};
  internal::SnapshotSlot<Tag>().clear();
  internal::RingGaugeSlot<Tag>() = 0;
  HealthProbe<Tag>::Reset();
  SetHealthWindow(kHealthWindowDefault);
}

// Flat single-object JSON assembler for the snapshot: no allocator games, no
// escaping needs (keys are identifiers, values are unsigned counters).
class SnapshotBuilder {
 public:
  SnapshotBuilder& Add(const char* key, std::uint64_t value) {
    out_ += first_ ? "{\"" : ", \"";
    first_ = false;
    out_ += key;
    out_ += "\": ";
    out_ += std::to_string(value);
    return *this;
  }

  std::string Finish() {
    if (first_) {
      return "{}";
    }
    out_ += "}";
    return std::move(out_);
  }

 private:
  std::string out_;
  bool first_ = true;
};

#endif  // SPECTM_HEALTH

}  // namespace health
}  // namespace spectm

#endif  // SPECTM_COMMON_HEALTH_H_
