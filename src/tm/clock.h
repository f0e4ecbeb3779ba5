// Version-management policies (§4.1 "BaseTM can use two version management
// strategies"), grown into a pluggable family because Figures 7–9 show the global
// commit clock becoming THE scalability bottleneck for the *-g variants:
//
//   GlobalClockNaive — one shared 64-bit counter per TM domain, TL2/GV1-style.
//   Readers sample it ("rv"); every writer commit performs a seq-cst fetch_add on the
//   same cache line. Cheap validation, but the shared line is ping-ponged between all
//   committing cores (the flattening of the *-g curves under high update rates).
//
//   GlobalClockGv4 — TL2's GV4 "pass-on-failure" scheme plus a thread-local sample
//   cache; the default global clock. Two writers racing to advance the clock resolve
//   in ONE cache-line transfer instead of two: the CAS loser adopts the winner's
//   timestamp instead of retrying. Timestamps are then not globally unique — the
//   CommitStamp carries a `unique` flag so engines only apply uniqueness-dependent
//   fast paths (TL2's "wv == rv + 1 skips validation") to stamps that won their CAS.
//
//   LocalClockPolicy — per-orec version numbers with no shared counter. Commits bump
//   each orec independently; full-transaction reads must re-validate their read
//   set after every read to preserve opacity (the "-l" cost discussed in §4.1/§4.4).
//
// GV4 safety sketch (why shared timestamps preserve opacity):
//   * Two commits share a wv only when one CAS-advanced the clock to wv and the other
//     observed the pre-advance value and failed its CAS. Both held their entire write
//     sets locked across their clock access (engines draw the stamp only after
//     acquiring all commit locks), so same-wv writers have disjoint write sets.
//   * A reader can sample rv >= wv only after the winning CAS. The adopter's clock
//     load preceded that CAS (that is what made it adopt), and its write locks were
//     all acquired before its clock load — so every same-wv writer already held its
//     locks when any rv >= wv snapshot was taken. Such a reader can never observe a
//     pre-commit value of those locations: it finds them locked (conflict) or already
//     released at wv <= rv (committed value). No mixed snapshot is observable.
//   The seq_cst fence in NextCommitStamp() is what makes "lock stores precede the
//   clock load" a cross-thread ordering fact rather than an x86 accident.
//
// Thread-local sample cache (GV4): after a commit at wv, the next
// kClockSampleReuse Sample() calls from the same thread return wv without touching
// the shared line. Any value <= the current clock is a valid snapshot (a smaller rv
// only costs extra extensions), and wv <= clock always holds; moreover the same-wv
// lock-visibility argument above makes rv = own-last-wv a *consistent* snapshot, not
// merely a safe-but-stale one — and it stays one at any later time, so multi-use is
// as sound as single-use. The reuse count is bounded so read-dominated phases still
// observe other threads' commits promptly: staleness is capped at kClockSampleReuse
// transaction starts, after which the shared line is reloaded.
//
// Every policy exposes per-thread ClockProbe counters (plain thread-local integers,
// no shared state) so tests and benches can assert hot-path properties — e.g. that
// read-only commits perform zero clock RMWs, or how many Sample() calls the cache
// absorbed.
//
// 64-bit counters make overflow a non-issue (§4.1: "we ignore the possibility of
// version number overflow" on 64-bit systems).
#ifndef SPECTM_TM_CLOCK_H_
#define SPECTM_TM_CLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/cacheline.h"
#include "src/common/tagged.h"
#include "src/tm/orec.h"

namespace spectm {

// A drawn commit timestamp. `unique` is true when no concurrent commit can share
// `wv` (the draw won its RMW); only then may engines use uniqueness-dependent
// shortcuts such as skipping read-set validation when wv == rv + 1.
struct CommitStamp {
  Word wv;
  bool unique;
};

// Per-(thread, domain) clock instrumentation. Plain thread-local integers: zero
// shared-state cost, so it stays enabled in release builds. Readable only from the
// owning thread (tests/benches snapshot around single-threaded phases).
template <typename DomainTag>
struct ClockProbe {
  struct Counters {
    std::uint64_t shared_loads = 0;    // loads of the shared clock cache line
    std::uint64_t rmw_draws = 0;       // fetch_add/CAS commit-stamp draws
    std::uint64_t cached_samples = 0;  // Sample() calls served from the local cache
  };
  static Counters& Get() {
    thread_local Counters counters;
    return counters;
  }
  static void Reset() { Get() = Counters{}; }
};

// TL2/GV1-style global clock: every commit is a seq-cst fetch_add on one shared
// cache line. Kept as the ablation baseline for bench/abl_clock_scale.
template <typename DomainTag>
struct GlobalClockNaive {
  static constexpr bool kHasGlobalClock = true;
  static constexpr const char* kName = "naive";

  static std::atomic<Word>& Clock() {
    static CacheAligned<std::atomic<Word>> clock;
    return *clock;
  }

  // Read snapshot ("rv" in TL2).
  static Word Sample() {
    ++ClockProbe<DomainTag>::Get().shared_loads;
    return Clock().load(std::memory_order_seq_cst);
  }

  // Commit timestamp ("wv" in TL2): unique, greater than every previously drawn one.
  static CommitStamp NextCommitStamp() {
    ++ClockProbe<DomainTag>::Get().rmw_draws;
    return CommitStamp{Clock().fetch_add(1, std::memory_order_seq_cst) + 1, true};
  }

  static Word NextCommitVersion() { return NextCommitStamp().wv; }

  // Version released into an orec after a commit at timestamp wv.
  static Word ReleaseVersion(Word wv, Word /*old_orec_word*/) { return wv; }

  // Hook for engines observing an orec version ahead of their snapshot; only a
  // policy that caches its samples (GV4) has anything to refresh.
  static void OnStaleRead(Word /*version*/) {}
};

// Bounded staleness window for the thread-local sample cache: a post-commit wv is
// reused for at most this many Sample() calls before the shared line is reloaded.
inline constexpr int kClockSampleReuse = 4;

// TL2 GV4 "pass-on-failure" with a thread-local sample cache; the default global
// clock policy. See the file comment for the safety argument.
template <typename DomainTag>
struct GlobalClockGv4 {
  static constexpr bool kHasGlobalClock = true;
  static constexpr const char* kName = "gv4";

  static std::atomic<Word>& Clock() {
    static CacheAligned<std::atomic<Word>> clock;
    return *clock;
  }

  // Read snapshot. Served from the thread-local cache for up to kClockSampleReuse
  // calls after each of this thread's commits; otherwise a real load of the shared
  // line.
  static Word Sample() {
    SampleCache& cache = Cache();
    if (cache.uses_left > 0) {
      --cache.uses_left;
      ++ClockProbe<DomainTag>::Get().cached_samples;
      return cache.value;
    }
    ++ClockProbe<DomainTag>::Get().shared_loads;
    return Clock().load(std::memory_order_seq_cst);
  }

  // One CAS attempt; on failure adopt the racing timestamp instead of retrying, so a
  // storm of simultaneous committers costs one cache-line transfer, not a retry
  // convoy. Callers MUST hold their entire write set locked before calling (all
  // engines do: stamps are drawn after commit-lock acquisition) — the fence makes
  // those lock stores globally visible before the clock load, which the GV4 safety
  // argument depends on.
  static CommitStamp NextCommitStamp() {
    ++ClockProbe<DomainTag>::Get().rmw_draws;
#if !(defined(__x86_64__) || defined(__i386__))
    // Order the caller's write-set lock stores before the clock load. On x86 the
    // locks were acquired with lock-prefixed RMWs (full barriers) and a later load
    // cannot hoist above them, so the fence would only add a redundant ~30-cycle
    // mfence to every writer commit.
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
    Word seen = Clock().load(std::memory_order_seq_cst);
    CommitStamp stamp;
    if (Clock().compare_exchange_strong(seen, seen + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst)) {
      stamp = CommitStamp{seen + 1, true};
    } else {
      // `seen` now holds the value installed by the racing committer(s); adopt it.
      stamp = CommitStamp{seen, false};
    }
    SampleCache& cache = Cache();
    cache.value = stamp.wv;
    cache.uses_left = kClockSampleReuse;
    return stamp;
  }

  static Word NextCommitVersion() { return NextCommitStamp().wv; }

  static Word ReleaseVersion(Word wv, Word /*old_orec_word*/) { return wv; }

  // A version above rv proves the shared clock moved past our (possibly cached)
  // sample; drop the cache so the caller's extension reloads the real clock
  // instead of re-validating against the same stale rv up to kClockSampleReuse
  // times. GV4 never lets versions outrun the clock, so no CAS-max is needed.
  static void OnStaleRead(Word /*version*/) { Cache().uses_left = 0; }

 private:
  struct SampleCache {
    Word value = 0;
    int uses_left = 0;
  };
  static SampleCache& Cache() {
    thread_local SampleCache cache;
    return cache;
  }
};

template <typename DomainTag>
struct LocalClockPolicy {
  static constexpr bool kHasGlobalClock = false;
  static constexpr const char* kName = "local";

  static Word Sample() { return 0; }
  static CommitStamp NextCommitStamp() { return CommitStamp{0, false}; }
  static Word NextCommitVersion() { return 0; }

  // Each orec advances independently.
  static Word ReleaseVersion(Word /*wv*/, Word old_orec_word) {
    return OrecVersionOf(old_orec_word) + 1;
  }

  static void OnStaleRead(Word /*version*/) {}
};

// Default global clock for the named TM families: GV4 + sample cache. The naive
// policy remains available for ablation (bench/abl_clock_scale) and for callers that
// require globally unique timestamps.
template <typename DomainTag>
using GlobalClockPolicy = GlobalClockGv4<DomainTag>;

}  // namespace spectm

#endif  // SPECTM_TM_CLOCK_H_
