// Validation strategies: the machinery that cuts per-read revalidation cost.
//
// The paper's local-clock and value-based variants pay O(read-set) revalidation on
// every read to preserve opacity (§4.1, Figure 5) — the cost behind the Figs 7–9
// crossovers. No single remedy wins across workloads, so each family names, at
// compile time, the ValStrategy its readers run (its template argument,
// variants.h); only kAdaptive switches at runtime, per attempt, driven by the
// descriptor's abort-rate EWMA (txdesc.h):
//
//   kCounterSkip — NOrec's precise-counter skip: a domain-wide commit counter that
//     every writer bumps while holding its locks, before its releasing stores.
//     "Counter unchanged since the log was last known valid" proves no writer
//     released a value/version in between, so the O(read-set) walk is skipped.
//     Cheapest when writer commits are rare relative to this thread's reads.
//
//   kBloom — counter skip plus a bloom-summary pre-filter: each writer publishes a
//     128-bit, 2-hash bloom (Bloom128) of its write set into a ring indexed by its
//     counter bump; a reader whose counter went stale intersects its own read-set
//     bloom with the blooms of the intervening commits and still skips the walk
//     when they are disjoint. Rescues the skip under write traffic that does not
//     touch this reader's read set. The read bloom costs nothing while the
//     counter holds still: it is folded from the read log only when a skip test
//     first finds the counter moved (StrategyState's lazy signature), so a
//     quiet domain never hashes a read.
//
//   kIncremental — the paper's baseline: walk the read set, no shared-counter
//     reliance. The fallback when contention is high enough that summaries rarely
//     help and the walk happens anyway.
//
//   kStripe (partitioned NOrec) — the commit counter is SHARDED into
//     kCounterStripes cache-line-separated per-stripe counters keyed by the
//     metadata word's address region: a committing writer bumps only the
//     stripes its write set touches, and a reader's skip test compares a
//     per-stripe sample vector against only the stripes its read set occupies.
//     Disjoint-stripe write traffic no longer invalidates the reader's anchor at
//     all — the failure mode the fixed-width bloom ring cannot absorb once a wide
//     scan saturates its filter (the abl_readset_layout intersect-failure
//     gradient). Per-stripe counters are consulted BEFORE the ring; bloom
//     intersection is the fallback for same-stripe-but-disjoint traffic. The
//     per-stripe soundness argument (anchor re-derivation, crossing committers)
//     lives in docs/VALIDATION.md.
//
//   kAdaptive — re-chooses among kCounterSkip, kBloom and kIncremental from the
//     EWMA at every transaction start: low abort rate -> counter-skip, moderate
//     -> bloom, high -> incremental. The band edges are HYSTERETIC (an
//     enter/exit dead band): moving to a more conservative strategy uses the
//     enter threshold, moving back requires the EWMA to fall through a lower
//     exit threshold, so a border workload whose EWMA wiggles around one edge
//     no longer alternates strategies on every outcome. The fixed strategies
//     are the points it switches between, measured against it in
//     bench/abl_adaptive_val; it never picks kStripe.
//
// Soundness of the skip paths (NOrec discipline, extended with blooms):
//   * Writer protocol: acquire ALL commit locks, bump-and-publish, validate (or
//     skip), only then perform the releasing stores. The lock is held across the
//     whole bump..release window, so a writer whose bump predates a reader's
//     sample is visibly locked on (or already done with) every location it will
//     store to.
//   * Every read-log entry was admitted through an unlocked observation (val-layout
//     reads spin past locks; orec reads sandwich an unlocked orec), so any writer
//     that had bumped before the reader's sample had already finished with that
//     location — its later stores cannot touch it.
//   * Therefore "counter unchanged since sample" => every logged location is
//     unchanged, and the newest read instant is a consistency point for the whole
//     log. The bloom extension weakens "unchanged counter" to "all intervening
//     commits have write blooms disjoint from my read bloom", which implies the
//     same thing for the logged locations; bloom false positives only cost a walk.
//
// Tail rule: the engines' classic per-read walk may exclude the just-read entry
// (consistent at its own read instant). A TRACKED walk — one that re-anchors the
// persistent sample — must instead cover the ENTIRE log: anchoring at counter c
// asserts "whole log valid at c", and on a preempted thread thousands of commits
// can land between the tail's read sandwich and the walk, silently invalidating
// the tail while the prefix still checks out.
//
// Why writers bump BEFORE their own commit-time validation (not after, as a
// reader-only analysis would allow): two crossing committers — R reads X and
// writes Y while W reads Y and writes X — could otherwise BOTH skip/pass: W
// validates before R locks Y, R's counter check passes before W bumps, and both
// store, committing a write skew (observed as lost hash-set unlinks => double
// retire). With bump-before-validate, a committing writer may only skip when NO
// foreign bump lies in (its sample anchor, its own bump]; of two crossing
// committers one always bumps second, and that one's validation runs after the
// first's locks are in place — the locked-orec (or locked-word) check then kills
// it. The commit-time walk must therefore stay conservative: a foreign lock on a
// read-log entry fails validation even though the underlying version is intact.
#ifndef SPECTM_TM_VALSTRATEGY_H_
#define SPECTM_TM_VALSTRATEGY_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/health.h"
#include "src/common/tagged.h"
#include "src/tm/txdesc.h"

namespace spectm {

// The reader-side validation strategy a family runs over its writer summary,
// fixed per family at compile time (its template argument, variants.h).
// kIncremental is the always-walk baseline: its Summary is the null
// NonReuseValidation below, so StrategyState and PublishWriterCommit compile
// to nothing. kCounterSkip, kBloom and kStripe consult the summary as described
// above. kAdaptive is the one runtime choice: each attempt starts with the
// kIncremental, kCounterSkip or kBloom that ChooseStrategy picks from the
// descriptor's EWMAs, never kStripe. MVCC snapshot reads are not a strategy: a
// kMvcc policy (val_word.h) selects them, and its read-write side runs whichever
// strategy the family names.
enum class ValStrategy : std::uint8_t {
  kIncremental,
  kCounterSkip,
  kBloom,
  kStripe,
  kAdaptive,
};

// EWMA thresholds for the adaptive choice, Q16 (65536 = 100% abort rate).
//   < ~3%  aborts: contention is rare; the bare counter skip almost always fires
//           and bloom maintenance would be pure overhead.
//   < 25%  aborts: writers are active; pay for folding the read bloom so disjoint
//           write traffic still skips the walk.
//   >= 25% aborts: walks happen regardless; stop paying for summaries.
//
// Each band edge is a hysteresis PAIR: crossing the *MaxQ16 enter threshold
// upward moves to the more conservative strategy; only falling below the
// matching *ExitQ16 threshold moves back. Inside the dead band the previous
// choice sticks, so a border workload's EWMA noise cannot alternate strategies
// per attempt (ValProbe::strategy_switches pins the damping).
inline constexpr std::uint32_t kEwmaCounterSkipMaxQ16 = 1u << 11;   // ~3.1%: enter bloom
inline constexpr std::uint32_t kEwmaCounterSkipExitQ16 = 1u << 10;  // ~1.6%: back to counter-skip
inline constexpr std::uint32_t kEwmaBloomMaxQ16 = 1u << 14;         // 25%: enter incremental
inline constexpr std::uint32_t kEwmaBloomExitQ16 = 1u << 13;        // 12.5%: back to bloom
static_assert(kEwmaCounterSkipExitQ16 < kEwmaCounterSkipMaxQ16 &&
                  kEwmaBloomExitQ16 < kEwmaBloomMaxQ16,
              "each dead band must be non-empty or the hysteresis degenerates to "
              "single-threshold flapping");

// Below this skip-efficacy EWMA (txdesc.h) the adaptive engine stops paying for
// skip attempts: when the domain's write traffic moves the counter between
// almost every pair of reads, the skip checks are pure overhead on top of the
// walk that happens anyway, and plain incremental is the better fixed point.
// Re-enabling skips requires the efficacy to recover through the higher
// kSkipEwmaRecoverQ16 (hysteresis, as with the abort bands).
inline constexpr std::uint32_t kSkipEwmaMinQ16 = 1u << 13;      // 12.5%: stop skipping
inline constexpr std::uint32_t kSkipEwmaRecoverQ16 = 1u << 14;  // 25%: resume skipping
static_assert(kSkipEwmaMinQ16 < kSkipEwmaRecoverQ16,
              "the efficacy dead band must be non-empty");

// In the incremental-because-skips-don't-pay regime the efficacy EWMA would
// freeze (no skip attempts -> no updates), so every N-th attempt probes a skip
// strategy anyway to notice when the workload turns quiet again.
inline constexpr std::uint32_t kSkipProbePeriod = 16;

// The adaptive strategy for a new attempt. Without history (`has_prev` false)
// the plain enter thresholds apply — the memoryless mapping the band tests pin.
// With history, the previous attempt's strategy supplies the hysteresis state:
// moving toward incremental needs the enter edge, moving back the exit edge.
// Only kAdaptive families call it, and their summaries always carry a ring, so
// the mid band is always bloom.
inline ValStrategy ChooseStrategy(std::uint32_t abort_ewma_q16,
                                  std::uint32_t skip_ewma_q16 = 65536u,
                                  bool has_prev = false,
                                  ValStrategy prev = ValStrategy::kIncremental) {
  // Efficacy gate: once the engine fell back to walking, skips must prove
  // themselves through the recover threshold before they are paid for again.
  const bool was_walking = has_prev && prev == ValStrategy::kIncremental;
  if (skip_ewma_q16 < (was_walking ? kSkipEwmaRecoverQ16 : kSkipEwmaMinQ16)) {
    return ValStrategy::kIncremental;  // skips are not paying for themselves
  }
  // Abort-pressure level: 0 = counter-skip, 1 = bloom, 2 = incremental. Rise
  // through enter thresholds, fall through exit thresholds, stick in between.
  // A fresh descriptor starts at level 0, which reproduces the memoryless bands
  // exactly.
  int level = !has_prev || prev == ValStrategy::kCounterSkip ? 0
              : prev == ValStrategy::kBloom                  ? 1
                                                             : 2;
  if (abort_ewma_q16 >= kEwmaBloomMaxQ16) {
    level = 2;
  } else if (abort_ewma_q16 >= kEwmaCounterSkipMaxQ16 && level < 1) {
    level = 1;
  }
  if (abort_ewma_q16 < kEwmaCounterSkipExitQ16) {
    level = 0;
  } else if (abort_ewma_q16 < kEwmaBloomExitQ16 && level > 1) {
    level = 1;
  }
  return level == 0   ? ValStrategy::kCounterSkip
         : level == 1 ? ValStrategy::kBloom
                      : ValStrategy::kIncremental;
}

// 128-bit, 2-hash bloom signature space for transactional locations (a location's
// signature hashes its metadata word address: the orec for orec layouts, the value
// word for the val layout). The 128 bits are organized as four 32-bit STRIPES —
// stripe s holds bit positions [32s, 32s+32) — matching the WriterRing's
// stripe-lane storage below: a probe touches only the stripes where the reader's
// bloom has bits at all. Two set bits per address keep even btree range-scan read
// sets (hundreds of entries) meaningfully under saturation, where the previous
// 32-bit bloom saturated at a few dozen entries (the ROADMAP ring-saturation
// item, measured in bench/abl_readset_layout).
struct Bloom128 {
  static constexpr int kStripes = 4;
  std::uint32_t s[kStripes] = {0, 0, 0, 0};

  bool Empty() const { return (s[0] | s[1] | s[2] | s[3]) == 0; }

  Bloom128& operator|=(const Bloom128& o) {
    for (int i = 0; i < kStripes; ++i) {
      s[i] |= o.s[i];
    }
    return *this;
  }

  bool Intersects(const Bloom128& o) const {
    return ((s[0] & o.s[0]) | (s[1] & o.s[1]) | (s[2] & o.s[2]) |
            (s[3] & o.s[3])) != 0;
  }
};

inline Bloom128 AddrBloom128(const void* p) {
  std::uint64_t h =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p)) >> 3;
  h *= 0x9e3779b97f4a7c15ULL;  // Fibonacci hashing, as in OrecTable::ForAddr
  const unsigned b0 = static_cast<unsigned>(h >> 57);         // bits 57..63
  const unsigned b1 = static_cast<unsigned>((h >> 33) & 127);  // bits 33..39
  Bloom128 b;
  b.s[b0 >> 5] |= 1u << (b0 & 31);
  b.s[b1 >> 5] |= 1u << (b1 & 31);
  return b;
}

// All-ones bloom: intersects everything, forcing readers to walk. The safe default
// for writer paths that cannot cheaply enumerate their write set.
inline Bloom128 Bloom128All() {
  return Bloom128{{0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu}};
}

// --- Partitioned NOrec: counter stripes -----------------------------------------
//
// The precise commit counter is sharded into kCounterStripes cache-line-separated
// per-stripe counters keyed by the metadata word's ADDRESS REGION (a
// 2^kCounterStripeShift-byte block): stripe(m) = (m >> shift) mod kCounterStripes.
// The partition key is the metadata word — the conflict unit — so a writer and a
// reader always agree on which stripe guards a location. Region (rather than
// hash-bit) keying is what makes the partition worth having: on layouts whose
// metadata is co-located with the data (the val layout, §2.4), a structurally
// local read set — a btree leaf-chain scan, a node's field cluster — occupies few
// stripes no matter how many ENTRIES it has, which is precisely where the
// fixed-width bloom ring saturates (abl_readset_layout's intersect-failure
// gradient). On the hash-scattered shared orec table the stripe of an orec is
// effectively random, so wide orec read sets still occupy every stripe; the
// region partition only degrades to the whole-counter behavior there, never below
// it (ROADMAP notes the striped-table alignment as follow-up).
//
// The stripe count matches the WriterRing's stripe lanes so the two summary
// structures shard at the same granularity; sweep both together if resizing.
inline constexpr int kCounterStripes = Bloom128::kStripes;
inline constexpr int kCounterStripeShift = 12;  // 4 KiB regions
inline constexpr unsigned kAllCounterStripesMask = (1u << kCounterStripes) - 1;

inline int CounterStripeOf(const void* metadata_word) {
  return static_cast<int>(
      (reinterpret_cast<std::uintptr_t>(metadata_word) >> kCounterStripeShift) &
      static_cast<std::uintptr_t>(kCounterStripes - 1));
}

inline int CountStripeBits(unsigned mask) {
  int n = 0;
  for (unsigned m = mask; m != 0; m &= m - 1) {
    ++n;
  }
  return n;
}

// A committing writer's write signature: the Bloom128 of the metadata words it
// holds locked and the counter-stripe mask they occupy. Writers Add() each
// locked metadata word, then hand the signature to PublishWriterCommit below.
// `kFold` is the summary's kHasBloomRing: a ring-less summary reads neither
// field, so Add hashes nothing and the fields keep the conservative all-ones
// value (every bloom bit set, every stripe moved).
template <bool kFold>
struct WriteSignature {
  Bloom128 bloom = kFold ? Bloom128{} : Bloom128All();
  unsigned stripes = kFold ? 0u : kAllCounterStripesMask;

  void Add(const void* metadata_word) {
    if constexpr (kFold) {
      bloom |= AddrBloom128(metadata_word);
      stripes |= 1u << CounterStripeOf(metadata_word);
    } else {
      (void)metadata_word;
    }
  }
};

// A reader's per-stripe counter sample vector (the partitioned analogue of the
// single Word sample). Components are meaningful only for stripes the owner's
// read-stripe mask occupies; the rest are whatever the draw happened to load.
struct StripeSample {
  Word v[kCounterStripes] = {};
};

// Ring of recent writer commits, stripe-lane layout: commit i's 128-bit write
// bloom lives as four words — lanes_[s][i%64] holds (low 32 bits of commit index
// i, stripe s of the bloom) packed into ONE atomic word, so each lane word is
// self-validating: publication and lookup of a stripe are a single store/load
// with no tearing, and a reader that assembles stripes from different
// publications sees a tag mismatch and falls back to the walk. A stale tag
// (writer not yet published, or slot since overwritten) likewise just costs the
// walk — the ring is an optimization channel, never a correctness dependency.
//
// Why stripe-major storage: a range probe scans commits (since, upto] within each
// stripe lane, so L probed commits touch ceil(L/8) cache lines per CONSULTED
// stripe — and a reader consults only stripes where its read bloom has bits (a
// small read set occupies 1-2 of the 4 stripes). The previous layout paid one
// line per probed commit regardless. Writers store one word per stripe; the
// stores go to 4 distinct lines, but the writer path already owns the shared
// counter line (the seq-cst bump), so publication stays a small constant.
class WriterRing {
 public:
  static constexpr int kLog2Slots = 6;
  static constexpr int kStripes = Bloom128::kStripes;
  static constexpr Word kSlotMask = (Word{1} << kLog2Slots) - 1;
  // A reader walks at most this many ring entries before deciding the walk itself
  // is cheaper; also keeps the probe window well inside the ring to make overwrite
  // races (caught by the tag anyway) rare.
  static constexpr Word kMaxSkipRange = 32;
  static_assert(kMaxSkipRange < (Word{1} << 32),
                "probe window must stay far inside the 32-bit tag space for the "
                "documented 2^32 delayed-publish wrap bound to hold");

  // Probe-failure taxonomy. Callers pass their own (typically thread-local, see
  // WriterSummary::Fails) counter block — shared atomics here would add
  // cross-core coherence traffic exactly in the contended regime where probes
  // fail most. `intersect` is the ring-SATURATION signal
  // bench/abl_readset_layout reports: a saturated bloom intersects everything,
  // so rising intersect-failures with constant true conflict traffic mean the
  // bloom bits, not the workload, are the bottleneck.
  struct FailCounts {
    std::uint64_t window = 0;     // range wider than kMaxSkipRange
    std::uint64_t stale = 0;      // tag mismatch: unpublished or recycled slot
    std::uint64_t intersect = 0;  // bloom hit: possible overlap, must walk
  };

  void Publish(Word idx, const Bloom128& bloom) {
    const std::size_t slot = static_cast<std::size_t>(idx & kSlotMask);
    const Word tag = (idx & 0xffffffffULL) << 32;
    for (int s = 0; s < kStripes; ++s) {
      lanes_[s][slot].store(tag | bloom.s[s], std::memory_order_release);
    }
  }

  // True iff every commit in (since, upto] published a bloom disjoint from
  // `read_bloom`. False on any stale tag, intersection, or oversized range.
  // Stripes where `read_bloom` has no bits are skipped entirely — whatever a
  // writer published there cannot intersect an empty stripe, and tag freshness
  // is judged on the stripes actually consulted. (A fully empty read bloom means
  // an empty — trivially consistent — read set, so vacuous success is correct;
  // that relies on the bloom covering the whole log, which StrategyState's fold
  // guarantees before every probe.)
  //
  // Tag-wrap bound (pver.h-style documented risk): the publication tag keeps the
  // low 32 bits of the commit index, so a writer preempted between its counter
  // bump and its Publish() for EXACTLY 2^32 commits could republish a tag that
  // matches a current probe index and serve a stale bloom. With a sub-32-entry
  // probe window that requires a thread to sleep through four billion commits at
  // precisely the wrap distance; we accept the bound, as with pver's 15-bit
  // version wrap.
  bool RangeDisjoint(Word since, Word upto, const Bloom128& read_bloom,
                     FailCounts* fails) const {
    if (upto - since > kMaxSkipRange) {
      ++fails->window;
      return false;
    }
    for (int s = 0; s < kStripes; ++s) {
      if (read_bloom.s[s] == 0) {
        continue;
      }
      for (Word i = since + 1; i <= upto; ++i) {
        const Word w = lanes_[s][static_cast<std::size_t>(i & kSlotMask)].load(
            std::memory_order_acquire);
        if ((w >> 32) != (i & 0xffffffffULL)) {
          ++fails->stale;
          return false;  // not yet published, or already recycled
        }
        if ((static_cast<std::uint32_t>(w) & read_bloom.s[s]) != 0) {
          ++fails->intersect;
          return false;  // may have written something we read
        }
      }
    }
    return true;
  }

 private:
  // Stripe-major: lanes_[s] is the contiguous 64-slot lane of bloom stripe s.
  std::atomic<Word> lanes_[kStripes][std::size_t{1} << kLog2Slots] = {};
};

// Per-domain writer summary for orec-based families: the precise commit counter
// plus the bloom ring. Writers publish through PublishWriterCommit (below) after
// acquiring all commit locks, BEFORE the commit-time validation and any data
// store or orec release (the ordering the soundness argument above depends on).
// The val layout reaches the same machinery through its ValidationPolicy
// (GlobalCounterBloomValidation in val_word.h).
//
// Summary concept (shared with the ValidationPolicy classes in val_word.h, so
// StrategyState and PublishWriterCommit below can drive either):
// Sample/Stable and the writer-side OnWriterCommit, plus BloomAdvance and
// CommitRangeDisjoint where kHasBloomRing is true.
// `kPartitionedCounters` opts the DOMAIN into partitioned NOrec: per-stripe
// commit counters alongside the precise global counter (which remains the ring
// publication index and the commit-skip own_idx). Writers then bump ONLY the
// stripes their write set touches — cache-line-separated, so two committers in
// disjoint regions no longer exchange a counter line — and bump them BEFORE the
// global counter, so any commit counted by a global sample already has its
// stripe bumps visible. It is a compile-time property of the whole domain
// because the protocol is writer-side: a domain with any kStripe reader needs
// EVERY writer bumping stripes; conversely a domain with none should not pay
// the extra seq-cst RMWs on its commit path (the orec ablation families each
// own a private domain, so they opt in per family; the val families share one
// ring domain, which therefore stays partitioned for ValPart's readers).
template <typename DomainTag, bool kPartitionedCounters = true>
struct WriterSummary {
  static constexpr bool kPrecise = true;
  static constexpr bool kHasBloomRing = true;
  static constexpr bool kPartitioned = kPartitionedCounters;

  static std::atomic<Word>& Counter() {
    static CacheAligned<std::atomic<Word>> counter;
    return *counter;
  }

  static std::atomic<Word>& StripeCounter(int s) {
    static CacheAligned<std::atomic<Word>> counters[kCounterStripes];
    return *counters[s];
  }

  static Word StripeNow(int s) {
    return StripeCounter(s).load(std::memory_order_seq_cst);
  }

  static StripeSample StripeSampleNow() {
    StripeSample x;
    for (int s = 0; s < kCounterStripes; ++s) {
      x.v[s] = StripeNow(s);
    }
    return x;
  }

  static WriterRing& Ring() {
    static WriterRing* ring = new WriterRing();  // leaked: program-lifetime
    return *ring;
  }

  // Per-(thread, domain) ring probe-failure counters — the same pattern as
  // ValProbe/ClockProbe: plain thread-local integers, zero shared-state cost on
  // the (contended!) probe-failure paths. Benches read deltas around their
  // single-threaded probe passes.
  static WriterRing::FailCounts& Fails() {
    thread_local WriterRing::FailCounts fails;
    return fails;
  }

  static Word Sample() { return Counter().load(std::memory_order_seq_cst); }
  static bool Stable(Word sample) { return Sample() == sample; }

  // Returns the writer's own commit index. Commit-time skip tests compare it
  // against the sample anchor: own_idx == sample + 1 proves no FOREIGN bump lies
  // between anchor and bump (later writers validate after this writer's locks are
  // visible and detect them — see the crossing-committer note above).
  //
  // `sig.stripes` names the counter stripes the write set occupies (bit s set =
  // some locked metadata word lives in stripe s). Stripe bumps precede the
  // global bump (see kPartitioned above), and the whole sequence runs while
  // every commit lock is held, before the commit-time validation and the
  // releasing stores — each stripe inherits the global bump-before-validate
  // discipline.
  static Word OnWriterCommit(TxDesc* /*self*/, const WriteSignature<true>& sig) {
    if constexpr (kPartitioned) {
      // Fault injection (no-ops in production): widen the gaps the ordering
      // arguments above close — stripe-bumps vs global bump, and the
      // bump -> ring-publish tail window readers probe through.
      SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreStripeBump);
      for (int s = 0; s < kCounterStripes; ++s) {
        if ((sig.stripes >> s) & 1u) {
          StripeCounter(s).fetch_add(1, std::memory_order_seq_cst);
        }
      }
    }
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreBump);
    const Word idx = Counter().fetch_add(1, std::memory_order_seq_cst) + 1;
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreRingPublish);
    Ring().Publish(idx, sig.bloom);
    // Schedule point (PR 8): entry published, locks still held — the explorer
    // drives readers through the publish -> release ordering both ways.
    SPECTM_SCHED_POINT(failpoint::Site::kPostRingPublish);
    return idx;
  }

  // Commit-time bloom pre-filter for a writer that has already bumped at
  // `own_idx`: the final walk is skippable when every FOREIGN commit in
  // (sample, own_idx) published a bloom disjoint from `read_bloom`. Own bump is
  // excluded (a writer may read-then-write the same location); commits after
  // own_idx validate after this writer's locks are visible and detect the
  // conflict themselves. The (sample, own_idx - 1] bound is soundness-critical —
  // this helper is the ONLY place it is written down.
  static bool CommitRangeDisjoint(Word sample, Word own_idx,
                                  const Bloom128& read_bloom) {
    return Ring().RangeDisjoint(sample, own_idx - 1, read_bloom, &Fails());
  }

  // Bloom pre-filter: advances *sample to the current counter when every
  // intervening commit's write bloom is disjoint from `read_bloom`.
  static bool BloomAdvance(Word* sample, const Bloom128& read_bloom) {
    const Word now = Sample();
    if (now == *sample) {
      return true;
    }
    if (!Ring().RangeDisjoint(*sample, now, read_bloom, &Fails())) {
      return false;
    }
    *sample = now;
    return true;
  }
};

// The null writer summary. Case-3 reliance (§2.4): no tracking at all, sound
// when values satisfy non-re-use (or one of the other two special cases); the
// paper's default for val-short. It is also the Summary of every kIncremental orec
// family, whose readers rely on orec versions alone. Its pseudo-counter is
// trivially stable and proves nothing, so kPrecise is false: StrategyState
// consults nothing and PublishWriterCommit publishes nothing (no
// OnWriterCommit), so a writer's commit touches no shared word.
struct NonReuseValidation {
  static constexpr const char* kName = "non-reuse";
  static constexpr bool kPrecise = false;
  static constexpr bool kHasBloomRing = false;
  static constexpr bool kPartitioned = false;
  static constexpr bool kMvcc = false;
  static Word Sample() { return 0; }
  static bool Stable(Word /*sample*/) { return true; }
};

// The writer summary of an orec domain whose readers run kStrategy: the null
// summary under kIncremental, else the domain's WriterSummary, with per-stripe
// counters only under kStripe — they are a domain-wide writer protocol only
// that strategy pays for (WriterSummary's kPartitionedCounters note). Full and
// short engines of one family name the same type, so they agree on the
// protocol.
template <typename DomainTag, ValStrategy kStrategy>
using OrecSummary =
    std::conditional_t<kStrategy == ValStrategy::kIncremental, NonReuseValidation,
                       WriterSummary<DomainTag, kStrategy == ValStrategy::kStripe>>;

// Health watchdog attempt-start feed (no-op unless SPECTM_HEALTH): refreshes
// the domain's ring-saturation gauge from this thread's ring intersect
// failures, so the window close in OnOutcome sees the current level. A
// ring-less summary has nothing to report.
template <typename DomainTag, typename SummaryT>
inline void FeedRingGauge() {
  if constexpr (health::kEnabled && SummaryT::kHasBloomRing) {
    health::SetRingGauge<DomainTag>(SummaryT::Fails().intersect);
  }
}

// Per-(thread, domain) validation instrumentation, mirroring ClockProbe: plain
// thread-local integers, zero shared-state cost, release-build enabled. Tests and
// benches use these to prove the hot-path claims (counter skips firing, the EWMA
// switch actually transitioning strategy).
template <typename DomainTag>
struct ValProbe {
  struct Counters {
    std::uint64_t counter_skips = 0;      // walks avoided by a stable counter
    std::uint64_t bloom_skips = 0;        // walks avoided by ring disjointness
    std::uint64_t validation_walks = 0;   // full read-set walks performed
    std::uint64_t strategy_switches = 0;  // adaptive strategy transitions
    std::uint64_t summary_publishes = 0;  // commits that bumped a shared counter
    // Partitioned-NOrec evidence: walks avoided because every READ-occupied
    // stripe counter was stable; writer-side per-stripe counter bumps; and walks
    // a kStripe attempt could not avoid even through the ring fallback (i.e.
    // genuinely same-stripe — at bloom granularity, same-location — traffic).
    std::uint64_t stripe_skips = 0;
    std::uint64_t stripe_bumps = 0;
    std::uint64_t cross_stripe_walks = 0;
    // Batch-validation kernel evidence (validate_batch.h): 4-entry SIMD
    // iterations and scalar-path entry checks. The CI SIMD and forced-scalar
    // jobs each assert their column is the one that moved.
    std::uint64_t simd_batches = 0;
    std::uint64_t scalar_checks = 0;
    // MVCC evidence (kMvcc policies, mvcc::SnapshotSession): reads served
    // at a pinned snapshot (in place or from a chain); chain nodes
    // dereferenced beyond the in-place fast path; nodes unlinked by writers
    // (recycled or deferred); and chain truncation operations. The zero-cost
    // RO-scan claim is "snapshot_reads > 0 while validation_walks stays 0".
    std::uint64_t snapshot_reads = 0;
    std::uint64_t version_hops = 0;
    std::uint64_t versions_retired = 0;
    std::uint64_t chain_splices = 0;
    // Not counters: kAdaptive's memory. The strategy the last adaptive attempt
    // started with (for tests), the attempt tick driving the periodic
    // skip-efficacy probe, and the hysteresis state for ChooseStrategy: the
    // last UN-probed adaptive choice (the kSkipProbePeriod override must not
    // masquerade as a recovered skip phase, or incremental-with-probing would
    // flap once per probe period). Fixed-strategy attempts never touch them,
    // so families sharing a probe (the val families) cannot disturb it.
    ValStrategy last_strategy = ValStrategy::kIncremental;
    ValStrategy steady_strategy = ValStrategy::kIncremental;
    bool has_strategy = false;
    std::uint32_t attempt_tick = 0;
  };
  static Counters& Get() {
    thread_local Counters counters;
    return counters;
  }
  static void Reset() { Get() = Counters{}; }
};

// The one commit-publication call: every writer path of every engine (full and
// short commits, single ops, eager commits) makes exactly this call once per
// commit that releases a value, with every commit lock held and each locked
// metadata word folded into `sig`, BEFORE the commit-time validation and the
// releasing stores (the ordering atop this file). It is the boundary of the
// commit-publication layer (docs/ARCHITECTURE.md). The summary's OnWriterCommit
// does the bump (stripes, global counter, ring entry); this call owns its
// accounting, so ProbeT's summary_publishes moves exactly when a shared counter
// moves, and stripe_bumps by the stripes a partitioned summary bumped. A
// non-precise summary (NonReuseValidation) tracks no commits: the call compiles
// to nothing. Returns the writer's own commit index (0 where the summary has no
// single index — see TrySkipCommit).
template <typename SummaryT, typename ProbeT>
Word PublishWriterCommit(TxDesc* self,
                         const WriteSignature<SummaryT::kHasBloomRing>& sig) {
  if constexpr (!SummaryT::kPrecise) {
    (void)self;
    (void)sig;
    return 0;
  } else {
    const Word own_idx = SummaryT::OnWriterCommit(self, sig);
    typename ProbeT::Counters& probe = ProbeT::Get();
    ++probe.summary_publishes;
    if constexpr (SummaryT::kPartitioned) {
      probe.stripe_bumps +=
          static_cast<std::uint64_t>(CountStripeBits(sig.stripes));
    }
    return own_idx;
  }
}

// Pre-walk snapshot for tracked walks: the global sample plus (partitioned
// summaries only) the stripe vector. Drawn global-first: writers bump stripes
// BEFORE the global counter, so every commit a global sample counts already
// has its stripe bumps included in a vector drawn after that sample.
struct AnchorSnapshot {
  Word global = 0;
  StripeSample stripes;
};

// Per-attempt strategy state, shared by all four engines (full/short x orec/val —
// previously open-coded in each with small drift; the ROADMAP refactor item).
// Owns kAdaptive's choose/probe-tick at attempt start, the persistent counter
// anchor (global sample AND, under kStripe, the per-stripe sample vector), the
// read signature (read bloom + read-stripe mask), and the
// counter/stripe/bloom/walk skip quartet with its efficacy-EWMA feedback.
// SummaryT is anything satisfying the summary concept (WriterSummary, or a
// ValidationPolicy from val_word.h); ProbeT is the family's ValProbe;
// kStrategy is the family's ValStrategy. kIncremental selects the null
// specialization below, so engines call every member unconditionally. The
// stripe rung compiles only under kStripe, the ring rung only where a bloom
// can be consulted, and the static_asserts reject every strategy/summary pair
// whose rung would read state the summary's writers never publish.
//
// The read signature is LAZY. Engines never report individual reads; each skip
// call instead receives the engine's read log as (size, addr_at), where
// addr_at(i) is entry i's metadata word. Only once the global counter test has
// failed — the one point where the signature is consulted — are the entries
// past a fold cursor hashed into the bloom and stripe mask. The invariant is
// "consulted signature ⊇ the signature of every logged entry": the cursor
// advances only over folded entries and is reset with the log at attempt
// start, so each consult sees exactly what per-read accumulation would have
// built, and each entry is hashed at most once per attempt. A quiet domain,
// where the counter test always holds, never hashes a read.
//
// The anchor invariant every user maintains: `sample()` (when `sample_valid()`)
// names a summary-counter value at which the ENTIRE read log was simultaneously
// valid, and the stripe vector (when stripe-valid) was drawn at the same
// anchoring event, so "every READ-occupied stripe unchanged" proves the same
// thing one shard at a time (docs/VALIDATION.md carries the per-stripe
// re-derivation). Anchor() establishes both before the first read of an attempt;
// tracked walks re-establish them via ConfirmAnchorAfterWalk (tail rule: such
// walks must cover the whole log). A ring BloomAdvance moves only the GLOBAL
// anchor — the advanced-past commits bumped stripes the ring does not identify —
// so it invalidates the stripe anchor until the next full walk. Mutating members
// are mutable + const because engines call the skip paths from const validation
// paths (short_tm's ValidateRo).
template <typename SummaryT, typename ProbeT, ValStrategy kStrategy>
class StrategyState {
  static_assert(SummaryT::kPrecise,
                "only a precise summary proves anything when its counter holds "
                "still; a summary that tracks nothing pairs with kIncremental");
  static_assert(kStrategy == ValStrategy::kCounterSkip || SummaryT::kHasBloomRing,
                "kBloom, kStripe and kAdaptive fall back to the writer ring");
  static_assert(kStrategy != ValStrategy::kStripe || SummaryT::kPartitioned,
                "kStripe reads per-stripe counters its writers must bump");
  static constexpr bool kStripes = kStrategy == ValStrategy::kStripe;
  static constexpr bool kRing = kStrategy != ValStrategy::kCounterSkip;

 public:
  using Snapshot = AnchorSnapshot;

  // Re-arms for a fresh attempt: under kAdaptive, pick the strategy from the
  // descriptor EWMAs (hysteretic band edges keyed off the thread's previous
  // steady choice, with the periodic skip-efficacy probe); reset the read
  // signature and its fold cursor (the caller has just emptied its read log);
  // and anchor the persistent sample BEFORE any read (the skip soundness
  // argument needs the anchor drawn no later than the first read).
  void StartAttempt([[maybe_unused]] const TxStats& stats) {
    if constexpr (kStrategy == ValStrategy::kAdaptive) {
      typename ProbeT::Counters& probe = ProbeT::Get();
      strat_ = ChooseStrategy(AbortEwmaQ16(stats), SkipEwmaQ16(stats),
                              probe.has_strategy, probe.steady_strategy);
      // The hysteresis memory records the steady choice BEFORE the probe
      // override (see ValProbe::Counters::steady_strategy).
      probe.steady_strategy = strat_;
      if (strat_ == ValStrategy::kIncremental &&
          ++probe.attempt_tick % kSkipProbePeriod == 0) {
        strat_ = ValStrategy::kCounterSkip;  // efficacy probe (see kSkipProbePeriod)
      }
      if (probe.has_strategy && probe.last_strategy != strat_) {
        ++probe.strategy_switches;
      }
      probe.last_strategy = strat_;
      probe.has_strategy = true;
    }
    read_bloom_ = Bloom128{};
    read_stripe_mask_ = 0;
    folded_ = 0;
    Anchor();
  }

  Word sample() const { return sample_; }

  // Length of the walk a per-read skip failure runs over a log of `log_size`
  // entries. The walk is tracked (it re-anchors the sample), so it covers the
  // whole log, tail included (tail rule, atop this file).
  static std::size_t PerReadWalkLength(std::size_t log_size) { return log_size; }

  // The skip paths, cheapest first: stable global counter, then (kStripe)
  // stable READ-occupied stripes, then ring disjointness; true means the walk
  // was skipped, false that the caller must walk. The stripe
  // test is consulted before the ring on purpose: a vector compare against
  // private-ish lines beats scanning ring lanes, and it keeps working after the
  // read bloom has saturated the ring's filter. `log_size`/`addr_at` view the
  // caller's whole read log (see the class comment); the signature is folded
  // from it only past the counter test. Updates the skip-efficacy EWMA when
  // `ewma_stats` is non-null (per-read call sites feed the adaptive engine;
  // final-validation call sites pass nullptr, matching the engines' historical
  // behavior).
  template <typename AddrAt>
  bool TrySkipRead(TxStats* ewma_stats, std::size_t log_size,
                   const AddrAt& addr_at) const {
    const ValStrategy strat = strategy();
    if (strat == ValStrategy::kIncremental) {
      return false;  // an adaptive attempt that walks regardless
    }
    if (sample_valid_) {
      if (SummaryT::Stable(sample_)) {
        return Skipped(ProbeT::Get().counter_skips, ewma_stats);
      }
      FoldSignature(log_size, addr_at);
      if constexpr (kStripes) {
        if (stripe_valid_ && StripesUnchanged()) {
          return Skipped(ProbeT::Get().stripe_skips, ewma_stats);
        }
      }
      if constexpr (kRing) {
        if (strat != ValStrategy::kCounterSkip &&
            SummaryT::BloomAdvance(&sample_, read_bloom_)) {
          // Only the GLOBAL anchor advanced: the commits the ring proved
          // disjoint bumped stripes the ring does not name, so the stripe
          // vector is stale until a full walk (or fresh attempt) re-anchors it.
          stripe_valid_ = false;
          return Skipped(ProbeT::Get().bloom_skips, ewma_stats);
        }
      }
    }
    if (ewma_stats != nullptr) {
      UpdateSkipEwma(*ewma_stats, /*skipped=*/false);
    }
    if (kStripes) {
      ++ProbeT::Get().cross_stripe_walks;  // same-stripe traffic beat every skip
    }
    return false;
  }

  // Commit-time skip for a writer that has bumped-and-published (bump-before-
  // validate; see the crossing-committer note atop this file). `own_idx` is the
  // writer's own commit index, or 0 for policies without one (per-thread counter
  // sums), which fall back to the fresh-sample test — sums count every bump, so
  // anchor+1 still means "exactly my own". `write_stripe_mask` is the stripe
  // mask of this writer's published WriteSignature; the kStripe arm expects
  // each READ-occupied stripe at anchor + own contribution, so a foreign bump of any
  // stripe guarding a logged location before this writer's own bump is caught,
  // and writers bumping those stripes afterwards validate against this writer's
  // already-visible locks (the per-stripe crossing-committer argument,
  // docs/VALIDATION.md). The bloom arm exists only where a bloom is consulted.
  // `log_size`/`addr_at` view the read log, as for TrySkipRead.
  template <typename AddrAt>
  bool TrySkipCommit(Word own_idx, unsigned write_stripe_mask,
                     std::size_t log_size, const AddrAt& addr_at) const {
    const ValStrategy strat = strategy();
    if (strat == ValStrategy::kIncremental || !sample_valid_) {
      return false;
    }
    const bool counter_ok = own_idx != 0
                                ? own_idx == sample_ + 1
                                : SummaryT::Sample() == sample_ + 1;
    if (counter_ok) {
      ++ProbeT::Get().counter_skips;
      return true;
    }
    FoldSignature(log_size, addr_at);
    if constexpr (kStripes) {
      if (stripe_valid_ && StripesUnchangedWithOwn(write_stripe_mask)) {
        ++ProbeT::Get().stripe_skips;
        return true;
      }
    }
    if constexpr (kRing) {
      if (strat != ValStrategy::kCounterSkip && own_idx != 0 &&
          SummaryT::CommitRangeDisjoint(sample_, own_idx, read_bloom_)) {
        ++ProbeT::Get().bloom_skips;
        return true;
      }
    }
    return false;
  }

  // Snapshot for tracked walks and the val engines' stability loops: global
  // sample first, then (kStripe) the stripe vector (see Snapshot for why this
  // order).
  Snapshot DrawSnapshot() const {
    Snapshot snap;
    snap.global = SummaryT::Sample();
    if constexpr (kStripes) {
      snap.stripes = SummaryT::StripeSampleNow();
    }
    return snap;
  }

  // Tracked-walk anchoring: call with a Snapshot drawn BEFORE the walk. The
  // pre-walk snapshot becomes the new anchor only if the global counter stayed
  // stable across the walk (a writer that bumped mid-walk may have released
  // mid-walk too); a stable global also vouches for the stripe vector — no
  // commit completed, and an in-flight writer's pending stripe bump either
  // predates the vector (its still-held locks then failed the walk on any
  // logged target) or postdates it (its eventual release is caught as stripe
  // movement). On a failed confirm the walk's result stands but both anchors
  // are invalidated, so later skips walk until a quiet window re-anchors.
  void ConfirmAnchorAfterWalk(const Snapshot& pre_walk) const {
    if (SummaryT::Stable(pre_walk.global)) {
      ReanchorStable(pre_walk);
    } else {
      sample_valid_ = false;
      stripe_valid_ = false;
    }
  }

  // Direct re-anchor for walks that themselves loop until the global counter is
  // stable across a full pass (the val engines' NOrec-style ValidateReads); the
  // snapshot must be the one drawn before that pass.
  void ReanchorStable(const Snapshot& stable) const {
    sample_ = stable.global;
    sample_valid_ = true;
    if constexpr (kStripes) {
      stripe_sample_ = stable.stripes;
      stripe_valid_ = true;
    }
  }

 private:
  // The strategy this attempt runs: the family's own, or kAdaptive's choice.
  ValStrategy strategy() const {
    return kStrategy == ValStrategy::kAdaptive ? strat_ : kStrategy;
  }

  // Counts a walk avoided by one rung and feeds the efficacy EWMA a hit.
  static bool Skipped(std::uint64_t& rung_skips, TxStats* ewma_stats) {
    ++rung_skips;
    if (ewma_stats != nullptr) {
      UpdateSkipEwma(*ewma_stats, /*skipped=*/true);
    }
    return true;
  }

  // The stripe vector costs kCounterStripes extra seq-cst loads; only kStripe
  // consults it, so only kStripe draws it (DrawSnapshot).
  void Anchor() const { ReanchorStable(DrawSnapshot()); }

  // Brings the read signature up to the whole log: hashes entries
  // [folded_, log_size) into the bloom (the counter-skip strategy never
  // consults it) and, under kStripe, the stripe-occupancy mask. Logs only grow
  // within an attempt, so a cursor past the log means a missed StartAttempt.
  template <typename AddrAt>
  void FoldSignature(std::size_t log_size, const AddrAt& addr_at) const {
    assert(folded_ <= log_size && "read log cleared without StartAttempt");
    if (strategy() == ValStrategy::kCounterSkip) {
      return;
    }
    for (; folded_ < log_size; ++folded_) {
      const void* metadata_word = addr_at(folded_);
      read_bloom_ |= AddrBloom128(metadata_word);
      if (kStripes) {
        read_stripe_mask_ |= 1u << CounterStripeOf(metadata_word);
      }
    }
  }

  // True iff every READ-occupied stripe counter equals its anchor component.
  // An empty mask is vacuously stable (an empty — trivially consistent — read
  // set, mirroring the empty-read-bloom note on WriterRing::RangeDisjoint); the
  // callers fold the signature first, so the mask covers the whole log.
  bool StripesUnchanged() const {
    for (int s = 0; s < kCounterStripes; ++s) {
      if (((read_stripe_mask_ >> s) & 1u) != 0 &&
          SummaryT::StripeNow(s) != stripe_sample_.v[s]) {
        return false;
      }
    }
    return true;
  }

  // Commit-time variant: this writer already bumped `own_mask`, so a
  // read-occupied stripe it also wrote must read exactly anchor + 1 (its own
  // bump and nothing else) and any other read-occupied stripe exactly the
  // anchor. anchor + 2 on a self-bumped stripe means a foreign bump crossed us
  // — the partitioned analogue of own_idx != sample + 1.
  bool StripesUnchangedWithOwn(unsigned own_mask) const {
    for (int s = 0; s < kCounterStripes; ++s) {
      if (((read_stripe_mask_ >> s) & 1u) == 0) {
        continue;
      }
      const Word expected = stripe_sample_.v[s] + ((own_mask >> s) & 1u);
      if (SummaryT::StripeNow(s) != expected) {
        return false;
      }
    }
    return true;
  }

  mutable Word sample_ = 0;
  mutable StripeSample stripe_sample_;
  mutable Bloom128 read_bloom_;
  mutable unsigned read_stripe_mask_ = 0;
  mutable std::size_t folded_ = 0;  // read-log entries already in the signature
  ValStrategy strat_ = ValStrategy::kIncremental;  // kAdaptive's current choice
  mutable bool sample_valid_ = false;
  mutable bool stripe_valid_ = false;
};

// The null strategy state, for kIncremental over a summary that tracks nothing
// (NonReuseValidation: the passive orec families and the non-reuse val
// families). There is no anchor to draw or confirm and no skip to try, so
// every member is a no-op or a "must walk". Nothing is anchored on the
// per-read walk, so it keeps the paper's prefix-only shape: the entry just
// read is consistent at its own read instant and is left out.
template <typename SummaryT, typename ProbeT>
class StrategyState<SummaryT, ProbeT, ValStrategy::kIncremental> {
  static_assert(!SummaryT::kPrecise,
                "a precise summary's writers bump counters no kIncremental "
                "reader consults; pair it with a skipping strategy");

 public:
  using Snapshot = AnchorSnapshot;

  void StartAttempt(const TxStats& /*stats*/) {}
  static std::size_t PerReadWalkLength(std::size_t log_size) {
    return log_size - 1;
  }
  template <typename AddrAt>
  bool TrySkipRead(TxStats* /*ewma_stats*/, std::size_t /*log_size*/,
                   const AddrAt& /*addr_at*/) const {
    return false;
  }
  template <typename AddrAt>
  bool TrySkipCommit(Word /*own_idx*/, unsigned /*write_stripe_mask*/,
                     std::size_t /*log_size*/, const AddrAt& /*addr_at*/) const {
    return false;
  }
  Snapshot DrawSnapshot() const { return {}; }
  void ConfirmAnchorAfterWalk(const Snapshot& /*pre_walk*/) const {}
  void ReanchorStable(const Snapshot& /*stable*/) const {}
};

}  // namespace spectm

#endif  // SPECTM_TM_VALSTRATEGY_H_
