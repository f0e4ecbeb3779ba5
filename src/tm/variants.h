// Named TM domains ("families") binding a meta-data layout, a clock policy, and the
// engines that share them. A family is what data-structure templates are instantiated
// over; the structure decides which API it uses:
//
//   TmHashSet<OrecG>    -> "orec-full-g"   (whole-operation transactions, §2.1)
//   SpecHashSet<OrecG>  -> "orec-short-g"  (decomposed short transactions, §2.2)
//   SpecHashSet<TvarG>  -> "tvar-short-g"  (short + co-located meta-data, §2.3)
//   SpecHashSet<Val>    -> "val-short"     (short + 1-bit meta-data, §2.4)
//   ...
//
// Short and full transactions within one family interoperate: they agree on the orec
// (or lock-bit) protocol and on version numbering, which is what lets a data
// structure run its common cases as short transactions and fall back to full
// transactions elsewhere (§2.2, §3).
#ifndef SPECTM_TM_VARIANTS_H_
#define SPECTM_TM_VARIANTS_H_

#include <cassert>

#include "src/common/tagged.h"
#include "src/tm/clock.h"
#include "src/tm/full_tm.h"
#include "src/tm/layout.h"
#include "src/tm/short_tm.h"
#include "src/tm/val_full.h"
#include "src/tm/val_short.h"
#include "src/tm/val_word.h"
#include "src/tm/valstrategy.h"

namespace spectm {

namespace internal {

template <typename Tag, template <typename> class LayoutTmpl,
          template <typename> class ClockTmpl,
          ValStrategy kStrategy = ValStrategy::kIncremental>
struct OrecBasedFamily {
  using DomainTag = Tag;
  using Layout = LayoutTmpl<Tag>;
  using Clock = ClockTmpl<Tag>;
  using Full = FullTm<Layout, Clock, Tag, kStrategy>;
  using Short = ShortTm<Layout, Clock, Tag, kStrategy>;
  using Slot = typename Layout::Slot;
  using FullTx = typename Full::Tx;
  using ShortTx = typename Short::ShortTx;
  static constexpr ValStrategy kValStrategy = kStrategy;

  static Word SingleRead(Slot* s) { return Short::SingleRead(s); }
  static void SingleWrite(Slot* s, Word v) { Short::SingleWrite(s, v); }
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    return Short::SingleCas(s, expected, desired);
  }

  // Non-transactional accessors for thread-private data (e.g. initializing a node's
  // links before it is published into a shared structure).
  static void RawWrite(Slot* s, Word v) {
    Layout::Data(*s).store(v, std::memory_order_relaxed);
  }
  static Word RawRead(Slot* s) {
    return Layout::Data(*s).load(std::memory_order_relaxed);
  }
};

template <typename ValidationT, ValStrategy kStrategy>
struct ValFamilyT {
  // All val families share one descriptor domain, commit counter and writer
  // ring, so they also share one SerialGate/CmProbe. Named here so generic code
  // can say CmProbe<typename Family::DomainTag> for either kind. The one-word
  // families interoperate on the same words; ValSnap's slots are their own type
  // (SnapSlot, val_word.h), so no other family can write them without
  // publishing the displaced version.
  using DomainTag = ValDomainTag;
  using Validation = ValidationT;
  using Full = ValFullTm<ValidationT, kStrategy>;
  using Short = ValShortTm<ValidationT, kStrategy>;
  using Slot = typename Full::Slot;
  using FullTx = typename Full::Tx;
  using ShortTx = typename Short::ShortTx;
  static constexpr ValStrategy kValStrategy = kStrategy;

  static Word SingleRead(Slot* s) { return Short::SingleRead(s); }
  static void SingleWrite(Slot* s, Word v) { Short::SingleWrite(s, v); }
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    return Short::SingleCas(s, expected, desired);
  }

  static void RawWrite(Slot* s, Word v) {
    assert((v & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
    s->word.store(v, std::memory_order_relaxed);
  }
  static Word RawRead(Slot* s) { return s->word.load(std::memory_order_relaxed); }
};

}  // namespace internal

struct OrecGTag {};
struct OrecLTag {};
struct TvarGTag {};
struct TvarLTag {};
struct OrecGNaiveTag {};

// Shared orec table + global version clock (Figure 3(a)). The global clock is the
// GV4 pass-on-failure policy with a thread-local sample cache (clock.h).
using OrecG = internal::OrecBasedFamily<OrecGTag, OrecLayout, GlobalClockPolicy>;
// Shared orec table + per-orec version numbers.
using OrecL = internal::OrecBasedFamily<OrecLTag, OrecLayout, LocalClockPolicy>;
// Co-located TVar meta-data + global clock (Figure 3(b)).
using TvarG = internal::OrecBasedFamily<TvarGTag, TvarLayout, GlobalClockPolicy>;
// Co-located TVar meta-data + per-orec versions.
using TvarL = internal::OrecBasedFamily<TvarLTag, TvarLayout, LocalClockPolicy>;

// Ablation baseline: the TL2/GV1-style fetch_add clock (every writer commit bumps
// one shared cache line). A distinct domain tag keeps its clock and orec table
// fully isolated from the GV4 families; bench/abl_clock_scale sweeps it against
// the defaults.
using OrecGNaive = internal::OrecBasedFamily<OrecGNaiveTag, OrecLayout, GlobalClockNaive>;

// Orec-table indexing ablation (orec.h OrecStriping): identical engine and
// clock, but the shared table maps adjacent addresses to guaranteed-distinct
// cache lines instead of hash-scattering them. A distinct tag keeps the striped
// table fully isolated; swept against the hashed OrecL in
// bench/abl_readset_layout.
struct OrecLStripedTag {};
using OrecLStriped =
    internal::OrecBasedFamily<OrecLStripedTag, OrecLayoutStriped, LocalClockPolicy>;

// Adaptive-validation ablations over the local-clock layout — the family whose
// full-transaction reads pay the O(read-set) per-read revalidation the engine
// exists to cut. OrecL itself (kIncremental: no writer summary at all) is the
// always-incremental baseline; the fixed strategies measure each mechanism in
// isolation; the adaptive family switches between them per attempt from the
// abort-rate EWMA. Swept in bench/abl_adaptive_val.
struct OrecLCounterTag {};
struct OrecLBloomTag {};
struct OrecLAdaptTag {};
using OrecLCounterSkip =
    internal::OrecBasedFamily<OrecLCounterTag, OrecLayout, LocalClockPolicy,
                              ValStrategy::kCounterSkip>;
using OrecLBloom = internal::OrecBasedFamily<OrecLBloomTag, OrecLayout,
                                             LocalClockPolicy, ValStrategy::kBloom>;
using OrecLAdaptive =
    internal::OrecBasedFamily<OrecLAdaptTag, OrecLayout, LocalClockPolicy,
                              ValStrategy::kAdaptive>;

// Partitioned NOrec (valstrategy.h kStripe): the precise commit counter sharded
// into per-address-region stripe counters — writers bump only the stripes their
// write set touches, readers skip walks when every READ-occupied stripe is
// stable, and the bloom ring is the fallback for same-stripe traffic. On the
// hash-scattered shared orec table the stripe of an orec is effectively random
// (wide read sets occupy every stripe), so OrecLPart mainly measures the
// partition's overhead there; the val-layout ValPart below is where region
// locality pays (see the counter-stripe note in valstrategy.h).
struct OrecLPartTag {};
using OrecLPart = internal::OrecBasedFamily<OrecLPartTag, OrecLayout,
                                            LocalClockPolicy, ValStrategy::kStripe>;

// 1-bit meta-data with value-based validation (Figure 3(c)); version-free by default
// (relies on the paper's three special cases, §2.4, so its readers always walk),
// with counter-backed general policies, whose readers run the NOrec counter
// skip, for code outside those cases.
using Val = internal::ValFamilyT<NonReuseValidation, ValStrategy::kIncremental>;
using ValGlobalCounter =
    internal::ValFamilyT<GlobalCounterValidation, ValStrategy::kCounterSkip>;
using ValPerThreadCounter =
    internal::ValFamilyT<PerThreadCounterValidation, ValStrategy::kCounterSkip>;

// Validation-strategy ablations for the val layout, ALL over the bloom-publishing
// counter policy (val_word.h) so every row of bench/abl_adaptive_val pays the
// identical writer protocol (bump + ring publish) and the cells differ only in
// reader strategy: fixed bloom and the EWMA-adaptive engine. ValGlobalCounter
// above stays on the classic ring-less Dalessandro counter for the original
// abl_val_validation comparison.
using ValBloom =
    internal::ValFamilyT<GlobalCounterBloomValidation, ValStrategy::kBloom>;
using ValAdaptive =
    internal::ValFamilyT<GlobalCounterBloomValidation, ValStrategy::kAdaptive>;
// Partitioned NOrec over the val layout: metadata IS the data word (§2.4), so the
// address-region counter stripes inherit the structure's locality — a btree
// leaf-chain scan occupies few stripes however many ENTRIES it logs, which is
// exactly where the fixed-width ring bloom saturates (abl_readset_layout's
// 256-entry intersect-failure row, the ROADMAP item this family closes).
using ValPart =
    internal::ValFamilyT<GlobalCounterBloomValidation, ValStrategy::kStripe>;
// MVCC snapshot reads (mvcc.h): the one family whose read-only transactions
// validate NOTHING — each read is a single traversal of the slot's bounded
// version chain at a stamp pinned at start, so RO work can neither walk nor
// abort however hot concurrent writers run. Writers keep the ValPart-style
// stripe protocol and additionally thread their displaced values onto the
// chains at commit. SnapshotValidation is GlobalCounterBloomValidation plus
// the kMvcc marker, which alone selects the snapshot session
// (mvcc::SnapshotSession); the commit counter doubles as the version clock.
using ValSnap = internal::ValFamilyT<SnapshotValidation, ValStrategy::kStripe>;

// Service-facing aliases (src/svc): the four engine configurations the KV
// service scenario instantiates over, named by the role they play there rather
// than by layout internals. SvcOrec is the orec baseline (local clock, passive
// revalidation — every batch read walks, so wide BatchGets exercise the SIMD
// batch kernel); SvcOrecPart adds the partitioned counter on the
// hash-scattered table (overhead row — stripes are placement-blind there);
// SvcVal is the partitioned-counter val engine where KvStore's stripe-homed
// shard arenas make region-local batches genuinely stripe-resident; and
// SvcSnapshot routes read-only batches through pinned MVCC snapshots
// (never validates, never aborts).
using SvcOrec = OrecL;
using SvcOrecPart = OrecLPart;
using SvcVal = ValPart;
using SvcSnapshot = ValSnap;

}  // namespace spectm

#endif  // SPECTM_TM_VARIANTS_H_
