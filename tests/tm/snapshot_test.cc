// MVCC snapshot reads (src/tm/mvcc.h, ValSnap): read-only transactions pin a
// snapshot stamp and serve every read from the per-slot version chains — no
// validation walks, no aborts, regardless of concurrent same-stripe writers.
// Probe-asserted here: snapshot_reads > 0 with validation_walks == 0 under
// writer churn; the chain-bound overflow fallback; pin-based retirement (a
// dropped node a pinned reader could still reach is deferred, never recycled);
// write promotion; version elision (a commit no snapshot can need a version
// of stamps the slot's reign instead of pushing); and a TSan-targeted
// consistency battery over ValSnap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/epoch/epoch.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/variants.h"
#include "tests/tm/held_snapshot.h"

namespace spectm {
namespace {

using F = ValSnap;
using Probe = ValProbe<ValDomainTag>;

std::uint64_t RoAbortsNow() {
  return F::Full::StatsForCurrentThread().aborts.load(std::memory_order_relaxed);
}

// The commit clock: right after a commit on a quiet domain, that commit's own
// index.
Word ClockNow() { return SnapshotValidation::Sample(); }

mvcc::VersionNode* HeadNodeOf(const F::Slot& s) {
  return mvcc::NodeOf(s.versions.load(std::memory_order_acquire));
}

// --- The tentpole property, deterministically ---------------------------------------

// A snapshot transaction keeps reading its start-time state while single-op
// writers commit over the very slots it scans — and pays ZERO validation
// walks and zero aborts for it. The writers hit the same counter stripe as
// the reads (same slots), which under every other precise family would abort
// or at least force full read-set walks.
TEST(SnapshotReads, SeeStartStateDespiteInterleavedWriters) {
  constexpr int kSlots = 8;
  // Slots here (and below) have static duration: committed writers hang
  // version chains off them, and chain nodes are reclaimed by later publishes,
  // not by slot destruction — a slot dying with history attached would strand
  // its nodes (LeakSanitizer-visible). Static slots keep every node reachable.
  static F::Slot a[kSlots];
  for (int i = 0; i < kSlots; ++i) {
    F::SingleWrite(&a[i], EncodeInt(static_cast<Word>(i)));
  }
  Probe::Reset();
  const std::uint64_t aborts_before = RoAbortsNow();

  F::FullTx tx;
  tx.Start();
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(DecodeInt(tx.Read(&a[i])), static_cast<Word>(i));
    ASSERT_TRUE(tx.ok());
    // A writer commits over the NEXT slot before the snapshot gets there —
    // and over this one, for depth: the chain must carry the old value.
    F::SingleWrite(&a[(i + 1) % kSlots], EncodeInt(1000 + static_cast<Word>(i)));
  }
  // Re-read everything: still the start-time values, however hot the churn.
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(DecodeInt(tx.Read(&a[i])), static_cast<Word>(i));
    ASSERT_TRUE(tx.ok());
  }
  EXPECT_TRUE(tx.Commit());

  const Probe::Counters& c = Probe::Get();
  EXPECT_GT(c.snapshot_reads, 0u);
  EXPECT_GT(c.version_hops, 0u) << "no read ever traversed a chain node";
  EXPECT_EQ(c.validation_walks, 0u) << "a snapshot RO transaction validated";
  EXPECT_EQ(RoAbortsNow(), aborts_before) << "a snapshot RO transaction aborted";
}

// Same property through the short-transaction API: RO reads are single chain
// traversals at the pinned stamp, with no incremental revalidation.
TEST(SnapshotReads, ShortRoReadsAreChainReadsWithoutValidation) {
  static F::Slot x, y;
  F::SingleWrite(&x, EncodeInt(7));
  F::SingleWrite(&y, EncodeInt(9));
  Probe::Reset();

  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 7u);
  F::SingleWrite(&x, EncodeInt(70));  // commits after the pin: invisible
  F::SingleWrite(&y, EncodeInt(90));
  EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 7u);
  EXPECT_EQ(DecodeInt(tx.ReadRo(&y)), 9u);
  EXPECT_TRUE(tx.Valid());

  const Probe::Counters& c = Probe::Get();
  EXPECT_EQ(c.snapshot_reads, 3u);
  EXPECT_EQ(c.validation_walks, 0u)
      << "short snapshot reads must not revalidate the RO log";
  EXPECT_GE(c.version_hops, 2u);
}

// --- Write promotion ----------------------------------------------------------------

// The snapshot cut cannot extend to a write: the first Write() promotes the
// attempt, which must fail when a writer committed over a snapshot read.
TEST(SnapshotPromotion, FirstWriteValidatesAndFailsOnConflict) {
  static F::Slot x, out;
  F::SingleWrite(&x, EncodeInt(1));
  F::SingleWrite(&out, EncodeInt(0));

  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&x)), 1u);
  F::SingleWrite(&x, EncodeInt(2));  // invalidates the snapshot value "now"
  tx.Write(&out, EncodeInt(99));     // promotion: must detect the conflict
  EXPECT_FALSE(tx.ok());
  EXPECT_FALSE(tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 0u) << "a failed promotion published";
}

// Promotes a snapshot attempt (read x, write out = x + 10) and commits it.
void CommitCleanPromotion(F::Slot* x, F::Slot* out) {
  F::FullTx tx;
  tx.Start();
  const Word vx = tx.Read(x);
  tx.Write(out, EncodeInt(DecodeInt(vx) + 10));
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(out)), 15u);
}

TEST(SnapshotPromotion, CleanPromotionCommitsAndPublishesVersions) {
  static F::Slot x, out;
  F::SingleWrite(&x, EncodeInt(5));
  F::SingleWrite(&out, EncodeInt(1));

  HeldSnapshot below;  // pinned below the commit: its version must be kept
  CommitCleanPromotion(&x, &out);
  // The commit displaced EncodeInt(1) onto out's chain: the snapshot pinned
  // before this commit still finds it. Chain head must be stamped.
  mvcc::VersionNode* head = HeadNodeOf(out);
  ASSERT_NE(head, nullptr);
  EXPECT_NE(head->stamp.load(std::memory_order_acquire), mvcc::kUnstamped);
  EXPECT_EQ(DecodeInt(head->word), 1u);
}

// The unpinned twin: no snapshot can need the displaced value, so the commit
// stamps out's reign with its own index and keeps no node.
TEST(SnapshotPromotion, CleanPromotionStampsItsReignWhenUnpinned) {
  static F::Slot x, out;
  F::SingleWrite(&x, EncodeInt(5));
  F::SingleWrite(&out, EncodeInt(1));

  CommitCleanPromotion(&x, &out);
  EXPECT_EQ(out.versions.load(std::memory_order_acquire), mvcc::ReignTag(ClockNow()));
  EXPECT_EQ(mvcc::ChainLength(out.versions), 0);
}

// Promotion through the short API rides the first lock (ReadRw / upgrade).
TEST(SnapshotPromotion, ShortFirstLockValidatesSnapshotLog) {
  static F::Slot x, out;
  F::SingleWrite(&x, EncodeInt(3));
  F::SingleWrite(&out, EncodeInt(0));

  {
    F::ShortTx tx;
    EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 3u);
    F::SingleWrite(&x, EncodeInt(4));
    tx.ReadRw(&out);  // first lock: promotion validates the RO log and fails
    EXPECT_FALSE(tx.Valid());
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 0u);

  {
    F::ShortTx tx;
    EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 4u);
    const Word vo = tx.ReadRw(&out);
    ASSERT_TRUE(tx.Valid());
    EXPECT_TRUE(tx.CommitMixed({EncodeInt(DecodeInt(vo) + 42)}));
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 42u);
}

// A quiet promotion is proven by the skip ladder, not a walk: the anchor is
// drawn before the pin, so with no commit since it over a logged slot the
// in-place snapshot reads are exactly the log ordinary reads would have built.
// Each API promotes (x read at the snapshot, then a write to out) with the
// probe deltas across the promotion alone.
struct FullPromotion {
  F::FullTx tx;
  FullPromotion() { tx.Start(); }
  Word Read(F::Slot* s) { return tx.Read(s); }
  void Write(F::Slot* s, Word v) { tx.Write(s, v); }  // promotes
  bool ok() const { return tx.ok(); }
  bool Commit() { return tx.Commit(); }
};

struct ShortPromotion {
  F::ShortTx tx;
  Word out_value = 0;
  Word Read(F::Slot* s) { return tx.ReadRo(s); }
  void Write(F::Slot* s, Word v) {  // the first lock promotes
    (void)tx.ReadRw(s);
    out_value = v;
  }
  bool ok() const { return tx.Valid(); }
  bool Commit() { return tx.CommitMixed({out_value}); }
};

// A slot whose counter stripe differs from x's: 64 KiB of slots spans every
// 4 KiB stripe region.
F::Slot* OtherStripeSlot(const F::Slot& x) {
  static F::Slot pool[4096];
  for (F::Slot& s : pool) {
    if (CounterStripeOf(&s.word) != CounterStripeOf(&x.word)) {
      return &s;
    }
  }
  return nullptr;
}

// Promotes after reading x at the snapshot; `bystander` (if any) commits
// between that read and the write. Returns the probe deltas of the promotion.
template <typename Promotion>
Probe::Counters PromoteAndCommit(F::Slot* x, F::Slot* out, F::Slot* bystander) {
  F::SingleWrite(x, EncodeInt(5));
  F::SingleWrite(out, EncodeInt(1));
  Promotion tx;
  const Word vx = tx.Read(x);
  EXPECT_EQ(DecodeInt(vx), 5u);
  if (bystander != nullptr) {
    F::SingleWrite(bystander, EncodeInt(7));
  }
  const Probe::Counters before = Probe::Get();
  tx.Write(out, EncodeInt(DecodeInt(vx) + 10));
  const Probe::Counters after = Probe::Get();
  EXPECT_TRUE(tx.ok());
  EXPECT_TRUE(tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(out)), 15u);
  Probe::Counters d;
  d.validation_walks = after.validation_walks - before.validation_walks;
  d.counter_skips = after.counter_skips - before.counter_skips;
  d.stripe_skips = after.stripe_skips - before.stripe_skips;
  d.bloom_skips = after.bloom_skips - before.bloom_skips;
  return d;
}

template <typename Promotion>
void ExpectQuietPromotionSkips() {
  static F::Slot x, out;
  const Probe::Counters d = PromoteAndCommit<Promotion>(&x, &out, nullptr);
  EXPECT_EQ(d.validation_walks, 0u) << "a quiet promotion walked its log";
  EXPECT_EQ(d.counter_skips, 1u);
}

template <typename Promotion>
void ExpectOtherStripePromotionSkips() {
  static F::Slot x, out;
  F::Slot* bystander = OtherStripeSlot(x);
  ASSERT_NE(bystander, nullptr);
  const Probe::Counters d = PromoteAndCommit<Promotion>(&x, &out, bystander);
  EXPECT_EQ(d.validation_walks, 0u)
      << "a commit in another stripe made the promotion walk";
  EXPECT_EQ(d.counter_skips, 0u) << "the bystander did not move the counter";
  EXPECT_EQ(d.stripe_skips + d.bloom_skips, 1u);
}

TEST(SnapshotPromotion, QuietPromotionSkipsTheWalk) {
  ExpectQuietPromotionSkips<FullPromotion>();
}

TEST(SnapshotPromotion, ShortQuietPromotionSkipsTheWalk) {
  ExpectQuietPromotionSkips<ShortPromotion>();
}

TEST(SnapshotPromotion, OtherStripeCommitStillSkipsTheWalk) {
  ExpectOtherStripePromotionSkips<FullPromotion>();
}

TEST(SnapshotPromotion, ShortOtherStripeCommitStillSkipsTheWalk) {
  ExpectOtherStripePromotionSkips<ShortPromotion>();
}

// --- Chain bound: overflow fallback and retirement ----------------------------------

// A snapshot attempt through either engine: both read through one
// mvcc::SnapshotSession, whose refresh and promotion each engine drives with
// its own walk.
struct FullSnapshotTx {
  F::FullTx tx;
  FullSnapshotTx() { tx.Start(); }
  Word Read(F::Slot* s) { return tx.Read(s); }
  bool ok() const { return tx.ok(); }
  bool Commit() { return tx.Commit(); }
};

struct ShortSnapshotTx {
  F::ShortTx tx;  // pins at construction
  Word Read(F::Slot* s) { return tx.ReadRo(s); }
  bool ok() const { return tx.Valid(); }
  bool Commit() { return tx.CommitMixed({}); }
};

// A chain truncated below the snapshot is the one case a snapshot read cannot
// serve: the reader refreshes its pin (one validation walk over what it
// already read) and continues at the new snapshot — it does not abort.
template <typename SnapshotTx>
void ExpectOverflowRefreshes() {
  static F::Slot stable, hot;
  F::SingleWrite(&stable, EncodeInt(11));
  F::SingleWrite(&hot, EncodeInt(0));
  Probe::Reset();

  SnapshotTx tx;
  EXPECT_EQ(DecodeInt(tx.Read(&stable)), 11u);
  // Overflow hot's chain past kMaxVersions while the snapshot is pinned below
  // all of it: the surviving suffix's floors all exceed the pin.
  for (int i = 1; i <= mvcc::kMaxVersions + 4; ++i) {
    F::SingleWrite(&hot, EncodeInt(static_cast<Word>(i)));
  }
  EXPECT_LE(mvcc::ChainLength(hot.versions), mvcc::kMaxVersions);
  const Word latest = static_cast<Word>(mvcc::kMaxVersions + 4);
  // The read must succeed at a refreshed snapshot (stable was not overwritten,
  // so the refresh validation passes) and return the current value.
  EXPECT_EQ(DecodeInt(tx.Read(&hot)), latest);
  ASSERT_TRUE(tx.ok());
  if constexpr (std::is_same_v<SnapshotTx, FullSnapshotTx>) {
    // (A short transaction names each location once, §2.2.)
    EXPECT_EQ(DecodeInt(tx.Read(&stable)), 11u);
  }
  EXPECT_TRUE(tx.Commit());

  const Probe::Counters& c = Probe::Get();
  EXPECT_GE(c.validation_walks, 1u) << "the refresh path never walked";
  EXPECT_GE(c.chain_splices, 1u) << "the bound never spliced the chain";
  EXPECT_GT(c.versions_retired, 0u);
}

TEST(SnapshotChains, OverflowFallsBackToRefreshedSnapshot) {
  ExpectOverflowRefreshes<FullSnapshotTx>();
  ExpectOverflowRefreshes<ShortSnapshotTx>();
}

// Retirement is pin-bounded: a node dropped from a chain while its stamp
// exceeds the done stamp (a pinned reader could still reach it) parks on the
// deferred list instead of being recycled, and drains once the pin lifts.
TEST(SnapshotChains, RetirementDefersNodesAPinnedReaderCouldReach) {
  static F::Slot hot;
  F::SingleWrite(&hot, EncodeInt(0));
  // Settle earlier deferred traffic from this thread so the counts below are
  // attributable: with no pin, one more publish drains everything stale.
  F::SingleWrite(&hot, EncodeInt(0));
  ASSERT_EQ(mvcc::Pool().DeferredCount(), 0u);

  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&hot)), 0u);  // pin S below everything that follows
  for (int i = 1; i <= mvcc::kMaxVersions + 6; ++i) {
    F::SingleWrite(&hot, EncodeInt(static_cast<Word>(i)));
  }
  // Bound-truncation dropped nodes stamped AFTER the pin: all deferred.
  EXPECT_GT(mvcc::Pool().DeferredCount(), 0u)
      << "overflow drops were recycled under a live pin";
  EXPECT_TRUE(tx.Commit());  // unpins

  // With the pin lifted the next publish's drain reclaims the parked nodes.
  F::SingleWrite(&hot, EncodeInt(777));
  EXPECT_EQ(mvcc::Pool().DeferredCount(), 0u);
}

// The abort path repairs a half-published chain by tombstoning, never by
// popping: an aborted writer's displaced-value node must be unreachable to
// every snapshot (empty validity interval), while the slot value is restored.
// A short RW attempt locks x (displacing 21), then aborts: the head word the
// seed left must stand unchanged, and a fresh snapshot must read 21 — the
// abort published nothing selectable.
void ExpectAbortedWriterLeavesHead(F::Slot* x) {
  const Word head_before = x->versions.load(std::memory_order_acquire);
  {
    F::ShortTx tx;
    EXPECT_EQ(DecodeInt(tx.ReadRw(x)), 21u);
    ASSERT_TRUE(tx.Valid());
    tx.Abort();
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(x)), 21u);
  EXPECT_EQ(x->versions.load(std::memory_order_acquire), head_before);
  F::FullTx ro;
  ro.Start();
  EXPECT_EQ(DecodeInt(ro.Read(x)), 21u);
  EXPECT_TRUE(ro.Commit());
}

TEST(SnapshotChains, AbortedWriterLeavesNoSelectableVersion) {
  static F::Slot x;
  F::SingleWrite(&x, EncodeInt(20));
  {
    HeldSnapshot below;  // the seed pushes: x's head is a node
    F::SingleWrite(&x, EncodeInt(21));
  }
  mvcc::VersionNode* head = HeadNodeOf(x);
  ASSERT_NE(head, nullptr);
  ExpectAbortedWriterLeavesHead(&x);
  // No dangling unstamped node.
  EXPECT_NE(head->stamp.load(std::memory_order_acquire), mvcc::kUnstamped);
}

// The unpinned twin: the seed stamped x's reign, and the abort keeps the tag.
TEST(SnapshotChains, AbortedWriterLeavesTheReignTag) {
  static F::Slot x;
  F::SingleWrite(&x, EncodeInt(21));
  ASSERT_EQ(x.versions.load(std::memory_order_acquire), mvcc::ReignTag(ClockNow()));
  ExpectAbortedWriterLeavesHead(&x);
}

// --- Version elision: keep versions only while a snapshot can need them ------------

// A commit whose done-stamp scan finds no pin below it pushes nothing: each
// written slot's head becomes the reign tag of the commit's own index, and no
// version is retired or spliced, through the single-op, short and full paths
// (the full one promoted, so its own registry pin is gone by commit time).
TEST(SnapshotElision, UnpinnedCommitStampsItsReignAndRetiresNothing) {
  static F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));
  Probe::Reset();

  F::SingleWrite(&a, EncodeInt(3));
  EXPECT_EQ(a.versions.load(std::memory_order_acquire), mvcc::ReignTag(ClockNow()));
  {
    F::ShortTx tx;
    const Word va = tx.ReadRw(&a);
    const Word vb = tx.ReadRw(&b);
    ASSERT_TRUE(tx.Valid());
    EXPECT_TRUE(tx.CommitRw({vb, va}));
  }
  const Word short_tag = mvcc::ReignTag(ClockNow());
  EXPECT_EQ(a.versions.load(std::memory_order_acquire), short_tag);
  EXPECT_EQ(b.versions.load(std::memory_order_acquire), short_tag);
  EXPECT_TRUE(F::Full::Atomically([&](F::FullTx& tx) {
    const Word va = tx.Read(&a);
    const Word vb = tx.Read(&b);
    if (tx.ok()) {
      tx.Write(&a, vb);
      tx.Write(&b, va);
    }
  }));
  const Word full_tag = mvcc::ReignTag(ClockNow());
  EXPECT_EQ(a.versions.load(std::memory_order_acquire), full_tag);
  EXPECT_EQ(b.versions.load(std::memory_order_acquire), full_tag);
  EXPECT_EQ(DecodeInt(F::SingleRead(&a)), 3u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&b)), 2u);

  const Probe::Counters& c = Probe::Get();
  EXPECT_EQ(c.versions_retired, 0u);
  EXPECT_EQ(c.chain_splices, 0u);
}

// A snapshot pinned below the commit forces the push, whether it is an
// unpromoted snapshot on the committing thread or on another thread.
TEST(SnapshotElision, PinBelowTheCommitForcesAPush) {
  static F::Slot s;
  F::SingleWrite(&s, EncodeInt(1));
  {
    F::FullTx tx;
    tx.Start();
    EXPECT_EQ(DecodeInt(tx.Read(&s)), 1u);
    F::SingleWrite(&s, EncodeInt(2));
    mvcc::VersionNode* head = HeadNodeOf(s);
    ASSERT_NE(head, nullptr) << "a same-thread snapshot's pin did not force a push";
    EXPECT_EQ(head->stamp.load(std::memory_order_acquire), ClockNow());
    EXPECT_EQ(DecodeInt(head->word), 1u);
    EXPECT_EQ(DecodeInt(tx.Read(&s)), 1u);
    EXPECT_TRUE(tx.Commit());
  }
  F::SingleWrite(&s, EncodeInt(3));  // the pin is gone: the chain goes too
  EXPECT_EQ(s.versions.load(std::memory_order_acquire), mvcc::ReignTag(ClockNow()));
  {
    HeldSnapshot below;
    F::SingleWrite(&s, EncodeInt(4));
    mvcc::VersionNode* head = HeadNodeOf(s);
    ASSERT_NE(head, nullptr) << "another thread's pin did not force a push";
    EXPECT_EQ(DecodeInt(head->word), 3u);
  }
}

// A pin still in its intent state (kPinPending: published, not yet sampled)
// may end up at any stamp below the commit, so it forces the push too.
TEST(SnapshotElision, PendingPinForcesAPush) {
  static F::Slot s;
  F::SingleWrite(&s, EncodeInt(1));
  mvcc::MvccEpoch().BeginSnapshotPin();
  F::SingleWrite(&s, EncodeInt(2));
  mvcc::MvccEpoch().UnpinSnapshot();
  mvcc::VersionNode* head = HeadNodeOf(s);
  ASSERT_NE(head, nullptr) << "a pending pin did not force a push";
  EXPECT_EQ(DecodeInt(head->word), 1u);
}

// A promoted attempt reads no chain, so promotion releases its registry pin
// (the epoch guard stays until the attempt ends): it no longer blocks another
// writer's elision while it is still open.
TEST(SnapshotElision, PromotedAttemptsPinDoesNotBlockElision) {
  static F::Slot x, out, other;
  F::SingleWrite(&x, EncodeInt(5));
  F::SingleWrite(&out, EncodeInt(1));
  F::SingleWrite(&other, EncodeInt(0));
  std::atomic<bool> promoted{false};
  std::atomic<bool> finish{false};
  std::thread promoter([&] {
    F::FullTx tx;
    tx.Start();
    const Word vx = tx.Read(&x);
    tx.Write(&out, EncodeInt(DecodeInt(vx) + 10));  // promotion
    promoted.store(true, std::memory_order_release);
    while (!finish.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(tx.Commit());
  });
  while (!promoted.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  F::SingleWrite(&other, EncodeInt(7));
  EXPECT_EQ(other.versions.load(std::memory_order_acquire), mvcc::ReignTag(ClockNow()))
      << "an open promoted attempt still held its snapshot pin";
  finish.store(true, std::memory_order_release);
  promoter.join();
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 15u);
}

// A push over a reign tag starts the chain: the new node's floor is the tag's
// commit index (the displaced value's reign began there) and it has no next.
TEST(SnapshotElision, PushOverATagTakesTheTagAsFloor) {
  static F::Slot s;
  F::SingleWrite(&s, EncodeInt(1));
  const Word reign = ClockNow();
  ASSERT_EQ(s.versions.load(std::memory_order_acquire), mvcc::ReignTag(reign));

  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&s)), 1u);
  F::SingleWrite(&s, EncodeInt(2));
  mvcc::VersionNode* head = HeadNodeOf(s);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->floor, reign);
  EXPECT_EQ(head->stamp.load(std::memory_order_acquire), ClockNow());
  EXPECT_EQ(head->next.load(std::memory_order_acquire), nullptr);
  EXPECT_EQ(DecodeInt(tx.Read(&s)), 1u);
  EXPECT_TRUE(tx.Commit());
}

// A snapshot older than a reign tag finds its version gone: the read reports
// it (never the current word), and the session refreshes — one walk over its
// log — and returns the current value. Pinned readers never meet this (the
// commit's scan sees their pin); the pin is dropped here by hand to stand in
// for a snapshot the commit could not see.
TEST(SnapshotElision, SnapshotBelowATagRefreshesToTheCurrentValue) {
  static F::Slot a, s;
  F::SingleWrite(&a, EncodeInt(4));
  F::SingleWrite(&s, EncodeInt(5));
  const Word reign = ClockNow();
  EXPECT_FALSE(SnapshotReadSlot(&s, reign - 1).ok);
  const SnapshotReadResult at_reign = SnapshotReadSlot(&s, reign);
  ASSERT_TRUE(at_reign.ok);
  EXPECT_EQ(DecodeInt(at_reign.value), 5u);

  Probe::Reset();
  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&a)), 4u);
  mvcc::MvccEpoch().UnpinSnapshot();
  F::SingleWrite(&s, EncodeInt(9));
  ASSERT_EQ(s.versions.load(std::memory_order_acquire), mvcc::ReignTag(ClockNow()));
  EXPECT_EQ(DecodeInt(tx.Read(&s)), 9u);
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(tx.Commit());
  EXPECT_GE(Probe::Get().validation_walks, 1u) << "the tag read did not refresh";
}

// --- Guard nesting (epoch.h re-entrancy, carried by this PR) ------------------------

TEST(EpochGuardNesting, InnerGuardDoesNotRetractActivity) {
  EpochManager mgr;
  std::atomic<bool> freed{false};
  {
    EpochManager::Guard outer(mgr);
    {
      EpochManager::Guard inner(mgr);  // same thread, same manager: depth bump
    }
    // The outer guard must STILL be active: an object retired now by another
    // thread can not be freed while we remain inside.
    std::thread t([&] {
      EpochManager::Guard g(mgr);
      mgr.Retire(&freed, [](void* p) {
        static_cast<std::atomic<bool>*>(p)->store(true);
      });
    });
    t.join();
    mgr.ReclaimAllForTesting();  // advances are blocked by our activity word
    EXPECT_FALSE(freed.load()) << "inner Guard exit retracted the outer guard";
  }
  mgr.ReclaimAllForTesting();
  EXPECT_TRUE(freed.load());
}

// A chain node that leaves the pool's bounded free list must go through the
// epoch manager, never straight back to the allocator: a snapshot reader that
// loaded a chain pointer just before the node's unlink may still dereference
// its stamp word once (mvcc.h "selection-dead is not touch-dead").
TEST(NodePoolReclamation, FreeListOverflowRoutesThroughTheEpochManager) {
  EpochManager& mgr = GlobalEpochManager();
  mgr.ReclaimAllForTesting();
  const std::uint64_t freed_before = mgr.FreedCount();
  constexpr std::size_t kOverflow = 32;
  {
    mvcc::NodePool pool;
    for (std::size_t i = 0; i < mvcc::NodePool::kMaxFree + kOverflow; ++i) {
      pool.Recycle(new mvcc::VersionNode);
    }
    // The overflow nodes are retired (pending or already epoch-freed), not
    // raw-deleted; the kMaxFree resident nodes stay type-stable in the pool.
    EXPECT_GE((mgr.FreedCount() - freed_before) + mgr.PendingCount(), kOverflow);
    mgr.ReclaimAllForTesting();
    EXPECT_GE(mgr.FreedCount() - freed_before, kOverflow);
  }
}

// The reader-side half of the same contract: while any guard is held (a
// pinned snapshot transaction holds one for its whole duration), nodes
// retired by writers must NOT reach the allocator.
TEST(NodePoolReclamation, AHeldGuardBlocksRetiredNodeFrees) {
  EpochManager& mgr = GlobalEpochManager();
  mgr.ReclaimAllForTesting();
  const std::uint64_t freed_before = mgr.FreedCount();
  {
    EpochManager::Guard reader(mgr);  // stands in for a pinned snapshot tx
    std::thread writer([] {
      mvcc::NodePool pool;
      for (std::size_t i = 0; i < mvcc::NodePool::kMaxFree + 32; ++i) {
        pool.Recycle(new mvcc::VersionNode);
      }
    });
    writer.join();
    mgr.ReclaimAllForTesting();  // frees nothing: our guard pins the epoch
    EXPECT_EQ(mgr.FreedCount(), freed_before)
        << "a retired chain node was freed under a live guard";
  }
  mgr.ReclaimAllForTesting();
  EXPECT_GE(mgr.FreedCount() - freed_before, 32u);
}

// A recycled node is selection-dead, but a reader whose guard predates the
// recycle may still hold a pointer to it. The pool must not hand the node to
// the next publish until that guard has exited and the epoch has moved two
// steps (mvcc.h NodePool): immediate reuse rewrites the node under the reader,
// the version-node ABA ScannersSeeConsistentCutsUnderTransfer catches.
TEST(NodePoolReclamation, RecycledNodeWaitsOutAnOlderGuard) {
  EpochManager& mgr = GlobalEpochManager();
  mgr.ReclaimAllForTesting();
  std::atomic<bool> entered{false};
  std::atomic<bool> leave{false};
  std::thread reader([&] {
    EpochManager::Guard g(mgr);  // stands in for a pinned snapshot tx
    entered.store(true);
    while (!leave.load()) {
      std::this_thread::yield();
    }
  });
  while (!entered.load()) {
    std::this_thread::yield();
  }
  mvcc::NodePool pool;
  auto* node = new mvcc::VersionNode;
  const std::uint64_t epoch_before_recycle = mgr.GlobalEpoch();
  pool.Recycle(node);
  for (int i = 0; i < 4; ++i) {
    mgr.ReclaimAllForTesting();  // the held guard lets the epoch move one step
    mvcc::VersionNode* fresh = pool.Acquire();
    EXPECT_NE(fresh, node) << "a recycled node was reused under an older guard";
    if (fresh != node) {
      delete fresh;
    }
  }
  leave.store(true);
  reader.join();
  bool reused = false;
  for (int i = 0; i < 4 && !reused; ++i) {
    mvcc::VersionNode* n = pool.Acquire();
    if (n == node) {
      EXPECT_GE(mgr.GlobalEpoch(), epoch_before_recycle + 2);
      reused = true;
    } else {
      delete n;
      mgr.ReclaimAllForTesting();
    }
  }
  EXPECT_TRUE(reused) << "the pool never reused the node after the guard exited";
  delete node;
}

// --- Concurrency battery (run under TSan in CI) -------------------------------------

// Writers move value between two slots keeping x + y constant; snapshot
// readers assert the invariant on every read pair. Any torn snapshot, any
// misordered publish, any premature node recycle shows up as a violated sum
// (or as a TSan report on the chain accesses).
TEST(SnapshotConcurrency, ScannersSeeConsistentCutsUnderTransfer) {
  constexpr int kTransfers = 4000;
  constexpr int kScans = 4000;
  constexpr Word kTotal = 1000;
  static auto* x = new F::Slot();
  static auto* y = new F::Slot();
  F::SingleWrite(x, EncodeInt(kTotal));
  F::SingleWrite(y, EncodeInt(0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_sums{0};

  std::thread writer([&] {
    for (int i = 0; i < kTransfers; ++i) {
      F::Full::Atomically([&](F::FullTx& tx) {
        const Word vx = tx.Read(x);
        if (!tx.ok()) {
          return;
        }
        const Word vy = tx.Read(y);
        if (!tx.ok()) {
          return;
        }
        if (DecodeInt(vx) == 0) {
          return;
        }
        tx.Write(x, EncodeInt(DecodeInt(vx) - 1));
        tx.Write(y, EncodeInt(DecodeInt(vy) + 1));
      });
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread scanner([&] {
    for (int i = 0; i < kScans && !stop.load(std::memory_order_acquire); ++i) {
      F::Full::Atomically([&](F::FullTx& tx) {
        const Word vx = tx.Read(x);
        if (!tx.ok()) {
          return;
        }
        const Word vy = tx.Read(y);
        if (!tx.ok()) {
          return;
        }
        if (DecodeInt(vx) + DecodeInt(vy) != kTotal) {
          bad_sums.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  std::thread short_scanner([&] {
    for (int i = 0; i < kScans && !stop.load(std::memory_order_acquire); ++i) {
      while (true) {
        F::ShortTx tx;
        const Word vx = tx.ReadRo(x);
        if (!tx.Valid()) {
          continue;
        }
        const Word vy = tx.ReadRo(y);
        if (!tx.Valid()) {
          continue;
        }
        if (DecodeInt(vx) + DecodeInt(vy) != kTotal) {
          bad_sums.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
    }
  });
  writer.join();
  scanner.join();
  short_scanner.join();
  EXPECT_EQ(bad_sums.load(), 0u) << "a snapshot saw a torn transfer";
  EXPECT_EQ(DecodeInt(F::SingleRead(x)) + DecodeInt(F::SingleRead(y)), kTotal);
}

// Single-op churn against full-transaction snapshot scans: exercises the
// single-op publish path (displace -> bump -> publish -> store) under real
// concurrency, with single-op readers spinning out publish windows.
TEST(SnapshotConcurrency, SingleOpChurnKeepsChainsSoundForScanners) {
  constexpr int kWrites = 6000;
  constexpr int kScans = 3000;
  static auto* s = new F::Slot();
  F::SingleWrite(s, EncodeInt(0));
  std::atomic<std::uint64_t> regressions{0};

  std::thread writer([&] {
    for (int i = 1; i <= kWrites; ++i) {
      F::SingleWrite(s, EncodeInt(static_cast<Word>(i)));
    }
  });
  std::thread scanner([&] {
    Word last = 0;
    for (int i = 0; i < kScans; ++i) {
      F::Full::Atomically([&](F::FullTx& tx) {
        const Word v = tx.Read(s);
        if (!tx.ok()) {
          return;
        }
        // The writer only increments: any later snapshot reading an EARLIER
        // value than a previous snapshot would break monotonicity.
        if (DecodeInt(v) < last) {
          regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last = DecodeInt(v);
      });
    }
  });
  std::thread single_reader([&] {
    Word last = 0;
    for (int i = 0; i < kScans; ++i) {
      const Word v = DecodeInt(F::SingleRead(s));
      if (v < last) {
        regressions.fetch_add(1, std::memory_order_relaxed);
      }
      last = v;
    }
  });
  writer.join();
  scanner.join();
  single_reader.join();
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_EQ(DecodeInt(F::SingleRead(s)), static_cast<Word>(kWrites));
}

}  // namespace
}  // namespace spectm
