// Bounded multi-version chains for the `val` layout (MVCC snapshot reads).
//
// A committing writer displaces one word per written slot. While a snapshot
// older than the commit is pinned or pending, the MVCC layer threads those
// displaced values onto a per-slot chain of VersionNode, newest first, each
// stamped with the commit-clock index of the commit that displaced it (the
// flock `persistent_ptr` idiom: publish the link first, resolve the stamp
// with a lazy CAS). A read-only transaction that pinned snapshot S then
// reads, per slot, either the current word (its reign began at or before S)
// or the newest chain node whose validity interval [floor, stamp) contains
// S — no validation, no sandwiching, no aborts.
//
// Versions are kept only while a snapshot can need them. A commit T whose
// done-stamp scan finds no pin below T (done_stamp >= T) pushes no node: it
// stores the odd reign tag (T << 1) | 1 in the slot's head word instead and
// reclaims whatever chain was there (flock's mark bit in the link word, with
// shortcut_indirect dropping every link the done stamp has passed). The head
// word (ChainHead) is therefore 0 (no history), an even VersionNode*, or a
// reign tag saying "the current word has reigned since T; nothing older is
// kept". A reader at S >= T takes the current word; a reader at S < T finds
// its version gone and refreshes, as after a bound truncation. The writer's
// bump precedes its pin scan and a reader's pending pin precedes its clock
// sample, both seq_cst, so a reader pinned below T is always seen and that
// refresh never fires because of an elided commit.
//
// Interval invariants (immutable once a node is reachable):
//   * node.floor  = start of the reign it ended: the stamp of the node it
//     was pushed over, the reign tag's T, or 0 for a slot with no history —
//     the commit index at which node.word became the slot's current value.
//   * node.stamp  = commit index of the commit that displaced node.word;
//     kUnstamped only transiently, while the pushing writer still holds the
//     slot's commit lock. chain invariant: node.next.stamp == node.floor
//     (a node pushed over a reign tag has no next).
//   * An aborted publish (throw between push and stamp CAS) is repaired by
//     stamping the node with its own floor — an empty interval no snapshot
//     ever selects — never by popping, since a concurrent reader may already
//     hold the pointer (TombstoneUnstampedHead). Only a push can throw, so
//     the repair never meets a reign tag.
//
// Reclamation: a node can no longer be SELECTED by any snapshot reader once
// stamp <= done_stamp (EpochManager::SnapshotDoneStamp — the minimum pinned
// snapshot, bounded by a pre-scan clock sample); chain-bound overflow drops
// (stamp > done_stamp) park on a deferred list until the done stamp catches
// up. Selection-dead is not touch-dead: a reader that loaded a chain pointer
// just before the unlink may still load the node's stamp, floor and word. If
// the node had been handed straight to the next publish, the reader would
// see another slot's version there, with a fresh stamp and an old floor, and
// return that slot's word as its own. So a selection-dead node waits out an
// epoch grace period in its pool's limbo before any publish may reuse it,
// memory only returns to the allocator through the epoch manager's Retire,
// and snapshot transactions hold an epoch Guard for their whole attempt.
// The pin bound covers selection; the grace period covers touch and reuse.
// docs/VALIDATION.md §10 carries the full argument.
#ifndef SPECTM_TM_MVCC_H_
#define SPECTM_TM_MVCC_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"

namespace spectm {
namespace mvcc {

// Sentinel stamp for a half-published node (pushing writer still holds the
// slot lock). Also conveniently greater than every real snapshot.
inline constexpr Word kUnstamped = ~Word{0};

// Chain-length bound: a push that would grow a chain past this drops the tail
// suffix (readers whose snapshot predates the surviving floor detect the
// truncation — deepest floor > S — and fall back).
inline constexpr int kMaxVersions = 8;

struct VersionNode {
  std::atomic<Word> stamp{kUnstamped};      // displaced at this commit index
  Word floor = 0;                           // became current at this index
  Word word = 0;                            // the displaced value
  std::atomic<VersionNode*> next{nullptr};  // next-older version
};

// A SnapSlot's chain-head word: 0 (no history), an even VersionNode* (nodes
// are word-aligned), or an odd reign tag (T << 1) | 1 left by a commit T
// that kept no version (StampReign). Commit indices stay far below 2^63, so
// the shift loses nothing.
using ChainHead = std::atomic<Word>;

constexpr Word ReignTag(Word commit_idx) { return (commit_idx << 1) | 1; }
constexpr bool IsReignTag(Word head) { return (head & 1) != 0; }

// The newest chain node, or nullptr for an empty head or a reign tag.
inline VersionNode* NodeOf(Word head) {
  return IsReignTag(head) ? nullptr : WordToPtr<VersionNode>(head);
}

// The commit index the head's current reign (for a node: the reign after it)
// began at: the reign tag's T, the head node's stamp (possibly kUnstamped
// mid-publish), or 0 for a slot with no history.
inline Word HeadStamp(Word head) {
  if (IsReignTag(head)) {
    return head >> 1;
  }
  const VersionNode* n = NodeOf(head);
  return n != nullptr ? n->stamp.load(std::memory_order_acquire) : 0;
}

struct DeferredNode {
  VersionNode* node;
  Word stamp;
};

namespace internal {

// Deferred nodes from exited threads. Intentionally leaked (reachable after
// TLS destructors) and drained opportunistically by live pools.
struct Spill {
  std::mutex mu;
  std::vector<DeferredNode> nodes;
};

inline Spill& GlobalSpill() {
  static Spill* s = new Spill;
  return *s;
}

}  // namespace internal

// The epoch manager carrying the snapshot-pin registry (and done stamp) for
// the val-layout MVCC domain. Snapshot transactions pin here; version
// reclamation bounds itself here.
inline EpochManager& MvccEpoch() { return GlobalEpochManager(); }

// Per-thread node allocator. Recycle() is only legal for nodes proven
// unreachable-for-SELECTION (stamp <= done_stamp at unlink); anything else goes
// through Defer() and waits for the done stamp. Selection-dead is weaker than
// touch-dead: a snapshot reader that loaded a chain pointer just before the
// unlink may still read the node. Recycle() therefore leaves the node as it is
// and parks it in a bounded FIFO limbo, tagged under a Guard with
// EpochManager::UnlinkEpoch(); Acquire() reuses it only once the global epoch
// is two past the tag, when every guard that could hold it has exited
// (snapshot transactions hold one while pinned). Limbo overflow, the spill
// drain and thread exit hand nodes to the epoch manager's Retire, so no node
// is reused or freed under a reader mid-traversal. No Retire traffic may be
// there to move the epoch, so every kAdvanceInterval recycles try to advance
// it.
class NodePool {
 public:
  static constexpr std::size_t kMaxFree = 256;  // limbo bound
  static constexpr std::size_t kAdvanceInterval = 64;

  NodePool() = default;
  // The destructor hands the limbo to the spill; a copy would hand it twice.
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  VersionNode* Acquire() {
    if (limbo_size_ != 0) {
      const LimboNode& oldest = limbo_[limbo_head_];
      if (oldest.epoch + 2 <= MvccEpoch().GlobalEpoch()) {
        VersionNode* n = oldest.node;
        limbo_head_ = (limbo_head_ + 1) % kMaxFree;
        --limbo_size_;
        return n;
      }
    }
    return new VersionNode;
  }

  // Tags are loaded in push order from a monotonic epoch, so the limbo is
  // sorted by tag and Acquire need only look at its oldest entry.
  void Recycle(VersionNode* n) {
    EpochManager& mgr = MvccEpoch();
    EpochManager::Guard g(mgr);
    if (limbo_size_ < kMaxFree) {
      limbo_[(limbo_head_ + limbo_size_) % kMaxFree] = LimboNode{n, mgr.UnlinkEpoch()};
      ++limbo_size_;
    } else {
      mgr.Retire(n);
    }
    if (++recycles_since_advance_ >= kAdvanceInterval) {
      recycles_since_advance_ = 0;
      mgr.TryAdvance();
    }
  }

  void Defer(VersionNode* n, Word stamp) { deferred_.push_back(DeferredNode{n, stamp}); }

  // Recycles deferred nodes whose stamp the done stamp has passed, then makes
  // the same sweep over the cold global spill (try-lock: contention means
  // someone else is already draining).
  void DrainDeferred(Word done_stamp) {
    for (std::size_t i = 0; i < deferred_.size();) {
      if (deferred_[i].stamp <= done_stamp) {
        Recycle(deferred_[i].node);
        deferred_[i] = deferred_.back();
        deferred_.pop_back();
      } else {
        ++i;
      }
    }
    internal::Spill& spill = internal::GlobalSpill();
    std::unique_lock<std::mutex> lock(spill.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      return;
    }
    EpochManager& mgr = MvccEpoch();
    EpochManager::Guard g(mgr);
    for (std::size_t i = 0; i < spill.nodes.size();) {
      if (spill.nodes[i].stamp <= done_stamp) {
        mgr.Retire(spill.nodes[i].node);
        spill.nodes[i] = spill.nodes.back();
        spill.nodes.pop_back();
      } else {
        ++i;
      }
    }
  }

  std::size_t DeferredCount() const { return deferred_.size(); }

  ~NodePool() {
    // Runs from a TLS destructor: the epoch manager's own thread cache may
    // already be torn down, so no Enter/Retire here. Limbo nodes may still be
    // read by a reader that loaded a chain pointer just before their unlink
    // (stamp 0 = selection-dead at once), so they join the spill and a live
    // pool's DrainDeferred retires them through the epoch manager. The spill
    // itself is reachable-forever by design, so anything no thread drains
    // stays reachable, not leaked.
    if (limbo_size_ == 0 && deferred_.empty()) {
      return;
    }
    internal::Spill& spill = internal::GlobalSpill();
    std::lock_guard<std::mutex> lock(spill.mu);
    for (std::size_t i = 0; i < limbo_size_; ++i) {
      spill.nodes.push_back(DeferredNode{limbo_[(limbo_head_ + i) % kMaxFree].node, 0});
    }
    spill.nodes.insert(spill.nodes.end(), deferred_.begin(), deferred_.end());
  }

 private:
  struct LimboNode {
    VersionNode* node;
    std::uint64_t epoch;  // UnlinkEpoch() at recycle
  };

  LimboNode limbo_[kMaxFree] = {};
  std::size_t limbo_head_ = 0;  // oldest entry
  std::size_t limbo_size_ = 0;
  std::size_t recycles_since_advance_ = 0;
  std::vector<DeferredNode> deferred_;
};

inline NodePool& Pool() {
  thread_local NodePool pool;
  return pool;
}

struct PublishStats {
  int retired = 0;   // nodes unlinked (recycled or deferred)
  int splices = 0;   // chain truncation operations
};

// Unlinks the suffix starting at `n` (already detached from the chain) and
// reclaims it: provably-dead nodes recycle now, the rest defer.
inline void ReclaimSuffix(VersionNode* n, Word done_stamp, NodePool& pool,
                          PublishStats* stats) {
  while (n != nullptr) {
    VersionNode* next = n->next.load(std::memory_order_relaxed);
    const Word st = n->stamp.load(std::memory_order_relaxed);
    // Schedule point (PR 9): a node leaving the chain while snapshot readers
    // may still be traversing toward it.
    SPECTM_SCHED_POINT(failpoint::Site::kVersionRetire);
    if (st <= done_stamp) {
      pool.Recycle(n);
    } else {
      pool.Defer(n, st);
    }
    ++stats->retired;
    n = next;
  }
}

// Walks the chain under `head` (the slot's current head, lock held by the
// caller) and truncates at the first node the done stamp has passed, or at
// the kMaxVersions bound, whichever comes first.
inline void TrimChain(VersionNode* head, Word done_stamp, NodePool& pool,
                      PublishStats* stats) {
  int len = 1;
  VersionNode* prev = head;
  VersionNode* n = head->next.load(std::memory_order_relaxed);
  while (n != nullptr) {
    const Word st = n->stamp.load(std::memory_order_relaxed);
    if (st <= done_stamp || len >= kMaxVersions) {
      prev->next.store(nullptr, std::memory_order_release);
      ++stats->splices;
      ReclaimSuffix(n, done_stamp, pool, stats);
      return;
    }
    prev = n;
    n = n->next.load(std::memory_order_relaxed);
    ++len;
  }
}

// Publishes `displaced` as the newest version under `head_ref` and stamps it
// with `commit_idx` (the publishing commit's clock index), then bounds the
// chain. The caller holds the slot's commit lock for the whole call, which is
// what makes the head unstamped-window exclusive to us.
inline void PublishVersion(ChainHead& head_ref, Word displaced, Word commit_idx,
                           Word done_stamp, NodePool& pool, PublishStats* stats) {
  const Word h = head_ref.load(std::memory_order_relaxed);
  VersionNode* n = pool.Acquire();
  // A reachable head is always stamped: its pusher stamped it (or tombstoned
  // it on abort) before releasing the lock we now hold.
  n->floor = HeadStamp(h);
  assert(n->floor != kUnstamped && "chain head left unstamped by a previous owner");
  n->word = displaced;
  n->stamp.store(kUnstamped, std::memory_order_relaxed);
  n->next.store(NodeOf(h), std::memory_order_relaxed);
  head_ref.store(PtrToWord(n), std::memory_order_release);
  // The flock-style lazy-stamp window: the link is public, the stamp is not.
  // Snapshot readers that meet the unstamped head retry (the slot is locked);
  // a throw here unwinds into TombstoneUnstampedHead via the commit guard.
  SPECTM_FAILPOINT_PAUSE(failpoint::Site::kVersionPublish);
  Word expected = kUnstamped;
  n->stamp.compare_exchange_strong(expected, commit_idx, std::memory_order_acq_rel);
  TrimChain(n, done_stamp, pool, stats);
}

// The elided publish, for a commit `commit_idx` no snapshot can need a
// version of (done_stamp >= commit_idx: none is pinned or pending below it).
// The head becomes the reign tag, and the old chain is reclaimed whole: every
// node in it has stamp <= commit_idx <= done_stamp, so it is selection-dead
// and waits out the pool's grace period like any trimmed node. The caller
// holds the slot's commit lock. No throwing site: nothing to tombstone.
inline void StampReign(ChainHead& head_ref, Word commit_idx, Word done_stamp,
                       NodePool& pool, PublishStats* stats) {
  VersionNode* old = NodeOf(head_ref.load(std::memory_order_relaxed));
  head_ref.store(ReignTag(commit_idx), std::memory_order_release);
  if (old != nullptr) {
    ++stats->splices;
    ReclaimSuffix(old, done_stamp, pool, stats);
  }
}

// Abort-path repair for a throw inside the publish window: an unstamped head
// under a still-held slot lock is ours. Stamp it with its own floor — the
// empty interval [floor, floor) that no snapshot ever selects — and leave it
// chained for normal splicing to reclaim. Popping instead would free a node a
// concurrent reader may already hold a pointer to.
inline void TombstoneUnstampedHead(ChainHead& head_ref) {
  VersionNode* head = NodeOf(head_ref.load(std::memory_order_relaxed));
  if (head != nullptr && head->stamp.load(std::memory_order_relaxed) == kUnstamped) {
    head->stamp.store(head->floor, std::memory_order_release);
  }
}

// Chain length in nodes, 0 under a reign tag (test support; caller must
// exclude concurrent pushes).
inline int ChainLength(const ChainHead& head_ref) {
  int len = 0;
  for (VersionNode* n = NodeOf(head_ref.load(std::memory_order_acquire)); n != nullptr;
       n = n->next.load(std::memory_order_acquire)) {
    ++len;
  }
  return len;
}

}  // namespace mvcc
}  // namespace spectm

#endif  // SPECTM_TM_MVCC_H_
