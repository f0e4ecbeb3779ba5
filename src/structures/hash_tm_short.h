// Hash-table integer set decomposed into SpecTM short transactions (§2.2): the
// "*-short-*" variants, including the headline val-short configuration.
//
// Decomposition (the paper's methodology: "we start by splitting operations into a
// series of short atomic steps, each of a statically-known size"):
//   * traversal      — Tx_Single_Read per link, ignoring deleted nodes (as in the
//                      skip list of Figure 4);
//   * insert         — one Tx_Single_CAS publishing the privately initialized node;
//   * remove         — one 2-location short RW transaction that simultaneously
//                      unlinks the node and freezes it by marking its next pointer
//                      (an instance of §2.4 case 1: the transaction updates
//                      everything it reads);
//   * lookup         — one extra Tx_Single_Read of the candidate's next pointer to
//                      test the deleted mark.
//
// The deleted mark (bit 1) makes unlinked nodes detectable by concurrent traversals
// that reached them before the unlink, exactly as in the lock-free algorithm — but
// here marking and unlinking are a single atomic step, which removes the lock-free
// version's helping protocol entirely.
//
// Value non-re-use (§2.4 case 3) holds for every transactional word: they only ever
// hold node pointers (fresh allocations, protected by epoch reclamation) or their
// marked forms.
#ifndef SPECTM_STRUCTURES_HASH_TM_SHORT_H_
#define SPECTM_STRUCTURES_HASH_TM_SHORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/bucket.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"
#include "src/tm/config.h"

namespace spectm {

template <typename Family>
class SpecHashSet {
 public:
  using Slot = typename Family::Slot;

  explicit SpecHashSet(std::size_t buckets = 16384,
                       EpochManager& epoch = GlobalEpochManager())
      : epoch_(epoch), buckets_(buckets) {}

  ~SpecHashSet() {
    for (Slot& head : buckets_) {
      Node* curr = WordToPtr<Node>(Unmark(Family::RawRead(&head)));
      while (curr != nullptr) {
        Node* next = WordToPtr<Node>(Unmark(Family::RawRead(&curr->next)));
        delete curr;
        curr = next;
      }
    }
  }

  SpecHashSet(const SpecHashSet&) = delete;
  SpecHashSet& operator=(const SpecHashSet&) = delete;

  bool Contains(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    const Window w = Search(key);
    if (w.curr == nullptr || w.curr->key != key) {
      return false;
    }
    // Present iff not logically deleted (the mark read is the linearization point).
    return !IsMarked(Family::SingleRead(&w.curr->next));
  }

  bool Insert(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    Node* node = nullptr;
    while (true) {
      const Window w = Search(key);
      if (w.curr != nullptr && w.curr->key == key) {
        if (!IsMarked(Family::SingleRead(&w.curr->next))) {
          delete node;  // never published
          return false;
        }
        // A deleted node with our key was still on our (stale) path; re-search.
        continue;
      }
      if (node == nullptr) {
        node = new Node(key);
      }
      Family::RawWrite(&node->next, PtrToWord(w.curr));  // private until the CAS
      if (Family::SingleCas(w.prev_link, PtrToWord(w.curr), PtrToWord(node)) ==
          PtrToWord(w.curr)) {
        return true;
      }
    }
  }

  bool Remove(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    while (true) {
      const Window w = Search(key);
      if (w.curr == nullptr || w.curr->key != key) {
        return false;
      }
      typename Family::ShortTx t;
      const Word prev_val = t.ReadRw(w.prev_link);
      const Word curr_next = t.ReadRw(&w.curr->next);
      if (!t.Valid()) {
        t.Abort();
        continue;  // contention on the window; retry
      }
      if (prev_val != PtrToWord(w.curr) || IsMarked(curr_next)) {
        // Window moved, or someone else is removing this node.
        t.Abort();
        if (IsMarked(curr_next)) {
          continue;  // re-search decides: gone -> false, reinserted -> retry
        }
        continue;
      }
      // Atomically: unlink from prev AND freeze the victim (mark its next pointer).
      t.CommitRw({curr_next, Mark(curr_next)});
      epoch_.Retire(w.curr);
      return true;
    }
  }

 private:
  struct Node {
    std::uint64_t key;
    Slot next;

    explicit Node(std::uint64_t k) : key(k) {}
  };

  struct Window {
    Slot* prev_link;
    Node* curr;
  };

  // Single-read traversal; traverses THROUGH deleted nodes (their frozen next
  // pointers remain valid paths) exactly like the paper's skip-list Search.
  Window Search(std::uint64_t key) {
    Slot* prev_link = &BucketFor(key);
    Node* curr = WordToPtr<Node>(Unmark(Family::SingleRead(prev_link)));
    while (curr != nullptr && curr->key < key) {
      prev_link = &curr->next;
      curr = WordToPtr<Node>(Unmark(Family::SingleRead(prev_link)));
    }
    return Window{prev_link, curr};
  }

  Slot& BucketFor(std::uint64_t key) {
    return buckets_[BucketOf(MixKey(key), buckets_.size())];
  }

  EpochManager& epoch_;
  std::vector<Slot> buckets_;
};

}  // namespace spectm

#endif  // SPECTM_STRUCTURES_HASH_TM_SHORT_H_
