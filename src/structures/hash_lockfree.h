// Lock-free hash-table integer set: the paper's "lock-free" comparator, "implemented
// from Fraser's design" (§2) — a bucket array of Harris-style lock-free sorted linked
// lists with marked next pointers and cooperative physical unlinking.
//
// The deleted mark lives in bit 1 of a node's own next pointer (bit 0 stays clear so
// the same node layout works beside val-layout STM words elsewhere in the repo).
// Memory is reclaimed through the epoch manager; a node is retired exactly once, by
// the thread whose CAS physically unlinks it.
#ifndef SPECTM_STRUCTURES_HASH_LOCKFREE_H_
#define SPECTM_STRUCTURES_HASH_LOCKFREE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/bucket.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"

namespace spectm {

class LockFreeHashSet {
 public:
  explicit LockFreeHashSet(std::size_t buckets = 16384,
                           EpochManager& epoch = GlobalEpochManager())
      : epoch_(epoch), buckets_(buckets) {}

  ~LockFreeHashSet() {
    // Quiescent teardown: reclaim all chains directly.
    for (Bucket& b : buckets_) {
      Node* curr = WordToPtr<Node>(Unmark(b.head.load(std::memory_order_relaxed)));
      while (curr != nullptr) {
        Node* next = WordToPtr<Node>(Unmark(curr->next.load(std::memory_order_relaxed)));
        delete curr;
        curr = next;
      }
    }
  }

  LockFreeHashSet(const LockFreeHashSet&) = delete;
  LockFreeHashSet& operator=(const LockFreeHashSet&) = delete;

  // Wait-free-ish read-only traversal: skips logically deleted nodes.
  bool Contains(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    const Node* curr =
        WordToPtr<Node>(Unmark(BucketFor(key).head.load(std::memory_order_acquire)));
    while (curr != nullptr) {
      const Word succ = curr->next.load(std::memory_order_acquire);
      if (IsMarked(succ)) {
        curr = WordToPtr<Node>(Unmark(succ));  // deleted: skip without comparing
        continue;
      }
      if (curr->key >= key) {
        return curr->key == key;
      }
      curr = WordToPtr<Node>(succ);
    }
    return false;
  }

  bool Insert(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    Bucket& bucket = BucketFor(key);
    Node* node = nullptr;
    while (true) {
      const Window w = Search(&bucket, key);
      if (w.curr != nullptr && w.curr->key == key) {
        delete node;  // never published
        return false;
      }
      if (node == nullptr) {
        node = new Node{key, {}};
      }
      node->next.store(PtrToWord(w.curr), std::memory_order_relaxed);
      Word expected = PtrToWord(w.curr);
      if (w.prev_link->compare_exchange_strong(expected, PtrToWord(node),
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  bool Remove(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    Bucket& bucket = BucketFor(key);
    while (true) {
      const Window w = Search(&bucket, key);
      if (w.curr == nullptr || w.curr->key != key) {
        return false;
      }
      const Word succ = w.curr->next.load(std::memory_order_acquire);
      if (IsMarked(succ)) {
        continue;  // another remover is mid-flight; re-search
      }
      // Logical deletion: mark the victim's next pointer. Only one thread can win.
      Word expected = succ;
      if (!w.curr->next.compare_exchange_strong(expected, Mark(succ),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
        continue;
      }
      // Physical unlink; on failure a helping Search will finish (and retire).
      expected = PtrToWord(w.curr);
      if (w.prev_link->compare_exchange_strong(expected, succ, std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
        epoch_.Retire(w.curr);
      } else {
        Search(&bucket, key);
      }
      return true;
    }
  }

 private:
  struct Node {
    std::uint64_t key;
    std::atomic<Word> next{0};
  };

  struct Bucket {
    std::atomic<Word> head{0};
  };

  struct Window {
    std::atomic<Word>* prev_link;  // link whose target is curr
    Node* curr;                    // first unmarked node with key >= target, or null
  };

  // Harris search: returns an unmarked window, physically unlinking any marked nodes
  // encountered (the unlinking CAS winner retires the node).
  Window Search(Bucket* bucket, std::uint64_t key) {
  retry:
    std::atomic<Word>* prev_link = &bucket->head;
    Node* curr = WordToPtr<Node>(prev_link->load(std::memory_order_acquire));
    while (curr != nullptr) {
      const Word succ = curr->next.load(std::memory_order_acquire);
      if (IsMarked(succ)) {
        Word expected = PtrToWord(curr);
        if (!prev_link->compare_exchange_strong(expected, Unmark(succ),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
          goto retry;  // prev changed under us; restart from the head
        }
        epoch_.Retire(curr);
        curr = WordToPtr<Node>(Unmark(succ));
        continue;
      }
      if (curr->key >= key) {
        break;
      }
      prev_link = &curr->next;
      curr = WordToPtr<Node>(succ);
    }
    return Window{prev_link, curr};
  }

  Bucket& BucketFor(std::uint64_t key) {
    return buckets_[BucketOf(MixKey(key), buckets_.size())];
  }

  EpochManager& epoch_;
  std::vector<Bucket> buckets_;
};

}  // namespace spectm

#endif  // SPECTM_STRUCTURES_HASH_LOCKFREE_H_
