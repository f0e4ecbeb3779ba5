// Hash-table integer set over the traditional whole-operation transactional API
// (§2.1): the "*-full-*" variants. Each Contains/Insert/Remove runs as ONE ordinary
// transaction — the straightforward code the paper credits traditional TM for
// ("data structures built using traditional TM implementations" are the simplest).
//
// No deleted marks are needed: transactional conflict detection alone guarantees
// that a removal invalidates any concurrent operation that depended on the unlinked
// node's position.
#ifndef SPECTM_STRUCTURES_HASH_TM_FULL_H_
#define SPECTM_STRUCTURES_HASH_TM_FULL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bucket.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"
#include "src/tm/config.h"

namespace spectm {

template <typename Family>
class TmHashSet {
 public:
  using Slot = typename Family::Slot;

  explicit TmHashSet(std::size_t buckets = 16384,
                     EpochManager& epoch = GlobalEpochManager())
      : epoch_(epoch), buckets_(buckets) {}

  ~TmHashSet() {
    for (Slot& head : buckets_) {
      Node* curr = WordToPtr<Node>(Family::RawRead(&head));
      while (curr != nullptr) {
        Node* next = WordToPtr<Node>(Family::RawRead(&curr->next));
        delete curr;
        curr = next;
      }
    }
  }

  TmHashSet(const TmHashSet&) = delete;
  TmHashSet& operator=(const TmHashSet&) = delete;

  bool Contains(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    typename Family::FullTx tx;
    bool found = false;
    do {
      tx.Start();
      found = false;
      Node* curr = WordToPtr<Node>(tx.Read(&BucketFor(key)));
      while (tx.ok() && curr != nullptr) {
        if (curr->key >= key) {
          found = curr->key == key;
          break;
        }
        curr = WordToPtr<Node>(tx.Read(&curr->next));
      }
    } while (!tx.Commit());
    return found;
  }

  bool Insert(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    // Owned until the publishing commit: an exception unwinding out of the
    // transaction (TxCancel, injected fault) aborts the attempt with nothing
    // published, so the node must be reclaimed here, not leaked.
    std::unique_ptr<Node> node(new Node(key));
    typename Family::FullTx tx;
    bool inserted = false;
    do {
      tx.Start();
      inserted = false;
      Slot* prev_link = &BucketFor(key);
      Node* curr = WordToPtr<Node>(tx.Read(prev_link));
      while (tx.ok() && curr != nullptr && curr->key < key) {
        prev_link = &curr->next;
        curr = WordToPtr<Node>(tx.Read(prev_link));
      }
      if (!tx.ok()) {
        continue;
      }
      if (curr != nullptr && curr->key == key) {
        // Present: commit the (read-only) observation.
        continue;
      }
      Family::RawWrite(&node->next, PtrToWord(curr));  // node is still private
      tx.Write(prev_link, PtrToWord(node.get()));
      inserted = true;
    } while (!tx.Commit());
    if (inserted) {
      node.release();  // published: the set owns it now
    }
    return inserted;
  }

  bool Remove(std::uint64_t key) {
    EpochManager::Guard guard(epoch_);
    typename Family::FullTx tx;
    Node* victim = nullptr;
    do {
      tx.Start();
      victim = nullptr;
      Slot* prev_link = &BucketFor(key);
      Node* curr = WordToPtr<Node>(tx.Read(prev_link));
      while (tx.ok() && curr != nullptr && curr->key < key) {
        prev_link = &curr->next;
        curr = WordToPtr<Node>(tx.Read(prev_link));
      }
      if (!tx.ok()) {
        continue;
      }
      if (curr == nullptr || curr->key != key) {
        continue;  // absent: commit the read-only observation
      }
      const Word succ = tx.Read(&curr->next);
      if (!tx.ok()) {
        continue;
      }
      tx.Write(prev_link, succ);
      victim = curr;
    } while (!tx.Commit());
    if (victim == nullptr) {
      return false;
    }
    epoch_.Retire(victim);
    return true;
  }

 private:
  struct Node {
    std::uint64_t key;
    Slot next;

    explicit Node(std::uint64_t k) : key(k) {}
  };

  Slot& BucketFor(std::uint64_t key) {
    return buckets_[BucketOf(MixKey(key), buckets_.size())];
  }

  EpochManager& epoch_;
  std::vector<Slot> buckets_;
};

}  // namespace spectm

#endif  // SPECTM_STRUCTURES_HASH_TM_FULL_H_
