// Hash map (key -> 62-bit value) over SpecTM short transactions — the key-value-
// store index shape the paper motivates in §1 ("the central role of these data
// structures in key-value stores and in-memory database indices").
//
// Each node carries TWO transactional words: the value and the next link. The
// interesting operations are the ones a set cannot express:
//   * Get        — a 2-location short RO transaction over {value, next}: validation
//                  proves the value belonged to a node that was not deleted at the
//                  linearization point;
//   * Put        — on an existing key, a mixed transaction: RW on the value, RO on
//                  the next link (the §2.4 "mostly-read-write" case — exactly one
//                  location read but not written);
//   * Update     — atomic read-modify-write of the value through an RW1 short
//                  transaction: lost-update freedom for counters;
//   * insertion/removal — as in SpecHashSet (single-CAS publish; 2-location
//                  unlink+freeze).
#ifndef SPECTM_STRUCTURES_HASH_MAP_TM_H_
#define SPECTM_STRUCTURES_HASH_MAP_TM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/bucket.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"
#include "src/tm/config.h"

namespace spectm {

template <typename Family>
class SpecHashMap {
 public:
  using Slot = typename Family::Slot;

  explicit SpecHashMap(std::size_t buckets = 16384,
                       EpochManager& epoch = GlobalEpochManager())
      : epoch_(epoch), buckets_(buckets) {}

  ~SpecHashMap() {
    for (Slot& head : buckets_) {
      Node* curr = WordToPtr<Node>(Unmark(Family::RawRead(&head)));
      while (curr != nullptr) {
        Node* next = WordToPtr<Node>(Unmark(Family::RawRead(&curr->next)));
        delete curr;
        curr = next;
      }
    }
  }

  SpecHashMap(const SpecHashMap&) = delete;
  SpecHashMap& operator=(const SpecHashMap&) = delete;

  // Returns true and sets *value_out (decoded) if key is present.
  bool Get(std::uint64_t key, std::uint64_t* value_out) {
    EpochManager::Guard guard(epoch_);
    while (true) {
      const Window w = Search(key);
      if (w.curr == nullptr || w.curr->key != key) {
        return false;
      }
      typename Family::ShortTx t;
      const Word value = t.ReadRo(&w.curr->value);
      const Word next = t.ReadRo(&w.curr->next);
      if (!t.Valid() || !t.ValidateRo()) {
        continue;  // raced with a writer; retry
      }
      if (IsMarked(next)) {
        return false;  // node was deleted; the consistent pair proves it
      }
      *value_out = DecodeInt(value);
      return true;
    }
  }

  // Inserts or overwrites. Returns true if the key was newly inserted.
  bool Put(std::uint64_t key, std::uint64_t value) {
    EpochManager::Guard guard(epoch_);
    Node* node = nullptr;
    while (true) {
      const Window w = Search(key);
      if (w.curr != nullptr && w.curr->key == key) {
        // Existing key: write the value iff the node is still live. RW locks the
        // value; the RO read of the next link is validated at commit (§2.4 case 2).
        typename Family::ShortTx t;
        t.ReadRw(&w.curr->value);
        const Word next = t.ReadRo(&w.curr->next);
        if (!t.Valid()) {
          t.Abort();
          continue;
        }
        if (IsMarked(next)) {
          t.Abort();
          continue;  // concurrently deleted; re-search (may insert fresh)
        }
        if (t.CommitMixed({EncodeInt(value)})) {
          delete node;  // unused pre-allocation from an earlier iteration
          return false;
        }
        continue;
      }
      if (node == nullptr) {
        node = new Node(key);
      }
      Family::RawWrite(&node->value, EncodeInt(value));
      Family::RawWrite(&node->next, PtrToWord(w.curr));
      if (Family::SingleCas(w.prev_link, PtrToWord(w.curr), PtrToWord(node)) ==
          PtrToWord(w.curr)) {
        return true;
      }
    }
  }

  // Atomically applies fn to the current value (lost-update-free read-modify-write).
  // Returns false if the key is absent.
  template <typename Fn>
  bool Update(std::uint64_t key, Fn&& fn) {
    EpochManager::Guard guard(epoch_);
    while (true) {
      const Window w = Search(key);
      if (w.curr == nullptr || w.curr->key != key) {
        return false;
      }
      typename Family::ShortTx t;
      const Word old_value = t.ReadRw(&w.curr->value);
      const Word next = t.ReadRo(&w.curr->next);
      if (!t.Valid()) {
        t.Abort();
        continue;
      }
      if (IsMarked(next)) {
        t.Abort();
        continue;  // deleted; a re-search will report absence
      }
      if (t.CommitMixed({EncodeInt(fn(DecodeInt(old_value)))})) {
        return true;
      }
    }
  }

  bool Contains(std::uint64_t key) {
    std::uint64_t ignored;
    return Get(key, &ignored);
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
        continue;
      }
      if (prev_val != PtrToWord(w.curr) || IsMarked(curr_next)) {
        t.Abort();
        continue;
      }
      t.CommitRw({curr_next, Mark(curr_next)});
      epoch_.Retire(w.curr);
      return true;
    }
  }

 private:
  struct Node {
    std::uint64_t key;
    Slot value;
    Slot next;

    explicit Node(std::uint64_t k) : key(k) {}
  };

  struct Window {
    Slot* prev_link;
    Node* curr;
  };

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

#endif  // SPECTM_STRUCTURES_HASH_MAP_TM_H_
