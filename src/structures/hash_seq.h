// Sequential hash-table integer set: the paper's "sequential" reference point
// ("optimized sequential code; it is not safe for multi-threaded use, but it provides
// a reference point of the cost of an implementation without concurrency control",
// §4.2). Bucket array with sorted singly-linked chains — structurally identical to
// the concurrent variants so the comparison isolates synchronization cost.
#ifndef SPECTM_STRUCTURES_HASH_SEQ_H_
#define SPECTM_STRUCTURES_HASH_SEQ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/bucket.h"

namespace spectm {

class SeqHashSet {
 public:
  explicit SeqHashSet(std::size_t buckets = 16384) : buckets_(buckets, nullptr) {}

  ~SeqHashSet() {
    for (Node* head : buckets_) {
      while (head != nullptr) {
        Node* next = head->next;
        delete head;
        head = next;
      }
    }
  }

  SeqHashSet(const SeqHashSet&) = delete;
  SeqHashSet& operator=(const SeqHashSet&) = delete;

  bool Contains(std::uint64_t key) const {
    const Node* curr = buckets_[Index(key)];
    while (curr != nullptr && curr->key < key) {
      curr = curr->next;
    }
    return curr != nullptr && curr->key == key;
  }

  bool Insert(std::uint64_t key) {
    Node** link = &buckets_[Index(key)];
    while (*link != nullptr && (*link)->key < key) {
      link = &(*link)->next;
    }
    if (*link != nullptr && (*link)->key == key) {
      return false;
    }
    *link = new Node{key, *link};
    ++size_;
    return true;
  }

  bool Remove(std::uint64_t key) {
    Node** link = &buckets_[Index(key)];
    while (*link != nullptr && (*link)->key < key) {
      link = &(*link)->next;
    }
    if (*link == nullptr || (*link)->key != key) {
      return false;
    }
    Node* victim = *link;
    *link = victim->next;
    delete victim;
    --size_;
    return true;
  }

  std::size_t Size() const { return size_; }

 private:
  struct Node {
    std::uint64_t key;
    Node* next;
  };

  std::size_t Index(std::uint64_t key) const {
    return BucketOf(MixKey(key), buckets_.size());
  }

  std::vector<Node*> buckets_;
  std::size_t size_ = 0;
};

}  // namespace spectm

#endif  // SPECTM_STRUCTURES_HASH_SEQ_H_
