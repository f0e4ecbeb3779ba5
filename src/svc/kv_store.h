// Sharded in-memory KV store ("embedding table") with a batched transactional
// request API — the service-shaped workload layer over the TM engines.
//
// Modeled on the DeepRec EmbeddingVar idiom (BatchLookupKey / GetOrCreateKey
// gather APIs over a sharded concurrent hash backbone), rebuilt on this repo's
// family concept: KvStore<Family> instantiates over any TM family, every batch
// runs as ONE full transaction (descriptor setup amortized across the batch,
// retry at batch granularity), and read-only batches instantiated over the
// ValSnap family execute as pinned-snapshot transactions that never validate
// and never abort (src/tm/mvcc.h).
//
// Shard placement is REGION-ALIGNED with the partitioned commit counter
// (valstrategy.h CounterStripeOf): every shard bump-allocates its bucket heads
// and nodes from 4 KiB pages homed to the stripe `shard % kCounterStripes`, so
// on layouts whose metadata is co-located with the data (the val layout, §2.4)
// a batch that stays inside one shard occupies exactly one counter stripe —
// the region locality the partitioned-NOrec skip (PR 4) was built for, now
// produced by a service access pattern instead of a synthetic slot pool. On
// the hash-scattered orec table the homing is inert (the orec of a slot is
// placement-blind); the store still works, it just measures the partition's
// overhead there, mirroring the OrecLPart caveat in variants.h.
//
// Deletion is tombstone-free by omission: embedding-table workloads are
// get/put/scan-shaped and grow-only, so the store never unlinks nodes — which
// keeps batch retry trivially exception-safe (an aborted attempt's private
// nodes return to a spare list; nothing published is ever reclaimed) and makes
// the arena teardown wholesale.
#ifndef SPECTM_SVC_KV_STORE_H_
#define SPECTM_SVC_KV_STORE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "src/common/bucket.h"
#include "src/common/cacheline.h"
#include "src/common/tagged.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/val_word.h"
#include "src/tm/valstrategy.h"

namespace spectm {
namespace svc {

// Supplies 4 KiB pages whose CounterStripeOf region index is FIXED per page:
// superpages of kCounterStripes consecutive pages are allocated aligned to
// their own size, so the page at offset s*4KiB provably lives in stripe s.
// Shards covering all stripes consume every sub-page, so nothing is wasted.
class StripePagePool {
 public:
  static constexpr std::size_t kPageBytes = std::size_t{1} << kCounterStripeShift;
  static constexpr std::size_t kSuperBytes =
      kPageBytes * static_cast<std::size_t>(kCounterStripes);

  StripePagePool() = default;
  StripePagePool(const StripePagePool&) = delete;
  StripePagePool& operator=(const StripePagePool&) = delete;

  ~StripePagePool() {
    for (void* super : supers_) {
      ::operator delete(super, std::align_val_t{kSuperBytes});
    }
  }

  // Caller serializes (the store's allocation mutex).
  void* AcquirePage(int stripe) {
    assert(stripe >= 0 && stripe < kCounterStripes);
    std::vector<void*>& free = free_[stripe];
    if (free.empty()) {
      char* super = static_cast<char*>(
          ::operator new(kSuperBytes, std::align_val_t{kSuperBytes}));
      supers_.push_back(super);
      for (int s = 0; s < kCounterStripes; ++s) {
        char* page = super + kPageBytes * static_cast<std::size_t>(s);
        assert(CounterStripeOf(page) == s && "superpage alignment broken");
        free_[s].push_back(page);
      }
    }
    void* page = free.back();
    free.pop_back();
    return page;
  }

 private:
  std::vector<void*> supers_;
  std::vector<void*> free_[kCounterStripes];
};

// Per-key hook for deterministic probe passes: invoked after each key's work
// inside the batch transaction, so tests and benches can interleave single-op
// churn INSIDE the batch window (the RunScanCell idiom from
// bench/abl_readset_layout.cc, lifted to the service API). Empty by default
// and never on the path of a real request loop.
using BatchHook = std::function<void(std::size_t)>;

template <typename Family>
class KvStore {
 public:
  using Slot = typename Family::Slot;
  using FullTx = typename Family::FullTx;

  struct Config {
    std::size_t shards = 8;             // power of two
    std::size_t buckets_per_shard = 64; // hash fan-out within a shard
  };

  explicit KvStore(Config cfg = Config{}) : cfg_(cfg) {
    assert(cfg_.shards >= 1 && (cfg_.shards & (cfg_.shards - 1)) == 0 &&
           "shard count must be a power of two");
    assert(cfg_.buckets_per_shard >= 1);
    shards_.resize(cfg_.shards);
    std::lock_guard<std::mutex> lock(alloc_mu_);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      Shard& shard = shards_[s];
      std::size_t remaining = cfg_.buckets_per_shard;
      while (remaining > 0) {
        const std::size_t take = remaining < kSlotsPerChunk ? remaining : kSlotsPerChunk;
        Slot* chunk = static_cast<Slot*>(
            AllocateLocked(shard, StripeOfShard(s), take * sizeof(Slot)));
        for (std::size_t i = 0; i < take; ++i) {
          new (chunk + i) Slot();
        }
        shard.bucket_chunks.push_back(chunk);
        remaining -= take;
      }
      shard.probe_slot = new (AllocateLocked(shard, StripeOfShard(s), sizeof(Slot))) Slot();
    }
  }

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  ~KvStore() {
    // Quiescent teardown: free the MVCC version chains hanging off every slot
    // the store published (bucket heads, node value/next words) so the val-snap
    // instantiation tears down leak-free; pages themselves free wholesale.
    if constexpr (kVersionedSlots) {
      for (Shard& shard : shards_) {
        for (std::size_t b = 0; b < cfg_.buckets_per_shard; ++b) {
          Slot* head = BucketSlot(shard, b);
          Node* curr = WordToPtr<Node>(Family::RawRead(head));
          ReleaseChain(*head);
          while (curr != nullptr) {
            Node* next = WordToPtr<Node>(Family::RawRead(&curr->next));
            ReleaseChain(curr->value);
            ReleaseChain(curr->next);
            curr = next;
          }
        }
        ReleaseChain(*shard.probe_slot);
      }
    }
  }

  std::size_t shards() const { return cfg_.shards; }

  std::size_t ShardOf(std::uint64_t key) const {
    return static_cast<std::size_t>(HashOf(key)) & (cfg_.shards - 1);
  }

  // The counter stripe a shard's pages are homed to. Meaningful as a conflict
  // region only on the val layout (metadata == data word); on orec layouts the
  // orec table hash-scatters regions and this is just the page placement.
  static int StripeOfShard(std::size_t shard) {
    return static_cast<int>(shard & static_cast<std::size_t>(kCounterStripes - 1));
  }

  // --- Batched request API: one full transaction per call ---------------------

  // Gathers n keys in one (read-only) transaction. out/found may be null when
  // the caller only wants the read traffic (probe passes).
  void BatchGet(const std::uint64_t* keys, std::size_t n, std::uint64_t* out,
                bool* found, const BatchHook& hook = BatchHook()) {
    Family::Full::Atomically([&](FullTx& tx) {
      for (std::size_t i = 0; i < n; ++i) {
        Node* node = FindNode(tx, keys[i]);
        if (!tx.ok()) {
          return;
        }
        const bool hit = node != nullptr;
        std::uint64_t v = 0;
        if (hit) {
          v = DecodeInt(tx.Read(&node->value));
          if (!tx.ok()) {
            return;
          }
        }
        if (out != nullptr) {
          out[i] = v;
        }
        if (found != nullptr) {
          found[i] = hit;
        }
        if (hook) {
          hook(i);
        }
      }
    });
  }

  // Stores n key/value pairs in one transaction, inserting missing keys
  // (GetOrCreateKey semantics). Values must fit EncodeInt (62 bits).
  void BatchPut(const std::uint64_t* keys, const std::uint64_t* vals, std::size_t n,
                const BatchHook& hook = BatchHook()) {
    AttemptScratch scratch(*this);
    Family::Full::Atomically([&](FullTx& tx) {
      scratch.ResetAttempt();
      for (std::size_t i = 0; i < n; ++i) {
        bool inserted = false;
        Node* node = FindOrInsert(tx, keys[i], vals[i], scratch, &inserted);
        if (!tx.ok()) {
          return;
        }
        if (!inserted) {
          tx.Write(&node->value, EncodeInt(vals[i]));
        }
        if (hook) {
          hook(i);
        }
      }
    });
    scratch.Publish();
  }

  // Read-modify-write, per key: fn(i, old_value, found) -> new_value, invoked
  // in key order immediately after that key's read (still inside the batch
  // transaction). The returned value is written back iff the key was found;
  // fn must be a pure function of its arguments (the batch retries as a whole,
  // re-running fn). Missing keys are NOT inserted.
  template <typename Fn>
  void BatchUpdate(const std::uint64_t* keys, std::size_t n, Fn fn,
                   const BatchHook& hook = BatchHook()) {
    Family::Full::Atomically([&](FullTx& tx) {
      for (std::size_t i = 0; i < n; ++i) {
        Node* node = FindNode(tx, keys[i]);
        if (!tx.ok()) {
          return;
        }
        if (node != nullptr) {
          const std::uint64_t old_v = DecodeInt(tx.Read(&node->value));
          if (!tx.ok()) {
            return;
          }
          tx.Write(&node->value, EncodeInt(fn(i, old_v, true)));
        } else {
          (void)fn(i, std::uint64_t{0}, false);
        }
        if (hook) {
          hook(i);
        }
      }
    });
  }

  // Whole-batch read-modify-write: all n keys are read first, then
  // fn(values, found, n) rewrites the value array in place, then every found
  // key is written back — the transfer shape (a later key's new value may
  // depend on an earlier key's old one), atomically per batch. Duplicate keys
  // alias ONE stored value across several array entries: each aliased entry
  // reads the same pre-batch value and the last entry's write wins, so callers
  // doing balance arithmetic must pass distinct keys.
  template <typename Fn>
  void BatchTransact(const std::uint64_t* keys, std::size_t n, Fn fn) {
    std::uint64_t vals_inline[kInlineBatch];
    Node* nodes_inline[kInlineBatch];
    std::vector<std::uint64_t> vals_heap(n > kInlineBatch ? n : 0);
    std::vector<Node*> nodes_heap(n > kInlineBatch ? n : 0);
    std::uint64_t* vals = n > kInlineBatch ? vals_heap.data() : vals_inline;
    Node** nodes = n > kInlineBatch ? nodes_heap.data() : nodes_inline;
    std::vector<bool> found(n);
    Family::Full::Atomically([&](FullTx& tx) {
      for (std::size_t i = 0; i < n; ++i) {
        nodes[i] = FindNode(tx, keys[i]);
        if (!tx.ok()) {
          return;
        }
        found[i] = nodes[i] != nullptr;
        vals[i] = found[i] ? DecodeInt(tx.Read(&nodes[i]->value)) : 0;
        if (!tx.ok()) {
          return;
        }
      }
      fn(vals, found, n);
      for (std::size_t i = 0; i < n; ++i) {
        if (nodes[i] != nullptr) {
          tx.Write(&nodes[i]->value, EncodeInt(vals[i]));
        }
      }
    });
  }

  // Contiguous-range gather: reads keys [lo, lo + n) in one transaction and
  // returns the sum of present values (the scan statistic the service
  // reports); per-key results optionally gathered like BatchGet.
  std::uint64_t BatchScan(std::uint64_t lo, std::size_t n, std::uint64_t* out = nullptr,
                          bool* found = nullptr, const BatchHook& hook = BatchHook()) {
    std::uint64_t sum = 0;
    Family::Full::Atomically([&](FullTx& tx) {
      sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = lo + static_cast<std::uint64_t>(i);
        Node* node = FindNode(tx, key);
        if (!tx.ok()) {
          return;
        }
        const bool hit = node != nullptr;
        std::uint64_t v = 0;
        if (hit) {
          v = DecodeInt(tx.Read(&node->value));
          if (!tx.ok()) {
            return;
          }
          sum += v;
        }
        if (out != nullptr) {
          out[i] = v;
        }
        if (found != nullptr) {
          found[i] = hit;
        }
        if (hook) {
          hook(i);
        }
      }
    });
    return sum;
  }

  // --- Single-op conveniences (prefill, assertions) ---------------------------

  void Put(std::uint64_t key, std::uint64_t value) { BatchPut(&key, &value, 1); }

  bool Get(std::uint64_t key, std::uint64_t* value) {
    bool found = false;
    BatchGet(&key, 1, value, &found);
    return found;
  }

  // --- Probe surface (tests and deterministic bench passes) -------------------

  // A dedicated slot allocated from `shard`'s stripe-homed pages: single-op
  // churn on it bumps exactly that shard's counter stripe, which is how probe
  // passes drive same- vs cross-stripe traffic deterministically.
  Slot* StripeProbeSlot(std::size_t shard) { return shards_[shard].probe_slot; }

  // Non-transactional lookup of a key's value word (quiescent/test use only):
  // lets a snapshot probe churn a key the read-only batch will re-read.
  Slot* DebugValueSlotOf(std::uint64_t key) {
    Shard& shard = shards_[ShardOf(key)];
    Node* curr = WordToPtr<Node>(Family::RawRead(BucketSlotFor(shard, key)));
    while (curr != nullptr && curr->key < key) {
      curr = WordToPtr<Node>(Family::RawRead(&curr->next));
    }
    return (curr != nullptr && curr->key == key) ? &curr->value : nullptr;
  }

 private:
  // Only SnapSlot (the kMvcc families) carries version chains to release.
  static constexpr bool kVersionedSlots = std::is_same_v<Slot, SnapSlot>;
  static constexpr std::size_t kSlotsPerChunk = StripePagePool::kPageBytes / sizeof(Slot);
  // BatchTransact keeps this many keys' values and nodes on the stack.
  static constexpr std::size_t kInlineBatch = 16;

  struct Node {
    std::uint64_t key = 0;
    Slot value;
    Slot next;
  };
  static_assert(sizeof(Node) <= StripePagePool::kPageBytes, "node must fit a page");

  // Allocation grain. Pages are 4 KiB-aligned and every allocation is a
  // multiple of the grain, so a node whose padded size divides a cache line (32
  // bytes: a key and two one-word slots) never straddles one. SnapSlot's 48-byte node
  // cannot be placed that way without padding and keeps the 16-byte grain.
  static constexpr std::size_t kNodeBytes = (sizeof(Node) + 15) & ~std::size_t{15};
  static constexpr std::size_t kGrain =
      kCacheLineSize % kNodeBytes == 0 ? kNodeBytes : 16;

  struct Shard {
    std::vector<Slot*> bucket_chunks;  // kSlotsPerChunk heads per chunk
    Slot* probe_slot = nullptr;
    char* cursor = nullptr;            // bump allocator over stripe-homed pages
    std::size_t left = 0;
    std::vector<Node*> spare_nodes;    // acquired but never published
  };

  static std::uint64_t HashOf(std::uint64_t key) {
    std::uint64_t x = MixKey(key);
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  Slot* BucketSlot(Shard& shard, std::size_t bucket) {
    return shard.bucket_chunks[bucket / kSlotsPerChunk] + bucket % kSlotsPerChunk;
  }

  Slot* BucketSlotFor(Shard& shard, std::uint64_t key) {
    // BucketOf draws on the high hash bits, ShardOf on the low ones.
    return BucketSlot(shard, BucketOf(HashOf(key), cfg_.buckets_per_shard));
  }

  // Bump allocation from the shard's stripe-homed pages; caller holds alloc_mu_.
  void* AllocateLocked(Shard& shard, int stripe, std::size_t bytes) {
    bytes = (bytes + kGrain - 1) & ~(kGrain - 1);
    assert(bytes <= StripePagePool::kPageBytes);
    if (shard.left < bytes) {
      shard.cursor = static_cast<char*>(pages_.AcquirePage(stripe));
      shard.left = StripePagePool::kPageBytes;
    }
    void* p = shard.cursor;
    shard.cursor += bytes;
    shard.left -= bytes;
    return p;
  }

  Node* AcquireNode(std::size_t shard_idx) {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    Shard& shard = shards_[shard_idx];
    if (!shard.spare_nodes.empty()) {
      Node* n = shard.spare_nodes.back();
      shard.spare_nodes.pop_back();
      return n;
    }
    return new (AllocateLocked(shard, StripeOfShard(shard_idx), sizeof(Node))) Node();
  }

  void ReturnSpare(std::size_t shard_idx, Node* node) {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    shards_[shard_idx].spare_nodes.push_back(node);
  }

  static void ReleaseChain(Slot& s) {
    if constexpr (kVersionedSlots) {
      mvcc::VersionNode* n = mvcc::NodeOf(s.versions.load(std::memory_order_relaxed));
      s.versions.store(0, std::memory_order_relaxed);
      while (n != nullptr) {
        mvcc::VersionNode* next = n->next.load(std::memory_order_relaxed);
        delete n;
        n = next;
      }
    } else {
      (void)s;
    }
  }

  // Insert-capable batches park acquired nodes here across retries: an aborted
  // attempt never published its links (updates are deferred to commit), so its
  // nodes recycle into the next attempt; only the committing attempt's linked
  // nodes become owned by the structure.
  class AttemptScratch {
   public:
    explicit AttemptScratch(KvStore& store) : store_(store) {}

    ~AttemptScratch() {
      for (const Pending& p : spare_) {
        store_.ReturnSpare(p.shard, p.node);
      }
    }

    void ResetAttempt() {
      // The previous attempt aborted: everything it linked is private again.
      spare_.insert(spare_.end(), linked_.begin(), linked_.end());
      linked_.clear();
    }

    Node* TakeNode(std::size_t shard) {
      for (std::size_t i = 0; i < spare_.size(); ++i) {
        if (spare_[i].shard == shard) {
          Node* n = spare_[i].node;
          linked_.push_back(spare_[i]);
          spare_[i] = spare_.back();
          spare_.pop_back();
          return n;
        }
      }
      Node* n = store_.AcquireNode(shard);
      linked_.push_back(Pending{shard, n});
      return n;
    }

    void Publish() { linked_.clear(); }  // committed: the store owns them now

   private:
    struct Pending {
      std::size_t shard;
      Node* node;
    };
    KvStore& store_;
    std::vector<Pending> spare_;
    std::vector<Pending> linked_;
  };

  // Sorted-chain walk inside the caller's transaction; null on miss or !tx.ok().
  Node* FindNode(FullTx& tx, std::uint64_t key) {
    Shard& shard = shards_[ShardOf(key)];
    Node* curr = WordToPtr<Node>(tx.Read(BucketSlotFor(shard, key)));
    while (tx.ok() && curr != nullptr && curr->key < key) {
      curr = WordToPtr<Node>(tx.Read(&curr->next));
    }
    if (!tx.ok() || curr == nullptr || curr->key != key) {
      return nullptr;
    }
    return curr;
  }

  // Find-or-create: a missing key links a privately initialized node (value
  // already set — TmHashSet's publish-by-single-link idiom), so the caller
  // skips the transactional value write for fresh inserts.
  Node* FindOrInsert(FullTx& tx, std::uint64_t key, std::uint64_t value,
                     AttemptScratch& scratch, bool* inserted) {
    *inserted = false;
    const std::size_t shard_idx = ShardOf(key);
    Shard& shard = shards_[shard_idx];
    Slot* prev_link = BucketSlotFor(shard, key);
    Node* curr = WordToPtr<Node>(tx.Read(prev_link));
    while (tx.ok() && curr != nullptr && curr->key < key) {
      prev_link = &curr->next;
      curr = WordToPtr<Node>(tx.Read(prev_link));
    }
    if (!tx.ok()) {
      return nullptr;
    }
    if (curr != nullptr && curr->key == key) {
      return curr;
    }
    Node* node = scratch.TakeNode(shard_idx);
    node->key = key;
    Family::RawWrite(&node->value, EncodeInt(value));  // private until the link commits
    Family::RawWrite(&node->next, PtrToWord(curr));
    tx.Write(prev_link, PtrToWord(node));
    *inserted = true;
    return node;
  }

  Config cfg_;
  std::mutex alloc_mu_;  // guards pages_ and every shard's allocator state
  StripePagePool pages_;
  std::vector<Shard> shards_;
};

}  // namespace svc
}  // namespace spectm

#endif  // SPECTM_SVC_KV_STORE_H_
