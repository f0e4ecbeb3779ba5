// Hash-based transactional write set (Spear et al., PPoPP'09), used by the full
// (BaseTM) engines for deferred updates: writes are buffered here during the
// transaction and flushed to the heap only at commit (§2.1, §4.1).
//
// Requirements served:
//   * O(1) upsert and lookup keyed by target address — every transactional read must
//     first consult the write set ("read-after-write" checks, §2.2). In
//     read-dominant mixes almost every such lookup MISSES, so the common case is
//     served by a descriptor-resident 64-bit address bloom: one AND + TEST
//     against a register-resident signature rejects the probe before any slot
//     array line is touched (bloom false positives only cost the ordinary probe).
//   * Iteration in insertion order — commit acquires orec locks in a deterministic
//     order per transaction and flushes values in program order.
//   * O(1) amortized Clear() — descriptors are reused across every transaction a
//     thread ever runs (§4.1), so clearing must not touch the whole index. A
//     generation counter invalidates all slots at once.
//
// Layout notes (the metadata-layout audit of this PR):
//   * Slot is repacked to 16 bytes (addr + 32-bit index + 32-bit generation), so
//     a 64-byte line holds 4 slots instead of 2 — linear probes cross half as
//     many lines and the initial table is 1 KB, not 1.5 KB. The narrower
//     generation wraps every 2^32 Clear()s; the wrap triggers the same hard
//     reset the 64-bit counter needed at 2^64 (covered by write_set_test).
//   * The class itself is cache-line aligned: the header fields consulted on
//     every transactional read (bloom_, gen_, the lane pointers) share one line
//     that never overlaps the descriptor fields around it (txdesc.h's
//     false-sharing audit), and entries_/slots_ live in separate heap blocks so
//     commit-time iteration does not evict the probe index.
#ifndef SPECTM_COMMON_WRITE_SET_H_
#define SPECTM_COMMON_WRITE_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/bucket.h"
#include "src/common/cacheline.h"

namespace spectm {

class alignas(kCacheLineSize) WriteSet {
 public:
  struct Entry {
    void* addr;
    std::uint64_t value;
  };

  WriteSet() : mask_(kInitialSlots - 1), slots_(kInitialSlots) {}

  // Inserts or overwrites the buffered value for addr.
  void Put(void* addr, std::uint64_t value) {
    bloom_ |= AddrSignature(addr);
    std::size_t slot = FindSlot(addr);
    if (slots_[slot].gen == gen_ && slots_[slot].addr == addr) {
      entries_[slots_[slot].index].value = value;
      return;
    }
    slots_[slot] = Slot{addr, static_cast<std::uint32_t>(entries_.size()), gen_};
    entries_.push_back(Entry{addr, value});
    if (entries_.size() * 2 > slots_.size()) {
      Grow();
    }
  }

  // The bloom alone: false proves addr has no buffered write. The empty set's
  // zero bloom rejects everything, so the read path needs no Empty() check.
  bool MayContain(const void* addr) const {
    const std::uint64_t sig = AddrSignature(addr);
    return (bloom_ & sig) == sig;
  }

  // Returns true and fills *value if addr has a buffered write. Writes nothing.
  bool Lookup(void* addr, std::uint64_t* value) const {
    if (!MayContain(addr)) {
      return false;
    }
    std::size_t slot = FindSlot(addr);
    if (slots_[slot].gen == gen_ && slots_[slot].addr == addr) {
      *value = entries_[slots_[slot].index].value;
      return true;
    }
    return false;
  }

  void Clear() {
    entries_.clear();
    bloom_ = 0;
    ++gen_;
    if (gen_ == 0) {
      // Generation wrapped (after 2^32 transactions): a stale slot written at the
      // old gen_ == 1 would otherwise read as live again. Hard-reset to stay sound.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 1;
    }
  }

  bool Empty() const { return entries_.empty(); }
  std::size_t Size() const { return entries_.size(); }

  // Test hook for the generation-wrap hard reset (reaching 2^32 Clear() calls
  // organically would take hours): jumps the generation counter, invalidating
  // every slot exactly as that many Clear() calls would have.
  void SetGenerationForTest(std::uint32_t gen) {
    entries_.clear();
    bloom_ = 0;
    gen_ = gen;
  }

  // Insertion-ordered view for the commit protocol.
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }

 private:
  // 16 bytes: 4 slots per cache line (see the layout notes above).
  struct Slot {
    void* addr = nullptr;
    std::uint32_t index = 0;
    std::uint32_t gen = 0;  // slot is live iff gen == WriteSet::gen_
  };
  static_assert(sizeof(Slot) == 16, "slot must pack to a quarter cache line");

  static constexpr std::size_t kInitialSlots = 64;

  static std::size_t HashAddr(const void* addr) {
    return static_cast<std::size_t>(MixKey(reinterpret_cast<std::uintptr_t>(addr) >> 3));
  }

  // Two-bit signature in a 64-bit filter. With the write sets this system sees
  // (a handful of entries; the paper's structures write O(height) locations),
  // the filter stays far from saturation and a miss is the overwhelmingly
  // common verdict on read-dominant mixes.
  static std::uint64_t AddrSignature(const void* addr) {
    std::uint64_t h =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr)) >> 3;
    h *= 0x9e3779b97f4a7c15ULL;  // Fibonacci hashing, as in OrecTable::ForAddr
    return (1ULL << (h >> 58)) | (1ULL << ((h >> 52) & 63));
  }

  // Linear probing; returns the slot holding addr (current generation) or the first
  // free-for-this-generation slot.
  std::size_t FindSlot(void* addr) const {
    std::size_t i = HashAddr(addr) & mask_;
    while (slots_[i].gen == gen_ && slots_[i].addr != addr) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> bigger(slots_.size() * 2);
    mask_ = bigger.size() - 1;
    slots_.swap(bigger);
    for (std::uint32_t k = 0; k < entries_.size(); ++k) {
      std::size_t i = HashAddr(entries_[k].addr) & mask_;
      while (slots_[i].gen == gen_) {
        i = (i + 1) & mask_;
      }
      slots_[i] = Slot{entries_[k].addr, k, gen_};
    }
  }

  // Hot header on the leading line (the class is line-aligned): the bloom, all
  // a read-path miss touches, and the generation; the slot/entry vectors follow.
  std::uint64_t bloom_ = 0;
  std::uint32_t gen_ = 1;
  std::size_t mask_;
  std::vector<Entry> entries_;
  mutable std::vector<Slot> slots_;
};

}  // namespace spectm

#endif  // SPECTM_COMMON_WRITE_SET_H_
