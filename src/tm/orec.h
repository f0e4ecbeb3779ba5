// Ownership records and the shared orec table (Figure 3(a)).
//
// An orec is one 64-bit word:
//   unlocked: (version << 1) | 0   — version incremented on every committed update
//   locked:   (TxDesc*   ) | 1     — body points to the owning transaction descriptor
//
// The shared-table layout hashes an arbitrary heap address to one of 2^kOrecTableLog2
// records. Distinct locations may collide on one orec ("false conflicts", §2.3); the
// engines must therefore tolerate re-locking an orec they already own.
#ifndef SPECTM_TM_OREC_H_
#define SPECTM_TM_OREC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/tagged.h"
#include "src/tm/config.h"
#include "src/tm/txdesc.h"
#include "src/tm/valstrategy.h"

namespace spectm {

constexpr bool OrecIsLocked(Word w) { return (w & kLockBit) != 0; }
constexpr Word OrecVersionOf(Word w) { return w >> 1; }
constexpr Word MakeOrecVersion(Word version) { return version << 1; }

inline TxDesc* OrecOwnerOf(Word w) {
  return reinterpret_cast<TxDesc*>(static_cast<std::uintptr_t>(w & ~kLockBit));
}

inline Word MakeOrecLocked(TxDesc* owner) {
  return static_cast<Word>(reinterpret_cast<std::uintptr_t>(owner)) | kLockBit;
}

// Indexing policy for the shared orec table (compile-time: the seed families
// stay byte-identical on kHashed, and the mode is part of the family type so two
// modes never alias one table).
//
//   kHashed  — the seed scheme: Fibonacci hash of the word address over the whole
//     table. Statistically scatters everything; two addresses adjacent in memory
//     land on the same table LINE only with the base 8/2^log2 probability, but
//     nothing prevents it either.
//   kStriped — counter-stripe-coherent: the segment is the data address's SAME
//     4 KiB-region bits that key the partitioned commit counter (valstrategy.h
//     CounterStripeOf — addr bits 12..14), and the Fibonacci hash spreads the
//     remaining bits within the segment. The segment surfaces as bits 12..14 of
//     the orec's OWN address (the table base is 32 KiB-aligned and the segment
//     lands at index bits 9..11), so every orec lives in the same counter
//     stripe as every data address that hashes to it:
//         CounterStripeOf(&table.ForAddr(a)) == CounterStripeOf(a).
//     Under ValStrategy::kStripe a structurally local read set therefore
//     occupies the same few stripes whether validation keys off the data words
//     or off their orecs — the striped-table/stripe-counter alignment the
//     ROADMAP carried as follow-up. The price is the same as any region
//     scheme: same-offset words of one 4 KiB page concentrate into one
//     segment (the in-segment hash still scatters them across its lines).
//     Swept against kHashed in bench/abl_readset_layout.
enum class OrecStriping { kHashed, kStriped };

// Global table of ownership records, indexed by a multiplicative hash of the data
// address. Never resized; shared by all transactional locations of its domain.
template <OrecStriping kStriping = OrecStriping::kHashed>
class OrecTableT {
 public:
  // log2 of the number of orecs packed per 64-byte cache line (8 x 8 B).
  static constexpr int kLog2OrecsPerLine = 3;
  // Stripe coherence needs the segment at index bits 9..11 (below: orec-address
  // bits 12..14), so a striped table has at least 2^12 cells.
  static constexpr int kMinStripedLog2 = kCounterStripeShift;

  explicit OrecTableT(int log2_size = kOrecTableLog2)
      : log2_size_(ClampLog2(log2_size)),
        shift_(64 - log2_size_),
        storage_((std::size_t{1} << log2_size_) +
                 (kStriping == OrecStriping::kStriped
                      ? kStripedAlign / sizeof(OrecCell)
                      : 0)) {
    orecs_ = storage_.data();
    if constexpr (kStriping == OrecStriping::kStriped) {
      // Align the base to 32 KiB so index bits 9..11 surface unperturbed as
      // orec-address bits 12..14 — the counter-stripe bits.
      const auto p = reinterpret_cast<std::uintptr_t>(orecs_);
      orecs_ = reinterpret_cast<OrecCell*>((p + (kStripedAlign - 1)) &
                                           ~(kStripedAlign - 1));
    }
  }

  std::atomic<Word>& ForAddr(const void* addr) {
    auto x = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr)) >> 3;
    if constexpr (kStriping == OrecStriping::kHashed) {
      x *= 0x9e3779b97f4a7c15ULL;  // Fibonacci hashing
      return orecs_[x >> shift_].word;
    } else {
      // Segment = the data address's counter-stripe bits (addr bits 12..14 ==
      // x bits 9..11, valstrategy.h CounterStripeOf over 4 KiB regions).
      constexpr int kSegLow = kCounterStripeShift - 3;  // x-bit position 9
      const std::uint64_t segment = (x >> kSegLow) & ((1u << kLog2OrecsPerLine) - 1);
      // Fibonacci-hash the remaining address bits within the segment.
      const std::uint64_t rest =
          ((x >> kCounterStripeShift) << kSegLow) | (x & ((1u << kSegLow) - 1));
      const std::uint64_t inner =
          (rest * 0x9e3779b97f4a7c15ULL) >> (shift_ + kLog2OrecsPerLine);
      // Index layout [high | segment | low]: the segment occupies index bits
      // 9..11, which the 32 KiB-aligned base turns into orec-address bits
      // 12..14 — the orec's own counter stripe equals its data's.
      const std::uint64_t low = inner & ((1u << kSegLow) - 1);
      const std::uint64_t high = inner >> kSegLow;
      return orecs_[(high << kCounterStripeShift) | (segment << kSegLow) | low].word;
    }
  }

  std::size_t Size() const { return std::size_t{1} << log2_size_; }

 private:
  struct OrecCell {
    std::atomic<Word> word{0};
  };
  static constexpr std::size_t kStripedAlign = std::size_t{1} << 15;  // 32 KiB

  static constexpr int ClampLog2(int log2_size) {
    return (kStriping == OrecStriping::kStriped && log2_size < kMinStripedLog2)
               ? kMinStripedLog2
               : log2_size;
  }

  int log2_size_;
  int shift_;
  std::vector<OrecCell> storage_;
  OrecCell* orecs_;
};

using OrecTable = OrecTableT<>;

}  // namespace spectm

#endif  // SPECTM_TM_OREC_H_
