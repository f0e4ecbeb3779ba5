// Shared vocabulary and tuning constants for the TM engines.
#ifndef SPECTM_TM_CONFIG_H_
#define SPECTM_TM_CONFIG_H_

#include <cstdint>

#include "src/common/tagged.h"

namespace spectm {

// Maximum number of locations a short transaction may access per set (§2.2: "four in
// our implementation, which can be increased in a straightforward manner").
inline constexpr int kMaxShortReads = 4;
inline constexpr int kMaxShortWrites = 4;

// log2 of the ownership-record table size (Figure 3(a)): 2^16 orecs * 8 B = 512 KiB,
// a quarter of a 2 MiB per-core L2. Every orec-layout access touches a second line
// for its orec, and at this size that line stays L2-resident. Price: a foreign
// commit falsely conflicts with a reader with probability about |R|·|W| / 2^16,
// ~0.25% per concurrent commit pair at a skip list's |R| ≈ 40, |W| ≈ 4. The size
// sweep behind 2^16 is in ROADMAP.md.
inline constexpr int kOrecTableLog2 = 16;

// Bounded spin on a locked orec before a full-tx read declares a conflict: with
// commit-time locking, locks are only held for the duration of a commit, so a short
// wait often avoids an abort.
inline constexpr int kReadLockSpin = 64;

// Application-value encoding for layouts that reserve low-order bits: bit 0 is the
// `val` layout's lock bit (§2.4) and bit 1 is the data structures' "deleted" mark
// (§3), so integers stored in transactional words are shifted past both. On a 64-bit
// machine the remaining 62 bits accommodate typical integer values (§2.4), and
// aligned pointers need no encoding at all.
constexpr Word EncodeInt(std::uint64_t v) { return v << 2; }
constexpr std::uint64_t DecodeInt(Word w) { return w >> 2; }

}  // namespace spectm

#endif  // SPECTM_TM_CONFIG_H_
