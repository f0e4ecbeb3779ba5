// Key mixing and bucket selection shared by every hash table in the tree.
//
// MixKey is one round of the murmur3 fmix64 finalizer; BucketOf maps a 64-bit
// hash onto [0, n) with a multiply-high range reduction (Lemire, "A fast
// alternative to the modulo reduction"): floor(h * n / 2^64). It costs one
// multiply instead of a 64-bit division, works for any n, and draws the
// bucket from the HIGH bits of h — a caller that also carves other indices out
// of the same hash (KvStore's shard) must take those from the low bits.
#ifndef SPECTM_COMMON_BUCKET_H_
#define SPECTM_COMMON_BUCKET_H_

#include <cstddef>
#include <cstdint>

namespace spectm {

inline std::uint64_t MixKey(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

inline std::size_t BucketOf(std::uint64_t h, std::size_t n) {
  __extension__ typedef unsigned __int128 Wide;
  return static_cast<std::size_t>((static_cast<Wide>(h) * n) >> 64);
}

}  // namespace spectm

#endif  // SPECTM_COMMON_BUCKET_H_
