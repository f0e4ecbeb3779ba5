// Batch read-log validation kernel over SoA lanes (src/common/soa_log.h).
//
// Every validation walk in the system reduces to the same loop: for entry i, load
// *ptrs[i] and compare against expected[i]; a mismatch is handed to an
// engine-specific handler (self-locked entries compare against their displaced
// word) which either tolerates it or fails the walk. This file provides that loop
// once, with two interchangeable bodies:
//
//   * scalar — one acquire load + compare per entry (the seed's exact shape);
//   * AVX2   — _mm256_i64gather_epi64 over four entry pointers per iteration,
//     compare all four against the expected lane, and fall to the handler only
//     for mismatching SIMD lanes. Compiled via the `target("avx2")` function
//     attribute so the rest of the TU keeps the baseline ISA; selected at runtime
//     from CPUID.
//
// Equivalence contract (pinned by tests/tm/readlog_batch_test.cc): both bodies
// observe each entry's word exactly once, invoke the mismatch handler for
// mismatching entries in strictly increasing index order with the observed word,
// and return false at the first intolerable mismatch — so commit/abort decisions
// are identical, entry by entry, whichever body ran.
//
// Memory ordering: the gather issues plain (relaxed) 64-bit loads. Element-wise
// atomicity holds — each lane is one naturally-aligned 8-byte load, which x86
// performs indivisibly — and an acquire fence after the batch loop upgrades the
// whole batch to acquire semantics before any result is acted on (on x86 the
// fence compiles to a compiler barrier; loads already have acquire ordering in
// hardware). AVX2 implies x86-64, so the fence-based upgrade is always valid
// where the SIMD body can run at all.
//
// Dispatch: SPECTM_NO_SIMD (compile definition) removes the SIMD body entirely —
// the forced-scalar CI job builds this way. At runtime the body is picked once
// from CPUID + the SPECTM_NO_SIMD environment variable; benches and tests may
// override per-phase via SetSimdEnabled() (single-threaded phases only: the flag
// is deliberately unsynchronized to keep the hot-path read free).
#ifndef SPECTM_TM_VALIDATE_BATCH_H_
#define SPECTM_TM_VALIDATE_BATCH_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "src/common/tagged.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(SPECTM_NO_SIMD)
#define SPECTM_BATCH_SIMD 1
#include <immintrin.h>
#else
#define SPECTM_BATCH_SIMD 0
#endif

namespace spectm {

// Entries per SIMD iteration (AVX2: four 64-bit lanes).
inline constexpr std::size_t kSimdBatchWidth = 4;

// True when this build contains the SIMD body AND the CPU can run it.
inline bool SimdAvailable() {
#if SPECTM_BATCH_SIMD
  static const bool available = __builtin_cpu_supports("avx2") != 0;
  return available;
#else
  return false;
#endif
}

// The runtime switch. Default: available and not vetoed by the SPECTM_NO_SIMD
// environment variable. Mutable only through SetSimdEnabled().
inline bool& SimdEnabledFlag() {
  static bool enabled = SimdAvailable() && std::getenv("SPECTM_NO_SIMD") == nullptr;
  return enabled;
}

inline bool SimdEnabled() { return SimdEnabledFlag(); }

// Test/bench override; clamped to availability. Call only while no transactions
// are running (the flag is a plain bool read by every validation walk).
inline void SetSimdEnabled(bool on) { SimdEnabledFlag() = on && SimdAvailable(); }

#if SPECTM_BATCH_SIMD
// Gathers *ptrs[0..3] and compares against expected[0..3]. Returns the 4-bit
// mismatch mask (bit k set = lane k differs) and writes the observed words so
// the caller's mismatch handler judges exactly the value the gather saw.
__attribute__((target("avx2"))) inline std::uint32_t GatherCompare4(
    std::atomic<Word>* const* ptrs, const Word* expected, Word* observed) {
  const __m256i vptrs =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ptrs));
  // Base 0 + full pointers as indices, scale 1: gathers through the four entry
  // pointers. Each lane is one aligned 8-byte load (element-wise atomic on x86).
  const __m256i vobs = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(0), vptrs, 1);
  const __m256i vexp =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(expected));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(observed), vobs);
  const __m256i eq = _mm256_cmpeq_epi64(vobs, vexp);
  const int eq_mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
  return static_cast<std::uint32_t>(~eq_mask) & 0xFu;
}
#endif

// Validates entries [0, count): *ptrs[i] must equal expected[i], or
// mismatch(i, observed_word) must return true (entry tolerated — e.g. locked by
// the walking transaction itself with a matching displaced word). Returns false
// at the first intolerable mismatch.
//
// `simd_batches` counts 4-entry SIMD iterations, `scalar_checks` counts entries
// validated by the scalar body (tail included) — the probe evidence that each
// body actually ran (wired into ValProbe by the engines).
template <typename MismatchFn>
inline bool ValidateEqualSpan(std::atomic<Word>* const* ptrs, const Word* expected,
                              std::size_t count,
                              [[maybe_unused]] std::uint64_t& simd_batches,
                              std::uint64_t& scalar_checks, MismatchFn&& mismatch) {
  std::size_t i = 0;
#if SPECTM_BATCH_SIMD
  if (count >= kSimdBatchWidth && SimdEnabled()) {
    for (; i + kSimdBatchWidth <= count; i += kSimdBatchWidth) {
      Word observed[kSimdBatchWidth];
      std::uint32_t bad = GatherCompare4(ptrs + i, expected + i, observed);
      ++simd_batches;
      while (bad != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(bad));
        bad &= bad - 1;
        if (!mismatch(i + lane, observed[lane])) {
          return false;
        }
      }
    }
    // Upgrade the gathers to acquire before any batch-validated result is used.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
#endif
  if (i < count) {
    scalar_checks += count - i;
  }
  for (; i < count; ++i) {
    const Word w = ptrs[i]->load(std::memory_order_acquire);
    if (w != expected[i] && !mismatch(i, w)) {
      return false;
    }
  }
  return true;
}

}  // namespace spectm

#endif  // SPECTM_TM_VALIDATE_BATCH_H_
