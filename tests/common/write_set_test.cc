#include "src/common/write_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"

namespace spectm {
namespace {

TEST(WriteSet, EmptyLookupMisses) {
  WriteSet ws;
  int x;
  std::uint64_t v = 0;
  EXPECT_TRUE(ws.Empty());
  EXPECT_FALSE(ws.Lookup(&x, &v));
}

TEST(WriteSet, PutThenLookup) {
  WriteSet ws;
  int x, y;
  ws.Put(&x, 11);
  ws.Put(&y, 22);
  std::uint64_t v = 0;
  EXPECT_TRUE(ws.Lookup(&x, &v));
  EXPECT_EQ(v, 11u);
  EXPECT_TRUE(ws.Lookup(&y, &v));
  EXPECT_EQ(v, 22u);
  EXPECT_EQ(ws.Size(), 2u);
}

TEST(WriteSet, PutOverwritesInPlace) {
  WriteSet ws;
  int x;
  ws.Put(&x, 1);
  ws.Put(&x, 2);
  EXPECT_EQ(ws.Size(), 1u);
  std::uint64_t v = 0;
  EXPECT_TRUE(ws.Lookup(&x, &v));
  EXPECT_EQ(v, 2u);
}

TEST(WriteSet, IterationPreservesInsertionOrder) {
  WriteSet ws;
  std::vector<int> targets(10);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ws.Put(&targets[i], i);
  }
  std::size_t idx = 0;
  for (const WriteSet::Entry& e : ws) {
    EXPECT_EQ(e.addr, &targets[idx]);
    EXPECT_EQ(e.value, idx);
    ++idx;
  }
  EXPECT_EQ(idx, targets.size());
}

TEST(WriteSet, ClearIsCheapAndComplete) {
  WriteSet ws;
  int x;
  ws.Put(&x, 5);
  ws.Clear();
  EXPECT_TRUE(ws.Empty());
  std::uint64_t v = 0;
  EXPECT_FALSE(ws.Lookup(&x, &v));
  // Reuse after clear must behave like a fresh set.
  ws.Put(&x, 6);
  EXPECT_TRUE(ws.Lookup(&x, &v));
  EXPECT_EQ(v, 6u);
}

TEST(WriteSet, GrowthBeyondInitialCapacity) {
  WriteSet ws;
  std::vector<std::uint64_t> targets(1000);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ws.Put(&targets[i], i * 3);
  }
  EXPECT_EQ(ws.Size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    std::uint64_t v = 0;
    ASSERT_TRUE(ws.Lookup(&targets[i], &v));
    EXPECT_EQ(v, i * 3);
  }
}

// Property-style fuzz against std::map as the reference model, across many
// clear/reuse generations (the descriptor-reuse pattern of §4.1).
TEST(WriteSet, FuzzAgainstReferenceModel) {
  WriteSet ws;
  Xorshift128Plus rng(12345);
  std::vector<std::uint64_t> arena(256);
  for (int gen = 0; gen < 50; ++gen) {
    std::map<void*, std::uint64_t> model;
    const int ops = 200;
    for (int i = 0; i < ops; ++i) {
      void* addr = &arena[rng.NextBounded(arena.size())];
      if (rng.NextBounded(100) < 70) {
        const std::uint64_t value = rng.Next();
        ws.Put(addr, value);
        model[addr] = value;
      } else {
        std::uint64_t got = 0;
        const bool hit = ws.Lookup(addr, &got);
        const auto it = model.find(addr);
        ASSERT_EQ(hit, it != model.end());
        if (hit) {
          ASSERT_EQ(got, it->second);
        }
      }
    }
    ASSERT_EQ(ws.Size(), model.size());
    ws.Clear();
  }
}

// Randomized property test against a std::unordered_map oracle, with a much
// larger arena than the fuzz above so the slot table grows repeatedly across
// generations — every Lookup verdict (including bloom fast-misses) and the
// insertion-order iteration must match the oracle exactly.
TEST(WriteSet, PropertyTestAgainstUnorderedMapOracle) {
  WriteSet ws;
  Xorshift128Plus rng(0xCAFE);
  std::vector<std::uint64_t> arena(4096);
  for (int gen = 0; gen < 30; ++gen) {
    std::unordered_map<void*, std::uint64_t> oracle;
    std::vector<void*> order;  // oracle for insertion-order iteration
    const int ops = 400 + static_cast<int>(rng.NextBounded(400));
    for (int i = 0; i < ops; ++i) {
      void* addr = &arena[rng.NextBounded(arena.size())];
      if (rng.NextBounded(100) < 60) {
        const std::uint64_t value = rng.Next();
        if (oracle.emplace(addr, value).second) {
          order.push_back(addr);
        } else {
          oracle[addr] = value;
        }
        ws.Put(addr, value);
      } else {
        std::uint64_t got = 0;
        const bool hit = ws.Lookup(addr, &got);
        const auto it = oracle.find(addr);
        ASSERT_EQ(hit, it != oracle.end());
        if (hit) {
          ASSERT_EQ(got, it->second);
        }
      }
    }
    ASSERT_EQ(ws.Size(), oracle.size());
    std::size_t idx = 0;
    for (const WriteSet::Entry& e : ws) {
      ASSERT_LT(idx, order.size());
      ASSERT_EQ(e.addr, order[idx]);
      ASSERT_EQ(e.value, oracle[e.addr]);
      ++idx;
    }
    ASSERT_EQ(idx, order.size());
    ws.Clear();
  }
}

// The 32-bit generation counter wraps after 2^32 Clear() calls; the wrap must
// hard-reset the slot table so entries stamped at the ORIGINAL gen == 1 cannot
// read as live in the post-wrap gen == 1.
TEST(WriteSet, GenerationWrapHardResets) {
  WriteSet ws;
  std::uint64_t a = 0, b = 0;
  ws.Put(&a, 111);  // stamped at gen == 1 — the alias the wrap must not revive

  ws.SetGenerationForTest(0xffffffffu);
  ws.Put(&b, 222);  // stamped at the max generation
  ws.Clear();       // ++gen wraps to 0 -> hard reset, gen = 1

  std::uint64_t v = 0;
  EXPECT_TRUE(ws.Empty());
  EXPECT_FALSE(ws.Lookup(&a, &v)) << "pre-wrap gen-1 slot must not resurrect";
  EXPECT_FALSE(ws.Lookup(&b, &v));
  ws.Put(&a, 333);
  ASSERT_TRUE(ws.Lookup(&a, &v));
  EXPECT_EQ(v, 333u);
}

// The descriptor-resident bloom serves the read-dominant miss path: lookups of
// never-written addresses should overwhelmingly be rejected by the filter alone
// (two set bits out of 64 per entry; a handful of entries cannot saturate it).
TEST(WriteSet, BloomAbsorbsMostMisses) {
  WriteSet ws;
  std::vector<std::uint64_t> written(4), probed(256);
  for (std::size_t i = 0; i < written.size(); ++i) {
    ws.Put(&written[i], i);
  }
  std::size_t rejected = 0;
  std::uint64_t v = 0;
  for (auto& p : probed) {
    EXPECT_FALSE(ws.Lookup(&p, &v));
    rejected += ws.MayContain(&p) ? 0 : 1;
  }
  for (auto& w : written) {
    EXPECT_TRUE(ws.MayContain(&w)) << "the bloom rejected a buffered write";
  }
  // 4 entries set <= 8 of 64 bits; P(2-bit probe passes) <= (8/64)^1 per hash —
  // demand a clear majority to stay ASLR-robust rather than an exact count.
  EXPECT_GT(rejected, probed.size() / 2)
      << "the bloom fast path is not absorbing the miss traffic";

  // An empty (cleared) set rejects everything via the zeroed bloom.
  ws.Clear();
  for (auto& p : probed) {
    EXPECT_FALSE(ws.MayContain(&p));
  }
  for (auto& w : written) {
    EXPECT_FALSE(ws.MayContain(&w));
  }
}

}  // namespace
}  // namespace spectm
