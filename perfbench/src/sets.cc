// Set workloads: hash-short (SpecHashSet<Val>, the paper's val-short headline
// path) and skip-full (TmSkipList<OrecG>, the general whole-operation path).
//
// Both run over a 2^16 key range, half prefilled, with uniform keys; only the op
// mix differs (90/5/5 vs 50/25/25 lookup/insert/remove). Each client replays its
// own pre-generated op stream (cycled) and records the net effect of every
// acknowledged insert/remove per key, so after the run each key's presence can
// be checked against prefill + net changes.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "src/common/rng.h"
#include "src/structures/hash_tm_short.h"
#include "src/structures/skip_tm_full.h"
#include "src/tm/variants.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kKeyBits = 16;
constexpr std::uint32_t kKeyRange = 1u << kKeyBits;
constexpr std::uint32_t kKeyMask = kKeyRange - 1;
constexpr std::size_t kStreamLen = std::size_t{1} << 20;  // ops per client, cycled
// Untraced runs time blocks of 64 consecutive ops and record the block's
// per-op mean: a ~30 ns set op is shorter than the ~10 ns steps some virtual
// TSCs advance in, and one clock read per 64 ops keeps timing off the
// throughput.
constexpr std::uint64_t kLatencyBlock = 64;

enum SetOp : std::uint32_t { kLookup = 0, kInsert = 1, kRemove = 2 };

struct SetMix {
  int lookup_pct;
  int insert_pct;  // the rest removes
};

// Seeded inputs: which keys are prefilled, the prefill order, and one op stream
// per client the run mode drives (op in the top bits, key in the low 16). All
// generated before any timing; the same seed gives byte-identical inputs.
struct SetInputs {
  std::vector<std::uint8_t> prefilled;  // per key
  std::vector<std::uint32_t> prefill_order;
  std::vector<std::vector<std::uint32_t>> streams;

  SetInputs(std::uint64_t seed, int clients, SetMix mix) : prefilled(kKeyRange, 0) {
    spectm::Xorshift128Plus rng(seed);
    prefill_order.reserve(kKeyRange);
    for (std::uint32_t k = 0; k < kKeyRange; ++k) {
      if (rng.Next() & 1) {
        prefilled[k] = 1;
        prefill_order.push_back(k);
      }
    }
    for (std::size_t i = prefill_order.size(); i > 1; --i) {
      std::swap(prefill_order[i - 1], prefill_order[rng.NextBounded(i)]);
    }
    streams.resize(static_cast<std::size_t>(clients));
    for (std::vector<std::uint32_t>& s : streams) {
      s.resize(kStreamLen);
      for (std::uint32_t& e : s) {
        const int pct = static_cast<int>(rng.NextPercent());
        const std::uint32_t op = pct < mix.lookup_pct                    ? kLookup
                                 : pct < mix.lookup_pct + mix.insert_pct ? kInsert
                                                                         : kRemove;
        e = (op << kKeyBits) | static_cast<std::uint32_t>(rng.NextBounded(kKeyRange));
      }
    }
  }

  std::uint64_t Digest() const {
    std::uint64_t h = Fnv1a(prefilled.data(), prefilled.size(), kFnvBasis);
    h = Fnv1a(prefill_order.data(), prefill_order.size() * sizeof(std::uint32_t), h);
    for (const auto& s : streams) {
      h = Fnv1a(s.data(), s.size() * sizeof(std::uint32_t), h);
    }
    return h;
  }
};

template <typename Set>
struct SetWorkload {
  SetInputs inputs;
  // net[client][key]: acknowledged inserts minus acknowledged removes.
  std::vector<std::vector<std::int32_t>> net;
  std::unique_ptr<Set> set;

  SetWorkload(std::uint64_t seed, int clients, SetMix mix)
      : inputs(seed, clients, mix),
        net(static_cast<std::size_t>(clients), std::vector<std::int32_t>(kKeyRange, 0)) {}

  void Build(std::unique_ptr<Set> s) {
    set = std::move(s);
    for (std::uint32_t k : inputs.prefill_order) {
      set->Insert(k);
    }
  }

  template <bool kTraced>
  void Loop(int client, const PhaseClock& clock, ClientStats& st) {
    const std::vector<std::uint32_t>& stream = inputs.streams[static_cast<std::size_t>(client)];
    std::int32_t* const my_net = net[static_cast<std::size_t>(client)].data();
    Set& s = *set;
    std::size_t pos = 0;
    std::uint64_t ops = 0;
    std::uint64_t sink = 0;
    Ticks block_start = Now();
    std::uint32_t window = 0;
    for (;;) {
      const std::uint32_t tick = clock.tick.load(std::memory_order_relaxed);
      if (tick != window) {
        st.EndWindow(window, ops);
        if (tick == PhaseClock::kStop) {
          break;
        }
        window = tick;
      }
      const std::uint32_t e = stream[pos];
      pos = (pos + 1) & (kStreamLen - 1);
      const std::uint32_t op = e >> kKeyBits;
      const std::uint64_t key = e & kKeyMask;
      const Ticks t0 = kTraced ? Now() : 0;
      bool r;
      if (op == kLookup) {
        r = s.Contains(key);
      } else if (op == kInsert) {
        r = s.Insert(key);
      } else {
        r = s.Remove(key);
      }
      if constexpr (kTraced) {
        st.RecordSpan(op, static_cast<std::uint32_t>(client), t0, Now(), r);
      } else if ((ops + 1) % kLatencyBlock == 0) {
        const Ticks now = Now();
        st.latency.Record((now - block_start + kLatencyBlock / 2) / kLatencyBlock);
        block_start = now;
      }
      if (r && op != kLookup) {
        my_net[key] += op == kInsert ? 1 : -1;
      }
      sink += r ? 1 : 0;
      ++ops;
    }
    st.ops = ops;
    st.sink = sink;
  }

  // Final presence check: one check per key of the range.
  void Check(RunReport& report) {
    for (std::uint32_t k = 0; k < kKeyRange; ++k) {
      std::int64_t expected = inputs.prefilled[k];
      for (const auto& n : net) {
        expected += n[k];
      }
      const bool present = set->Contains(k);
      ++report.checks;
      if (!((expected == 1 && present) || (expected == 0 && !present))) {
        ++report.failures;
      }
    }
  }
};

template <typename Family, typename Set, typename MakeSet>
void RunSet(const Options& opts, int clients, SetMix mix, bool one_tx_per_op,
            MakeSet make_set, RunReport& report) {
  auto t0 = std::chrono::steady_clock::now();
  SetWorkload<Set> w(opts.seed, StreamClients(opts, clients), mix);
  report.setup_s = SecondsSince(t0);
  ScheduleStats stats;
  if (!opts.setup_only) {
    stats = PrepareSchedule(opts, clients);
    report.rss_base_mib = ProcStatusMiB("VmRSS:");
  }
  t0 = std::chrono::steady_clock::now();
  w.Build(make_set());
  report.setup_s += SecondsSince(t0);
  report.stream_digest = w.inputs.Digest();
  if (opts.setup_only) {
    return;
  }
  RunSchedule<typename Family::DomainTag>(
      opts, stats, report,
      [&](auto traced, int c, const PhaseClock& clock, ClientStats& st) {
        w.template Loop<decltype(traced)::value>(c, clock, st);
      });
  report.epoch_pending_end = spectm::GlobalEpochManager().PendingCount();
  ReconcileAll(one_tx_per_op, report);
  w.Check(report);
}

}  // namespace

void RunHashShort(const Options& opts, int clients, RunReport& report) {
  using Set = spectm::SpecHashSet<spectm::Val>;
  // 2^14 buckets over 2^15 live keys: chains of ~2 nodes, ~1-2 MB working set.
  RunSet<spectm::Val, Set>(
      opts, clients, SetMix{90, 5}, /*one_tx_per_op=*/false,
      [] { return std::make_unique<Set>(std::size_t{1} << 14); }, report);
}

void RunSkipFull(const Options& opts, int clients, RunReport& report) {
  using Set = spectm::TmSkipList<spectm::OrecG>;
  // Every skip-list operation is exactly one full transaction (lookups and
  // failed updates commit read-only), so commits must equal operations.
  RunSet<spectm::OrecG, Set>(
      opts, clients, SetMix{50, 25}, /*one_tx_per_op=*/true,
      [] { return std::make_unique<Set>(); }, report);
}

}  // namespace perfbench
