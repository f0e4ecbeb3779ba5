// KV service workloads over svc::KvStore: kv-zipf (SvcVal, the partitioned val
// engine, 2^15 keys) and kv-snapshot (SvcSnapshot, MVCC snapshot reads, 2^14
// keys). Both stores stay cache-resident (~1.5 MB / ~0.8 MB of nodes): a
// 2^20-key store (~50 MB, past a 32 MB L3) made the single-client figures
// swing +-15% with the host's memory load, too wide for the benchmark bounds.
//
// Accounts live in groups of 64 contiguous keys, every balance prefilled to
// kBalance. Requests: BatchGet of 16 keys, 2-key in-group transfer
// (BatchTransact, amount clipped at the source balance) and BatchScan of one
// whole group. Transfers preserve every group's sum, so each scan must return
// exactly kGroup * kBalance, and at the end the whole store must still hold
// keys * kBalance with no balance "negative" (above its group's sum).
#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "src/common/rng.h"
#include "src/svc/kv_store.h"
#include "src/svc/zipf.h"
#include "src/tm/variants.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kGroup = 64;
constexpr std::uint64_t kBalance = 1000;
constexpr std::uint64_t kGroupSum = kGroup * kBalance;
constexpr std::size_t kGetKeys = 16;
constexpr std::uint32_t kMaxAmount = 100;
constexpr std::size_t kStreamLen = std::size_t{1} << 15;  // requests per client, cycled
constexpr double kZipfTheta = 0.99;

enum KvOp : std::uint8_t { kGet = 0, kTransfer = 1, kScan = 2 };

struct Request {
  std::uint8_t op;
  std::uint32_t amount;           // transfers
  std::uint64_t keys[kGetKeys];   // get: 16 keys; transfer: from, to; scan: group base
};

struct KvMix {
  int get_pct;
  int transfer_pct;  // the rest scans
};

// Seeded request streams, one per client the run mode drives. Keys are Zipf
// ranks (rank 0 hottest) scattered over the key space by svc::ScatterRank; a
// transfer's second key is a uniform other member of the first key's group.
// The Zipf normalizer, pow() and every RNG draw happen here, before timing.
std::vector<std::vector<Request>> MakeStreams(std::uint64_t keys, std::uint64_t seed,
                                              int clients, KvMix mix) {
  spectm::svc::ZipfianGenerator zipf(keys, kZipfTheta, seed);
  spectm::Xorshift128Plus rng(seed ^ 0x6b76ULL);
  auto draw = [&] { return spectm::svc::ScatterRank(zipf.NextRank(), keys); };
  std::vector<std::vector<Request>> streams(static_cast<std::size_t>(clients));
  for (std::vector<Request>& s : streams) {
    s.resize(kStreamLen);
    for (Request& r : s) {
      r = Request{};
      const int pct = static_cast<int>(rng.NextPercent());
      if (pct < mix.get_pct) {
        r.op = kGet;
        for (std::uint64_t& k : r.keys) {
          k = draw();
        }
      } else if (pct < mix.get_pct + mix.transfer_pct) {
        r.op = kTransfer;
        const std::uint64_t from = draw();
        const std::uint64_t base = from - from % kGroup;
        const std::uint64_t offset =
            (from % kGroup + 1 + rng.NextBounded(kGroup - 1)) % kGroup;  // != from
        r.keys[0] = from;
        r.keys[1] = base + offset;
        r.amount = 1 + static_cast<std::uint32_t>(rng.NextBounded(kMaxAmount));
      } else {
        r.op = kScan;
        const std::uint64_t k = draw();
        r.keys[0] = k - k % kGroup;
      }
    }
  }
  return streams;
}

template <typename Family>
struct KvWorkload {
  using Store = spectm::svc::KvStore<Family>;

  std::uint64_t keys;
  std::unique_ptr<Store> store;
  std::vector<std::vector<Request>> streams;

  KvWorkload(std::uint64_t key_count, std::uint64_t seed, int clients, KvMix mix)
      : keys(key_count), streams(MakeStreams(keys, seed, clients, mix)) {}

  void Build() {
    typename Store::Config cfg;
    cfg.shards = 8;
    cfg.buckets_per_shard = static_cast<std::size_t>(keys / cfg.shards / 4);  // ~4-node chains
    store = std::make_unique<Store>(cfg);
    std::vector<std::uint64_t> group_keys(kGroup);
    const std::vector<std::uint64_t> balances(kGroup, kBalance);
    for (std::uint64_t base = 0; base < keys; base += kGroup) {
      for (std::uint64_t i = 0; i < kGroup; ++i) {
        group_keys[i] = base + i;
      }
      store->BatchPut(group_keys.data(), balances.data(), kGroup);
    }
  }

  std::uint64_t Digest() const {
    std::uint64_t h = kFnvBasis;
    for (const auto& s : streams) {
      for (const Request& r : s) {
        h = Fnv1a(&r.op, sizeof(r.op), h);
        h = Fnv1a(&r.amount, sizeof(r.amount), h);
        h = Fnv1a(r.keys, sizeof(r.keys), h);
      }
    }
    return h;
  }

  template <bool kTraced>
  void Loop(int client, const PhaseClock& clock, ClientStats& st) {
    const std::vector<Request>& stream = streams[static_cast<std::size_t>(client)];
    Store& s = *store;
    std::uint64_t out[kGetKeys];
    bool found[kGetKeys];
    std::size_t pos = 0;
    std::uint64_t ops = 0;
    std::uint64_t failures = 0;
    std::uint64_t sink = 0;
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
      const Request& r = stream[pos];
      pos = (pos + 1) & (kStreamLen - 1);
      bool ok = true;
      const Ticks t0 = Now();
      if (r.op == kGet) {
        s.BatchGet(r.keys, kGetKeys, out, found);
      } else if (r.op == kTransfer) {
        s.BatchTransact(r.keys, 2, [&](std::uint64_t* v, const std::vector<bool>& f,
                                       std::size_t) {
          ok = f[0] && f[1];
          const std::uint64_t amount = v[0] < r.amount ? v[0] : r.amount;
          v[0] -= amount;
          v[1] += amount;
        });
      } else {
        const std::uint64_t sum = s.BatchScan(r.keys[0], kGroup);
        ok = sum == kGroupSum;
        sink += sum;
      }
      const Ticks t1 = Now();
      if constexpr (kTraced) {
        st.RecordSpan(r.op, static_cast<std::uint32_t>(client), t0, t1, ok);
      } else {
        st.latency.Record(t1 - t0);
      }
      if (r.op == kGet) {
        for (std::size_t i = 0; i < kGetKeys; ++i) {
          ok = ok && found[i] && out[i] <= kGroupSum;
          sink += out[i];
        }
      }
      failures += ok ? 0 : 1;
      ++ops;
    }
    st.ops = ops;
    st.checks = ops;  // one output check per request
    st.failures = failures;
    st.sink = sink;
  }

  // Quiescent end-of-run checks: per key (present, not "negative"), per group
  // (invariant sum) and the whole-store total.
  void Check(RunReport& report) {
    std::vector<std::uint64_t> vals(kGroup);
    std::unique_ptr<bool[]> hit(new bool[kGroup]);
    std::uint64_t total = 0;
    for (std::uint64_t base = 0; base < keys; base += kGroup) {
      const std::uint64_t sum = store->BatchScan(base, kGroup, vals.data(), hit.get());
      for (std::uint64_t i = 0; i < kGroup; ++i) {
        ++report.checks;
        report.failures += (hit[i] && vals[i] <= kGroupSum) ? 0 : 1;
      }
      ++report.checks;
      report.failures += sum == kGroupSum ? 0 : 1;
      total += sum;
    }
    ++report.checks;
    report.failures += total == keys * kBalance ? 0 : 1;
  }
};

template <typename Family>
void RunKv(const Options& opts, int clients, std::uint64_t keys, KvMix mix,
           RunReport& report) {
  report.is_kv = true;
  auto t0 = std::chrono::steady_clock::now();
  KvWorkload<Family> w(keys, opts.seed, StreamClients(opts, clients), mix);
  report.setup_s = SecondsSince(t0);
  ScheduleStats stats;
  if (!opts.setup_only) {
    stats = PrepareSchedule(opts, clients);
    report.rss_base_mib = ProcStatusMiB("VmRSS:");
  }
  t0 = std::chrono::steady_clock::now();
  w.Build();
  report.setup_s += SecondsSince(t0);
  report.stream_digest = w.Digest();
  if (opts.setup_only) {
    return;
  }
  RunSchedule<typename Family::DomainTag>(
      opts, stats, report,
      [&](auto traced, int c, const PhaseClock& clock, ClientStats& st) {
        w.template Loop<decltype(traced)::value>(c, clock, st);
      });
  report.epoch_pending_end = spectm::GlobalEpochManager().PendingCount();
  for (const PhaseResult* p : {&report.single, &report.multi, &report.multi_traced}) {
    report.checks += p->total.checks;
    report.failures += p->total.failures;
  }
  ReconcileAll(/*one_tx_per_op=*/true, report);  // one transaction per batch
  w.Check(report);
}

}  // namespace

void RunKvZipf(const Options& opts, int clients, RunReport& report) {
  RunKv<spectm::SvcVal>(opts, clients, std::uint64_t{1} << 15, KvMix{60, 30}, report);
}

void RunKvSnapshot(const Options& opts, int clients, RunReport& report) {
  // 60% transfers, 40% scans: at 50/50 the latency median sits on the edge
  // between the transfer and scan modes and lands on either, by seed.
  RunKv<spectm::SvcSnapshot>(opts, clients, std::uint64_t{1} << 14, KvMix{0, 60}, report);
}

}  // namespace perfbench
