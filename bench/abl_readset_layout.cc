// Read-set / metadata layout ablation (this PR's tentpole sweep): measures the
// three layout mechanisms end to end and writes BENCH_readset_layout.json.
//
// Axes:
//   * validation body — "simd" (AVX2 gather-compare over the SoA lanes) vs
//     "scalar", toggled per cell via SetSimdEnabled(); rows carry the ValProbe
//     simd_batches / scalar_checks deltas from a deterministic probe pass as
//     evidence of which body ran. On machines without AVX2 the simd rows
//     honestly degenerate to scalar (simd_batches == 0).
//   * orec-table indexing — "hashed" (seed) vs "striped" (orec.h kStriped,
//     adjacent addresses to guaranteed-distinct cache lines), over hash tables
//     with swept chain length (buckets = keys / chain), i.e. swept read-set
//     size per transaction: chains of ~2 barely validate, chains of ~32 walk
//     read sets long enough for both the batch kernel and table locality to
//     matter.
//
// Ring-saturation rows (the ROADMAP item): btree range scans over the
// bloom-strategy local-clock family, swept scan width, against concurrent
// writer churn for the throughput cell, plus a deterministic single-threaded
// saturation probe whose thread-local WriterRing failure deltas become the
// ring_* columns: ring_intersect_fails rising with scan width (while
// stale/window fails stay flat) is the bloom-saturation signature the 128-bit
// striped ring exists to push out; compare against the pre-PR 32-bit ring by
// the width at which intersect-failures dominate.
//
// MVCC snapshot rows (PR 9): the same btree scans once more under the val-snap
// family, whose scanner is a pinned-snapshot RO transaction reading version
// chains instead of validating — the walk and abort columns stay zero at every
// width (including the 256-wide cell that saturates the ring above), while
// versions_retired/chain_splices evidence writers threading displaced values
// onto chains and the trims bounding them.
//
// Single-core caveat as with every trajectory file: numbers from a 1-core
// container prove plumbing and probe wiring, not separations (bench/README.md).
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/set_bench.h"
#include "src/structures/btree_tm.h"
#include "src/structures/hash_tm_full.h"
#include "src/tm/validate_batch.h"
#include "src/tm/valstrategy.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

constexpr std::uint64_t kKeyRange = 8192;
constexpr int kChainLens[] = {2, 8, 32};
constexpr int kScanWidths[] = {16, 64, 256};
constexpr int kLookupPct = 90;  // read-dominant

struct LayoutProbes {
  std::uint64_t simd_batches = 0;
  std::uint64_t scalar_checks = 0;
};

// Deterministic single-threaded probe pass (ValProbe is thread-local, so the
// timed cell's worker counters are unreachable): a read-heavy op mix over the same set shape, long enough that
// multi-entry read logs hit the batch kernel.
template <typename Family>
LayoutProbes MeasureProbes(std::size_t buckets) {
  using Probe = typename Family::Full::Probe;
  TmHashSet<Family> set(buckets);
  Xorshift128Plus rng(0x1a70);
  for (std::uint64_t k = 0; k < kKeyRange; k += 2) {
    set.Insert(k);
  }
  const typename Probe::Counters before = Probe::Get();
  for (int i = 0; i < 2048; ++i) {
    const std::uint64_t key = rng.NextBounded(kKeyRange);
    const std::uint64_t roll = rng.NextBounded(100);
    if (roll < kLookupPct) {
      set.Contains(key);
    } else if (roll % 2 == 0) {
      set.Insert(key);
    } else {
      set.Remove(key);
    }
  }
  const typename Probe::Counters after = Probe::Get();
  LayoutProbes p;
  p.simd_batches = after.simd_batches - before.simd_batches;
  p.scalar_checks = after.scalar_checks - before.scalar_checks;
  return p;
}

template <typename Family>
void RunChainCell(JsonReport& report, TextTable& table, const char* layout,
                  bool simd, int chain_len, int threads) {
  SetSimdEnabled(simd);
  const std::size_t buckets = static_cast<std::size_t>(
      kKeyRange / static_cast<std::uint64_t>(chain_len));
  auto make_set = [buckets] { return std::make_unique<TmHashSet<Family>>(buckets); };
  WorkloadConfig cfg;
  cfg.key_range = kKeyRange;
  cfg.lookup_pct = kLookupPct;
  const bench::CellResult cell = bench::MeasureCellDetailed(make_set, cfg, threads);
  const LayoutProbes probes = MeasureProbes<Family>(buckets);

  BenchRecord r;
  r.variant = "orec-full-l";
  r.clock = "local";
  r.workload = "read-heavy";
  r.threads = threads;
  r.lookup_pct = kLookupPct;
  r.ops_per_sec = cell.ops_per_sec;
  r.abort_rate = cell.abort_rate;
  r.commits = cell.commits;
  r.aborts = cell.aborts;
  r.duration_s = cell.duration_s;
  r.has_layout = true;
  r.layout = layout;
  r.simd = simd ? "simd" : "scalar";
  r.chain_len = chain_len;
  r.simd_batches = probes.simd_batches;
  r.scalar_checks = probes.scalar_checks;
  report.Add(r);

  table.AddRow({std::string(layout) + "/" + r.simd, std::to_string(chain_len),
                TextTable::Num(cell.ops_per_sec / 1e6, 3),
                TextTable::Num(cell.abort_rate * 100.0, 2),
                std::to_string(probes.simd_batches),
                std::to_string(probes.scalar_checks)});
}

// The metadata word governing a slot: the orec for orec layouts (hash-scattered
// shared table), the data word itself for the val layout — which is why the
// address-region counter stripes inherit structural locality only there.
template <typename Family>
std::atomic<Word>* MetadataWordOf(typename Family::Slot& s) {
  if constexpr (std::is_same_v<typename Family::Slot, ValSlot>) {
    return &s.word;
  } else {
    return &Family::Layout::OrecOf(s);
  }
}

// Btree range-scan cell: thread 0 scans [lo, lo+width], the remaining threads
// churn inserts/removes so the domain counter moves and the ring fills. Ring
// failure counters are thread-local (like every probe in this tree), so the
// saturation columns come from the deterministic probe pass below, not the
// timed cell. Swept over the bloom-only and partitioned families so the
// committed JSON diffs per-stripe skips directly against intersect-failures.
template <typename F, typename Summary, typename Probe>
void RunScanCell(JsonReport& report, TextTable& table, const char* variant,
                 const char* clock, const char* strategy, int scan_width,
                 int threads) {
  SetSimdEnabled(SimdAvailable());

  const int runs = BenchRuns(3);
  const int duration_ms = BenchDurationMs(300);
  std::vector<double> samples;
  bench::CellResult cell;
  for (int run = 0; run < runs; ++run) {
    TmBTree<F> tree;
    for (std::uint64_t k = 0; k < kKeyRange; k += 2) {
      tree.Insert(k);
    }
    const TxStatsRegistry::Totals before = TxStatsRegistry::Snapshot();
    const ThroughputResult r = RunThroughput(
        threads, duration_ms, [&](int tid, const std::atomic<bool>& stop) {
          Xorshift128Plus rng(0x5ca9 + static_cast<std::uint64_t>(tid) * 7919);
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            if (tid == 0) {
              const std::uint64_t lo = rng.NextBounded(kKeyRange - scan_width);
              tree.RangeCount(lo, lo + static_cast<std::uint64_t>(scan_width));
            } else {
              const std::uint64_t key = rng.NextBounded(kKeyRange);
              if (rng.Next() & 1) {
                tree.Insert(key);
              } else {
                tree.Remove(key);
              }
            }
            ++ops;
          }
          return ops;
        });
    const TxStatsRegistry::Totals after = TxStatsRegistry::Snapshot();
    samples.push_back(r.ops_per_sec);
    cell.commits += after.commits - before.commits;
    cell.aborts += after.aborts - before.aborts;
    cell.duration_s += r.duration_s;
  }
  // Deterministic saturation probe: one transaction of the family's fixed
  // strategy reads `scan_width` contiguous slots while a single-op writer —
  // outside the read set, in a counter stripe DISJOINT from the scanned slots'
  // stripes where one exists (always on the val layout: a contiguous pool
  // occupies few 4 KiB regions; effectively never at width 256 on the
  // hash-scattered orec table, which is the point of comparing them) — bumps
  // the counter every 4th read. Each subsequent read then exercises the
  // family's skip ladder against an ever-fuller read set: the bloom family
  // probes the ring (intersect-failures rising with width IS filter
  // saturation), the partitioned family absorbs the same traffic with its
  // stripe vector (stripe_skips rising instead). Runs on this thread, so this
  // thread's probe and fail counters capture it exactly.
  const WriterRing::FailCounts ring_before = Summary::Fails();
  const typename Probe::Counters probe_before = Probe::Get();
  {
    std::vector<typename F::Slot> pool(static_cast<std::size_t>(scan_width));
    // 32 KiB of candidate slots spans every 4 KiB stripe, so a stripe-disjoint
    // churn target exists whenever the scanned pool leaves one free.
    std::vector<typename F::Slot> churn_pool(4096);
    for (auto& s : pool) {
      F::RawWrite(&s, EncodeInt(1));
    }
    for (auto& s : churn_pool) {
      F::RawWrite(&s, EncodeInt(1));
    }
    unsigned occupied = 0;
    for (auto& s : pool) {
      occupied |= 1u << CounterStripeOf(MetadataWordOf<F>(s));
    }
    typename F::Slot* churn = &churn_pool.back();
    for (auto& s : churn_pool) {
      if (((occupied >> CounterStripeOf(MetadataWordOf<F>(s))) & 1u) == 0) {
        churn = &s;
        break;
      }
    }
    typename F::FullTx tx;
    do {
      tx.Start();
      for (int i = 0; i < scan_width; ++i) {
        tx.Read(&pool[static_cast<std::size_t>(i)]);
        if (i % 4 == 3) {
          F::SingleWrite(churn, EncodeInt(static_cast<std::uint64_t>(i)));
        }
      }
    } while (!tx.Commit());
  }
  const WriterRing::FailCounts ring_after = Summary::Fails();
  const typename Probe::Counters probe_after = Probe::Get();
  cell.ops_per_sec = AggregateRuns(samples);
  const std::uint64_t attempts = cell.commits + cell.aborts;
  cell.abort_rate = attempts == 0
                        ? 0.0
                        : static_cast<double>(cell.aborts) /
                              static_cast<double>(attempts);

  BenchRecord r;
  r.variant = variant;
  r.clock = clock;
  r.workload = "range-scan";
  r.strategy = strategy;
  r.threads = threads;
  r.ops_per_sec = cell.ops_per_sec;
  r.abort_rate = cell.abort_rate;
  r.commits = cell.commits;
  r.aborts = cell.aborts;
  r.duration_s = cell.duration_s;
  r.has_layout = true;
  r.layout = "hashed";
  r.simd = SimdAvailable() ? "simd" : "scalar";
  r.scan_width = scan_width;
  r.ring_window_fails = ring_after.window - ring_before.window;
  r.ring_stale_fails = ring_after.stale - ring_before.stale;
  r.ring_intersect_fails = ring_after.intersect - ring_before.intersect;
  r.has_stripes = true;
  r.stripe_skips = probe_after.stripe_skips - probe_before.stripe_skips;
  r.stripe_bumps = probe_after.stripe_bumps - probe_before.stripe_bumps;
  r.cross_stripe_walks =
      probe_after.cross_stripe_walks - probe_before.cross_stripe_walks;
  report.Add(r);

  table.AddRow({std::string(variant) + "/" + strategy,
                std::to_string(scan_width),
                TextTable::Num(cell.ops_per_sec / 1e6, 3),
                TextTable::Num(cell.abort_rate * 100.0, 2),
                std::to_string(r.stripe_skips),
                std::to_string(r.cross_stripe_walks),
                std::to_string(r.ring_intersect_fails),
                std::to_string(r.ring_stale_fails),
                std::to_string(r.ring_window_fails)});
}

// MVCC snapshot rows: the same btree scan-vs-churn shape as RunScanCell, but
// under ValSnap the scanner is a pinned-snapshot RO transaction — it reads
// version chains instead of validating, so its walk and abort columns must
// stay ZERO at every width, against the bloom rows above where width 256 is
// exactly where intersect-failures take over. The deterministic probe churns a
// slot in the SAME counter stripe as the scanned pool (the counter families'
// worst case): snapshot reads never consult the counter, so stripe placement
// is irrelevant — the zero-walk column is that claim as evidence. Two churn
// targets split the protocol's two sides: a never-read slot overwritten past
// the chain bound drives trims (versions_retired / chain_splices), and a
// once-written re-read slot drives chain traversal (version_hops) without ever
// outrunning the pinned stamp, so no read falls off a truncated chain.
void RunSnapshotCell(JsonReport& report, TextTable& table, int scan_width,
                     int threads) {
  using F = ValSnap;
  using Probe = ValProbe<ValDomainTag>;
  SetSimdEnabled(SimdAvailable());

  const int runs = BenchRuns(3);
  const int duration_ms = BenchDurationMs(300);
  std::vector<double> samples;
  bench::CellResult cell;
  for (int run = 0; run < runs; ++run) {
    TmBTree<F> tree;
    for (std::uint64_t k = 0; k < kKeyRange; k += 2) {
      tree.Insert(k);
    }
    const TxStatsRegistry::Totals before = TxStatsRegistry::Snapshot();
    const ThroughputResult r = RunThroughput(
        threads, duration_ms, [&](int tid, const std::atomic<bool>& stop) {
          Xorshift128Plus rng(0x5ca9 + static_cast<std::uint64_t>(tid) * 7919);
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            if (tid == 0) {
              const std::uint64_t lo = rng.NextBounded(kKeyRange - scan_width);
              tree.RangeCount(lo, lo + static_cast<std::uint64_t>(scan_width));
            } else {
              const std::uint64_t key = rng.NextBounded(kKeyRange);
              if (rng.Next() & 1) {
                tree.Insert(key);
              } else {
                tree.Remove(key);
              }
            }
            ++ops;
          }
          return ops;
        });
    const TxStatsRegistry::Totals after = TxStatsRegistry::Snapshot();
    samples.push_back(r.ops_per_sec);
    cell.commits += after.commits - before.commits;
    cell.aborts += after.aborts - before.aborts;
    cell.duration_s += r.duration_s;
  }

  const typename Probe::Counters probe_before = Probe::Get();
  const TxStatsRegistry::Totals probe_stats_before = TxStatsRegistry::Snapshot();
  {
    std::vector<F::Slot> pool(static_cast<std::size_t>(scan_width));
    std::vector<F::Slot> churn_pool(4096);
    for (auto& s : pool) {
      F::RawWrite(&s, EncodeInt(1));
    }
    for (auto& s : churn_pool) {
      F::RawWrite(&s, EncodeInt(1));
    }
    unsigned occupied = 0;
    for (auto& s : pool) {
      occupied |= 1u << CounterStripeOf(&s.word);
    }
    // SAME-stripe churn targets (the inverse of RunScanCell's hunt): any
    // scanned pool wide enough occupies every stripe, so the first candidates
    // qualify immediately.
    F::Slot* churn_deep = &churn_pool.front();
    F::Slot* churn_read = &churn_pool.back();
    bool deep_found = false;
    for (auto& s : churn_pool) {
      if (((occupied >> CounterStripeOf(&s.word)) & 1u) != 0) {
        if (!deep_found) {
          churn_deep = &s;
          deep_found = true;
        } else if (&s != churn_deep) {
          churn_read = &s;
          break;
        }
      }
    }
    F::FullTx tx;
    tx.Start();
    bool seeded = false;
    for (int i = 0; i < scan_width; ++i) {
      tx.Read(&pool[static_cast<std::size_t>(i)]);
      if (i % 4 == 3) {
        F::SingleWrite(churn_deep, EncodeInt(static_cast<std::uint64_t>(i)));
        if (!seeded) {
          F::SingleWrite(churn_read, EncodeInt(7));
          seeded = true;
        }
        tx.Read(churn_read);  // one hop down its two-node chain, every time
      }
    }
    const bool committed = tx.Commit();  // RO snapshot commit: validates nothing
    if (!committed) {
      std::fprintf(stderr, "snapshot probe: RO commit failed (width %d)\n",
                   scan_width);
    }
  }
  const typename Probe::Counters probe_after = Probe::Get();
  const TxStatsRegistry::Totals probe_stats_after = TxStatsRegistry::Snapshot();

  cell.ops_per_sec = AggregateRuns(samples);
  const std::uint64_t attempts = cell.commits + cell.aborts;
  cell.abort_rate = attempts == 0
                        ? 0.0
                        : static_cast<double>(cell.aborts) /
                              static_cast<double>(attempts);

  BenchRecord r;
  r.variant = "btree-val";
  r.clock = "none";
  r.workload = "range-scan";
  r.strategy = "snapshot";
  r.threads = threads;
  r.ops_per_sec = cell.ops_per_sec;
  r.abort_rate = cell.abort_rate;
  r.commits = cell.commits;
  r.aborts = cell.aborts;
  r.duration_s = cell.duration_s;
  r.has_layout = true;
  r.layout = "hashed";
  r.simd = SimdAvailable() ? "simd" : "scalar";
  r.scan_width = scan_width;
  r.has_probes = true;
  r.counter_skips = probe_after.counter_skips - probe_before.counter_skips;
  r.bloom_skips = probe_after.bloom_skips - probe_before.bloom_skips;
  r.validation_walks =
      probe_after.validation_walks - probe_before.validation_walks;
  r.strategy_switches =
      probe_after.strategy_switches - probe_before.strategy_switches;
  r.has_mvcc = true;
  r.snapshot_reads = probe_after.snapshot_reads - probe_before.snapshot_reads;
  r.version_hops = probe_after.version_hops - probe_before.version_hops;
  r.versions_retired =
      probe_after.versions_retired - probe_before.versions_retired;
  r.chain_splices = probe_after.chain_splices - probe_before.chain_splices;
  // The acceptance column: the pinned scan plus its interleaved same-stripe
  // single-op writers, in isolation, abort exactly never.
  r.snapshot_probe_aborts = probe_stats_after.aborts - probe_stats_before.aborts;
  report.Add(r);

  table.AddRow({"btree-val/snapshot", std::to_string(scan_width),
                TextTable::Num(cell.ops_per_sec / 1e6, 3),
                TextTable::Num(cell.abort_rate * 100.0, 2),
                std::to_string(r.snapshot_reads),
                std::to_string(r.version_hops),
                std::to_string(r.versions_retired),
                std::to_string(r.chain_splices),
                std::to_string(r.validation_walks),
                std::to_string(r.snapshot_probe_aborts)});
}

bool Run(const std::string& json_path) {
  const std::vector<int> threads = bench::ThreadSweep();
  const int max_threads = threads.back();
  JsonReport report("readset_layout");

  std::printf("\nread-set layout sweep — orec-full-l hash table, %llu keys, "
              "%d%% lookups, %d threads\n",
              static_cast<unsigned long long>(kKeyRange), kLookupPct, max_threads);
  TextTable chain_table({"layout/body", "chain", "Mops/s", "abort%",
                         "simd-batches", "scalar-checks"});
  for (const int chain : kChainLens) {
    for (const bool simd : {false, true}) {
      RunChainCell<OrecL>(report, chain_table, "hashed", simd, chain, max_threads);
      RunChainCell<OrecLStriped>(report, chain_table, "striped", simd, chain,
                                 max_threads);
    }
  }
  std::fputs(chain_table.ToString().c_str(), stdout);

  const int scan_threads = max_threads > 1 ? max_threads : 2;
  std::printf("\nring saturation vs partitioned counters — btree range scans, "
              "%d threads (1 scanner + writers)\n", scan_threads);
  TextTable scan_table({"family/strategy", "scan-width", "Mops/s", "abort%",
                        "stripe-skips", "x-stripe-walks", "ring-intersect",
                        "ring-stale", "ring-window"});
  for (const int width : kScanWidths) {
    // Summary must be the ENGINE's instantiation (the partitioned flag is part
    // of the type, and each instantiation owns its own counters/fail blocks).
    RunScanCell<OrecLBloom, OrecLBloom::Full::Summary, ValProbe<OrecLBloomTag>>(
        report, scan_table, "btree-orec-l", "local", "bloom", width, scan_threads);
    RunScanCell<ValBloom, GlobalCounterBloomValidation,
                ValProbe<ValDomainTag>>(report, scan_table, "btree-val", "none",
                                        "bloom", width, scan_threads);
    RunScanCell<ValPart, GlobalCounterBloomValidation,
                ValProbe<ValDomainTag>>(report, scan_table, "btree-val", "none",
                                        "partitioned", width, scan_threads);
  }
  std::fputs(scan_table.ToString().c_str(), stdout);

  std::printf("\nMVCC snapshot scans — btree range scans under val-snap, "
              "%d threads (1 pinned-snapshot scanner + writers)\n", scan_threads);
  TextTable snap_table({"family/strategy", "scan-width", "Mops/s", "abort%",
                        "snap-reads", "hops", "retired", "splices", "walks",
                        "probe-aborts"});
  for (const int width : kScanWidths) {
    RunSnapshotCell(report, snap_table, width, scan_threads);
  }
  std::fputs(snap_table.ToString().c_str(), stdout);

  SetSimdEnabled(SimdAvailable());  // leave the process default restored
  return json_path.empty() || report.WriteFile(json_path);
}

}  // namespace
}  // namespace spectm

int main(int argc, char** argv) {
  const std::string json_path =
      spectm::JsonPathFromArgs(argc, argv, "BENCH_readset_layout.json");
  return spectm::Run(json_path) ? 0 : 1;
}
