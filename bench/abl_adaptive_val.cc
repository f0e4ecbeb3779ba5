// Adaptive validation engine ablation (valstrategy.h): fixed strategies
// (incremental / counter-skip / bloom on the orec layout, bloom on the val
// layout) vs the EWMA-adaptive engine, on the two layouts whose full transactions pay per-read O(read-set) revalidation — the
// local-clock orec family (§4.1's "-l" cost) and the counter-validated val layout
// (Figure 5's dominant cost).
//
// Three workloads over a hash table with deliberately long chains (1024 buckets,
// 16k keys => ~8-node chains, so full-transaction read sets are large enough for
// validation strategy to matter):
//   read-heavy   90% lookups — counter-skip country; also the "no regression vs
//                always-incremental" acceptance sweep
//   write-heavy  10% lookups — constant counter movement; bloom country
//   phase-shift  alternating 25 ms RO bursts (95% lookups) and RW bursts (5%) —
//                the workload the EWMA switch exists for
//
// Besides the multi-threaded throughput cells, each (family, strategy) row runs
// a deterministic single-threaded probe pass (see MeasureProbes) whose ValProbe
// deltas are emitted as evidence columns: counter_skips / bloom_skips /
// validation_walks prove the row's mechanism actually fires, and the adaptive
// rows additionally prove the EWMA switch transitions (strategy_switches > 0).
//
// Output: text tables plus BENCH_adaptive_val.json (override with --json <path>
// or SPECTM_BENCH_JSON) through the standard JSON pipeline (bench/README.md).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/set_bench.h"
#include "src/common/health.h"
#include "src/structures/hash_tm_full.h"
#include "src/tm/orec.h"
#include "src/tm/serial.h"
#include "src/tm/valstrategy.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

constexpr std::size_t kBuckets = 1024;
constexpr std::uint64_t kKeyRange = 16384;
constexpr int kPhaseMs = 25;
constexpr int kRoPhaseLookupPct = 95;
constexpr int kRwPhaseLookupPct = 5;

struct WorkloadSpec {
  const char* name;
  int lookup_pct;  // -1 => phase-shifting mix
};

constexpr WorkloadSpec kWorkloads[] = {
    {"read-heavy", 90},
    {"write-heavy", 10},
    {"phase-shift", -1},
};

int PhaseLookupPct(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return (elapsed / kPhaseMs) % 2 == 0 ? kRoPhaseLookupPct : kRwPhaseLookupPct;
}

// One timed cell for the phase-shifting workload: every worker flips between the
// RO and RW mixes on a shared wall-clock schedule (re-checked every 32 ops), so
// all threads burst together and the abort-rate EWMA actually sees phases. The
// cell machinery itself is the shared MeasureCellWithMix.
template <typename MakeSet>
bench::CellResult MeasurePhaseCell(const MakeSet& make_set, const WorkloadConfig& cfg,
                                   int threads) {
  const auto phase_start = std::chrono::steady_clock::now();
  thread_local int lookup_pct = kRoPhaseLookupPct;
  return bench::MeasureCellWithMix(make_set, cfg, threads,
                                   [&](std::uint64_t ops) {
                                     if (ops % 32 == 0) {
                                       lookup_pct = PhaseLookupPct(phase_start);
                                     }
                                     return lookup_pct;
                                   });
}

struct ProbeDeltas {
  std::uint64_t counter_skips = 0;
  std::uint64_t bloom_skips = 0;
  std::uint64_t validation_walks = 0;
  std::uint64_t strategy_switches = 0;
};

// Bloom signature of a family slot: the metadata word the engines hash — the
// (shared-table) orec for orec layouts, the value word itself for the val layout.
template <typename Family, typename = void>
struct SlotBloom {
  static Bloom128 Of(typename Family::Slot* s) {
    return AddrBloom128(&s->word);
  }
};
template <typename Family>
struct SlotBloom<Family, std::void_t<typename Family::Layout>> {
  static Bloom128 Of(typename Family::Slot* s) {
    return AddrBloom128(&Family::Layout::OrecOf(*s));
  }
};

// Deterministic probe pass (ValProbe counters are thread-local, so the timed
// cells' worker counts are unreachable — and on a 1-core container, scheduler-
// driven interleaving makes probabilistic evidence flaky). Each step exercises
// one mechanism the columns claim, exactly like the unit tests do:
//   1. a quiet multi-read transaction  -> counter_skips (stable-counter skip)
//   2. a bloom-disjoint single-op write between two reads -> bloom_skips under
//      the bloom strategy (other strategies walk: validation_walks)
//   3. (adaptive rows) an abort burst then a quiet run -> the EWMA crosses its
//      bands and strategy_switches records the transitions
template <typename Family>
ProbeDeltas MeasureProbes(bool adaptive_transitions) {
  using Probe = typename Family::Full::Probe;
  using FullTx = typename Family::FullTx;
  std::vector<typename Family::Slot> pool(66);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Family::RawWrite(&pool[i], EncodeInt(i + 1));
  }
  typename Family::Slot* a = &pool[64];
  typename Family::Slot* b = &pool[65];
  // A write target whose bloom misses {a, b}, so the bloom pre-filter can prove
  // disjointness (64 candidates make a miss essentially impossible; if every one
  // collides the step degrades to a walk and the column honestly reads 0).
  Bloom128 read_bloom = SlotBloom<Family>::Of(a);
  read_bloom |= SlotBloom<Family>::Of(b);
  typename Family::Slot* disjoint = &pool[0];
  for (std::size_t i = 0; i < 64; ++i) {
    if (!SlotBloom<Family>::Of(&pool[i]).Intersects(read_bloom)) {
      disjoint = &pool[i];
      break;
    }
  }

  const typename Probe::Counters start_counters = Probe::Get();
  // (1) stable counter: second read and commit skip the walk.
  {
    FullTx tx;
    do {
      tx.Start();
      tx.Read(a);
      tx.Read(b);
    } while (!tx.Commit());
  }
  // (2) moved-but-disjoint counter: the single-op write bumps the domain counter
  // between the two reads; the bloom strategy pre-filters it, others walk.
  {
    FullTx tx;
    do {
      tx.Start();
      tx.Read(a);
      Family::SingleWrite(disjoint, EncodeInt(7));
      tx.Read(b);
    } while (!tx.Commit());
  }
  // (3) EWMA band crossings: user aborts are genuine abort-EWMA events, so a
  // burst of them walks the adaptive engine into the incremental band and a
  // quiet commit run decays it back to counter-skip — each band edge crossed at
  // a Start() records a strategy switch.
  if (adaptive_transitions) {
    for (int i = 0; i < 64; ++i) {
      FullTx tx;
      tx.Start();
      tx.Read(a);
      tx.AbortTx();
      tx.Commit();
    }
    for (int i = 0; i < 256; ++i) {
      FullTx tx;
      do {
        tx.Start();
        tx.Read(a);
      } while (!tx.Commit());
    }
  }
  const typename Probe::Counters end_counters = Probe::Get();

  ProbeDeltas d;
  d.counter_skips = end_counters.counter_skips - start_counters.counter_skips;
  d.bloom_skips = end_counters.bloom_skips - start_counters.bloom_skips;
  d.validation_walks = end_counters.validation_walks - start_counters.validation_walks;
  d.strategy_switches =
      end_counters.strategy_switches - start_counters.strategy_switches;
  return d;
}

struct Row {
  std::string strategy;
  bench::CellResult result;
  ProbeDeltas probes;
  bool has_probes = true;
};

template <typename Family>
Row MeasureFamily(const char* strategy, const WorkloadSpec& wl, int threads) {
  auto make_set = [] { return std::make_unique<TmHashSet<Family>>(kBuckets); };
  WorkloadConfig cfg;
  cfg.key_range = kKeyRange;
  cfg.lookup_pct = wl.lookup_pct < 0 ? kRoPhaseLookupPct : wl.lookup_pct;

  Row row;
  row.strategy = strategy;
  row.result = wl.lookup_pct < 0 ? MeasurePhaseCell(make_set, cfg, threads)
                                 : bench::MeasureCellDetailed(make_set, cfg, threads);
  // The passive baseline (OrecL) keeps no writer summary (its Summary is the
  // null one), so its skip and strategy columns are zero by construction;
  // mark its probes absent rather than emit columns that read as measured.
  row.has_probes = Family::Full::Summary::kPrecise;
  if (row.has_probes) {
    row.probes = MeasureProbes<Family>(std::string(strategy) == "adaptive");
  }
  return row;
}

void EmitGroup(JsonReport& report, const char* variant, const char* clock,
               const WorkloadSpec& wl, int threads, const std::vector<Row>& rows) {
  std::printf("\n%s — %s (hash table, %zu buckets, %llu keys, %d threads)\n", variant,
              wl.name, kBuckets, static_cast<unsigned long long>(kKeyRange), threads);
  TextTable table({"strategy", "Mops/s", "abort%", "ctr-skips", "bloom-skips",
                   "walks", "strat-switches"});
  for (const Row& row : rows) {
    BenchRecord r;
    r.variant = variant;
    r.clock = clock;
    r.workload = wl.name;
    r.strategy = row.strategy;
    r.threads = threads;
    r.lookup_pct = wl.lookup_pct;
    r.ops_per_sec = row.result.ops_per_sec;
    r.abort_rate = row.result.abort_rate;
    r.commits = row.result.commits;
    r.aborts = row.result.aborts;
    r.duration_s = row.result.duration_s;
    r.has_probes = row.has_probes;
    r.counter_skips = row.probes.counter_skips;
    r.bloom_skips = row.probes.bloom_skips;
    r.validation_walks = row.probes.validation_walks;
    r.strategy_switches = row.probes.strategy_switches;
    report.Add(r);

    auto probe_cell = [&](std::uint64_t v) {
      return row.has_probes ? std::to_string(v) : std::string("-");
    };
    table.AddRow({row.strategy, TextTable::Num(row.result.ops_per_sec / 1e6, 3),
                  TextTable::Num(row.result.abort_rate * 100.0, 2),
                  probe_cell(row.probes.counter_skips),
                  probe_cell(row.probes.bloom_skips),
                  probe_cell(row.probes.validation_walks),
                  probe_cell(row.probes.strategy_switches)});
  }
  std::fputs(table.ToString().c_str(), stdout);
}

// --- Pathological-contention section (two-phase contention manager) -----------------
//
// A deterministic livelock script, same single-threaded probe-pass idiom as
// MeasureProbes: an ADVERSARY LOCK planted on the victim's orec makes every
// optimistic attempt conflict-abort — the shape phase 2 of the contention
// manager (src/tm/serial.h) exists for. The adversary retreats only once the
// CM answers the storm (first escalation observed), or — with the watchdog
// disabled via SetSerialEscalationStreak(0) — only after a fixed budget of
// 4x the default threshold. So the escalation-on row's max_abort_streak reads
// "what the CM bounds" (threshold + the one serial attempt that still hit the
// planted lock), while the escalation-off row's reads "how long the adversary
// persisted" — it scales with the storm, i.e. is unbounded in the storm
// length, which is the paper's livelock argument in one column.
struct PathCell {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t escalations = 0;
  std::uint64_t serial_commits = 0;
  std::uint64_t max_abort_streak = 0;
  std::uint64_t backoff_spins = 0;
  // Health-watchdog deltas; all zero unless built with SPECTM_HEALTH (the
  // disabled probe is a constexpr all-zero, so no gating is needed here).
  std::uint64_t health_samples = 0;
  std::uint64_t health_storms = 0;
  std::uint64_t degrade_enters = 0;
  std::uint64_t degrade_exits = 0;
  std::uint64_t throttled_escalations = 0;
};

PathCell RunPathologicalPass(bool escalation_on) {
  using F = OrecLAdaptive;
  using Tag = OrecLAdaptTag;
  using Probe = CmProbe<Tag>;

  SetSerialEscalationStreak(escalation_on ? kSerialEscalationStreak : 0);
  static F::Slot victim;
  F::RawWrite(&victim, EncodeInt(1));
  std::atomic<Word>& orec = F::Layout::OrecOf(victim);
  TxDesc adversary;  // owns the planted lock; never runs a transaction itself

  constexpr int kStorms = 3;
  const std::uint64_t adversary_budget = 4 * kSerialEscalationStreak;
  Probe::Reset();
  const typename Probe::Counters start = Probe::Get();
  const health::Counters hstart = health::HealthProbe<Tag>::Get();
  PathCell cell;

  for (int storm = 0; storm < kStorms; ++storm) {
    const std::uint64_t esc_base = Probe::Get().escalations;
    const Word saved = orec.load(std::memory_order_relaxed);
    orec.store(MakeOrecLocked(&adversary), std::memory_order_release);
    bool planted = true;
    std::uint64_t failed_attempts = 0;
    while (true) {
      // The budget fallback also applies with escalation on: an SPECTM_HEALTH
      // build may degrade mid-storm and THROTTLE the escalation this loop is
      // waiting for (by design — the throttle delta is the row's evidence), so
      // the adversary must eventually relent on attempts alone.
      const bool answered = escalation_on
                                ? (Probe::Get().escalations > esc_base ||
                                   failed_attempts >= adversary_budget)
                                : failed_attempts >= adversary_budget;
      if (planted && answered) {
        orec.store(saved, std::memory_order_release);
        planted = false;
      }
      F::FullTx tx;
      tx.Start();
      tx.Read(&victim);
      tx.Write(&victim, EncodeInt(static_cast<std::uint64_t>(storm) + 2));
      if (tx.Commit()) {
        ++cell.commits;
        break;
      }
      ++cell.aborts;
      ++failed_attempts;
    }
    // Quiet commits between storms drain the post-serial cooldown, so every
    // storm faces the 1x threshold (the steady-state per-storm bound, not the
    // hysteresis-doubled one).
    for (std::uint32_t i = 0; i < kSerialCooldownCommits; ++i) {
      F::FullTx tx;
      do {
        tx.Start();
        tx.Read(&victim);
      } while (!tx.Commit());
      ++cell.commits;
    }
  }

  const typename Probe::Counters end = Probe::Get();
  cell.escalations = end.escalations - start.escalations;
  cell.serial_commits = end.serial_commits - start.serial_commits;
  cell.max_abort_streak = end.max_abort_streak;
  cell.backoff_spins = end.backoff_spins - start.backoff_spins;
  const health::Counters hend = health::HealthProbe<Tag>::Get();
  cell.health_samples = hend.samples - hstart.samples;
  cell.health_storms = hend.storms - hstart.storms;
  cell.degrade_enters = hend.degrade_enters - hstart.degrade_enters;
  cell.degrade_exits = hend.degrade_exits - hstart.degrade_exits;
  cell.throttled_escalations =
      hend.throttled_escalations - hstart.throttled_escalations;
  return cell;
}

void RunPathologicalSection(JsonReport& report) {
  std::printf(
      "\norec-full-l — pathological (planted adversary lock, %d storms, "
      "escalation threshold %llu)\n",
      3, static_cast<unsigned long long>(kSerialEscalationStreak));
  std::vector<std::string> header{"cm",           "commits",    "aborts",
                                  "escalations",  "serial-commits",
                                  "max-streak",   "backoff-spins"};
  if (health::kEnabled) {
    header.insert(header.end(), {"hwin", "degr-in", "thr-esc"});
  }
  TextTable table(std::move(header));
  struct {
    const char* name;
    bool on;
  } rows[] = {{"escalation-on", true}, {"escalation-off", false}};
  for (const auto& spec : rows) {
    const PathCell cell = RunPathologicalPass(spec.on);
    BenchRecord r;
    r.variant = "orec-full-l";
    r.clock = "local";
    r.workload = "pathological";
    r.strategy = spec.name;
    r.threads = 1;
    r.lookup_pct = 0;
    r.commits = cell.commits;
    r.aborts = cell.aborts;
    r.abort_rate = static_cast<double>(cell.aborts) /
                   static_cast<double>(cell.commits + cell.aborts);
    r.has_cm = true;
    r.escalations = cell.escalations;
    r.serial_commits = cell.serial_commits;
    r.max_abort_streak = cell.max_abort_streak;
    r.backoff_spins = cell.backoff_spins;
    r.has_health = health::kEnabled;
    r.health_samples = cell.health_samples;
    r.health_storms = cell.health_storms;
    r.degrade_enters = cell.degrade_enters;
    r.degrade_exits = cell.degrade_exits;
    r.throttled_escalations = cell.throttled_escalations;
    report.Add(r);
    std::vector<std::string> row{spec.name, std::to_string(cell.commits),
                                 std::to_string(cell.aborts),
                                 std::to_string(cell.escalations),
                                 std::to_string(cell.serial_commits),
                                 std::to_string(cell.max_abort_streak),
                                 std::to_string(cell.backoff_spins)};
    if (health::kEnabled) {
      row.insert(row.end(), {std::to_string(cell.health_samples),
                             std::to_string(cell.degrade_enters),
                             std::to_string(cell.throttled_escalations)});
    }
    table.AddRow(std::move(row));
  }
  SetSerialEscalationStreak(kSerialEscalationStreak);  // restore the default
  std::fputs(table.ToString().c_str(), stdout);
}

bool Run(const std::string& json_path) {
  const std::vector<int> threads = bench::ThreadSweep();
  const int max_threads = threads.back();
  JsonReport report("adaptive_val");

  for (const WorkloadSpec& wl : kWorkloads) {
    // Local-clock orec family: OrecL (kIncremental — no writer summary at all) is the
    // always-incremental baseline the acceptance sweep compares against.
    std::vector<Row> orec_rows;
    orec_rows.push_back(MeasureFamily<OrecL>("incremental", wl, max_threads));
    orec_rows.push_back(
        MeasureFamily<OrecLCounterSkip>("counter-skip", wl, max_threads));
    orec_rows.push_back(MeasureFamily<OrecLBloom>("bloom", wl, max_threads));
    orec_rows.push_back(MeasureFamily<OrecLAdaptive>("adaptive", wl, max_threads));
    EmitGroup(report, "orec-full-l", "local", wl, max_threads, orec_rows);

    // Counter-validated val layout: the bloom and adaptive strategies over one
    // protocol.
    std::vector<Row> val_rows;
    val_rows.push_back(MeasureFamily<ValBloom>("bloom", wl, max_threads));
    val_rows.push_back(MeasureFamily<ValAdaptive>("adaptive", wl, max_threads));
    EmitGroup(report, "val-full", "none", wl, max_threads, val_rows);
  }

  RunPathologicalSection(report);

  return json_path.empty() || report.WriteFile(json_path);
}

}  // namespace
}  // namespace spectm

int main(int argc, char** argv) {
  const std::string json_path =
      spectm::JsonPathFromArgs(argc, argv, "BENCH_adaptive_val.json");
  return spectm::Run(json_path) ? 0 : 1;
}
