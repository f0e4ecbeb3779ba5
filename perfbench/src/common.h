// Shared machinery of the repo benchmark: closed-loop phase runner, tick clock,
// bounded span ring, and the thread-local probe snapshots that attribute a
// phase's work to the lower layers.
//
// Everything here measures the runtime from OUTSIDE: it times calls into the
// public functions of src/structures and src/svc and reads the public probe
// counters (ClockProbe, ValProbe, CmProbe, TxDesc stats, TxStatsRegistry,
// EpochManager). Nothing under src/ is modified or instrumented.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/cacheline.h"
#include "src/epoch/epoch.h"
#include "src/svc/latency.h"
#include "src/tm/clock.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/valstrategy.h"

namespace perfbench {

using Ticks = std::uint64_t;
inline Ticks Now() { return spectm::svc::CycleNow(); }

// Per-op latency in ticks. Percentiles read as the landing bucket's upper
// bound, ~3% wide.
using Histogram = spectm::svc::LatencyHistogram;

// Sum of one thread's probe counters for one TM domain. X-macro so the read,
// the delta and the sum can never disagree on the field list.
#define PERFBENCH_PROBE_FIELDS(X)                                                 \
  X(commits) X(aborts) X(shared_loads) X(rmw_draws) X(cached_samples)             \
  X(counter_skips) X(bloom_skips) X(validation_walks) X(summary_publishes)        \
  X(stripe_skips) X(cross_stripe_walks) X(simd_batches) X(scalar_checks)          \
  X(snapshot_reads) X(version_hops) X(versions_retired) X(chain_splices)          \
  X(escalations) X(serial_commits) X(backoff_spins)

struct Probes {
#define PERFBENCH_DECLARE(f) std::uint64_t f = 0;
  PERFBENCH_PROBE_FIELDS(PERFBENCH_DECLARE)
#undef PERFBENCH_DECLARE

  Probes& operator+=(const Probes& o) {
#define PERFBENCH_ADD(f) f += o.f;
    PERFBENCH_PROBE_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    return *this;
  }
  Probes operator-(const Probes& o) const {
    Probes d;
#define PERFBENCH_SUB(f) d.f = f - o.f;
    PERFBENCH_PROBE_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    return d;
  }
};

// The calling thread's counters for domain Tag. Probes are thread-local, so this
// must run on the client thread itself.
template <typename Tag>
Probes ReadThreadProbes() {
  Probes p;
  const spectm::TxStats& stats = spectm::DescOf<Tag>().stats;
  p.commits = stats.commits.load(std::memory_order_relaxed);
  p.aborts = stats.aborts.load(std::memory_order_relaxed);
  const auto& clock = spectm::ClockProbe<Tag>::Get();
  p.shared_loads = clock.shared_loads;
  p.rmw_draws = clock.rmw_draws;
  p.cached_samples = clock.cached_samples;
  const auto& val = spectm::ValProbe<Tag>::Get();
  p.counter_skips = val.counter_skips;
  p.bloom_skips = val.bloom_skips;
  p.validation_walks = val.validation_walks;
  p.summary_publishes = val.summary_publishes;
  p.stripe_skips = val.stripe_skips;
  p.cross_stripe_walks = val.cross_stripe_walks;
  p.simd_batches = val.simd_batches;
  p.scalar_checks = val.scalar_checks;
  p.snapshot_reads = val.snapshot_reads;
  p.version_hops = val.version_hops;
  p.versions_retired = val.versions_retired;
  p.chain_splices = val.chain_splices;
  const auto cm = spectm::CmProbe<Tag>::Get();
  p.escalations = cm.escalations;
  p.serial_commits = cm.serial_commits;
  p.backoff_spins = cm.backoff_spins;
  return p;
}

// Three operation kinds per workload family: lookup/insert/remove for the sets,
// get/transfer/scan for the KV service.
inline constexpr int kOpKinds = 3;

// One recorded call at the structures/svc boundary.
struct Span {
  std::uint64_t request;  // (client << 48) | per-client sequence number
  Ticks start;
  Ticks end;
  std::uint32_t op;
  std::uint32_t client;
};

// Phase control shared with the clients. `tick` is the index of the current
// measurement window and reads kStop once the phase is over; clients load it
// once per op, and it is written once per window.
struct PhaseClock {
  static constexpr std::uint32_t kStop = ~std::uint32_t{0};
  std::atomic<std::uint32_t> tick{0};
};

// What one client did in one phase. Histograms hold ticks. Cache-line aligned
// so adjacent clients' counters never share a line.
struct alignas(spectm::kCacheLineSize) ClientStats {
  static constexpr std::size_t kSpanRing = 4096;  // last spans kept per client

  std::uint64_t ops = 0;
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  std::uint64_t sink = 0;  // folds results so no call can be elided
  Probes probes;           // delta over the phase
  Histogram latency;       // untraced: current window's per-op latency
  // Untraced: ops and latency per measurement window, filed by EndWindow.
  std::vector<std::uint64_t> window_ops;
  std::vector<Histogram> window_latency;
  // Traced phases only.
  std::array<Histogram, kOpKinds> by_op;
  std::array<std::uint64_t, kOpKinds> op_count{};
  std::array<std::uint64_t, kOpKinds> op_true{};
  std::vector<Span> spans;

  // Sizes every buffer the phase writes, so nothing is allocated while it runs.
  void Prepare(std::size_t windows, bool traced) {
    window_ops.assign(windows, 0);
    window_latency.assign(windows, Histogram());
    if (traced) {
      spans.assign(kSpanRing, Span{});
    }
  }

  void RecordSpan(std::uint32_t op, std::uint32_t client, Ticks t0, Ticks t1, bool result) {
    by_op[op].Record(t1 - t0);
    ++op_count[op];
    op_true[op] += result ? 1 : 0;
    const std::uint64_t seq = op_count[0] + op_count[1] + op_count[2];
    spans[seq & (kSpanRing - 1)] =
        Span{(static_cast<std::uint64_t>(client) << 48) | seq, t0, t1, op, client};
  }

  // Closes window `index` (< the windows given to Prepare) after `ops_so_far`
  // operations in the phase.
  void EndWindow(std::uint32_t index, std::uint64_t ops_so_far) {
    window_ops[index] += ops_so_far - filed_ops_;
    filed_ops_ = ops_so_far;
    window_latency[index].Merge(latency);
    latency = Histogram();
  }

  void Merge(const ClientStats& o) {
    ops += o.ops;
    checks += o.checks;
    failures += o.failures;
    sink += o.sink;
    probes += o.probes;
    for (int k = 0; k < kOpKinds; ++k) {
      by_op[k].Merge(o.by_op[k]);
      op_count[k] += o.op_count[k];
      op_true[k] += o.op_true[k];
    }
  }

 private:
  std::uint64_t filed_ops_ = 0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct PhaseResult {
  int clients = 0;
  double seconds = 0.0;
  double ticks_per_ns = 1.0;
  ClientStats total;                       // sum over clients
  std::vector<double> window_seconds;      // wall length of each window
  std::vector<std::uint64_t> window_ops;   // summed over clients
  std::vector<Histogram> window_latency;   // merged over clients (untraced)
  std::vector<std::vector<Span>> spans;    // per client, traced phases only
  spectm::TxStatsRegistry::Totals registry;  // commit/abort delta, max streak
  std::uint64_t epoch_freed = 0;

  double OpsPerSecond() const {
    return seconds > 0 ? static_cast<double>(total.ops) / seconds : 0.0;
  }
  double TicksToNs(double ticks) const { return ticks / ticks_per_ns; }

  // Medians over the measurement windows: a burst of host noise shorter than
  // half the run moves the whole-run mean and tail, but not these.
  double MedianWindowRate() const {
    std::vector<double> rates;
    for (std::size_t w = 0; w < window_seconds.size(); ++w) {
      rates.push_back(static_cast<double>(window_ops[w]) / window_seconds[w]);
    }
    return Median(rates);
  }
  double MedianWindowLatencyNs(double q) const {
    std::vector<double> values;
    for (const Histogram& h : window_latency) {
      if (h.Count() > 0) {
        values.push_back(TicksToNs(static_cast<double>(h.ValueAtPercentile(q * 100.0))));
      }
    }
    return Median(values);
  }
};

// CPUs this process may run on (what `nproc` counts).
inline std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
#endif
  if (cpus.empty()) {
    const unsigned n = std::thread::hardware_concurrency();
    for (unsigned c = 0; c < (n == 0 ? 1 : n); ++c) {
      cpus.push_back(static_cast<int>(c));
    }
  }
  return cpus;
}

inline void PinTo(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);  // best effort
#else
  (void)cpu;
#endif
}

// Number of ~1 s measurement windows in a phase `seconds` long.
inline std::size_t WindowCount(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds + 0.5));
}

// Closed-loop phase: one client thread per entry of `stats` (prepared for this
// phase), client i pinned to the (i+1)-th allowed CPU, leaving the first to the
// idle main thread. The clients are released together, and each runs
// loop(client, clock, stats) until clock.tick reads kStop after `seconds`. The
// phase is cut into ~1 s measurement windows. Probe deltas are read on the
// client thread around its loop; the registry delta is taken around the whole
// phase, so the two must reconcile exactly.
template <typename Tag, typename Loop>
PhaseResult RunPhase(std::vector<ClientStats>& stats, double seconds, bool traced,
                     Loop&& loop) {
  const int clients = static_cast<int>(stats.size());
  const std::size_t windows = WindowCount(seconds);
  const std::vector<int> cpus = AllowedCpus();
  PhaseClock clock;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  spectm::TxStatsRegistry::ResetMaxStreak();
  const spectm::TxStatsRegistry::Totals before = spectm::TxStatsRegistry::Snapshot();
  const std::uint64_t freed_before = spectm::GlobalEpochManager().FreedCount();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      PinTo(cpus[static_cast<std::size_t>(c + 1) % cpus.size()]);
      ClientStats& s = stats[static_cast<std::size_t>(c)];
      const Probes start = ReadThreadProbes<Tag>();
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
        spectm::CpuRelax();
      }
      loop(c, clock, s);
      s.probes = ReadThreadProbes<Tag>() - start;
    });
  }
  while (ready.load(std::memory_order_acquire) != clients) {
    spectm::CpuRelax();
  }
  PhaseResult r;
  const auto wall0 = std::chrono::steady_clock::now();
  const Ticks tick0 = Now();
  go.store(true, std::memory_order_release);
  auto window_start = wall0;
  for (std::size_t w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        wall0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds * static_cast<double>(w) /
                                                  static_cast<double>(windows))));
    const auto now = std::chrono::steady_clock::now();
    clock.tick.store(w == windows ? PhaseClock::kStop : static_cast<std::uint32_t>(w),
                     std::memory_order_release);
    r.window_seconds.push_back(std::chrono::duration<double>(now - window_start).count());
    window_start = now;
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const Ticks tick1 = Now();
  const auto wall1 = std::chrono::steady_clock::now();

  r.clients = clients;
  r.seconds = std::chrono::duration<double>(wall1 - wall0).count();
  const double ns = std::chrono::duration<double, std::nano>(wall1 - wall0).count();
  r.ticks_per_ns = ns > 0 ? static_cast<double>(tick1 - tick0) / ns : 1.0;
  // Per-window figures are summed into the first client's buffers, so the
  // phase's end allocates nothing that the peak RSS would count.
  ClientStats& first = stats.front();
  for (ClientStats& s : stats) {
    r.total.Merge(s);
    if (&s != &first) {
      for (std::size_t w = 0; w < windows; ++w) {
        first.window_ops[w] += s.window_ops[w];
        first.window_latency[w].Merge(s.window_latency[w]);
      }
    }
    if (traced) {
      r.spans.push_back(std::move(s.spans));
    }
  }
  r.window_ops = std::move(first.window_ops);
  r.window_latency = std::move(first.window_latency);
  const spectm::TxStatsRegistry::Totals after = spectm::TxStatsRegistry::Snapshot();
  r.registry.commits = after.commits - before.commits;
  r.registry.aborts = after.aborts - before.aborts;
  r.registry.max_abort_streak = after.max_abort_streak;
  r.epoch_freed = spectm::GlobalEpochManager().FreedCount() - freed_before;
  return r;
}

// Everything one benchmark process measured, handed to the metric/report code.
struct RunReport {
  bool is_kv = false;
  double setup_s = 0.0;
  std::uint64_t stream_digest = 0;
  PhaseResult single;        // untraced run: one client
  PhaseResult multi;         // traced run: multi-client phase, untraced half
  PhaseResult multi_traced;  // traced run: multi-client phase, traced half
  std::uint64_t checks = 0;  // every output check made, in-run and final
  std::uint64_t failures = 0;
  std::uint64_t epoch_pending_end = 0;
  double rss_base_mib = 0.0;  // resident size just before the structure is built
  std::vector<std::string> reconcile_errors;
};

// FNV-1a over raw bytes: the stream digest the determinism test compares.
inline std::uint64_t Fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
  int clients = 0;  // --trace 1 clients; 0 = the workload's default
};

// Clients the run mode drives, and so the number of op streams to generate.
inline int StreamClients(const Options& opts, int clients) {
  return opts.trace ? clients : 1;
}

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// A size field of /proc/self/status ("VmRSS:", "VmHWM:") in MiB; 0 if absent.
inline double ProcStatusMiB(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(field), nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Client stats of every phase the run mode measures.
struct ScheduleStats {
  std::vector<ClientStats> single;
  std::vector<ClientStats> multi;
  std::vector<ClientStats> multi_traced;
};

// Allocates and zeroes the stats of the phases RunSchedule will run. Workloads
// call it before building their structure and sampling the RSS baseline, so
// the harness's own buffers stay out of peak_rss_mb.
inline ScheduleStats PrepareSchedule(const Options& opts, int clients) {
  auto make = [](int n, double seconds, bool traced) {
    std::vector<ClientStats> stats(static_cast<std::size_t>(n));
    for (ClientStats& s : stats) {
      s.Prepare(WindowCount(seconds), traced);
    }
    return stats;
  };
  ScheduleStats st;
  if (!opts.trace) {
    st.single = make(1, opts.seconds, false);
  } else {
    st.multi = make(clients, opts.seconds / 2.0, false);
    st.multi_traced = make(clients, opts.seconds / 2.0, true);
  }
  return st;
}

// Phase schedule shared by every workload. The untraced run (--trace 0, the
// end-to-end metrics) measures one client for the whole run. The traced run
// (--trace 1, the per-layer metrics) measures `clients` clients untraced for
// half the run and then traced for the other half, which also gives
// trace.overhead_share from one process. `loop` is called as
// loop(std::bool_constant<traced>, client, clock, stats).
template <typename Tag, typename Loop>
void RunSchedule(const Options& opts, ScheduleStats& stats, RunReport& report, Loop&& loop) {
  auto untraced = [&](int c, const PhaseClock& clock, ClientStats& s) {
    loop(std::false_type{}, c, clock, s);
  };
  auto traced = [&](int c, const PhaseClock& clock, ClientStats& s) {
    loop(std::true_type{}, c, clock, s);
  };
  if (!opts.trace) {
    report.single = RunPhase<Tag>(stats.single, opts.seconds, false, untraced);
  } else {
    report.multi = RunPhase<Tag>(stats.multi, opts.seconds / 2.0, false, untraced);
    report.multi_traced = RunPhase<Tag>(stats.multi_traced, opts.seconds / 2.0, true, traced);
  }
}

// Count reconciliation. Only client threads run transactions during a phase,
// so the per-client descriptor deltas must sum to the registry's delta; where
// every operation is exactly one transaction (skip-full, every KV batch) the
// commits must also equal the operations. A mismatch is a benchmark bug and is
// reported, never dropped.
inline void Reconcile(const PhaseResult& p, const char* phase, bool one_tx_per_op,
                      RunReport& report) {
  auto fail = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    report.reconcile_errors.push_back(std::string(phase) + ": " + what + " " +
                                      std::to_string(a) + " != " + std::to_string(b));
  };
  if (p.clients == 0) {
    return;  // phase not run in this mode
  }
  if (p.total.probes.commits != p.registry.commits) {
    fail("per-client commits vs TxStatsRegistry", p.total.probes.commits, p.registry.commits);
  }
  if (p.total.probes.aborts != p.registry.aborts) {
    fail("per-client aborts vs TxStatsRegistry", p.total.probes.aborts, p.registry.aborts);
  }
  if (one_tx_per_op && p.total.probes.commits != p.total.ops) {
    fail("commits vs operations", p.total.probes.commits, p.total.ops);
  }
}

inline void ReconcileAll(bool one_tx_per_op, RunReport& report) {
  Reconcile(report.single, "single", one_tx_per_op, report);
  Reconcile(report.multi, "multi", one_tx_per_op, report);
  Reconcile(report.multi_traced, "multi_traced", one_tx_per_op, report);
}

// Workload entry points (sets.cc, kv.cc). Set-up generates the inputs of the
// StreamClients, prepares the schedule's stats, samples the RSS baseline and
// then builds and prefills the structure; report.setup_s times the input
// generation and the build. They return early when opts.setup_only, else run
// the schedule and the checks.
void RunHashShort(const Options& opts, int clients, RunReport& report);
void RunSkipFull(const Options& opts, int clients, RunReport& report);
void RunKvZipf(const Options& opts, int clients, RunReport& report);
void RunKvSnapshot(const Options& opts, int clients, RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
