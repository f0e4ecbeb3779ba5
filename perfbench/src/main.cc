// perfbench: the repo benchmark's measuring program. run.py builds it, runs it
// and turns its JSON report into the benchmark result line.
//
//   perfbench --workload <hash-short|skip-full|kv-zipf|kv-snapshot> --seed <n>
//             --seconds <s> --trace <0|1> [--setup-only] [--trace-out <csv>]
//             [--clients <n>]
//
// Prints ONE JSON object on stdout: host facts, the seeded-input digest, set-up
// time (with --setup-only, the median of repeated set-ups), per-phase counts,
// output-check and reconciliation results, and either the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
// Exit status 2 on a usage error; measurement failures are reported in the JSON
// and judged by run.py.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Metrics = std::map<std::string, double>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string CpuModel() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? ", " : "") + JsonString(k) + ": " + JsonNumber(v);
  }
  return out + "}";
}

// End-to-end metrics of the single-client run: throughput and latency are
// medians over its ~1 s windows.
Metrics EndToEnd(const RunReport& r) {
  const PhaseResult& p = r.single;
  return {
      {"ops_per_s_1t", p.MedianWindowRate()},
      {"latency_p50_us", p.MedianWindowLatencyNs(0.50) / 1e3},
      {"latency_p95_us", p.MedianWindowLatencyNs(0.95) / 1e3},
      {"checks_ok_share", 1.0 - Ratio(static_cast<double>(r.failures),
                                      static_cast<double>(r.checks))},
      {"setup_s", r.setup_s},
      // Growth over the resident size just before the structure was built: the
      // structure, its epoch backlog and version chains, not the inputs.
      {"peak_rss_mb", ProcStatusMiB("VmHWM:") - r.rss_base_mib},
  };
}

// Per-layer metrics of the traced multi-client phase, plus the untraced
// multi-client throughput and latency (clients.*). Every workload reports
// every metric; a layer off the workload's path reads 0 with a base count of 0.
Metrics PerLayer(const RunReport& r) {
  const PhaseResult& p = r.multi_traced;
  const ClientStats& t = p.total;
  const Probes& pr = t.probes;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  auto ns = [&](const Histogram& h, double q) {
    return p.TicksToNs(static_cast<double>(h.ValueAtPercentile(q * 100.0)));
  };
  Metrics m;

  m["clients.ops_per_s"] = r.multi.MedianWindowRate();
  m["clients.latency_p50_us"] = r.multi.MedianWindowLatencyNs(0.50) / 1e3;
  m["clients.latency_p99_us"] = r.multi.MedianWindowLatencyNs(0.99) / 1e3;

  Histogram all;
  for (const Histogram& h : t.by_op) {
    all.Merge(h);
  }
  const double ops = d(t.ops);
  const double commits = d(pr.commits);
  const double aborts = d(pr.aborts);

  // structures: lookup = Contains; update = Insert + Remove.
  Histogram updates = t.by_op[1];
  updates.Merge(t.by_op[2]);
  const bool set = !r.is_kv;
  m["structures.lookups"] = set ? d(t.op_count[0]) : 0;
  m["structures.lookup_ns_p50"] = set ? ns(t.by_op[0], 0.50) : 0;
  m["structures.lookup_ns_p99"] = set ? ns(t.by_op[0], 0.99) : 0;
  m["structures.updates"] = set ? d(updates.Count()) : 0;
  m["structures.update_ns_p50"] = set ? ns(updates, 0.50) : 0;
  m["structures.update_ns_p99"] = set ? ns(updates, 0.99) : 0;
  m["structures.update_hit_ratio"] =
      set ? Ratio(d(t.op_true[1] + t.op_true[2]), d(updates.Count())) : 0;

  // svc: get / transfer / scan batches, one request each.
  const bool kv = r.is_kv;
  m["svc.requests"] = kv ? ops : 0;
  m["svc.gets"] = kv ? d(t.op_count[0]) : 0;
  m["svc.get_us_p50"] = kv ? ns(t.by_op[0], 0.50) / 1e3 : 0;
  m["svc.transfers"] = kv ? d(t.op_count[1]) : 0;
  m["svc.transfer_us_p50"] = kv ? ns(t.by_op[1], 0.50) / 1e3 : 0;
  m["svc.transfer_us_p99"] = kv ? ns(t.by_op[1], 0.99) / 1e3 : 0;
  m["svc.scans"] = kv ? d(t.op_count[2]) : 0;
  m["svc.scan_us_p50"] = kv ? ns(t.by_op[2], 0.50) / 1e3 : 0;
  m["svc.latency_p999_us"] = kv ? ns(all, 0.999) / 1e3 : 0;
  m["svc.attempts_per_request"] = kv ? Ratio(commits + aborts, ops) : 0;

  m["tm.ops"] = ops;
  m["tm.commits"] = commits;
  m["tm.aborts"] = aborts;
  m["tm.attempts"] = commits + aborts;
  m["tm.commits_per_op"] = Ratio(commits, ops);
  m["tm.abort_ratio"] = Ratio(aborts, commits + aborts);
  m["tm.max_abort_streak"] = d(p.registry.max_abort_streak);

  const double samples = d(pr.cached_samples + pr.shared_loads);
  m["clock.samples"] = samples;
  m["clock.rmw_draws_per_commit"] = Ratio(d(pr.rmw_draws), commits);
  m["clock.shared_loads_per_op"] = Ratio(d(pr.shared_loads), ops);
  m["clock.cached_sample_ratio"] = Ratio(d(pr.cached_samples), samples);

  const double walks = d(pr.validation_walks);
  const double skips = d(pr.counter_skips + pr.bloom_skips + pr.stripe_skips);
  m["valstrategy.walks"] = walks;
  m["valstrategy.validations"] = walks + skips;
  m["valstrategy.walks_per_commit"] = Ratio(walks, commits);
  m["valstrategy.skip_ratio"] = Ratio(skips, walks + skips);
  m["valstrategy.stripe_skips_per_commit"] = Ratio(d(pr.stripe_skips), commits);
  m["valstrategy.cross_stripe_walks"] = d(pr.cross_stripe_walks);
  m["valstrategy.summary_publishes_per_commit"] = Ratio(d(pr.summary_publishes), commits);

  m["validate_batch.simd_batches_per_walk"] = Ratio(d(pr.simd_batches), walks);
  m["validate_batch.scalar_checks_per_walk"] = Ratio(d(pr.scalar_checks), walks);

  m["serial.backoff_spins_per_abort"] = Ratio(d(pr.backoff_spins), aborts);
  m["serial.escalations"] = d(pr.escalations);
  m["serial.serial_commit_ratio"] = Ratio(d(pr.serial_commits), commits);

  const double snapshot_reads = d(pr.snapshot_reads);
  m["mvcc.snapshot_reads"] = snapshot_reads;
  m["mvcc.snapshot_reads_per_scan"] = kv ? Ratio(snapshot_reads, d(t.op_count[2])) : 0;
  m["mvcc.version_hops_per_read"] = Ratio(d(pr.version_hops), snapshot_reads);
  m["mvcc.versions_retired_per_commit"] = Ratio(d(pr.versions_retired), commits);
  m["mvcc.chain_splices"] = d(pr.chain_splices);

  m["epoch.pending_end"] = d(r.epoch_pending_end);
  m["epoch.freed"] = d(p.epoch_freed);
  m["epoch.freed_per_op"] = Ratio(d(p.epoch_freed), ops);

  // Share of untraced multi-client throughput lost to span recording (negative
  // when the traced half happened to run faster).
  m["trace.overhead_share"] = 1.0 - Ratio(p.OpsPerSecond(), r.multi.OpsPerSecond());
  m["trace.spans"] = d(all.Count());
  return m;
}

std::string PhaseJson(const PhaseResult& p) {
  return JsonObject({{"clients", p.clients},
                     {"seconds", p.seconds},
                     {"ops", static_cast<double>(p.total.ops)},
                     {"ops_per_s", p.OpsPerSecond()},
                     {"commits", static_cast<double>(p.total.probes.commits)},
                     {"aborts", static_cast<double>(p.total.probes.aborts)},
                     {"registry_commits", static_cast<double>(p.registry.commits)},
                     {"registry_aborts", static_cast<double>(p.registry.aborts)},
                     {"ticks_per_ns", p.ticks_per_ns}});
}

// Spans of the traced phase, oldest first per client, as CSV.
bool WriteSpans(const std::string& path, const PhaseResult& p) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "# ticks_per_ns=" << JsonNumber(p.ticks_per_ns) << "\n";
  out << "client,request,op,start_tick,end_tick\n";
  for (std::vector<Span> spans : p.spans) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.request < b.request; });
    for (const Span& s : spans) {
      if (s.end != 0) {
        out << s.client << ',' << s.request << ',' << s.op << ',' << s.start << ','
            << s.end << '\n';
      }
    }
  }
  return static_cast<bool>(out);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-only] [--trace-out <csv>] "
               "[--clients <n>]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      opts.setup_only = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (a == "--clients" && has_value) {
      opts.clients = std::atoi(argv[++i]);
      if (opts.clients < 1) {
        return Usage("--clients must be at least 1");
      }
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opts.seconds > 0 && opts.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  const int nproc = static_cast<int>(AllowedCpus().size());
  int clients = std::max(1, nproc - 1);

  void (*run)(const Options&, int, RunReport&) = nullptr;
  if (opts.workload == "hash-short") {
    run = RunHashShort;
  } else if (opts.workload == "skip-full") {
    run = RunSkipFull;
  } else if (opts.workload == "kv-zipf") {
    run = RunKvZipf;
  } else if (opts.workload == "kv-snapshot") {
    run = RunKvSnapshot;
    // ValSnap snapshot scans tear under concurrent transfers (the open MVCC
    // defect), so by default kv-snapshot drives one client in both modes;
    // --clients 2 or more reproduces the torn scans as failed checks.
    clients = 1;
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  if (opts.clients > 0) {
    clients = opts.clients;
  }

  RunReport report;
  std::vector<double> setup_runs;
  if (opts.setup_only) {
    // Set up kSetupRepeats times in this process and report the median. The
    // first set-ups of a fresh process also pay for faulting in new memory,
    // which took 4 or 6 ms from one process to the next on a small VM; the
    // repeats reuse that memory, so the median times the set-up work itself.
    constexpr int kSetupRepeats = 31;
    for (int i = 0; i < kSetupRepeats; ++i) {
      report = RunReport();
      run(opts, clients, report);
      setup_runs.push_back(report.setup_s);
    }
    report.setup_s = Median(setup_runs);
  } else {
    run(opts, clients, report);
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, report.stream_digest);
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(opts.workload) << ", \"seed\": " << opts.seed
      << ", \"setup_s\": " << JsonNumber(report.setup_s)
      << ", \"stream_digest\": " << JsonString(digest);
  if (opts.setup_only) {
    out << ", \"setup_runs_s\": [";
    for (std::size_t i = 0; i < setup_runs.size(); ++i) {
      out << (i ? ", " : "") << JsonNumber(setup_runs[i]);
    }
    out << "]";
  } else {
    out << ", \"seconds\": " << JsonNumber(opts.seconds)
        << ", \"trace\": " << (opts.trace ? 1 : 0) << ", \"checks\": " << report.checks
        << ", \"failures\": " << report.failures << ", \"reconcile_errors\": [";
    for (std::size_t i = 0; i < report.reconcile_errors.size(); ++i) {
      out << (i ? ", " : "") << JsonString(report.reconcile_errors[i]);
    }
    out << "], \"host\": {\"nproc\": " << nproc << ", \"clients\": " << clients
        << ", \"cpu_model\": " << JsonString(CpuModel())
        << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
        << ", \"avx512f\": " << (__builtin_cpu_supports("avx512f") ? "true" : "false")
        << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << JsonString(__VERSION__) << "}";
    out << ", \"phases\": {";
    if (!opts.trace) {
      out << "\"single\": " << PhaseJson(report.single);
    } else {
      out << "\"multi\": " << PhaseJson(report.multi)
          << ", \"multi_traced\": " << PhaseJson(report.multi_traced);
    }
    out << "}";
    if (!opts.trace) {
      out << ", \"end_to_end\": " << JsonObject(EndToEnd(report));
    } else {
      out << ", \"per_layer\": " << JsonObject(PerLayer(report));
      if (!opts.trace_out.empty() && !WriteSpans(opts.trace_out, report.multi_traced)) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opts.trace_out.c_str());
        return 1;
      }
    }
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
