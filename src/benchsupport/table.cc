#include "src/benchsupport/table.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace spectm {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::ToString() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      // Left-align the first (label) column, right-align numeric columns.
      const auto pad = widths[c] - std::min(widths[c], cells[c].size());
      if (c == 0) {
        out << cells[c] << std::string(pad, ' ');
      } else {
        out << std::string(pad, ' ') << cells[c];
      }
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

JsonReport::JsonReport(std::string bench_name) : bench_name_(std::move(bench_name)) {}

void JsonReport::Add(BenchRecord record) { records_.push_back(std::move(record)); }

std::string JsonReport::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Shortest round-trippable double formatting (%.17g is exact but noisy; %.12g is
// plenty for throughput numbers and keeps the files diffable).
std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string JsonReport::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"bench\": \"" << Escape(bench_name_)
      << "\",\n  \"results\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    out << (i == 0 ? "" : ",") << "\n    {"
        << "\"variant\": \"" << Escape(r.variant) << "\", "
        << "\"clock\": \"" << Escape(r.clock) << "\", ";
    if (!r.workload.empty()) {
      out << "\"workload\": \"" << Escape(r.workload) << "\", ";
    }
    if (!r.strategy.empty()) {
      out << "\"strategy\": \"" << Escape(r.strategy) << "\", ";
    }
    out << "\"threads\": " << r.threads << ", "
        << "\"lookup_pct\": " << r.lookup_pct << ", "
        << "\"ops_per_sec\": " << JsonNum(r.ops_per_sec) << ", "
        << "\"abort_rate\": " << JsonNum(r.abort_rate) << ", "
        << "\"commits\": " << r.commits << ", "
        << "\"aborts\": " << r.aborts << ", "
        << "\"duration_s\": " << JsonNum(r.duration_s);
    if (r.has_probes) {
      out << ", \"counter_skips\": " << r.counter_skips
          << ", \"bloom_skips\": " << r.bloom_skips
          << ", \"validation_walks\": " << r.validation_walks
          << ", \"strategy_switches\": " << r.strategy_switches;
    }
    if (r.has_layout) {
      out << ", \"layout\": \"" << Escape(r.layout) << "\""
          << ", \"simd\": \"" << Escape(r.simd) << "\""
          << ", \"chain_len\": " << r.chain_len
          << ", \"scan_width\": " << r.scan_width
          << ", \"simd_batches\": " << r.simd_batches
          << ", \"scalar_checks\": " << r.scalar_checks
          << ", \"ring_window_fails\": " << r.ring_window_fails
          << ", \"ring_stale_fails\": " << r.ring_stale_fails
          << ", \"ring_intersect_fails\": " << r.ring_intersect_fails;
    }
    if (r.has_stripes) {
      out << ", \"stripe_skips\": " << r.stripe_skips
          << ", \"stripe_bumps\": " << r.stripe_bumps
          << ", \"cross_stripe_walks\": " << r.cross_stripe_walks;
    }
    if (r.has_cm) {
      out << ", \"escalations\": " << r.escalations
          << ", \"serial_commits\": " << r.serial_commits
          << ", \"max_abort_streak\": " << r.max_abort_streak
          << ", \"backoff_spins\": " << r.backoff_spins;
    }
    if (r.has_health) {
      out << ", \"health_samples\": " << r.health_samples
          << ", \"health_storms\": " << r.health_storms
          << ", \"degrade_enters\": " << r.degrade_enters
          << ", \"degrade_exits\": " << r.degrade_exits
          << ", \"throttled_escalations\": " << r.throttled_escalations;
    }
    if (r.has_sched) {
      out << ", \"explored_schedules\": " << r.explored_schedules
          << ", \"preemption_bound\": " << r.preemption_bound
          << ", \"canary_found\": " << r.canary_found;
    }
    if (r.has_mvcc) {
      out << ", \"snapshot_reads\": " << r.snapshot_reads
          << ", \"version_hops\": " << r.version_hops
          << ", \"versions_retired\": " << r.versions_retired
          << ", \"chain_splices\": " << r.chain_splices
          << ", \"snapshot_probe_aborts\": " << r.snapshot_probe_aborts;
    }
    if (r.has_svc) {
      out << ", \"batch_size\": " << r.batch_size
          << ", \"zipf_theta\": " << JsonNum(r.zipf_theta)
          << ", \"batches\": " << r.batches
          << ", \"descriptors_per_op\": " << JsonNum(r.descriptors_per_op)
          << ", \"p50\": " << r.p50
          << ", \"p99\": " << r.p99
          << ", \"p999\": " << r.p999;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool JsonReport::WriteFile(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "JsonReport: cannot open %s for writing\n", path.c_str());
    return false;
  }
  f << ToJson();
  f.flush();
  if (!f) {
    std::fprintf(stderr, "JsonReport: write to %s failed\n", path.c_str());
    return false;
  }
  std::fprintf(stdout, "wrote %s (%zu records)\n", path.c_str(), records_.size());
  return true;
}

}  // namespace spectm
