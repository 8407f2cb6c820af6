#pragma once

/// \file bench_common.hpp
/// \brief Shared scenario setup and reporting for the bench binaries.
///
/// Every bench reproduces one table or figure (see DESIGN.md's experiment
/// index) and prints paper-style rows; when UBAC_BENCH_CSV is set the same
/// rows are mirrored to CSV files in that directory.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/server_graph.hpp"
#include "net/topology_factory.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "traffic/leaky_bucket.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace ubac::bench {

/// The paper's Section 6 voice-over-IP scenario.
struct VoipScenario {
  traffic::LeakyBucket bucket{640.0, units::kbps(32)};  // T, rho
  Seconds deadline = units::milliseconds(100);          // D
  double fan_in = 6.0;                                  // N (MCI)
  int diameter = 4;                                     // L (MCI)
};

inline void print_header(const std::string& title, const std::string& setup) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), setup.c_str());
}

/// ArgParser::validate() for a bench's main(): an unknown flag prints the
/// error and the usage to stderr and exits with status 2 instead of
/// ending in std::terminate.
inline void validate_args(const util::ArgParser& args,
                          const std::string& program) {
  try {
    args.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n%s", program.c_str(), e.what(),
                 args.usage(program).c_str());
    std::exit(2);
  }
}

/// Span tracing for one bench invocation, gated on --trace-out=<file>:
/// construct after validate_args(); the Chrome trace-event JSON
/// (Perfetto-loadable) is written when the object goes out of scope.
/// Callers must have described the flag:
///   args.describe("trace-out", bench::kTraceOutHelp);
/// With the flag absent, the recorder is never installed, so instrumented
/// code pays only a relaxed atomic load per span site.
inline constexpr const char* kTraceOutHelp =
    "write a Chrome trace-event / Perfetto JSON span timeline here";

class ScopedBenchTracing {
 public:
  explicit ScopedBenchTracing(const util::ArgParser& args)
      : path_(args.get("trace-out", "")) {
    if (path_.empty()) return;
    recorder_ = std::make_unique<telemetry::SpanRecorder>(1u << 15);
    telemetry::SpanRecorder::install(recorder_.get());
  }
  ~ScopedBenchTracing() {
    if (recorder_ == nullptr) return;
    telemetry::ChromeTraceWriter writer;
    writer.add_spans(*recorder_, /*pid=*/1, "bench");
    writer.write(path_);
    std::printf("[span trace written to %s]\n", path_.c_str());
  }

  ScopedBenchTracing(const ScopedBenchTracing&) = delete;
  ScopedBenchTracing& operator=(const ScopedBenchTracing&) = delete;

 private:
  std::string path_;
  std::unique_ptr<telemetry::SpanRecorder> recorder_;
};

/// Print the table and optionally mirror it to $UBAC_BENCH_CSV/<name>.csv.
inline void emit(const util::TextTable& table,
                 const std::vector<std::string>& headers,
                 const std::vector<std::vector<std::string>>& rows,
                 const std::string& csv_name) {
  std::fputs(table.render().c_str(), stdout);
  if (util::CsvWriter::enabled_by_env()) {
    util::CsvWriter csv(util::CsvWriter::output_dir() + "/" + csv_name +
                        ".csv");
    csv.write_row(headers);
    for (const auto& row : rows) csv.write_row(row);
    std::printf("[csv written to %s/%s.csv]\n",
                util::CsvWriter::output_dir().c_str(), csv_name.c_str());
  }
}

/// One machine-readable result row. Renders as the stable one-line format
///
///   BENCH <name> key=value key=value ...
///
/// (fields in insertion order, no spaces inside a field) and as a JSON
/// object for `--json` output. Scripts should key on the `BENCH <name> `
/// prefix; fields may be appended over time but never renamed or removed.
class BenchSummary {
 public:
  explicit BenchSummary(std::string bench) : bench_(std::move(bench)) {}

  BenchSummary& set(const std::string& key, const std::string& value) {
    fields_.push_back({key, value, /*numeric=*/false});
    return *this;
  }
  BenchSummary& set(const std::string& key, double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    fields_.push_back({key, buf, /*numeric=*/true});
    return *this;
  }
  BenchSummary& set(const std::string& key, std::uint64_t value) {
    fields_.push_back({key, std::to_string(value), /*numeric=*/true});
    return *this;
  }

  const std::string& bench() const { return bench_; }

  std::string line() const {
    std::string out = "BENCH " + bench_;
    for (const auto& f : fields_) out += " " + f.key + "=" + f.value;
    return out;
  }

  std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].key + "\": ";
      out += fields_[i].numeric ? fields_[i].value
                                : "\"" + fields_[i].value + "\"";
    }
    return out + "}";
  }

 private:
  struct Field {
    std::string key;
    std::string value;
    bool numeric;
  };
  std::string bench_;
  std::vector<Field> fields_;
};

/// Write `{"bench": <name>, "rows": [...]}` for a set of summary rows.
inline void write_summary_json(const std::string& path,
                               const std::string& bench,
                               const std::vector<BenchSummary>& rows) {
  std::string out = "{\n  \"bench\": \"" + bench + "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "    " + rows[i].to_json();
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  telemetry::write_file(path, out);
  std::printf("[json written to %s]\n", path.c_str());
}

/// Export a metrics snapshot choosing the format from the file extension:
/// .json -> JSON, .csv -> CSV, anything else -> Prometheus text.
inline void export_metrics(const telemetry::MetricsSnapshot& snapshot,
                           const std::string& path) {
  const auto dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".json") {
    telemetry::write_file(path, telemetry::to_json(snapshot));
  } else if (ext == ".csv") {
    util::CsvWriter csv(path);
    telemetry::write_csv(snapshot, csv);
  } else {
    telemetry::write_file(path, telemetry::to_prometheus(snapshot));
  }
  std::printf("[metrics written to %s]\n", path.c_str());
}

}  // namespace ubac::bench
