// ubac_perfbench: one command for both ubac pipelines. See METRICS.md for
// the workloads, the metrics and the failure definition.
//
//   ubac_perfbench --workload <configure_mci|churn_serve|overload_batch|all>
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--out-dir DIR] [--revision REV] [--inject FAULT]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every correctness gate passed.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench.hpp"

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: ubac_perfbench --workload <configure_mci|churn_serve|"
    "overload_batch|all>\n"
    "                      [--seed N] [--seconds S] [--trace 0|1]\n"
    "                      [--out-dir DIR] [--revision REV]\n"
    "                      [--inject wrong-alpha|double-release|"
    "small-recorder]\n";

constexpr const char* kWorkloads[] = {"configure_mci", "churn_serve",
                                      "overload_batch"};

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

bool parse_seconds(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && std::isfinite(out) && out > 0.0 &&
         out <= 3600.0;
}

/// Strict flag parsing: every flag known, every value well formed.
bool parse_args(int argc, char** argv, Options& o, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag.rfind("--", 0) != 0) {
      error = "unexpected argument '" + flag + "'";
      return false;
    }
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      error = "flag " + flag + " needs a value";
      return false;
    }
    if (flag == "--workload") {
      have_workload = value == "all";
      for (const char* w : kWorkloads) have_workload |= value == w;
      if (!have_workload) {
        error = "unknown workload '" + value + "'";
        return false;
      }
      o.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, o.seed)) {
        error = "--seed wants a non-negative integer, got '" + value + "'";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!parse_seconds(value, o.seconds)) {
        error = "--seconds wants a number in (0, 3600], got '" + value + "'";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        error = "--trace wants 0 or 1, got '" + value + "'";
        return false;
      }
      o.trace = value == "1";
    } else if (flag == "--inject") {
      if (value != "wrong-alpha" && value != "double-release" &&
          value != "small-recorder") {
        error = "unknown --inject fault '" + value + "'";
        return false;
      }
      o.inject = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--revision") {
      o.revision = value;
    } else {
      error = "unknown flag '" + flag + "'";
      return false;
    }
  }
  if (!have_workload) {
    error = "--workload is required";
    return false;
  }
  return true;
}

/// CPU brand string, read from the processor with the cpuid instruction.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string entries_json(const std::vector<Report::Entry>& entries) {
  std::string out = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(entries[i].name) + ": {\"value\": " +
           json_number(entries[i].value) +
           ", \"unit\": " + json_string(entries[i].unit) + "}";
  }
  return out + "}";
}

struct Stamp {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string cpu = cpu_model();
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string revision;

  std::string json() const {
    return "{\"nproc\": " + std::to_string(nproc) +
           ", \"cpu_model\": " + json_string(cpu) +
           ", \"compiler\": " + json_string(compiler) +
           ", \"build_type\": " + json_string(build_type) +
           ", \"revision\": " + json_string(revision) + "}";
  }
};

void run_workload(const Options& options, Report& report) {
  if (options.trace) return run_traced(options, report);
  if (options.workload == "configure_mci") return run_configure_mci(options, report);
  if (options.workload == "churn_serve") return run_churn_serve(options, report);
  run_overload_batch(options, report);
}

/// Every metric must be a finite number for the result to be read.
void check_finite(Report& report) {
  for (const auto& m : report.metrics())
    if (!std::isfinite(m.value))
      report.gate("metric_finite." + m.name, false, "value is not finite");
}

void print_report(const std::string& label, const Report& report) {
  for (const auto& m : report.metrics())
    std::printf("[%s] %-44s %16.6g %s\n", label.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  for (const auto& m : report.infos())
    std::printf("[%s]   %-42s %16.6g %s\n", label.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  for (const auto& g : report.gates())
    std::printf("[%s] gate %-39s %s%s%s\n", label.c_str(), g.name.c_str(),
                g.ok ? "PASS" : "FAIL", g.ok ? "" : ": ",
                g.ok ? "" : g.detail.c_str());
}

std::string result_json(const Options& options, const Stamp& stamp,
                        const std::string& workload, const Report& report) {
  std::string gates = "[";
  for (std::size_t i = 0; i < report.gates().size(); ++i) {
    const auto& g = report.gates()[i];
    if (i > 0) gates += ", ";
    gates += "{\"name\": " + json_string(g.name) +
             ", \"ok\": " + (g.ok ? "true" : "false") +
             ", \"detail\": " + json_string(g.detail) + "}";
  }
  gates += "]";
  const double failed_frac =
      static_cast<double>(report.failed()) /
      static_cast<double>(std::max<std::uint64_t>(1, report.attempted()));
  return "{\"stamp\": " + stamp.json() +
         ",\n \"workload\": " + json_string(workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + json_number(options.seconds) +
         ", \"trace\": " + (options.trace ? "1" : "0") +
         ",\n \"attempted\": " + std::to_string(report.attempted()) +
         ", \"failed\": " + std::to_string(report.failed()) +
         ", \"failed_frac\": " + json_number(failed_frac) +
         ",\n \"metrics\": " + entries_json(report.metrics()) +
         ",\n \"info\": " + entries_json(report.infos()) +
         ",\n \"gates\": " + gates + "}\n";
}

int run(const Options& options) {
  Stamp stamp;
  stamp.revision = options.revision;
  std::printf("stamp: %s\n", stamp.json().c_str());
  std::fflush(stdout);

  std::vector<std::string> workloads;
  if (options.workload == "all" && !options.trace)
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  else
    workloads.push_back(options.workload);

  Report total;
  std::vector<Report::Entry> merged;
  for (const auto& workload : workloads) {
    Options o = options;
    o.workload = workload;
    Report report;
    run_workload(o, report);
    check_finite(report);
    print_report(workload, report);
    const double failed_frac =
        static_cast<double>(report.failed()) /
        static_cast<double>(std::max<std::uint64_t>(1, report.attempted()));
    std::printf("[%s] failed_frac = %.6g (%llu of %llu operations)\n",
                workload.c_str(), failed_frac,
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));

    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/" + workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    std::ofstream(path) << result_json(o, stamp, workload, report);
    std::printf("[%s] result written to %s\n", workload.c_str(), path.c_str());

    total.operations(report.attempted(), report.failed());
    for (const auto& m : report.metrics())
      merged.push_back({workloads.size() > 1 ? workload + "." + m.name : m.name,
                        std::isfinite(m.value) ? m.value : 0.0, m.unit});
  }

  const bool correct = total.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted()),
              static_cast<unsigned long long>(total.failed()),
              entries_json(merged).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string error;
  if (!perfbench::parse_args(argc, argv, options, error)) {
    std::fprintf(stderr, "ubac_perfbench: %s\n%s", error.c_str(),
                 perfbench::kUsage);
    return 2;
  }
  options.callers = std::max(
      1u, std::min(4u, std::thread::hardware_concurrency()));
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ubac_perfbench: %s\n", e.what());
    return 1;
  }
}
