// configure_mci: the Table 1 pipeline (SP maximize and the Section 5.2/5.3
// heuristic maximize over all 342 MCI pairs), repeated in a closed loop.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "config/configurator.hpp"
#include "perfbench.hpp"
#include "routing/max_util_search.hpp"
#include "stacks.hpp"

namespace perfbench {

namespace {

std::uint64_t route_digest(std::uint64_t h,
                           const std::vector<net::NodePath>& routes) {
  for (const auto& route : routes) {
    h = fnv(h, route.size());
    for (const auto node : route) h = fnv(h, node);
  }
  return h;
}

/// α to two decimals, as Table 1 prints it.
long hundredths(double alpha) { return std::lround(alpha * 100.0); }

}  // namespace

ConfigureOutcome configure_table1(const Scenario& scenario,
                                  util::ThreadPool* pool) {
  const auto sp = routing::maximize_utilization_shortest_path(
      scenario.graph, scenario.bucket, scenario.deadline, scenario.demands);
  config::Configurator configurator(scenario.graph, scenario.bucket,
                                    scenario.deadline);
  configurator.set_thread_pool(pool);
  routing::HeuristicOptions heuristic;
  heuristic.candidates_per_pair = 8;
  const auto result = configurator.maximize(scenario.demands, heuristic);

  ConfigureOutcome out;
  out.lower = sp.theorem4_lower;
  out.upper = sp.theorem4_upper;
  out.sp = sp.max_alpha;
  out.heuristic = result.success ? result.config.alpha : 0.0;
  out.route_digest = route_digest(route_digest(kFnvBasis, sp.best.routes),
                                  result.config.routes);
  return out;
}

std::string check_configure(const ConfigureOutcome& outcome,
                            const ConfigureOutcome& reference,
                            bool wrong_alpha) {
  const long expected_sp = wrong_alpha ? 41 : 40;
  char buf[200];
  if (hundredths(outcome.lower) != 30 || hundredths(outcome.sp) != expected_sp ||
      hundredths(outcome.heuristic) != 47 || hundredths(outcome.upper) != 61) {
    std::snprintf(buf, sizeof(buf),
                  "Table 1 reads %.2f / %.2f / %.2f / %.2f, expected "
                  "0.30 / 0.%02ld / 0.47 / 0.61",
                  outcome.lower, outcome.sp, outcome.heuristic, outcome.upper,
                  expected_sp);
    return buf;
  }
  if (outcome.route_digest != reference.route_digest)
    return "route set differs from the first configure";
  return "";
}

void run_configure_mci(const Options& options, Report& report) {
  // The set-up is small (no configure runs in it), so take the median of
  // many more repeats than the other workloads.
  constexpr int kRepeats = 10 * kSetupRepeats;
  const auto make = [] { return std::make_unique<Scenario>(); };
  std::unique_ptr<Scenario> scenario;
  std::vector<double> setup_times;
  timed_setup(scenario, kRepeats, make, setup_times);
  const bool wrong_alpha = options.inject == "wrong-alpha";

  // The first configure warms caches and fixes the reference route set.
  const ConfigureOutcome reference = configure_table1(*scenario, nullptr);
  std::uint64_t attempted = 1, failed = 0;
  std::string first_failure = check_configure(reference, reference, wrong_alpha);
  if (!first_failure.empty()) ++failed;

  // Configures run on one thread. With configtool's pool of min(4, nproc)
  // threads, the configure time on a host shared with other tenants mostly
  // measures when the hypervisor pauses one of the pool's vCPUs (its p90
  // spread 60 % across runs), so the pool is measured by the traced run's
  // routing.pool_speedup instead. The run is cut into slices of a few
  // seconds and each metric is the median of its per-slice values; a slice
  // is longer than kSliceSeconds so that it holds enough configures for a
  // p90.
  constexpr double kConfigureSliceSeconds = 4.0;
  const int slices = std::max(
      1, static_cast<int>(std::lround(options.seconds / kConfigureSliceSeconds)));
  std::vector<double> rate, p50_ms, p90_ms;
  std::uint64_t samples = 0;
  for (int k = 0; k < slices; ++k) {
    std::vector<double> latency_ms;
    const auto start = Clock::now();
    do {
      const auto t = Clock::now();
      const ConfigureOutcome outcome = configure_table1(*scenario, nullptr);
      latency_ms.push_back(seconds_since(t) * 1e3);
      ++attempted;
      const std::string why = check_configure(outcome, reference, wrong_alpha);
      if (!why.empty()) {
        ++failed;
        if (first_failure.empty()) first_failure = why;
      }
    } while (seconds_since(start) < options.seconds / slices);
    rate.push_back(static_cast<double>(latency_ms.size()) * 1e3 /
                   std::accumulate(latency_ms.begin(), latency_ms.end(), 0.0));
    p50_ms.push_back(quantile(latency_ms, 0.5));
    p90_ms.push_back(quantile(latency_ms, 0.9));
    samples += latency_ms.size();
  }
  report.operations(attempted, failed);
  report.gate("configure.table1_reproduced", failed == 0,
              std::to_string(failed) + " of " + std::to_string(attempted) +
                  " configures wrong; first: " + first_failure);

  const double p50 = median(p50_ms);
  const double p90 = median(p90_ms);
  // One caller: both throughput metrics are the same measurement.
  report.metric("ops_per_s", median(rate), "1/s");
  report.metric("ops_per_s_1t", median(rate), "1/s");
  report.metric("latency_p50_us", p50 * 1e3, "us");
  report.metric("latency_tail_us", p90 * 1e3, "us");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  report.info("configure_ms_p50", p50, "ms");
  report.info("configure_ms_p90", p90, "ms");
  report.info("configure_ms.samples", static_cast<double>(samples), "count");
  report.info("slices", static_cast<double>(slices), "count");
  report.info("alpha_lower", reference.lower, "alpha");
  report.info("alpha_sp", reference.sp, "alpha");
  report.info("alpha_heuristic", reference.heuristic, "alpha");
  report.info("alpha_upper", reference.upper, "alpha");

  timed_setup(scenario, kRepeats, make, setup_times);
  report.metric("setup_s", median(setup_times), "s");
}

}  // namespace perfbench
