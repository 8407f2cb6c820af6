#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "net/shortest_path.hpp"
#include "perfbench.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

Scenario::Scenario()
    : topo(net::mci_backbone()),
      graph(topo, 6u),
      demands(traffic::all_ordered_pairs(topo)) {}

std::vector<net::ServerPath> shortest_routes(const Scenario& scenario) {
  std::vector<net::ServerPath> routes;
  routes.reserve(scenario.demands.size());
  for (const auto& d : scenario.demands)
    routes.push_back(scenario.graph.map_path(
        net::shortest_path(scenario.topo, d.src, d.dst).value()));
  return routes;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  infos_.push_back({name, value, unit});
}

void Report::gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back({name, ok, detail});
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::vector<ChurnOp> churn_schedule(std::uint64_t seed, std::size_t caller,
                                    std::size_t demand_count) {
  util::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + caller + 1);
  std::vector<ChurnOp> ops(kChurnScheduleOps);
  for (auto& op : ops) {
    op.release = rng.uniform() < 0.4;
    op.demand = static_cast<std::uint16_t>(rng.uniform_index(demand_count));
    op.pick = static_cast<std::uint32_t>(rng.next() >> 32);
  }
  return ops;
}

OverloadSchedule overload_schedule(std::uint64_t seed,
                                   const std::vector<traffic::Demand>& demands) {
  util::Xoshiro256 rng(seed * 0xD1B54A32D192ED03ull + 0xFA57);
  OverloadSchedule s;
  s.requests.reserve(OverloadSchedule::kRounds *
                     OverloadSchedule::kAdmitsPerRound);
  s.picks.reserve(OverloadSchedule::kRounds *
                  OverloadSchedule::kReleasesPerRound);
  for (std::size_t r = 0; r < OverloadSchedule::kRounds; ++r) {
    for (std::size_t k = 0; k < OverloadSchedule::kReleasesPerRound; ++k)
      s.picks.push_back(static_cast<std::uint32_t>(rng.next() >> 32));
    for (std::size_t k = 0; k < OverloadSchedule::kAdmitsPerRound; ++k)
      s.requests.push_back(demands[rng.uniform_index(demands.size())]);
  }
  return s;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double timer_quantile(std::vector<std::int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const double rank = q * static_cast<double>(ns.size());
  const auto at = std::min(static_cast<std::size_t>(rank), ns.size() - 1);
  const std::int64_t v = ns[at];
  const auto lo = std::lower_bound(ns.begin(), ns.end(), v) - ns.begin();
  const auto hi = std::upper_bound(ns.begin(), ns.end(), v) - ns.begin();
  return static_cast<double>(v) - 0.5 +
         (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
