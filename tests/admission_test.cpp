// Tests for run-time admission control: the utilization-based controller,
// the routing table, the Poisson load driver, and the intserv baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "admission/controller.hpp"
#include "admission/intserv_baseline.hpp"
#include "admission/load_driver.hpp"
#include "admission/routing_table.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "traffic/workload.hpp"
#include "util/units.hpp"

namespace ubac::admission {
namespace {

using traffic::ClassSet;
using traffic::LeakyBucket;
using units::kbps;
using units::mbps;
using units::milliseconds;

const LeakyBucket kVoice(640.0, kbps(32));

/// Line topology controller with share alpha on every link.
struct Fixture {
  net::Topology topo = net::line(3);
  net::ServerGraph graph{topo, 6u};
  ClassSet classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;

  Fixture() {
    table.set({0, 2, 0}, graph.map_path({0, 1, 2}));
    table.set({0, 1, 0}, graph.map_path({0, 1}));
  }
};

TEST(RoutingTable, LookupAndMisses) {
  Fixture f;
  EXPECT_EQ(f.table.size(), 2u);
  ASSERT_TRUE(f.table.lookup(0, 2, 0).has_value());
  EXPECT_EQ(f.table.lookup(0, 2, 0)->size(), 2u);
  EXPECT_FALSE(f.table.lookup(2, 0, 0).has_value());
  EXPECT_FALSE(f.table.lookup(0, 2, 1).has_value());
  EXPECT_THROW(f.table.set({0, 1, 0}, {}), std::invalid_argument);
}

TEST(AdmissionController, AdmitsExactlyTheReservedShare) {
  Fixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  // alpha*C/rho = 0.32 * 100e6 / 32e3 = 1000 flows on each link.
  const int capacity_flows = 1000;
  int admitted = 0;
  for (int i = 0; i < capacity_flows + 10; ++i) {
    const auto d = ctl.request(0, 2, 0);
    if (d.admitted()) ++admitted;
  }
  EXPECT_EQ(admitted, capacity_flows);
  EXPECT_EQ(ctl.active_flows(), static_cast<std::size_t>(capacity_flows));
  // Both hops now saturated for the class.
  const auto route = f.table.lookup(0, 2, 0).value();
  for (net::ServerId s : route)
    EXPECT_NEAR(ctl.class_utilization(s, 0), 1.0, 1e-9);
  // The next request names the first hop as blocking.
  const auto rejected = ctl.request(0, 2, 0);
  EXPECT_EQ(rejected.outcome, AdmissionOutcome::kUtilizationExceeded);
  EXPECT_EQ(rejected.blocking_hop, 0u);
}

TEST(AdmissionController, HeldFlowBoundCoversAnyRouteMix) {
  Fixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  // 1000 flows of the real-time class per server; best effort adds none.
  EXPECT_EQ(ctl.held_flow_bound(), ctl.server_count() * 1000);
  // One-hop flows fill the first link up to its own 1000, two-hop flows
  // then find it full: the ledger never holds more than the bound.
  for (int i = 0; i < 1200; ++i) {
    ctl.request(0, 1, 0);
    ctl.request(0, 2, 0);
  }
  EXPECT_EQ(ctl.active_flows(), 1000u);
  EXPECT_LE(ctl.active_flows(), ctl.held_flow_bound());
}

TEST(AdmissionController, ReleaseRestoresCapacity) {
  Fixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  const auto a = ctl.request(0, 2, 0);
  ASSERT_TRUE(a.admitted());
  const auto flow = ctl.find_flow(a.flow_id);
  ASSERT_TRUE(flow.has_value());
  EXPECT_EQ(flow->src, 0u);
  EXPECT_EQ(flow->dst, 2u);
  EXPECT_TRUE(ctl.release(a.flow_id));
  EXPECT_FALSE(ctl.release(a.flow_id)) << "double release must fail";
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0), 0.0);
}

TEST(AdmissionController, SharedLinkContention) {
  Fixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  // Fill the first link via the short demand...
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(ctl.request(0, 1, 0).admitted());
  // ...then the long demand is blocked at hop 0 even though hop 1 is free.
  const auto d = ctl.request(0, 2, 0);
  EXPECT_EQ(d.outcome, AdmissionOutcome::kUtilizationExceeded);
  EXPECT_EQ(d.blocking_hop, 0u);
  EXPECT_DOUBLE_EQ(ctl.class_utilization(f.table.lookup(0, 2, 0)->at(1), 0),
                   0.0);
}

TEST(AdmissionController, RejectsBadInputs) {
  Fixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  EXPECT_EQ(ctl.request(2, 0, 0).outcome, AdmissionOutcome::kNoRoute);
  EXPECT_EQ(ctl.request(0, 2, 7).outcome, AdmissionOutcome::kBadClass);
  // Best-effort flows are not admission controlled.
  EXPECT_EQ(ctl.request(0, 2, 1).outcome, AdmissionOutcome::kBadClass);
  EXPECT_STREQ(to_string(AdmissionOutcome::kAdmitted), "admitted");
  EXPECT_STREQ(to_string(AdmissionOutcome::kNoRoute), "no-route");
}

TEST(LoadDriver, DeterministicAndConsistent) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.3);
  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  for (const auto& d : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  const RoutingTable table(demands, routes);

  LoadDriverConfig cfg;
  cfg.arrival_rate = 50.0;
  cfg.mean_holding = 20.0;
  cfg.duration = 200.0;
  cfg.seed = 42;

  AdmissionController a(graph, classes, table);
  const LoadStats sa = run_poisson_load(a, demands, cfg);
  AdmissionController b(graph, classes, table);
  const LoadStats sb = run_poisson_load(b, demands, cfg);

  EXPECT_EQ(sa.offered, sb.offered);
  EXPECT_EQ(sa.admitted, sb.admitted);
  EXPECT_EQ(sa.offered, sa.admitted + sa.rejected);
  EXPECT_GT(sa.offered, 0u);
  EXPECT_GT(sa.admit_ratio(), 0.9) << "light load should mostly admit";
  EXPECT_GT(sa.mean_active, 0.0);
  EXPECT_LE(sa.mean_active, static_cast<double>(sa.peak_active));
  // All flows eventually depart.
  EXPECT_EQ(a.active_flows(), 0u);
}

TEST(LoadDriver, OverloadReducesAdmitRatio) {
  const auto topo = net::line(3);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.1);
  const std::vector<traffic::Demand> demands{{0, 2, 0}};
  RoutingTable table;
  table.set(demands[0], graph.map_path({0, 1, 2}));

  LoadDriverConfig light{10.0, 10.0, 500.0, 7};
  LoadDriverConfig heavy{1000.0, 10.0, 500.0, 7};
  AdmissionController a(graph, classes, table);
  AdmissionController b(graph, classes, table);
  const double light_ratio = run_poisson_load(a, demands, light).admit_ratio();
  const double heavy_ratio = run_poisson_load(b, demands, heavy).admit_ratio();
  EXPECT_GT(light_ratio, heavy_ratio);
  // Capacity is 0.1*100e6/32e3 = 312 flows; offered load 1000*10 = 10000
  // erlangs, so the admit ratio must collapse to roughly 312/10000.
  EXPECT_LT(heavy_ratio, 0.1);
}

TEST(LoadDriver, Validation) {
  const auto topo = net::line(3);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.1);
  RoutingTable table;
  table.set({0, 2, 0}, graph.map_path({0, 1, 2}));
  AdmissionController ctl(graph, classes, table);
  LoadDriverConfig bad;
  bad.arrival_rate = 0.0;
  EXPECT_THROW(run_poisson_load(ctl, {{0, 2, 0}}, bad), std::invalid_argument);
  EXPECT_THROW(run_poisson_load(ctl, {}, LoadDriverConfig{}),
               std::invalid_argument);
}

TEST(IntservBaseline, AdmitsUntilStabilityLimitOnSingleInput) {
  // All flows share one ingress: every server on the path has a single
  // busy input, whose line rate equals the service rate — so no queueing
  // ever builds and only the stability limit (C/rho = 3125 flows) binds.
  Fixture f;
  IntservBaselineController ctl(f.graph, f.classes, f.table);
  int admitted = 0;
  for (int i = 0; i < 4000; ++i)
    if (ctl.request(0, 2, 0) != 0) ++admitted;
  EXPECT_EQ(admitted, 3125);
  EXPECT_EQ(ctl.active_flows(), static_cast<std::size_t>(admitted));
}

TEST(IntservBaseline, AdmitsUntilDeadlinePressureWithContention) {
  // Two ingress points feed the shared link 1->2: with a 15 ms deadline
  // the recomputed Eq. 3 delay rejects flows well before the stability
  // limit (2*1562 on the shared link).
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  const auto classes =
      ClassSet::two_class(kVoice, milliseconds(15), 0.32);
  RoutingTable table;
  table.set({0, 2, 0}, graph.map_path({0, 1, 2}));
  table.set({1, 2, 0}, graph.map_path({1, 2}));
  IntservBaselineController ctl(graph, classes, table);
  int admitted = 0;
  for (int i = 0; i < 2000; ++i) {
    if (ctl.request(0, 2, 0) != 0) ++admitted;
    if (ctl.request(1, 2, 0) != 0) ++admitted;
  }
  EXPECT_GT(admitted, 100);
  EXPECT_LT(admitted, 3125);
}

TEST(IntservBaseline, ReleaseAndRejections) {
  Fixture f;
  IntservBaselineController ctl(f.graph, f.classes, f.table);
  EXPECT_EQ(ctl.request(2, 0, 0), 0u) << "no route";
  EXPECT_EQ(ctl.request(0, 2, 1), 0u) << "best effort";
  const auto id = ctl.request(0, 2, 0);
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(ctl.release(id));
  EXPECT_FALSE(ctl.release(id));
}

TEST(IntservBaseline, RequiresTwoClassSetup) {
  Fixture f;
  traffic::ClassSet multi;
  multi.add(traffic::ServiceClass("a", kVoice, 0.1, 0.2));
  multi.add(traffic::ServiceClass("b", kVoice, 0.2, 0.2));
  EXPECT_THROW(IntservBaselineController(f.graph, multi, f.table),
               std::invalid_argument);
}

}  // namespace
}  // namespace ubac::admission
