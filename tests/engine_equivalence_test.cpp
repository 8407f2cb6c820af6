// The incremental AnalysisEngine's contract: after ANY sequence of
// add_route / remove_route / set_alpha mutations, solve() must agree with
// a cold oracle solve of the same committed set — identical feasibility
// status and per-server delays within 1e-9 — and probe/commit must be a
// pure shortcut for add_route + solve. Randomized sequences exercise the
// warm, frontier, dirty-closure, and poisoned re-solve paths for one and
// for two real-time classes; a golden test pins the one-class arithmetic
// bit for bit; a final group checks that heuristic selection and batched
// probes are bit-identical at any thread count (the probes fork immutable
// state, the reduction is by (delay, candidate order)).
#include <gtest/gtest.h>

#include <vector>

#include "analysis/engine.hpp"
#include "analysis/fixed_point.hpp"
#include "analysis/multiclass.hpp"
#include "net/ksp.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "routing/multiclass_selection.hpp"
#include "routing/route_selection.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ubac::analysis {
namespace {

using traffic::LeakyBucket;
using units::kbps;
using units::mbps;
using units::milliseconds;

constexpr double kTol = 1e-9;
const LeakyBucket kVoice(640.0, kbps(32));

/// Random simple route between two distinct nodes (one of the 3 shortest).
net::ServerPath random_route(const net::Topology& topo,
                             const net::ServerGraph& graph,
                             util::Xoshiro256& rng) {
  for (;;) {
    const auto s =
        static_cast<net::NodeId>(rng.uniform_index(topo.node_count()));
    const auto d =
        static_cast<net::NodeId>(rng.uniform_index(topo.node_count()));
    if (s == d) continue;
    const auto paths = net::k_shortest_paths(topo, s, d, 3);
    if (paths.empty()) continue;
    return graph.map_path(paths[rng.uniform_index(paths.size())]);
  }
}

void expect_matches_oracle(AnalysisEngine& engine,
                           const net::ServerGraph& graph, double alpha,
                           Seconds deadline,
                           const std::vector<net::ServerPath>& committed,
                           std::uint64_t seed, int step) {
  const DelaySolution& incremental = engine.solve();
  const DelaySolution oracle =
      solve_two_class(graph, alpha, kVoice, deadline, committed);
  ASSERT_EQ(incremental.status, oracle.status)
      << "seed=" << seed << " step=" << step
      << " routes=" << committed.size() << " alpha=" << alpha;
  if (!oracle.safe()) return;
  ASSERT_EQ(incremental.server_delay.size(), oracle.server_delay.size());
  for (std::size_t s = 0; s < oracle.server_delay.size(); ++s)
    ASSERT_NEAR(incremental.server_delay[s], oracle.server_delay[s], kTol)
        << "seed=" << seed << " step=" << step << " server=" << s;
}

/// One randomized scenario: interleave adds (plain and probe+commit),
/// removes and alpha moves, checking the oracle after every settle.
void run_sequence(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto topo =
      net::random_connected(8 + rng.uniform_index(5), 3.0, seed * 101 + 7);
  const net::ServerGraph graph(topo, 6u);
  const Seconds deadline = milliseconds(40.0 + 40.0 * rng.uniform());
  double alpha = 0.15 + 0.35 * rng.uniform();

  AnalysisEngine engine(graph, alpha, kVoice, deadline);
  std::vector<EngineRouteId> ids;
  std::vector<net::ServerPath> committed;

  const int steps = 6 + static_cast<int>(rng.uniform_index(5));
  for (int step = 0; step < steps; ++step) {
    const std::size_t op = rng.uniform_index(8);
    if (op < 3 || ids.empty()) {
      // Plain add.
      const auto route = random_route(topo, graph, rng);
      ids.push_back(engine.add_route(route));
      committed.push_back(route);
    } else if (op < 5) {
      // Probe + commit (only legal from a clean safe state). The probe
      // must itself match the oracle for committed + candidate.
      if (!engine.solve().safe()) continue;
      const auto route = random_route(topo, graph, rng);
      const RouteProbe probe = engine.probe_route(route);
      std::vector<net::ServerPath> overlay = committed;
      overlay.push_back(route);
      const DelaySolution oracle =
          solve_two_class(graph, alpha, kVoice, deadline, overlay);
      ASSERT_EQ(probe.status, oracle.status)
          << "seed=" << seed << " step=" << step << " (probe)";
      if (!probe.safe()) continue;
      EXPECT_NEAR(probe.route_delay, oracle.route_delay.back(), kTol);
      ids.push_back(engine.commit_probe(route, probe));
      committed.push_back(route);
    } else if (op < 6) {
      // Remove a random committed route.
      const std::size_t victim = rng.uniform_index(ids.size());
      engine.remove_route(ids[victim]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      committed.erase(committed.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else {
      // Alpha move: raises stay warm, cuts restart the dirty closure.
      alpha = op == 6 ? std::min(0.85, alpha * (1.05 + 0.2 * rng.uniform()))
                      : std::max(0.05, alpha * (0.7 + 0.2 * rng.uniform()));
      engine.set_alpha(alpha);
    }
    expect_matches_oracle(engine, graph, alpha, deadline, committed, seed,
                          step);
  }
}

TEST(EngineEquivalence, RandomizedSequencesBatch0) {
  for (std::uint64_t seed = 0; seed < 250; ++seed) run_sequence(seed);
}
TEST(EngineEquivalence, RandomizedSequencesBatch1) {
  for (std::uint64_t seed = 250; seed < 500; ++seed) run_sequence(seed);
}
TEST(EngineEquivalence, RandomizedSequencesBatch2) {
  for (std::uint64_t seed = 500; seed < 750; ++seed) run_sequence(seed);
}
TEST(EngineEquivalence, RandomizedSequencesBatch3) {
  for (std::uint64_t seed = 750; seed < 1000; ++seed) run_sequence(seed);
}

// ---------------------------------------------------------------------------
// Multi-class sequences vs the solve_multiclass oracle
// ---------------------------------------------------------------------------

void run_multiclass_sequence(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto topo = net::random_connected(8, 3.0, seed * 131 + 3);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = routing::scaled_class_set(
      {{"voice", LeakyBucket(640.0, kbps(32)), milliseconds(100), 1.0},
       {"video", LeakyBucket(16000.0, mbps(1)), milliseconds(200), 1.0}},
      0.05 + 0.1 * rng.uniform());

  AnalysisEngine engine(graph, classes);
  std::vector<EngineRouteId> ids;
  std::vector<traffic::Demand> demands;
  std::vector<net::ServerPath> routes;

  const int steps = 5 + static_cast<int>(rng.uniform_index(4));
  for (int step = 0; step < steps; ++step) {
    const std::size_t op = rng.uniform_index(5);
    if (op < 3 || ids.empty()) {
      const auto route = random_route(topo, graph, rng);
      const traffic::Demand demand{route.front(), route.back(),
                                   rng.uniform_index(2)};
      ids.push_back(engine.add_route(route, demand.class_index));
      demands.push_back(demand);
      routes.push_back(route);
    } else if (op == 3) {
      if (!engine.solve().safe()) continue;
      const auto route = random_route(topo, graph, rng);
      const traffic::Demand demand{route.front(), route.back(),
                                   rng.uniform_index(2)};
      const RouteProbe probe = engine.probe_route(route, demand.class_index);
      std::vector<traffic::Demand> od = demands;
      std::vector<net::ServerPath> orr = routes;
      od.push_back(demand);
      orr.push_back(route);
      const MulticlassSolution oracle =
          solve_multiclass(graph, classes, od, orr);
      ASSERT_EQ(probe.status, oracle.status)
          << "seed=" << seed << " step=" << step << " (mc probe)";
      if (!probe.safe()) continue;
      EXPECT_NEAR(probe.route_delay, oracle.route_delay.back(), kTol);
      ids.push_back(engine.commit_probe(route, probe, demand.class_index));
      demands.push_back(demand);
      routes.push_back(route);
    } else {
      const std::size_t victim = rng.uniform_index(ids.size());
      engine.remove_route(ids[victim]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      demands.erase(demands.begin() + static_cast<std::ptrdiff_t>(victim));
      routes.erase(routes.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    const DelaySolution& incremental = engine.solve();
    const MulticlassSolution oracle =
        solve_multiclass(graph, classes, demands, routes);
    ASSERT_EQ(incremental.status, oracle.status)
        << "seed=" << seed << " step=" << step << " routes=" << routes.size();
    if (!oracle.safe()) continue;
    for (std::size_t i = 0; i < oracle.class_server_delay.size(); ++i)
      for (std::size_t s = 0; s < oracle.class_server_delay[i].size(); ++s)
        ASSERT_NEAR(incremental.server_delay[i * graph.size() + s],
                    oracle.class_server_delay[i][s], kTol)
            << "seed=" << seed << " step=" << step << " class=" << i
            << " server=" << s;
  }
}

TEST(EngineEquivalence, MulticlassRandomizedSequences) {
  for (std::uint64_t seed = 0; seed < 300; ++seed)
    run_multiclass_sequence(seed);
}

// ---------------------------------------------------------------------------
// Golden values: the one-real-time-class arithmetic must not drift
// ---------------------------------------------------------------------------

// Per-server delays of the MCI shortest-path routes at alpha = 0.30
// (Table 1's scenario: all ordered pairs, deadline 100 ms, N = 6), recorded
// as exact doubles from the beta(alpha, N) form of Theorem 3. EXPECT_EQ, not NEAR: the
// engine's Theorem 5 coefficient form must reproduce it bit for bit with
// one real-time class.
constexpr double kMciSpDelays[] = {
    0x1.7c48e0999b1aap-7, 0x1.a9272e782b9e9p-7, 0x1.7c48e0999b1aap-7,
    0x1.523f7e50e624ap-7, 0x1.1c587552bba74p-7, 0x1.8f69110168018p-7,
    0x1.07ef43ca2a51dp-7, 0x1.1089bf25b96f1p-7, 0x1.eab06dbf14e93p-8,
    0x1.8d0c3f48e5c15p-7, 0x1.958b8395b177cp-7, 0x1.14f30df57656fp-7,
    0x1.e85e0e5f4daeap-8, 0x1.5b97723dab0ep-7, 0x1.1089bf25b96f1p-7,
    0x1.8d0c3f48e5c15p-7, 0x1.89ad926e8463fp-7, 0x1.58ed2308158edp-8,
    0x1.8d0c3f48e5c15p-7, 0x1.5b97723dab0ep-7, 0x1.584234d1557fp-7,
    0x1.3a545cc46ad6bp-7, 0x1.07ef43ca2a51dp-7, 0x1.dcad20a419ebcp-8,
    0x1.1089bf25b96f1p-7, 0x1.58ed2308158edp-8, 0x1.806ba2f46a4efp-7,
    0x1.8d0c3f48e5c15p-7, 0x1.58ed2308158edp-8, 0x1.5b97723dab0ep-7,
    0x1.14f30df57656fp-7, 0x1.263bb4ea18a7fp-7, 0x1.4255a00abc8b7p-7,
    0x1.132d3a70d215bp-7, 0x1.b2da5daa1a4f4p-7, 0x1.f1b03d8c60f38p-8,
    0x1.3a545cc46ad6bp-7, 0x1.2e34e02864d98p-7, 0x1.4ec730086ba79p-7,
    0x1.132d3a70d215bp-7, 0x1.f7fb7e0fded8ep-8, 0x1.dcad20a419ebcp-8,
    0x1.d4f6c8a745889p-7, 0x1.223f7f2ec5fb5p-7, 0x1.27dfeebd877bdp-7,
    0x1.bf9520bc5b01p-7, 0x1.40aab206c00f1p-7, 0x1.132d3a70d215bp-7,
    0x1.75b38bb6d5acfp-7, 0x1.d1de891d51b48p-8, 0x1.504db6af0278ep-7,
    0x1.3c332d7673151p-7, 0x1.9728ca28771ep-7, 0x1.b3b24732a1f7cp-8,
    0x1.69c6381330e98p-7, 0x1.58ed2308158edp-8, 0x1.58ed2308158edp-8,
    0x1.dcad20a419ebcp-8, 0x1.73f809961425p-7, 0x1.cb9550b717c28p-8,
    0x1.460c47f045af4p-7, 0x1.b3b24732a1f7cp-8, 0x1.a8cdf43b546aep-7,
    0x1.f4a65d50e1cd3p-8, 0x1.4fcab80b231bbp-7, 0x1.58ed2308158edp-8,
    0x1.f4a65d50e1cd3p-8, 0x1.132d3a70d215bp-7, 0x1.3c332d7673151p-7,
    0x1.b3b24732a1f7cp-8, 0x1.3c332d7673151p-7, 0x1.58ed2308158edp-8,
    0x1.d4ebe6898fb81p-7, 0x1.58ed2308158edp-8, 0x1.58ed2308158edp-8,
    0x1.58ed2308158edp-8, 0x1.58ed2308158edp-8, 0x1.9bd99e3cf476dp-7,
};

TEST(EngineEquivalence, GoldenMciShortestPathBitIdentical) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  std::vector<net::ServerPath> routes;
  for (const auto& d : traffic::all_ordered_pairs(topo))
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));

  AnalysisEngine engine(graph, 0.30, kVoice, milliseconds(100));
  for (const auto& route : routes) engine.add_route(route);
  const DelaySolution& sol = engine.solve();
  ASSERT_TRUE(sol.safe());
  ASSERT_EQ(sol.server_delay.size(), std::size(kMciSpDelays));
  for (std::size_t s = 0; s < sol.server_delay.size(); ++s)
    EXPECT_EQ(sol.server_delay[s], kMciSpDelays[s]) << "server " << s;
  EXPECT_EQ(sol.worst_route_delay(), 0x1.8eeab35818193p-5);

  // The warm re-search from the SP operating point: same answer, same
  // number of solves, same committed bound.
  const AlphaResearch research = engine.research_alpha(0.01, 0.95, 1e-3);
  EXPECT_TRUE(research.feasible);
  EXPECT_EQ(research.alpha, 0x1.974cccccccccdp-2);
  EXPECT_EQ(research.probes, 12);
  EXPECT_EQ(engine.solve().worst_route_delay(), 0x1.9953f28ebf9ep-4);
}

// ---------------------------------------------------------------------------
// Thread-count determinism
// ---------------------------------------------------------------------------

TEST(EngineEquivalence, SelectionIdenticalAcrossThreadCounts) {
  const auto topo = net::random_connected(14, 3.5, 97);
  const net::ServerGraph graph(topo);
  const auto demands = traffic::all_ordered_pairs(topo);
  const Seconds deadline = milliseconds(100);

  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  for (const double alpha : {0.15, 0.25, 0.35}) {
    routing::HeuristicOptions base;
    base.candidates_per_pair = 4;

    routing::HeuristicOptions seq = base;
    routing::HeuristicOptions one = base;
    one.pool = &pool1;
    routing::HeuristicOptions many = base;
    many.pool = &pool8;

    const auto r_seq = routing::select_routes_heuristic(
        graph, alpha, kVoice, deadline, demands, seq);
    const auto r_one = routing::select_routes_heuristic(
        graph, alpha, kVoice, deadline, demands, one);
    const auto r_many = routing::select_routes_heuristic(
        graph, alpha, kVoice, deadline, demands, many);

    EXPECT_EQ(r_seq.success, r_many.success) << "alpha=" << alpha;
    EXPECT_EQ(r_one.success, r_many.success) << "alpha=" << alpha;
    ASSERT_EQ(r_seq.routes.size(), r_many.routes.size());
    for (std::size_t i = 0; i < r_seq.routes.size(); ++i) {
      EXPECT_EQ(r_seq.routes[i], r_one.routes[i]) << "demand " << i;
      EXPECT_EQ(r_seq.routes[i], r_many.routes[i]) << "demand " << i;
    }
  }
}

TEST(EngineEquivalence, ProbeBatchMatchesSequential) {
  const auto topo = net::random_connected(12, 3.0, 55);
  const net::ServerGraph graph(topo, 6u);
  const Seconds deadline = milliseconds(80);
  util::Xoshiro256 rng(2024);

  AnalysisEngine engine(graph, 0.3, kVoice, deadline);
  for (int i = 0; i < 30; ++i)
    engine.add_route(random_route(topo, graph, rng));
  ASSERT_TRUE(engine.solve().safe());

  std::vector<net::ServerPath> candidates;
  for (int i = 0; i < 16; ++i)
    candidates.push_back(random_route(topo, graph, rng));

  util::ThreadPool pool(8);
  const auto parallel = engine.probe_routes(candidates, &pool);
  const auto serial = engine.probe_routes(candidates, nullptr);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].status, serial[i].status) << "candidate " << i;
    EXPECT_DOUBLE_EQ(parallel[i].route_delay, serial[i].route_delay);
    EXPECT_EQ(parallel[i].server_delta, serial[i].server_delta);
    EXPECT_EQ(parallel[i].committed_route_delta,
              serial[i].committed_route_delta);
  }
}


TEST(EngineEquivalence, MulticlassProbeBatchMatchesSequential) {
  const auto topo = net::random_connected(12, 3.0, 55);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = routing::scaled_class_set(
      {{"voice", LeakyBucket(640.0, kbps(32)), milliseconds(100), 1.0},
       {"video", LeakyBucket(16000.0, mbps(1)), milliseconds(200), 1.0}},
      0.1);
  util::Xoshiro256 rng(2025);

  AnalysisEngine engine(graph, classes);
  for (int i = 0; i < 30; ++i)
    engine.add_route(random_route(topo, graph, rng), i % 2);
  ASSERT_TRUE(engine.solve().safe());

  std::vector<net::ServerPath> candidates;
  for (int i = 0; i < 16; ++i)
    candidates.push_back(random_route(topo, graph, rng));

  util::ThreadPool pool(8);
  for (const std::size_t cls : {std::size_t{0}, std::size_t{1}}) {
    const auto parallel = engine.probe_routes(candidates, &pool, cls);
    const auto serial = engine.probe_routes(candidates, nullptr, cls);
    ASSERT_EQ(parallel.size(), serial.size());
    std::size_t safe = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].status, serial[i].status) << "candidate " << i;
      EXPECT_EQ(parallel[i].route_delay, serial[i].route_delay);
      EXPECT_EQ(parallel[i].server_delta, serial[i].server_delta);
      EXPECT_EQ(parallel[i].committed_route_delta,
                serial[i].committed_route_delta);
      safe += serial[i].safe();
    }
    EXPECT_GT(safe, 0u) << "class " << cls;  // the batch is not vacuous
  }
}

}  // namespace
}  // namespace ubac::analysis
