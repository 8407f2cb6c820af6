// Concurrency test suite for the atomic admission controller: conservation
// and high-watermark invariants under multi-threaded churn, deterministic
// interleavings around the last slot of a hop, rollback restoration, and
// double-release races. Built (and run in CI) under ThreadSanitizer via
// -DUBAC_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <span>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/sequential_controller.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ubac::admission {
namespace {

using traffic::ClassSet;
using traffic::LeakyBucket;
using units::kbps;
using units::milliseconds;

const LeakyBucket kVoice(640.0, kbps(32));

/// MCI backbone with shortest-path routes for every ordered pair; the
/// share is small so concurrent churn actually saturates links and
/// exercises the rollback path.
struct MciFixture {
  net::Topology topo = net::mci_backbone();
  net::ServerGraph graph{topo, 6u};
  ClassSet classes = ClassSet::two_class(kVoice, milliseconds(100), 0.05);
  std::vector<traffic::Demand> demands = traffic::all_ordered_pairs(topo);
  RoutingTable table;

  MciFixture() {
    std::vector<net::ServerPath> routes;
    for (const auto& d : demands)
      routes.push_back(
          graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
    table = RoutingTable(demands, routes);
  }
};

struct WorkerTally {
  std::vector<traffic::FlowId> held;  ///< flows still registered at the end
  std::size_t admitted = 0;
  std::size_t util_rejected = 0;
  std::size_t released = 0;
};

// T threads x K randomized admit/release iterations, then two invariants:
//  1. Conservation: every reserved_rate(server, class) equals exactly the
//     sum of rates of currently-registered flows crossing that hop.
//  2. Safety: the high watermark of every counter never exceeded alpha*C.
TEST(ConcurrentAdmission, ConservationAndHighWatermarkUnderChurn) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kItersPerThread = 12'500;  // 100k ops total

  MciFixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  std::vector<WorkerTally> tallies(kThreads);

  util::ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    util::Xoshiro256 rng(0xC0FFEE + t);
    WorkerTally& tally = tallies[t];
    for (std::size_t k = 0; k < kItersPerThread; ++k) {
      const bool do_release =
          !tally.held.empty() && rng.bernoulli(0.45);
      if (do_release) {
        const auto pos = rng.uniform_index(tally.held.size());
        const traffic::FlowId id = tally.held[pos];
        ASSERT_TRUE(ctl.release(id)) << "own flow vanished";
        tally.held[pos] = tally.held.back();
        tally.held.pop_back();
        ++tally.released;
      } else {
        const auto& d = f.demands[rng.uniform_index(f.demands.size())];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) {
          tally.held.push_back(decision.flow_id);
          ++tally.admitted;
        } else {
          ASSERT_EQ(decision.outcome,
                    AdmissionOutcome::kUtilizationExceeded);
          ++tally.util_rejected;
        }
      }
    }
  });

  // Rollback must have been exercised: the small share saturates links.
  std::size_t total_rejected = 0, total_held = 0;
  for (const auto& tally : tallies) {
    total_rejected += tally.util_rejected;
    total_held += tally.held.size();
  }
  EXPECT_GT(total_rejected, 0u) << "share too generous, nothing saturated";
  EXPECT_EQ(ctl.active_flows(), total_held);

  // Conservation: rebuild the per-server registered-rate sum from the
  // surviving flows and compare exactly (fixed-point counters cancel
  // exactly, so no tolerance is needed).
  std::vector<std::size_t> crossing(f.graph.size(), 0);
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) {
      const auto flow = ctl.find_flow(id);
      ASSERT_TRUE(flow.has_value());
      for (const net::ServerId s : *flow->route) ++crossing[s];
    }
  for (net::ServerId s = 0; s < f.graph.size(); ++s) {
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0),
                     static_cast<double>(crossing[s]) * kVoice.rate)
        << "server " << s;
    // Safety: the counter never held more than alpha*C, not even
    // transiently between racing CAS loops.
    const BitsPerSecond cap = 0.05 * f.graph.server(s).capacity;
    EXPECT_LE(ctl.peak_reserved_rate(s, 0), cap) << "server " << s;
    EXPECT_GE(ctl.peak_reserved_rate(s, 0), ctl.reserved_rate(s, 0));
  }

  // Releasing every survivor returns the controller to pristine state.
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) ASSERT_TRUE(ctl.release(id));
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0), 0.0);
}

// Two flows racing for the last slot on a shared hop: exactly one
// kAdmitted and one kUtilizationExceeded, every round.
TEST(ConcurrentAdmission, LastSlotRaceYieldsExactlyOneAdmit) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  // alpha*C/rho = 0.32 * 100e6 / 32e3 = 1000 slots on the link.
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  AdmissionController ctl(graph, classes, table);

  for (int i = 0; i < 999; ++i) ASSERT_TRUE(ctl.request(0, 1, 0).admitted());

  for (int round = 0; round < 200; ++round) {
    std::barrier sync(2);
    std::array<AdmissionDecision, 2> decisions;
    std::array<std::thread, 2> racers;
    for (int r = 0; r < 2; ++r)
      racers[r] = std::thread([&, r] {
        sync.arrive_and_wait();
        decisions[r] = ctl.request(0, 1, 0);
      });
    for (auto& th : racers) th.join();

    const int admits = decisions[0].admitted() + decisions[1].admitted();
    ASSERT_EQ(admits, 1) << "round " << round;
    const auto& loser = decisions[decisions[0].admitted() ? 1 : 0];
    ASSERT_EQ(loser.outcome, AdmissionOutcome::kUtilizationExceeded);
    ASSERT_EQ(loser.blocking_hop, 0u);
    ASSERT_EQ(ctl.active_flows(), 1000u);
    // Put the slot back for the next round.
    const auto& winner = decisions[decisions[0].admitted() ? 0 : 1];
    ASSERT_TRUE(ctl.release(winner.flow_id));
  }
  EXPECT_DOUBLE_EQ(ctl.peak_reserved_rate(graph.map_path({0, 1})[0], 0),
                   1000.0 * kVoice.rate);
}

// A request that saturates mid-route must restore every earlier hop to
// its prior reservation (conservation-neutral rollback).
TEST(ConcurrentAdmission, RollbackRestoresEarlierHops) {
  net::Topology topo = net::line(4);
  net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 3, 0}, graph.map_path({0, 1, 2, 3}));
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  table.set({2, 3, 0}, graph.map_path({2, 3}));
  AdmissionController ctl(graph, classes, table);
  const auto route = table.lookup(0, 3, 0).value();  // [s01, s12, s23]

  // Give the first hop a non-zero baseline, then fill the last hop.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ctl.request(0, 1, 0).admitted());
  for (int i = 0; i < 1000; ++i)
    ASSERT_TRUE(ctl.request(2, 3, 0).admitted());

  const BitsPerSecond before_hop0 = ctl.reserved_rate(route[0], 0);
  const BitsPerSecond before_hop1 = ctl.reserved_rate(route[1], 0);
  const std::size_t before_active = ctl.active_flows();

  const auto decision = ctl.request(0, 3, 0);
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kUtilizationExceeded);
  EXPECT_EQ(decision.blocking_hop, 2u);

  EXPECT_DOUBLE_EQ(ctl.reserved_rate(route[0], 0), before_hop0);
  EXPECT_DOUBLE_EQ(ctl.reserved_rate(route[1], 0), before_hop1);
  EXPECT_EQ(ctl.active_flows(), before_active);
  // The transient reservation on hops 0..1 may have raised their peak,
  // but never past the cap.
  EXPECT_LE(ctl.peak_reserved_rate(route[0], 0),
            0.32 * graph.server(route[0]).capacity);
}

// Two threads racing to release the same flow: exactly one succeeds.
TEST(ConcurrentAdmission, DoubleReleaseRaceExactlyOneSucceeds) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 2, 0}, graph.map_path({0, 1, 2}));
  AdmissionController ctl(graph, classes, table);

  for (int round = 0; round < 200; ++round) {
    const auto decision = ctl.request(0, 2, 0);
    ASSERT_TRUE(decision.admitted());
    std::barrier sync(2);
    std::atomic<int> successes{0};
    std::array<std::thread, 2> racers;
    for (int r = 0; r < 2; ++r)
      racers[r] = std::thread([&] {
        sync.arrive_and_wait();
        if (ctl.release(decision.flow_id)) successes.fetch_add(1);
      });
    for (auto& th : racers) th.join();
    ASSERT_EQ(successes.load(), 1) << "round " << round;
    ASSERT_EQ(ctl.active_flows(), 0u);
  }
  for (net::ServerId s = 0; s < graph.size(); ++s)
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0), 0.0);
}

// -- Batch admission semantics ----------------------------------------------

// admit_batch(k demands) must be indistinguishable from k request() calls
// made in the same order on an identical controller: same outcomes, same
// flow ids, same final ledger.
TEST(ConcurrentAdmission, BatchEqualsSequentialSingleThreaded) {
  MciFixture f;
  AdmissionController batched(f.graph, f.classes, f.table);
  AdmissionController sequential(f.graph, f.classes, f.table);

  util::Xoshiro256 rng(0xBA7C4);
  constexpr std::size_t kBatch = 16;
  std::vector<traffic::Demand> wave;
  std::vector<AdmissionDecision> decisions(kBatch);
  for (int round = 0; round < 400; ++round) {
    wave.clear();
    for (std::size_t i = 0; i < kBatch; ++i)
      wave.push_back(f.demands[rng.uniform_index(f.demands.size())]);

    const std::size_t admitted = batched.admit_batch(
        std::span<const traffic::Demand>(wave),
        std::span<AdmissionDecision>(decisions));

    std::size_t expect_admitted = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto ref =
          sequential.request(wave[i].src, wave[i].dst, wave[i].class_index);
      ASSERT_EQ(decisions[i].outcome, ref.outcome)
          << "round " << round << " slot " << i;
      if (ref.admitted()) {
        ++expect_admitted;
        ASSERT_EQ(decisions[i].flow_id, ref.flow_id);
      } else {
        ASSERT_EQ(decisions[i].blocking_hop, ref.blocking_hop);
      }
    }
    ASSERT_EQ(admitted, expect_admitted);
    ASSERT_EQ(batched.active_flows(), sequential.active_flows());
  }
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    ASSERT_EQ(batched.reserved_units(s, 0), sequential.reserved_units(s, 0))
        << "server " << s;
}

// Deterministic mid-batch saturation: capacity fits m < k flows, so one
// batch of k identical demands admits exactly the first m and rejects the
// suffix — the not-yet-committed tail rolls back without disturbing the
// committed prefix.
TEST(ConcurrentAdmission, MidBatchSaturationCommitsPrefixRejectsSuffix) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  // alpha*C/rho = 0.32 * 100e6 / 32e3 = 1000 slots on the link.
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  AdmissionController ctl(graph, classes, table);

  // Leave exactly 7 slots, then offer a batch of 16.
  for (int i = 0; i < 993; ++i) ASSERT_TRUE(ctl.request(0, 1, 0).admitted());
  const traffic::RateUnits before = ctl.reserved_units(graph.map_path({0, 1})[0], 0);

  std::vector<traffic::Demand> wave(16, traffic::Demand{0, 1, 0});
  std::vector<AdmissionDecision> decisions(wave.size());
  const std::size_t admitted = ctl.admit_batch(
      std::span<const traffic::Demand>(wave),
      std::span<AdmissionDecision>(decisions));

  ASSERT_EQ(admitted, 7u);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    if (i < 7) {
      ASSERT_TRUE(decisions[i].admitted()) << "slot " << i;
      ASSERT_NE(decisions[i].flow_id, 0u);
    } else {
      ASSERT_EQ(decisions[i].outcome, AdmissionOutcome::kUtilizationExceeded)
          << "slot " << i;
      ASSERT_EQ(decisions[i].blocking_hop, 0u);
    }
  }
  ASSERT_EQ(ctl.active_flows(), 1000u);
  // Ledger: prefix committed, suffix fully rolled back — exact in units.
  const net::ServerId link = graph.map_path({0, 1})[0];
  ASSERT_EQ(ctl.reserved_units(link, 0),
            before + 7 * traffic::quantize_demand_up(kVoice.rate));
  EXPECT_DOUBLE_EQ(ctl.reserved_rate(link, 0), 1000.0 * kVoice.rate);
  // Every admitted slot is individually releasable.
  for (std::size_t i = 0; i < 7; ++i)
    ASSERT_TRUE(ctl.release(decisions[i].flow_id));
  EXPECT_DOUBLE_EQ(ctl.reserved_rate(link, 0), 993.0 * kVoice.rate);
}

// Two threads racing whole batches for the same finite link: the pool
// never over-admits, the ledger conserves, and the peak never passes the
// cap — regardless of how the two batches interleave mid-flight.
TEST(ConcurrentAdmission, RacingBatchesNeverOverAdmit) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  const net::ServerId link = graph.map_path({0, 1})[0];
  const BitsPerSecond cap = 0.32 * graph.server(link).capacity;

  for (int round = 0; round < 50; ++round) {
    AdmissionController ctl(graph, classes, table);
    constexpr std::size_t kPerThread = 600;  // 1200 offered vs 1000 slots
    std::vector<traffic::Demand> wave(kPerThread, traffic::Demand{0, 1, 0});
    std::array<std::vector<AdmissionDecision>, 2> decisions{
        std::vector<AdmissionDecision>(kPerThread),
        std::vector<AdmissionDecision>(kPerThread)};
    std::array<std::size_t, 2> admitted{};
    std::barrier sync(2);
    std::array<std::thread, 2> racers;
    for (int r = 0; r < 2; ++r)
      racers[r] = std::thread([&, r] {
        sync.arrive_and_wait();
        admitted[r] = ctl.admit_batch(
            std::span<const traffic::Demand>(wave),
            std::span<AdmissionDecision>(decisions[r]));
      });
    for (auto& th : racers) th.join();

    ASSERT_EQ(admitted[0] + admitted[1], 1000u) << "round " << round;
    ASSERT_EQ(ctl.active_flows(), 1000u);
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(link, 0), 1000.0 * kVoice.rate);
    ASSERT_LE(ctl.peak_reserved_rate(link, 0), cap);

    // Every admitted decision carries a distinct, releasable flow id.
    std::size_t released = 0;
    for (const auto& side : decisions)
      for (const auto& d : side)
        if (d.admitted()) {
          ASSERT_TRUE(ctl.release(d.flow_id));
          ++released;
        }
    ASSERT_EQ(released, 1000u);
    ASSERT_EQ(ctl.active_flows(), 0u);
  }
}

// 8 threads mixing whole-batch admits, single admits, single releases and
// release_batch over the MCI backbone: the same conservation and
// high-watermark invariants as the single-op churn test must hold.
TEST(ConcurrentAdmission, ConservationUnderMixedBatchAndSingleChurn) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kItersPerThread = 3'000;
  constexpr std::size_t kBatch = 8;

  MciFixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  std::vector<WorkerTally> tallies(kThreads);

  util::ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    util::Xoshiro256 rng(0xBEEF00 + t);
    WorkerTally& tally = tallies[t];
    std::vector<traffic::Demand> wave;
    std::vector<AdmissionDecision> decisions(kBatch);
    std::vector<traffic::FlowId> drop;
    for (std::size_t k = 0; k < kItersPerThread; ++k) {
      const bool prefer_batch = rng.bernoulli(0.5);
      if (!tally.held.empty() && rng.bernoulli(0.40)) {
        if (tally.held.size() >= kBatch && rng.bernoulli(0.5)) {
          // Bulk release the tail of our held set.
          drop.assign(tally.held.end() - kBatch, tally.held.end());
          tally.held.resize(tally.held.size() - kBatch);
          ASSERT_EQ(ctl.release_batch(drop), kBatch);
          tally.released += kBatch;
        } else {
          const auto pos = rng.uniform_index(tally.held.size());
          ASSERT_TRUE(ctl.release(tally.held[pos]));
          tally.held[pos] = tally.held.back();
          tally.held.pop_back();
          ++tally.released;
        }
      } else if (prefer_batch) {
        // Whole-batch admit of random demands.
        wave.clear();
        for (std::size_t i = 0; i < kBatch; ++i)
          wave.push_back(f.demands[rng.uniform_index(f.demands.size())]);
        ctl.admit_batch(std::span<const traffic::Demand>(wave),
                        std::span<AdmissionDecision>(decisions));
        for (const auto& d : decisions) {
          if (d.admitted()) {
            tally.held.push_back(d.flow_id);
            ++tally.admitted;
          } else {
            ASSERT_EQ(d.outcome, AdmissionOutcome::kUtilizationExceeded);
            ++tally.util_rejected;
          }
        }
      } else {
        const auto& d = f.demands[rng.uniform_index(f.demands.size())];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) {
          tally.held.push_back(decision.flow_id);
          ++tally.admitted;
        } else {
          ++tally.util_rejected;
        }
      }
    }
  });

  std::size_t total_rejected = 0, total_held = 0;
  for (const auto& tally : tallies) {
    total_rejected += tally.util_rejected;
    total_held += tally.held.size();
  }
  EXPECT_GT(total_rejected, 0u) << "share too generous, nothing saturated";
  EXPECT_EQ(ctl.active_flows(), total_held);

  std::vector<std::size_t> crossing(f.graph.size(), 0);
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) {
      const auto flow = ctl.find_flow(id);
      ASSERT_TRUE(flow.has_value());
      for (const net::ServerId s : *flow->route) ++crossing[s];
    }
  const traffic::RateUnits rho = traffic::quantize_demand_up(kVoice.rate);
  for (net::ServerId s = 0; s < f.graph.size(); ++s) {
    ASSERT_EQ(ctl.reserved_units(s, 0), crossing[s] * rho) << "server " << s;
    ASSERT_LE(ctl.peak_reserved_rate(s, 0),
              0.05 * f.graph.server(s).capacity)
        << "server " << s;
  }

  // Drain everything through release_batch and verify pristine state.
  std::vector<traffic::FlowId> survivors;
  for (const auto& tally : tallies)
    survivors.insert(survivors.end(), tally.held.begin(), tally.held.end());
  ASSERT_EQ(ctl.release_batch(survivors), survivors.size());
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    ASSERT_EQ(ctl.reserved_units(s, 0), 0u);
}

// More callers than stripes: 24 threads run at once, so several pairs
// share one flow-id cursor and its registry traffic. Ids must still be
// unique over the whole run, the ledger conserved, and active_flows()
// exact once the callers have joined.
TEST(ConcurrentAdmission, SharedStripesKeepIdsUniqueAndLedgerConserved) {
  constexpr std::size_t kThreads = 24;
  constexpr std::size_t kItersPerThread = 4'000;

  MciFixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  std::vector<WorkerTally> tallies(kThreads);
  std::vector<std::vector<traffic::FlowId>> assigned(kThreads);
  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(0x5719E + t);
      WorkerTally& tally = tallies[t];
      start.arrive_and_wait();
      for (std::size_t k = 0; k < kItersPerThread; ++k) {
        if (!tally.held.empty() && rng.bernoulli(0.45)) {
          const auto pos = rng.uniform_index(tally.held.size());
          EXPECT_TRUE(ctl.release(tally.held[pos])) << "own flow vanished";
          tally.held[pos] = tally.held.back();
          tally.held.pop_back();
        } else {
          const auto& d = f.demands[rng.uniform_index(f.demands.size())];
          const auto decision = ctl.request(d.src, d.dst, d.class_index);
          if (decision.admitted()) {
            tally.held.push_back(decision.flow_id);
            assigned[t].push_back(decision.flow_id);
          }
        }
      }
    });
  for (auto& w : workers) w.join();

  std::vector<traffic::FlowId> all;
  std::size_t total_held = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    all.insert(all.end(), assigned[t].begin(), assigned[t].end());
    total_held += tallies[t].held.size();
  }
  ASSERT_FALSE(all.empty());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "a flow id was assigned twice";
  EXPECT_EQ(all.front(), 1u);  // id 0 is never assigned
  EXPECT_EQ(ctl.active_flows(), total_held);

  std::vector<std::size_t> crossing(f.graph.size(), 0);
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) {
      const auto flow = ctl.find_flow(id);
      ASSERT_TRUE(flow.has_value()) << "flow " << id;
      for (const net::ServerId s : *flow->route) ++crossing[s];
    }
  const traffic::RateUnits rho = f.classes.at(0).spec.rate_units;
  for (net::ServerId s = 0; s < f.graph.size(); ++s) {
    EXPECT_EQ(ctl.reserved_units(s, 0), crossing[s] * rho) << "server " << s;
    EXPECT_LE(ctl.peak_reserved_rate(s, 0),
              traffic::bps_from_units(ctl.limit_units(s, 0)))
        << "server " << s;
  }

  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) ASSERT_TRUE(ctl.release(id));
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    EXPECT_EQ(ctl.reserved_units(s, 0), 0u);
}

// Flow ids come in blocks of 64 per caller. A single caller's batch that
// crosses from one block into the next must still number its admits
// exactly as the sequential oracle does, and register them all.
TEST(ConcurrentAdmission, BatchStraddlingAnIdBlockMatchesTheOracle) {
  MciFixture f;
  const ClassSet roomy = ClassSet::two_class(kVoice, milliseconds(100), 0.5);
  AdmissionController ctl(f.graph, roomy, f.table);
  SequentialAdmissionController oracle(f.graph, roomy, f.table);

  // 60 single admits leave the caller four ids short of its first block's
  // end; the 16-request batch then runs from id 61 to id 76.
  for (std::size_t i = 0; i < 60; ++i) {
    const auto& d = f.demands[i];
    const auto got = ctl.request(d.src, d.dst, d.class_index);
    const auto want = oracle.request(d.src, d.dst, d.class_index);
    ASSERT_TRUE(want.admitted());
    ASSERT_EQ(got.outcome, want.outcome);
    ASSERT_EQ(got.flow_id, want.flow_id);
  }
  std::vector<traffic::Demand> wave(f.demands.begin() + 60,
                                    f.demands.begin() + 76);
  std::vector<AdmissionDecision> decisions(wave.size());
  ASSERT_EQ(ctl.admit_batch(wave, decisions), wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const auto want =
        oracle.request(wave[i].src, wave[i].dst, wave[i].class_index);
    ASSERT_TRUE(want.admitted());
    EXPECT_EQ(decisions[i].flow_id, want.flow_id) << "batch slot " << i;
    EXPECT_EQ(decisions[i].flow_id, 61 + i);
    const auto flow = ctl.find_flow(decisions[i].flow_id);
    ASSERT_TRUE(flow.has_value()) << "batch slot " << i;
    EXPECT_EQ(flow->src, wave[i].src);
    EXPECT_EQ(flow->dst, wave[i].dst);
  }
  EXPECT_EQ(ctl.active_flows(), oracle.active_flows());
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0), oracle.reserved_rate(s, 0))
        << "server " << s;

  // Releasing the straddling batch as one batch frees every flow.
  std::vector<traffic::FlowId> ids;
  for (const auto& d : decisions) ids.push_back(d.flow_id);
  EXPECT_EQ(ctl.release_batch(ids), ids.size());
  EXPECT_EQ(ctl.active_flows(), 60u);
}

}  // namespace
}  // namespace ubac::admission
