#pragma once

/// \file engine.hpp
/// \brief Incremental analysis engine over the coupled delay equations.
///
/// The configuration pipeline (route selection, binary search on alpha,
/// renegotiation) evaluates thousands of "committed set +/- one route"
/// scenarios. The cold solvers in fixed_point.hpp / multiclass.hpp
/// recompute every per-server aggregate from nothing on every call; this
/// engine instead *owns* a scenario — server graph, traffic classes and
/// the committed route set — and re-solves incrementally. One engine
/// serves every class set: Theorem 5 (multiclass.hpp) with one real-time
/// class is Theorem 3, and the engine evaluates it in a coefficient form
/// that makes that case bit-identical to solve_two_class
/// (docs/analysis_engine.md).
///
///  * **Dirty closure.** Adding or removing a route can only change the
///    delays of the servers on that route and of servers *downstream* of
///    them along some committed route (d_k depends on upstream delays
///    through Y_k, Eq. 6, so changes propagate strictly downstream in the
///    route dependency relation). solve() re-iterates only that closure,
///    holding every other server's delay fixed — the untouched subsystem
///    is self-contained, so its committed values remain exact.
///
///  * **Warm starts.** Z is monotone and the iteration runs upward, so any
///    known lower bound of the new least fixed point is a sound starting
///    point (fixed_point.hpp). The committed delay vector is such a bound
///    after adding a route or raising alpha; removals and alpha decreases
///    re-start the dirty closure from zero instead (the outside stays
///    exact either way).
///
///  * **Forked probe views.** probe_route() evaluates "committed set +
///    candidate" without mutating the engine: it copies the delay vector,
///    solves the candidate's dirty closure on the copy, and returns the
///    sparse delta. Probes are const and touch only immutable committed
///    state, so independent candidates can be scored concurrently on a
///    util::ThreadPool (probe_routes) and the winner applied with
///    commit_probe() in O(delta) — results are identical at any thread
///    count by construction.
///
/// The stateless solvers remain the regression oracle: a fresh engine's
/// first solve() performs exactly the cold iteration, and
/// tests/engine_equivalence_test.cpp asserts that *any* operation sequence
/// matches a cold oracle solve of the same committed set to 1e-9.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/fixed_point.hpp"
#include "net/server_graph.hpp"
#include "traffic/leaky_bucket.hpp"
#include "traffic/service_class.hpp"

namespace ubac::util {
class ThreadPool;
}

namespace ubac::telemetry {
class Counter;
class LatencyHistogram;
class MetricsRegistry;
}

namespace ubac::analysis {

/// Stable handle for a committed route; ids of removed routes are reused.
using EngineRouteId = std::size_t;

inline constexpr EngineRouteId kInvalidEngineRoute =
    std::numeric_limits<EngineRouteId>::max();

/// Result of trial-evaluating one candidate route against the committed
/// set. Holds the sparse state delta so the winning candidate can be
/// committed without re-solving.
struct RouteProbe {
  FeasibilityStatus status = FeasibilityStatus::kNoConvergence;
  Seconds route_delay = 0.0;  ///< end-to-end bound of the probed route
  int iterations = 0;
  /// Servers whose delay changed, with their new values.
  std::vector<std::pair<net::ServerId, Seconds>> server_delta;
  /// Committed routes whose end-to-end bound changed, with new values.
  std::vector<std::pair<EngineRouteId, Seconds>> committed_route_delta;

  bool safe() const { return status == FeasibilityStatus::kSafe; }
};

/// One class's share change proposed by a max-alpha re-search (of the
/// engine's only real-time class); the struct carries the index so
/// actuators can forward deltas to a multi-class ledger unchanged.
struct ShareDelta {
  std::size_t class_index = 0;
  double previous = 0.0;
  double proposed = 0.0;
};

/// Result of research_alpha(): the committed alpha after the search plus
/// the sparse share deltas a consumer must push into a live ledger (empty
/// when the search lands back on the seed).
struct AlphaResearch {
  bool feasible = false;   ///< some alpha in [lo, hi] verified safe
  double alpha = 0.0;      ///< alpha the engine is committed at now
  double seed_alpha = 0.0; ///< alpha the search started from
  int probes = 0;          ///< solve() evaluations spent
  std::vector<ShareDelta> deltas;
};

/// Shared instrument bundle (resolved lazily against the registry named in
/// EngineOptions-style metrics pointers). See docs/observability.md.
struct EngineTelemetry {
  telemetry::Counter* solves_warm = nullptr;
  telemetry::Counter* solves_cold = nullptr;
  telemetry::Counter* probes = nullptr;
  telemetry::LatencyHistogram* dirty_servers = nullptr;

  static EngineTelemetry resolve(telemetry::MetricsRegistry& registry);
};

/// Incremental engine for the delay system of Theorem 5 over any class
/// set; the two-class system of Theorem 3 (one real-time class at
/// utilization alpha + best effort) is its one-real-time-class case and is
/// evaluated bit for bit like solve_two_class. State is class-major:
/// per-(class, server) delays and usage, flattened as
/// class_index * server_count + server. Not thread-safe for mutation;
/// const probes may run concurrently.
class AnalysisEngine {
 public:
  /// One real-time class at utilization alpha (Theorem 3).
  AnalysisEngine(const net::ServerGraph& graph, double alpha,
                 traffic::LeakyBucket bucket, Seconds deadline,
                 const FixedPointOptions& options = {});

  /// Any class set (Theorem 5). Routes name their real-time class by index
  /// into `classes`; best-effort classes keep all-zero delay rows. The
  /// classes are copied.
  AnalysisEngine(const net::ServerGraph& graph,
                 const traffic::ClassSet& classes,
                 const FixedPointOptions& options = {});

  // -- scenario mutation (marks state dirty; solve() settles it) ---------

  /// Add a route (link-server granularity) of real-time class
  /// `class_index`. O(|route|).
  EngineRouteId add_route(const net::ServerPath& route,
                          std::size_t class_index = 0);

  /// Remove a committed route. The dirty closure restarts from zero on
  /// the next solve (delays may decrease; warm starts are only sound
  /// upward). O(|route|).
  void remove_route(EngineRouteId id);

  /// Change the share of the engine's only real-time class. Raising alpha
  /// keeps the committed delays as a warm start (Z grows pointwise in
  /// alpha); lowering it restarts every used server from zero. Throws
  /// std::invalid_argument unless 0 < alpha <= 1 and std::logic_error on
  /// an engine with several real-time classes; either way the engine is
  /// left unchanged.
  void set_alpha(double alpha);

  // -- solving -----------------------------------------------------------

  /// Settle all pending mutations incrementally and return the committed
  /// solution (cached when nothing changed); server_delay is class-major.
  /// After an unsafe result the engine state is *poisoned*: the next solve
  /// after further mutations runs cold over the full system, and probes
  /// are rejected until a safe solve commits.
  const DelaySolution& solve();

  /// Trial-evaluate committed + `route` (of class `class_index`) without
  /// mutating the engine. Requires a clean, safely solved committed state.
  /// Thread-safe against concurrent probes. server_delta entries are
  /// class-major flat indices.
  RouteProbe probe_route(const net::ServerPath& route,
                         std::size_t class_index = 0) const;

  /// Probe several candidates of one class, on `pool` when given (nullptr
  /// or a single-thread pool scores sequentially). Results are
  /// positionally aligned with `candidates` and independent of the thread
  /// count.
  std::vector<RouteProbe> probe_routes(
      const std::vector<net::ServerPath>& candidates, util::ThreadPool* pool,
      std::size_t class_index = 0) const;

  /// Commit a candidate previously accepted by probe_route with the same
  /// class, applying its sparse delta instead of re-solving. The probe
  /// must be safe and the engine unchanged since the probe was taken.
  EngineRouteId commit_probe(const net::ServerPath& route,
                             const RouteProbe& probe,
                             std::size_t class_index = 0);

  /// Warm-started incremental max-alpha re-search over [lo, hi], seeded
  /// from the current (last feasible) configuration: find the largest
  /// alpha within `resolution` whose committed route set still verifies
  /// safe, and leave the engine committed there. Raising alpha from a safe
  /// seed re-solves only the warm frontier; each unsafe probe poisons the
  /// state and costs one cold restart, which bisection keeps to
  /// O(log((hi-lo)/resolution)) total. When nothing in [lo, hi] is safe
  /// the engine is restored to the seed alpha and `feasible` is false.
  /// Throws std::invalid_argument unless 0 < lo <= hi <= 1 and
  /// resolution > 0, and std::logic_error on an engine with several
  /// real-time classes; both before anything changes.
  AlphaResearch research_alpha(double lo, double hi,
                               double resolution = 1e-3);

  // -- accessors ---------------------------------------------------------

  /// Share of the first real-time class (alpha of a two-class engine).
  double alpha() const { return classes_[alpha_class_].share; }
  const net::ServerGraph& graph() const { return *graph_; }
  std::size_t route_count() const { return active_routes_; }
  /// Committed class-major delay vector (meaningful after a safe solve).
  const std::vector<Seconds>& server_delays() const { return delay_; }
  Seconds route_delay(EngineRouteId id) const;
  const net::ServerPath& route(EngineRouteId id) const;

 private:
  /// Theorem 5 inputs of one class, precomputed (see set_coefficients).
  struct ClassTerms {
    Seconds base = 0.0;  ///< T/rho
    Seconds deadline = 0.0;
    double share = 0.0;
    bool realtime = false;
    /// (l, a_l / (1 - B_i)) for every higher-priority real-time class l.
    std::vector<std::pair<std::size_t, double>> higher;
  };

  struct RouteEntry {
    net::ServerPath servers;
    std::size_t class_index = 0;
    Seconds delay = 0.0;
    bool active = false;
  };

  AnalysisEngine(const net::ServerGraph& graph,
                 std::vector<ClassTerms> classes,
                 const FixedPointOptions& options);

  void set_coefficients();
  void check_class(std::size_t class_index) const;
  void require_single_realtime(const char* what) const;
  void mark_dirty(net::ServerId s);
  EngineRouteId insert_route(const net::ServerPath& route,
                             std::size_t class_index, Seconds delay);
  void refresh_solution(int iterations);

  /// Theorem 5 bound of real-time class i at server s for the class-major
  /// upstream accumulations `upstream`.
  Seconds delay_at(std::size_t i, net::ServerId s,
                   const Seconds* upstream) const;

  /// Frontier-restricted upward iteration for Z-increasing changes: only
  /// servers whose inputs actually changed (beyond the tolerance) are
  /// re-iterated, activating downstream servers on demand. `extra`, when
  /// given, is an uncommitted candidate route of class `extra_class`
  /// overlaid on the committed set (the probe path). Touched committed
  /// routes and their final sums are returned through
  /// `touched`/`touched_delay`.
  FeasibilityStatus run_frontier(const std::vector<net::ServerId>& seeds,
                                 const net::ServerPath* extra,
                                 std::size_t extra_class,
                                 std::vector<Seconds>& d,
                                 std::vector<EngineRouteId>& touched,
                                 std::vector<Seconds>& touched_delay,
                                 Seconds& extra_delay, int& iterations,
                                 std::size_t& active_count) const;

  const net::ServerGraph* graph_;
  FixedPointOptions options_;
  EngineTelemetry telemetry_;
  std::size_t servers_ = 0;
  std::vector<ClassTerms> classes_;
  std::size_t alpha_class_ = 0;  ///< first real-time class
  /// Own-class coefficient a_i((N-1) + (C_i - a_i)) / ((N - a_i)(1 - B_i))
  /// per (class, server); beta(alpha, N) with one real-time class.
  std::vector<double> own_;

  std::vector<RouteEntry> routes_;
  std::vector<EngineRouteId> free_ids_;
  std::size_t active_routes_ = 0;
  /// Active route ids (any class) through each server.
  std::vector<std::vector<EngineRouteId>> routes_by_server_;
  std::vector<std::uint32_t> used_count_;  ///< active routes per (class, server)

  std::vector<Seconds> delay_;  ///< committed per-(class, server) delays
  DelaySolution solution_;      ///< cache returned by solve()
  bool solution_fresh_ = false;

  std::vector<char> pending_dirty_;
  std::vector<net::ServerId> pending_list_;
  bool pending_cold_ = false;  ///< reset the dirty closure to zero
  bool poisoned_ = true;       ///< full cold solve required (also: never solved)
};

}  // namespace ubac::analysis
