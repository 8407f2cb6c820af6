#include "analysis/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/thread_pool.hpp"

namespace ubac::analysis {

namespace {

/// Dirty closure of a set of seed servers: the seeds plus every server
/// reachable strictly downstream of a dirty server along some route. A
/// route is re-walked whenever one of its servers newly enters the
/// closure, so the earliest-dirty position can only move forward and the
/// scan converges. Also collects the ids of routes intersecting the
/// closure — exactly the routes whose Y contributions or end-to-end sums
/// can change.
struct Closure {
  std::vector<char> in;               ///< per-server membership
  std::vector<net::ServerId> list;    ///< members, discovery order
  std::vector<EngineRouteId> routes;  ///< active routes touching the closure
};

template <typename PathOf>
void build_closure(std::size_t servers, std::size_t route_capacity,
                   const std::vector<net::ServerId>& seeds,
                   const std::vector<std::vector<EngineRouteId>>& by_server,
                   const PathOf& path_of, Closure& out) {
  out.in.assign(servers, 0);
  out.list.clear();
  out.routes.clear();
  std::vector<char> queued(route_capacity, 0);
  std::vector<char> touched(route_capacity, 0);
  std::vector<EngineRouteId> route_queue;

  auto mark = [&](net::ServerId s) {
    if (out.in[s]) return;
    out.in[s] = 1;
    out.list.push_back(s);
    for (const EngineRouteId rid : by_server[s])
      if (!queued[rid]) {
        queued[rid] = 1;
        route_queue.push_back(rid);
      }
  };
  for (const net::ServerId s : seeds) mark(s);

  while (!route_queue.empty()) {
    const EngineRouteId rid = route_queue.back();
    route_queue.pop_back();
    queued[rid] = 0;
    bool dirty_prefix = false;
    for (const net::ServerId u : path_of(rid)) {
      if (out.in[u]) {
        dirty_prefix = true;
      } else if (dirty_prefix) {
        mark(u);
      }
    }
    if (dirty_prefix && !touched[rid]) {
      touched[rid] = 1;
      out.routes.push_back(rid);
    }
  }
}

/// One route to walk: its servers and class.
struct RouteWalk {
  const net::ServerId* first;
  const net::ServerId* last;
  std::size_t class_index;
};

/// Reusable scratch for run_frontier (per thread: probes run concurrently).
struct FrontierScratch {
  std::vector<char> active, in_route, changed, on_extra;
  std::vector<net::ServerId> alist, changed_list;
  std::vector<EngineRouteId> rlist;
  std::vector<RouteWalk> walks;  ///< aligned with rlist
  std::vector<Seconds> upstream, accum;
};

void check_alpha(double alpha) {
  if (!(alpha > 0.0) || alpha > 1.0)
    throw std::invalid_argument("alpha must be in (0, 1]");
}

}  // namespace

EngineTelemetry EngineTelemetry::resolve(telemetry::MetricsRegistry& registry) {
  EngineTelemetry t;
  t.solves_warm =
      &registry.counter("ubac_engine_solves_total",
                        "Incremental engine solves by start mode",
                        {{"mode", "warm"}});
  t.solves_cold =
      &registry.counter("ubac_engine_solves_total",
                        "Incremental engine solves by start mode",
                        {{"mode", "cold"}});
  t.probes = &registry.counter(
      "ubac_engine_probes_total",
      "Candidate route probes evaluated against a committed set");
  t.dirty_servers = &registry.histogram(
      "ubac_engine_dirty_servers",
      "Dirty-closure size (servers re-iterated) per solve or probe",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  return t;
}

// ---------------------------------------------------------------------------
// Construction and class coefficients
// ---------------------------------------------------------------------------

AnalysisEngine::AnalysisEngine(const net::ServerGraph& graph, double alpha,
                               traffic::LeakyBucket bucket, Seconds deadline,
                               const FixedPointOptions& options)
    : AnalysisEngine(graph, [&] {
        if (deadline <= 0.0)
          throw std::invalid_argument("AnalysisEngine: deadline must be > 0");
        check_alpha(alpha);
        return std::vector<ClassTerms>{
            {bucket.burst / bucket.rate, deadline, alpha, true, {}}};
      }(), options) {}

AnalysisEngine::AnalysisEngine(const net::ServerGraph& graph,
                               const traffic::ClassSet& classes,
                               const FixedPointOptions& options)
    : AnalysisEngine(graph, [&] {
        std::vector<ClassTerms> terms;
        for (std::size_t i = 0; i < classes.size(); ++i) {
          const traffic::ServiceClass& c = classes.at(i);
          terms.push_back({c.bucket.burst / c.bucket.rate, c.deadline,
                           c.share, c.realtime, {}});
        }
        return terms;
      }(), options) {}

AnalysisEngine::AnalysisEngine(const net::ServerGraph& graph,
                               std::vector<ClassTerms> classes,
                               const FixedPointOptions& options)
    : graph_(&graph),
      options_(options),
      servers_(graph.size()),
      classes_(std::move(classes)) {
  const auto first_rt = std::find_if(classes_.begin(), classes_.end(),
                                     [](const ClassTerms& c) { return c.realtime; });
  if (first_rt == classes_.end())
    throw std::invalid_argument("AnalysisEngine: no real-time class");
  alpha_class_ = static_cast<std::size_t>(first_rt - classes_.begin());
  routes_by_server_.resize(servers_);
  used_count_.assign(classes_.size() * servers_, 0);
  delay_.assign(classes_.size() * servers_, 0.0);
  pending_dirty_.assign(servers_, 0);
  set_coefficients();
  if (options_.metrics) telemetry_ = EngineTelemetry::resolve(*options_.metrics);
}

void AnalysisEngine::set_coefficients() {
  // Theorem 5 rearranged per class i with B_i = sum_{l<i} a_l and
  // C_i = B_i + a_i (real-time classes only):
  //   d_i = sum_{l<i} a_l/(1-B_i) (T_l/r_l + Y_l)
  //       + a_i((N-1) + (C_i-a_i)) / ((N-a_i)(1-B_i)) (T_i/r_i + Y_i).
  // With one real-time class C_i - a_i and B_i are exactly 0, so the own
  // coefficient is computed as a(N-1)/(N-a) — bit for bit beta(a, N).
  own_.assign(classes_.size() * servers_, 0.0);
  double below = 0.0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    ClassTerms& c = classes_[i];
    if (!c.realtime) continue;
    const double through = below + c.share;
    c.higher.clear();
    for (std::size_t l = 0; l < i; ++l)
      if (classes_[l].realtime)
        c.higher.emplace_back(l, classes_[l].share / (1.0 - below));
    for (net::ServerId s = 0; s < servers_; ++s) {
      const double n = graph_->server(s).fan_in;
      own_[i * servers_ + s] = c.share * ((n - 1.0) + (through - c.share)) /
                               ((n - c.share) * (1.0 - below));
    }
    below = through;
  }
}

Seconds AnalysisEngine::delay_at(std::size_t i, net::ServerId s,
                                 const Seconds* upstream) const {
  const ClassTerms& c = classes_[i];
  Seconds d = own_[i * servers_ + s] * (c.base + upstream[i * servers_ + s]);
  for (const auto& [l, x] : c.higher)
    d += x * (classes_[l].base + upstream[l * servers_ + s]);
  return d;
}

void AnalysisEngine::check_class(std::size_t class_index) const {
  if (class_index >= classes_.size() || !classes_[class_index].realtime)
    throw std::invalid_argument("AnalysisEngine: route class must be realtime");
}

void AnalysisEngine::require_single_realtime(const char* what) const {
  const auto realtime = std::count_if(
      classes_.begin(), classes_.end(),
      [](const ClassTerms& c) { return c.realtime; });
  if (realtime != 1)
    throw std::logic_error(std::string(what) +
                           ": engine has several real-time classes");
}

// ---------------------------------------------------------------------------
// Scenario mutation
// ---------------------------------------------------------------------------

void AnalysisEngine::mark_dirty(net::ServerId s) {
  if (!pending_dirty_[s]) {
    pending_dirty_[s] = 1;
    pending_list_.push_back(s);
  }
  solution_fresh_ = false;
}

EngineRouteId AnalysisEngine::insert_route(const net::ServerPath& route,
                                           std::size_t class_index,
                                           Seconds delay) {
  RouteEntry entry{route, class_index, delay, true};
  EngineRouteId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    routes_[id] = std::move(entry);
  } else {
    id = routes_.size();
    routes_.push_back(std::move(entry));
  }
  for (const net::ServerId s : route) {
    routes_by_server_[s].push_back(id);
    ++used_count_[class_index * servers_ + s];
  }
  ++active_routes_;
  return id;
}

EngineRouteId AnalysisEngine::add_route(const net::ServerPath& route,
                                        std::size_t class_index) {
  check_class(class_index);
  for (const net::ServerId s : route)
    if (s >= servers_)
      throw std::out_of_range("add_route: route references bad server");
  const EngineRouteId id = insert_route(route, class_index, 0.0);
  for (const net::ServerId s : route) mark_dirty(s);
  return id;
}

void AnalysisEngine::remove_route(EngineRouteId id) {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("remove_route: unknown route id");
  RouteEntry& entry = routes_[id];
  entry.active = false;
  for (const net::ServerId s : entry.servers) {
    std::erase(routes_by_server_[s], id);
    --used_count_[entry.class_index * servers_ + s];
    mark_dirty(s);
  }
  --active_routes_;
  free_ids_.push_back(id);
  // Delays may only decrease; warm starts are sound upward only, so the
  // dirty closure restarts from zero.
  pending_cold_ = true;
}

void AnalysisEngine::set_alpha(double alpha) {
  check_alpha(alpha);
  require_single_realtime("set_alpha");
  ClassTerms& rt = classes_[alpha_class_];
  if (alpha == rt.share) return;
  const bool decrease = alpha < rt.share;
  rt.share = alpha;
  set_coefficients();
  const std::size_t row = alpha_class_ * servers_;
  for (net::ServerId s = 0; s < servers_; ++s)
    if (used_count_[row + s] > 0 || delay_[row + s] != 0.0) mark_dirty(s);
  if (decrease) pending_cold_ = true;
  solution_fresh_ = false;
}

// ---------------------------------------------------------------------------
// Solving
// ---------------------------------------------------------------------------

FeasibilityStatus AnalysisEngine::run_frontier(
    const std::vector<net::ServerId>& seeds, const net::ServerPath* extra,
    std::size_t extra_class, std::vector<Seconds>& d,
    std::vector<EngineRouteId>& touched, std::vector<Seconds>& touched_delay,
    Seconds& extra_delay, int& iterations, std::size_t& active_count) const {
  // The static reachability closure over-approximates badly on dense
  // route sets (it degenerates to the whole system). This loop instead
  // grows the re-iterated region on demand: a server joins only once the
  // accumulated change of some server upstream of it exceeds the
  // tolerance. Because every hop attenuates (the loop gain is < 1 at a
  // fixed point), changes decay geometrically and the active region stays
  // near the seeds. Soundness is unchanged — any schedule of monotone
  // updates from a lower bound stays below the least fixed point — and
  // unpropagated drift is capped at the tolerance per server, the same
  // slack the full sweep's stopping rule already accepts. Every Theorem 5
  // coefficient is >= 0, so Z is monotone in each class's Y and the
  // argument holds for any number of classes; activity is tracked per
  // server, covering all classes there.
  const std::size_t classes = classes_.size();

  static thread_local FrontierScratch sc;
  sc.active.assign(servers_, 0);
  sc.on_extra.assign(servers_, 0);
  sc.changed.assign(servers_, 0);
  sc.in_route.assign(routes_.size(), 0);
  sc.upstream.assign(classes * servers_, 0.0);
  sc.accum.assign(servers_, 0.0);
  sc.alist.clear();
  // Each server crosses the threshold at most once per run, so the list
  // never outgrows servers_; a plain counter keeps calls out of `raise`.
  sc.changed_list.resize(servers_);
  std::size_t changed_count = 0;
  sc.rlist.clear();
  sc.walks.clear();

  auto activate = [&](net::ServerId s) {
    if (sc.active[s]) return;
    sc.active[s] = 1;
    sc.alist.push_back(s);
    // routes_by_server_ holds active ids only (removal erases eagerly).
    for (const EngineRouteId rid : routes_by_server_[s])
      if (!sc.in_route[rid]) {
        sc.in_route[rid] = 1;
        sc.rlist.push_back(rid);
        const RouteEntry& entry = routes_[rid];
        sc.walks.push_back({entry.servers.data(),
                            entry.servers.data() + entry.servers.size(),
                            entry.class_index});
      }
  };
  for (const net::ServerId s : seeds) activate(s);
  if (extra != nullptr)
    for (const net::ServerId s : *extra) {
      sc.on_extra[s] = 1;
      activate(s);
    }

  // Gauss-Seidel-style sweeps. The warm iteration is monotone
  // non-decreasing (the committed delays satisfy d = Z_old(d) <= Z_new(d)),
  // so prefix sums and upstream maxima only grow: `upstream` is kept as a
  // running max across sweeps, and a server's delays are raised *during*
  // the route walk as soon as a larger prefix reaches it. Later routes in
  // the same sweep see the raised values, so changes propagate many hops
  // per sweep instead of one. Every in-walk update applies Z with
  // underestimated inputs, so all iterates stay below the least fixed
  // point — the soundness argument is unchanged.
  //
  // A hop applies only its own class's term: the whole bound for the
  // first real-time class, a lower bound for the others. After the walks
  // every class with higher-priority terms is raised to its full bound at
  // every active server, so the stopping rule covers all classes while the
  // hop stays as tight as the one-class sweep (no class loop, no call).
  //
  // Raw views: locals that the char stores below cannot alias, so the
  // sweep keeps them in registers.
  Seconds* const dv = d.data();
  Seconds* const upv = sc.upstream.data();
  const std::uint32_t* const used = used_count_.data();
  const double* const own = own_.data();
  const ClassTerms* const cls = classes_.data();
  std::vector<std::size_t> lower_classes;
  for (std::size_t i = 0; i < classes; ++i)
    if (!cls[i].higher.empty()) lower_classes.push_back(i);
  // Raise d[k] (flat index of some class at server u) to `next` if larger.
  auto raise = [&](std::size_t k, net::ServerId u, Seconds next,
                   Seconds& max_change) {
    if (next <= dv[k]) return;
    const Seconds delta = next - dv[k];
    dv[k] = next;
    max_change = std::max(max_change, delta);
    // Expansion is monotone — once a server has triggered it, its
    // downstream is active for good, so it never re-triggers.
    if (!sc.changed[u]) {
      sc.accum[u] += delta;
      if (sc.accum[u] > options_.tolerance) {
        sc.changed[u] = 1;
        sc.changed_list[changed_count++] = u;
      }
    }
  };
  auto relax = [&](Seconds base, bool extra_class_walk, std::size_t k,
                   net::ServerId u, Seconds prefix, Seconds& max_change) {
    // >= rather than >: equal prefixes must still re-apply Z so that a
    // server whose own coefficients or usage changed (alpha raise, first
    // route) gets updated even when its max prefix does not move.
    if (prefix < upv[k]) return;
    upv[k] = prefix;
    if (used[k] == 0 && !(extra_class_walk && sc.on_extra[u])) return;
    raise(k, u, own[k] * (base + prefix), max_change);
  };
  // The candidate, if any, is walked after the committed routes.
  const RouteWalk extra_walk =
      extra != nullptr
          ? RouteWalk{extra->data(), extra->data() + extra->size(),
                         extra_class}
          : RouteWalk{nullptr, nullptr, extra_class};
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    iterations = iter;
    bool violated = false;
    Seconds max_change = 0.0;
    changed_count = 0;
    const std::size_t committed = sc.walks.size();
    const std::size_t walks = committed + (extra != nullptr ? 1 : 0);
    for (std::size_t idx = 0; idx < walks; ++idx) {
      const RouteWalk& w = idx < committed ? sc.walks[idx] : extra_walk;
      const std::size_t row = w.class_index * servers_;
      const Seconds base = cls[w.class_index].base;
      const bool extra_class_walk = w.class_index == extra_class;
      Seconds prefix = 0.0;
      for (const net::ServerId* p = w.first; p != w.last; ++p) {
        const net::ServerId u = *p;
        if (sc.active[u])
          relax(base, extra_class_walk, row + u, u, prefix, max_change);
        prefix += dv[row + u];
      }
      if (idx == committed) extra_delay = prefix;
      if (prefix > cls[w.class_index].deadline) violated = true;
    }
    // Full Theorem 5 bounds for the classes whose hops left out the
    // higher-class terms.
    for (const std::size_t i : lower_classes)
      for (const net::ServerId u : sc.alist) {
        const std::size_t k = i * servers_ + u;
        if (used[k] > 0 || (i == extra_class && sc.on_extra[u]))
          raise(k, u, delay_at(i, u, upv), max_change);
      }
    active_count = sc.alist.size();
    if (violated) return FeasibilityStatus::kDeadlineViolated;

    if (max_change < options_.tolerance) {
      bool ok = true;
      touched.clear();
      touched_delay.clear();
      for (std::size_t idx = 0; idx < walks; ++idx) {
        const RouteWalk& w = idx < committed ? sc.walks[idx] : extra_walk;
        const std::size_t row = w.class_index * servers_;
        Seconds sum = 0.0;
        for (const net::ServerId* p = w.first; p != w.last; ++p)
          sum += dv[row + *p];
        if (idx < committed) {
          touched.push_back(sc.rlist[idx]);
          touched_delay.push_back(sum);
        } else {
          extra_delay = sum;
        }
        ok = ok && sum <= cls[w.class_index].deadline;
      }
      return ok ? FeasibilityStatus::kSafe
                : FeasibilityStatus::kDeadlineViolated;
    }

    // Expansion: servers strictly downstream of a changed server join the
    // active set before the next sweep (their Y can now move).
    for (std::size_t n = 0; n < changed_count; ++n) {
      const net::ServerId s = sc.changed_list[n];
      for (const EngineRouteId rid : routes_by_server_[s]) {
        bool dirty = false;
        for (const net::ServerId u : routes_[rid].servers) {
          if (sc.changed[u]) {
            dirty = true;
          } else if (dirty) {
            activate(u);
          }
        }
      }
    }
  }
  return FeasibilityStatus::kNoConvergence;
}

const DelaySolution& AnalysisEngine::solve() {
  if (solution_fresh_ && pending_list_.empty() && !poisoned_) return solution_;

  const std::size_t classes = classes_.size();
  const bool warm = !poisoned_ && !pending_cold_;
  UBAC_SPAN_ARG("engine.solve", "engine", "warm", warm ? 1.0 : 0.0);
  FeasibilityStatus status = FeasibilityStatus::kNoConvergence;
  int iterations = 0;
  std::size_t dirty = 0;

  if (warm) {
    // Z-increasing change (routes added / alpha raised): the committed
    // delays are a sound lower bound, so only the actually-changing
    // frontier around the mutated servers needs re-iterating.
    std::vector<EngineRouteId> touched;
    std::vector<Seconds> touched_delay;
    Seconds unused = 0.0;
    status = run_frontier(pending_list_, nullptr, 0, delay_, touched,
                          touched_delay, unused, iterations, dirty);
    for (std::size_t r = 0; r < touched.size(); ++r)
      routes_[touched[r]].delay = touched_delay[r];
  } else {
    Closure cl;
    if (poisoned_) {
      // Previous state is not a sound lower bound (unsafe solve, or never
      // solved): restart the whole system from zero.
      std::fill(delay_.begin(), delay_.end(), 0.0);
      cl.in.assign(servers_, 0);
      for (net::ServerId s = 0; s < servers_; ++s)
        if (!routes_by_server_[s].empty()) {
          cl.in[s] = 1;
          cl.list.push_back(s);
        }
      for (EngineRouteId rid = 0; rid < routes_.size(); ++rid)
        if (routes_[rid].active) cl.routes.push_back(rid);
    } else {
      // Removal / alpha decrease: the affected closure restarts from zero
      // (delays may shrink; warm starts are only sound upward).
      build_closure(
          servers_, routes_.size(), pending_list_, routes_by_server_,
          [this](EngineRouteId rid) -> const net::ServerPath& {
            return routes_[rid].servers;
          },
          cl);
      for (const net::ServerId s : cl.list)
        for (std::size_t i = 0; i < classes; ++i) delay_[i * servers_ + s] = 0.0;
    }

    // Restricted Jacobi pass, the same iteration as the cold solvers:
    // closure servers only, every other delay held fixed; sound early
    // deadline-violation exit, convergence on max delay change, final
    // route-sum check.
    std::vector<RouteWalk> walks;
    walks.reserve(cl.routes.size());
    for (const EngineRouteId rid : cl.routes) {
      const RouteEntry& entry = routes_[rid];
      walks.push_back({entry.servers.data(),
                       entry.servers.data() + entry.servers.size(),
                       entry.class_index});
    }
    Seconds* const d = delay_.data();
    std::vector<Seconds> upstream(classes * servers_, 0.0);
    std::vector<Seconds> route_delay(walks.size(), 0.0);
    for (int iter = 1; iter <= options_.max_iterations; ++iter) {
      iterations = iter;
      for (std::size_t i = 0; i < classes; ++i)
        for (const net::ServerId s : cl.list) upstream[i * servers_ + s] = 0.0;
      bool violated = false;
      for (std::size_t r = 0; r < walks.size(); ++r) {
        const RouteWalk& w = walks[r];
        const std::size_t row = w.class_index * servers_;
        Seconds prefix = 0.0;
        for (const net::ServerId* p = w.first; p != w.last; ++p) {
          if (cl.in[*p])
            upstream[row + *p] = std::max(upstream[row + *p], prefix);
          prefix += d[row + *p];
        }
        route_delay[r] = prefix;
        if (prefix > classes_[w.class_index].deadline) violated = true;
      }
      if (violated) {
        status = FeasibilityStatus::kDeadlineViolated;
        break;
      }

      Seconds max_change = 0.0;
      for (std::size_t i = 0; i < classes; ++i) {
        if (!classes_[i].realtime) continue;
        for (const net::ServerId s : cl.list) {
          const std::size_t k = i * servers_ + s;
          const Seconds next =
              used_count_[k] > 0 ? delay_at(i, s, upstream.data()) : 0.0;
          max_change = std::max(max_change, std::abs(next - d[k]));
          d[k] = next;
        }
      }
      if (max_change < options_.tolerance) {
        bool ok = true;
        for (std::size_t r = 0; r < walks.size(); ++r) {
          const RouteWalk& w = walks[r];
          const std::size_t row = w.class_index * servers_;
          Seconds total = 0.0;
          for (const net::ServerId* p = w.first; p != w.last; ++p)
            total += d[row + *p];
          route_delay[r] = total;
          ok = ok && total <= classes_[w.class_index].deadline;
        }
        status = ok ? FeasibilityStatus::kSafe
                    : FeasibilityStatus::kDeadlineViolated;
        break;
      }
    }

    for (std::size_t r = 0; r < cl.routes.size(); ++r)
      routes_[cl.routes[r]].delay = route_delay[r];
    dirty = cl.list.size();
  }

  if (telemetry_.dirty_servers)
    telemetry_.dirty_servers->record(static_cast<double>(dirty));
  if (warm && telemetry_.solves_warm) telemetry_.solves_warm->add();
  if (!warm && telemetry_.solves_cold) telemetry_.solves_cold->add();

  for (const net::ServerId s : pending_list_) pending_dirty_[s] = 0;
  pending_list_.clear();
  pending_cold_ = false;
  solution_.status = status;
  poisoned_ = status != FeasibilityStatus::kSafe;
  refresh_solution(iterations);
  return solution_;
}

void AnalysisEngine::refresh_solution(int iterations) {
  solution_.server_delay = delay_;
  solution_.route_delay.assign(routes_.size(), 0.0);
  for (EngineRouteId rid = 0; rid < routes_.size(); ++rid)
    if (routes_[rid].active) solution_.route_delay[rid] = routes_[rid].delay;
  solution_.iterations = iterations;
  solution_fresh_ = true;
}

RouteProbe AnalysisEngine::probe_route(const net::ServerPath& route,
                                       std::size_t class_index) const {
  UBAC_SPAN_ARG("engine.probe_route", "engine", "hops", route.size());
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error(
        "probe_route: engine needs a clean, safely solved committed state");
  check_class(class_index);
  for (const net::ServerId s : route)
    if (s >= servers_)
      throw std::out_of_range("probe_route: route references bad server");

  // Fast reject: the committed delays are a lower bound of the overlay
  // fixed point, so if their sum along the candidate already breaks the
  // deadline the converged sum must too. O(|route|), no iteration.
  const std::size_t row = class_index * servers_;
  Seconds lower_bound = 0.0;
  for (const net::ServerId s : route) lower_bound += delay_[row + s];
  if (lower_bound > classes_[class_index].deadline) {
    RouteProbe probe;
    probe.status = FeasibilityStatus::kDeadlineViolated;
    probe.route_delay = lower_bound;
    if (telemetry_.probes) telemetry_.probes->add();
    if (telemetry_.dirty_servers) telemetry_.dirty_servers->record(0.0);
    return probe;
  }

  // Forked view: the committed delays are a sound lower bound of the
  // committed+candidate fixed point, so the frontier iteration settles the
  // overlay without touching engine state.
  std::vector<Seconds> d = delay_;
  std::vector<EngineRouteId> touched;
  std::vector<Seconds> touched_delay;
  static const std::vector<net::ServerId> kNoSeeds;
  RouteProbe probe;
  std::size_t dirty = 0;
  probe.status =
      run_frontier(kNoSeeds, &route, class_index, d, touched, touched_delay,
                   probe.route_delay, probe.iterations, dirty);

  for (std::size_t r = 0; r < touched.size(); ++r)
    if (touched_delay[r] != routes_[touched[r]].delay)
      probe.committed_route_delta.push_back({touched[r], touched_delay[r]});
  for (std::size_t k = 0; k < d.size(); ++k)
    if (d[k] != delay_[k])
      probe.server_delta.push_back({static_cast<net::ServerId>(k), d[k]});

  if (telemetry_.probes) telemetry_.probes->add();
  if (telemetry_.dirty_servers)
    telemetry_.dirty_servers->record(static_cast<double>(dirty));
  return probe;
}

std::vector<RouteProbe> AnalysisEngine::probe_routes(
    const std::vector<net::ServerPath>& candidates, util::ThreadPool* pool,
    std::size_t class_index) const {
  std::vector<RouteProbe> out(candidates.size());
  if (pool == nullptr || pool->thread_count() <= 1 || candidates.size() <= 1) {
    for (std::size_t i = 0; i < candidates.size(); ++i)
      out[i] = probe_route(candidates[i], class_index);
  } else {
    pool->parallel_for(candidates.size(), [&](std::size_t i) {
      out[i] = probe_route(candidates[i], class_index);
    });
  }
  return out;
}

EngineRouteId AnalysisEngine::commit_probe(const net::ServerPath& route,
                                           const RouteProbe& probe,
                                           std::size_t class_index) {
  if (!probe.safe())
    throw std::invalid_argument("commit_probe: probe is not safe");
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error("commit_probe: engine changed since the probe");
  check_class(class_index);
  const EngineRouteId id = insert_route(route, class_index, probe.route_delay);
  // Apply the sparse delta to both the committed state and the cached
  // solution — a full refresh_solution would rebuild the per-route vector
  // and make a run of n commits quadratic.
  for (const auto& [k, v] : probe.server_delta) {
    delay_[k] = v;
    solution_.server_delay[k] = v;
  }
  for (const auto& [rid, v] : probe.committed_route_delta) {
    routes_[rid].delay = v;
    solution_.route_delay[rid] = v;
  }
  solution_.route_delay.resize(routes_.size(), 0.0);
  solution_.route_delay[id] = probe.route_delay;
  solution_.iterations = probe.iterations;
  solution_fresh_ = true;
  return id;
}

AlphaResearch AnalysisEngine::research_alpha(double lo, double hi,
                                             double resolution) {
  if (!(lo > 0.0) || !(hi <= 1.0) || lo > hi)
    throw std::invalid_argument("research_alpha: need 0 < lo <= hi <= 1");
  if (!(resolution > 0.0))
    throw std::invalid_argument("research_alpha: resolution must be > 0");
  require_single_realtime("research_alpha");
  UBAC_SPAN_ARG("engine.research_alpha", "engine", "hi", hi);

  AlphaResearch result;
  result.seed_alpha = alpha();

  const auto safe_at = [&](double a) {
    set_alpha(a);
    ++result.probes;
    return solve().safe();
  };

  double low = lo, high = hi;
  bool have_best = false;
  double best = result.seed_alpha;

  // Anchor at the seed when it lies inside the range: the committed
  // delays are already the fixed point there, so a safe seed costs a
  // cached (or trivially warm) solve and pins the lower bisection bound —
  // every later probe above it raises alpha and stays warm until the
  // first unsafe result.
  if (result.seed_alpha >= lo && result.seed_alpha <= hi &&
      safe_at(result.seed_alpha)) {
    best = result.seed_alpha;
    have_best = true;
    low = result.seed_alpha;
  }
  // The whole range may verify — one probe settles it.
  if (safe_at(high)) {
    best = high;
    have_best = true;
    low = high;
  } else if (have_best || safe_at(low)) {
    if (!have_best) best = low;
    have_best = true;
    while (high - low > resolution) {
      const double mid = 0.5 * (low + high);
      if (safe_at(mid)) {
        best = mid;
        low = mid;
      } else {
        high = mid;
      }
    }
  }

  // Leave the engine *committed* at the answer (the last probe may have
  // been unsafe); infeasible searches restore the seed configuration.
  result.feasible = have_best;
  result.alpha = have_best ? best : result.seed_alpha;
  set_alpha(result.alpha);
  solve();
  if (have_best && result.alpha != result.seed_alpha)
    result.deltas.push_back(
        ShareDelta{alpha_class_, result.seed_alpha, result.alpha});
  return result;
}

Seconds AnalysisEngine::route_delay(EngineRouteId id) const {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("route_delay: unknown route id");
  return routes_[id].delay;
}

const net::ServerPath& AnalysisEngine::route(EngineRouteId id) const {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("route: unknown route id");
  return routes_[id].servers;
}

}  // namespace ubac::analysis
