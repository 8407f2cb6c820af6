#include "admission/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "admission/telemetry.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/span.hpp"
#include "util/stripe.hpp"

namespace ubac::admission {

const char* to_string(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted: return "admitted";
    case AdmissionOutcome::kNoRoute: return "no-route";
    case AdmissionOutcome::kUtilizationExceeded: return "utilization-exceeded";
    case AdmissionOutcome::kBadClass: return "bad-class";
  }
  return "?";
}

ConcurrentAdmissionController::ConcurrentAdmissionController(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    RoutingTable table)
    : graph_(&graph), classes_(&classes), table_(std::move(table)),
      servers_(graph.size()),
      slots_(std::make_unique<Slot[]>(classes.size() * graph.size())),
      shards_(std::make_unique<Shard[]>(kShardCount)),
      id_cursors_(std::make_unique<IdCursor[]>(util::kStripes)) {
  // The fixed-point overflow proof (traffic/flow.hpp) only covers graphs
  // within the grid's static bounds; refuse anything larger up front.
  if (servers_ > traffic::kMaxServers)
    throw std::invalid_argument(
        "ConcurrentAdmissionController: server count exceeds kMaxServers");
  for (net::ServerId s = 0; s < servers_; ++s)
    if (graph.server(s).capacity > traffic::kMaxCapacityBps)
      throw std::invalid_argument(
          "ConcurrentAdmissionController: server capacity exceeds "
          "kMaxCapacityBps");
  rho_units_.resize(classes.size(), 0);
  live_share_ = std::make_unique<std::atomic<double>[]>(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const traffic::ServiceClass& cls = classes.at(c);
    live_share_[c].store(cls.realtime ? cls.share : 0.0,
                         std::memory_order_relaxed);
    if (!cls.realtime) continue;
    if (cls.bucket.rate > traffic::kMaxCapacityBps)
      throw std::invalid_argument(
          "ConcurrentAdmissionController: class rate exceeds kMaxCapacityBps");
    // Demand quantized once, at class registration (round up); budgets
    // rounded down. alpha <= 1, so share * capacity stays in range.
    rho_units_[c] = cls.spec.rate_units;
    for (net::ServerId s = 0; s < servers_; ++s)
      slots_[c * servers_ + s].limit.store(
          traffic::quantize_budget_down(cls.share * graph.server(s).capacity),
          std::memory_order_relaxed);
  }

  // Dense route index: one cell load plus a flat hop-array walk instead of
  // a hash lookup and a pointer chase through the table's nodes on every
  // request. Only built when the (class, node, node) cube is small enough
  // that the memory is trivial; sparse/huge id spaces keep the hash path.
  net::NodeId max_node = 0;
  std::size_t total_hops = 0;
  table_.for_each([&](net::NodeId src, net::NodeId dst, std::size_t,
                      const net::ServerPath& route) {
    max_node = std::max({max_node, src, dst});
    total_hops += route.size();
  });
  const std::size_t stride = static_cast<std::size_t>(max_node) + 1;
  const std::size_t cells = classes.size() * stride * stride;
  if (table_.size() != 0 && cells <= (std::size_t{1} << 22)) {
    index_nodes_ = static_cast<std::uint32_t>(stride);
    route_index_.assign(cells, RouteRef{});
    // The arena is sized up front so the hop pointers stored in the cells
    // never dangle from reallocation.
    route_arena_.reserve(total_hops);
    table_.for_each([&](net::NodeId src, net::NodeId dst, std::size_t c,
                        const net::ServerPath& route) {
      if (c >= classes.size()) return;  // unconfigured class: hash fallback
      const std::size_t offset = route_arena_.size();
      // slot-index translation done once here: indices are bounded by
      // classes*servers_, the extent of the slots_ allocation itself.
      for (const net::ServerId s : route)
        route_arena_.push_back(static_cast<std::uint32_t>(c * servers_ + s));
      RouteRef ref;
      ref.slots = route_arena_.data() + offset;
      ref.len = static_cast<std::uint32_t>(route.size());
      ref.first = route.empty() ? 0 : route_arena_[offset];
      ref.path = &route;
      route_index_[(c * stride + src) * stride + dst] = ref;
    });
  }
}

bool ConcurrentAdmissionController::try_reserve(Slot& s, RateFx rho,
                                                RateFx cap) {
  // Relaxed ordering is sufficient: the safety invariant (reserved <= cap
  // at every instant) is a property of the values produced by this single
  // atomic object's RMW history, not of cross-object ordering. Per-flow
  // data is published via the shard mutex, never via these counters.
  // `cur + rho` cannot wrap: cur <= cap <= 2^51 and rho <= 2^52 saturated
  // demands never pass the guard (see traffic/flow.hpp overflow proof).
  RateFx cur = s.reserved.load(std::memory_order_relaxed);
  do {
    // Subtraction form is overflow-proof; the explicit cur > cap branch
    // covers the live-reconfiguration transient where a shrunken budget
    // leaves the counter above the new cap — cap - cur would wrap and
    // wrongly admit into an already over-committed slot.
    if (cur > cap || rho > cap - cur) return false;
  } while (!s.reserved.compare_exchange_weak(cur, cur + rho,
                                             std::memory_order_relaxed));
  // Record the high watermark. Every successful reservation publishes its
  // own post-add value, so the max over all published values is the max
  // the counter ever held.
  const RateFx now = cur + rho;
  RateFx peak = s.peak.load(std::memory_order_relaxed);
  while (peak < now && !s.peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return true;
}

ConcurrentAdmissionController::IdRun ConcurrentAdmissionController::claim_ids(
    std::size_t want) {
  // Threads beyond util::kStripes share a cursor, so the cursor moves by
  // CAS; with one thread per stripe the CAS never fails and its cache line
  // never leaves the caller's core.
  std::atomic<traffic::FlowId>& cursor =
      id_cursors_[util::stripe_index()].next;
  traffic::FlowId cur = cursor.load(std::memory_order_relaxed);
  for (;;) {
    if (cur % kIdBlock == 0) {  // no block yet, or the block is used up
      const traffic::FlowId block =
          next_block_.fetch_add(1, std::memory_order_relaxed);
      // Block b holds ids [b * kIdBlock, (b + 1) * kIdBlock); id 0 is the
      // registry's empty-slot marker, so block 0 starts at 1.
      const traffic::FlowId first = block == 0 ? 1 : block << kIdBlockBits;
      const std::size_t count = static_cast<std::size_t>(
          std::min<traffic::FlowId>(want, (block + 1) * kIdBlock - first));
      // A thread sharing the stripe may have installed a block meanwhile;
      // then the rest of this one is left unused (ids stay unique).
      cursor.compare_exchange_strong(cur, first + count,
                                     std::memory_order_relaxed);
      return {first, count};
    }
    const std::size_t count = static_cast<std::size_t>(
        std::min<traffic::FlowId>(want, kIdBlock - cur % kIdBlock));
    if (cursor.compare_exchange_weak(cur, cur + count,
                                     std::memory_order_relaxed))
      return {cur, count};
  }
}

bool ConcurrentAdmissionController::route_for(
    net::NodeId src, net::NodeId dst, std::size_t class_index, RouteRef& out,
    AdmissionDecision& decision) const {
  if (class_index >= classes_->size() ||
      !classes_->at(class_index).realtime) {
    decision.outcome = AdmissionOutcome::kBadClass;
    return false;
  }
  if (index_nodes_ != 0) {
    // Dense index covers every configured entry: an out-of-range or empty
    // cell *is* the no-route answer, no hash fallback needed.
    if (src < index_nodes_ && dst < index_nodes_)
      out = route_index_[(class_index * index_nodes_ + src) * index_nodes_ +
                         dst];
  } else if (const net::ServerPath* route =
                 table_.lookup_ref(src, dst, class_index)) {
    out.len = static_cast<std::uint32_t>(route->size());
    out.path = route;  // slots stays nullptr: hops read from the path
  }
  if (out.path == nullptr) {
    decision.outcome = AdmissionOutcome::kNoRoute;
    return false;
  }
  return true;
}

bool ConcurrentAdmissionController::reserve_route(
    const RouteRef& route, std::size_t class_index,
    AdmissionDecision& decision) {
  const RateFx rho = rho_units_[class_index];

  // Slot for the hop: precomputed index on the dense path, class-stride
  // arithmetic on the hash-fallback path. The branch is invariant over a
  // route, so it predicts perfectly inside the loops below.
  const auto hop_slot = [&](std::size_t hop) -> Slot& {
    return route.slots != nullptr ? slots_[route.slots[hop]]
                                  : slot(class_index, (*route.path)[hop]);
  };

  // Read-only precheck: in the overload regime most requests are rejected,
  // and a rejection should cost loads, not CAS traffic plus rollback.
  // Observing a full hop here is the same decision the CAS pass would make
  // at that hop; under concurrency the precheck is only advisory — a pass
  // here still has to win every per-hop CAS below, so the safety invariant
  // never rests on this scan. Hop 0 — where a uniformly saturated network
  // blocks almost every rejection — reads its slot index straight from the
  // route cell (RouteRef::first): demand, cell, slot, three dependent
  // loads and the decision is made.
  std::size_t hop = 0;
  if (route.slots != nullptr && route.len != 0) {
    const Slot& s0 = slots_[route.first];
    const RateFx cap0 = s0.limit.load(std::memory_order_relaxed);
    const RateFx cur0 = s0.reserved.load(std::memory_order_relaxed);
    if (cur0 > cap0 || rho > cap0 - cur0) {
      decision.outcome = AdmissionOutcome::kUtilizationExceeded;
      decision.blocking_hop = 0;
      return false;
    }
    hop = 1;
  }
  for (; hop < route.len; ++hop) {
    const Slot& sl = hop_slot(hop);
    const RateFx cap = sl.limit.load(std::memory_order_relaxed);
    const RateFx cur = sl.reserved.load(std::memory_order_relaxed);
    if (cur > cap || rho > cap - cur) {
      decision.outcome = AdmissionOutcome::kUtilizationExceeded;
      decision.blocking_hop = hop;
      return false;
    }
  }

  // The run-time test: along the path, does the class stay within its
  // verified share alpha on every link? Reserve hop by hop; on a
  // saturated hop roll back what this request already took.
  for (hop = 0; hop < route.len; ++hop) {
    Slot& sl = hop_slot(hop);
    if (!try_reserve(sl, rho, sl.limit.load(std::memory_order_relaxed))) {
      for (std::size_t h = 0; h < hop; ++h)
        hop_slot(h).reserved.fetch_sub(rho, std::memory_order_relaxed);
      decision.outcome = AdmissionOutcome::kUtilizationExceeded;
      decision.blocking_hop = hop;
      return false;
    }
  }
  decision.outcome = AdmissionOutcome::kAdmitted;
  return true;
}

AdmissionDecision ConcurrentAdmissionController::request(
    net::NodeId src, net::NodeId dst, std::size_t class_index) {
  UBAC_SPAN_ARG("admission.request", "admission", "class", class_index);
  ControllerTelemetry* const t = telemetry_;
  if (t == nullptr) return request_impl(src, dst, class_index);

  const bool timed = t->should_time();
  const std::int64_t start_ns = timed ? telemetry::EventTracer::now_ns() : 0;
  const AdmissionDecision decision = request_impl(src, dst, class_index);
  record_request_telemetry(decision, src, dst, class_index, timed, start_ns);
  return decision;
}

void ConcurrentAdmissionController::record_request_telemetry(
    const AdmissionDecision& decision, net::NodeId src, net::NodeId dst,
    std::size_t class_index, bool timed, std::int64_t start_ns) {
  ControllerTelemetry* const t = telemetry_;
  if (timed)
    t->decision_latency->record(
        static_cast<double>(telemetry::EventTracer::now_ns() - start_ns) *
        1e-9);
  t->decision(decision.outcome).add();
  const bool rolled_back =
      decision.outcome == AdmissionOutcome::kUtilizationExceeded &&
      decision.blocking_hop > 0;
  if (rolled_back) t->rollback_hops->add(decision.blocking_hop);
  if (t->tracer == nullptr || !t->tracer->should_sample()) return;

  telemetry::TraceEvent ev;
  ev.kind = decision.admitted() ? telemetry::TraceEventKind::kAdmit
                                : telemetry::TraceEventKind::kReject;
  ev.flow_id = decision.flow_id;
  ev.class_index = static_cast<std::uint32_t>(class_index);
  ev.src = src;
  ev.dst = dst;
  ev.blocking_hop = static_cast<std::uint32_t>(decision.blocking_hop);
  ev.reason = decision.admitted() ? "" : to_string(decision.outcome);
  // Per-hop utilization at decision time: the worst hop along the route
  // (reads the same atomics the decision used; only paid on sampled
  // events).
  if (class_index < classes_->size() && classes_->at(class_index).realtime) {
    if (const net::ServerPath* route =
            table_.lookup_ref(src, dst, class_index)) {
      double worst = 0.0;
      for (const net::ServerId s : *route)
        worst = std::max(worst, class_utilization(s, class_index));
      ev.utilization = worst;
    }
  }
  t->tracer->record(ev);
  if (rolled_back) {
    ev.kind = telemetry::TraceEventKind::kRollback;
    t->tracer->record(ev);
  }
}

AdmissionDecision ConcurrentAdmissionController::request_impl(
    net::NodeId src, net::NodeId dst, std::size_t class_index) {
  AdmissionDecision decision;
  RouteRef route;
  if (!route_for(src, dst, class_index, route, decision)) return decision;
  if (!reserve_route(route, class_index, decision)) return decision;

  const traffic::FlowId id = claim_ids(1).first;
  FlowRecord record{id, route.path, static_cast<std::uint32_t>(class_index),
                    src, dst};
  {
    Shard& sh = shard(id);
    std::lock_guard<std::mutex> lock(sh.mutex);
    sh.flows.insert(record);
  }
  // Conformance-plane registration: one relaxed-ordering gate load when
  // no ArrivalRecorder is installed (same pattern as UBAC_SPAN).
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    recorder->on_admit(id, static_cast<std::uint32_t>(class_index));
  decision.flow_id = id;
  return decision;
}

std::size_t ConcurrentAdmissionController::admit_batch(
    std::span<const traffic::Demand> requests,
    std::span<AdmissionDecision> results) {
  if (results.size() < requests.size())
    throw std::invalid_argument("admit_batch: results span too small");
  UBAC_SPAN_ARG("admission.admit_batch", "admission", "batch",
                requests.size());
  ControllerTelemetry* const t = telemetry_;
  if (t == nullptr) return admit_batch_impl(requests, results);

  const bool timed = t->should_time();
  const std::int64_t start_ns = timed ? telemetry::EventTracer::now_ns() : 0;
  const std::size_t admitted = admit_batch_impl(requests, results);

  // One flush per batch: outcome counts and rollback hops accumulated
  // locally, each counter touched at most once.
  std::uint64_t outcomes[4] = {0, 0, 0, 0};
  std::uint64_t rollback_hops = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ++outcomes[static_cast<std::size_t>(results[i].outcome)];
    if (results[i].outcome == AdmissionOutcome::kUtilizationExceeded)
      rollback_hops += results[i].blocking_hop;
  }
  for (std::size_t o = 0; o < 4; ++o)
    if (outcomes[o] != 0) t->decisions[o]->add(outcomes[o]);
  if (rollback_hops != 0) t->rollback_hops->add(rollback_hops);
  t->batches->add();
  t->batch_size->record(static_cast<double>(requests.size()));
  if (timed && !requests.empty())
    t->decision_latency->record(
        static_cast<double>(telemetry::EventTracer::now_ns() - start_ns) *
        1e-9 / static_cast<double>(requests.size()));
  return admitted;
}

std::size_t ConcurrentAdmissionController::admit_batch_impl(
    std::span<const traffic::Demand> requests,
    std::span<AdmissionDecision> results) {
  // Phase 1 — decide, strictly in order. Each request runs the same
  // route lookup + hop-by-hop CAS reservation as request(), so the
  // decisions (and any mid-batch capacity race) are exactly what k
  // sequential calls would have produced; a request that hits a
  // saturated hop rolls back only its own partial reservation.
  // `hits[j]` is the j-th admitted request: its index into `requests` and
  // its route, kept for phase-2 registration. Populated lazily so a batch
  // that admits nothing — the common case under overload — allocates
  // nothing.
  std::vector<std::pair<std::size_t, const net::ServerPath*>> hits;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    AdmissionDecision& decision = results[i];
    decision = AdmissionDecision{};
    const traffic::Demand& d = requests[i];
    RouteRef route;
    if (!route_for(d.src, d.dst, d.class_index, route, decision)) continue;
    if (!reserve_route(route, d.class_index, decision)) continue;
    hits.emplace_back(i, route.path);
  }
  const std::size_t admitted = hits.size();
  if (admitted == 0) return 0;

  // Phase 2 — number and register. Ids come from the caller's cursor in
  // runs that each lie in one block, hence one shard: the j-th admitted
  // request gets the j-th id drawn — identical to what sequential
  // request() calls would have assigned (rejected requests consume no
  // id) — and each run is registered under one lock.
  for (std::size_t j = 0; j < admitted;) {
    const IdRun run = claim_ids(admitted - j);
    Shard& sh = shard(run.first);
    std::lock_guard<std::mutex> lock(sh.mutex);
    for (std::size_t k = 0; k < run.count; ++k, ++j) {
      const traffic::Demand& d = requests[hits[j].first];
      const traffic::FlowId id = run.first + k;
      results[hits[j].first].flow_id = id;
      sh.flows.insert(FlowRecord{id, hits[j].second,
                                 static_cast<std::uint32_t>(d.class_index),
                                 d.src, d.dst});
    }
  }
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    for (const auto& hit : hits)
      recorder->on_admit(results[hit.first].flow_id,
                         static_cast<std::uint32_t>(
                             requests[hit.first].class_index));
  return admitted;
}

bool ConcurrentAdmissionController::release(traffic::FlowId id) {
  ControllerTelemetry* const t = telemetry_;
  if (t == nullptr) return release_impl(id);
  const bool ok = release_impl(id);
  (ok ? t->releases : t->unknown_releases)->add();
  if (t->tracer != nullptr && t->tracer->should_sample()) {
    telemetry::TraceEvent ev;
    ev.kind = telemetry::TraceEventKind::kRelease;
    ev.flow_id = id;
    ev.reason = ok ? "" : "unknown-flow";
    t->tracer->record(ev);
  }
  return ok;
}

bool ConcurrentAdmissionController::release_impl(traffic::FlowId id) {
  FlowRecord record;
  {
    Shard& sh = shard(id);
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (!sh.flows.erase(id, record)) return false;  // unknown/double release
  }
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    recorder->on_release(id);
  const RateFx rho = rho_units_[record.class_index];
  for (const net::ServerId s : *record.route)
    slot(record.class_index, s)
        .reserved.fetch_sub(rho, std::memory_order_relaxed);
  return true;
}

std::size_t ConcurrentAdmissionController::release_batch(
    std::span<const traffic::FlowId> ids) {
  ControllerTelemetry* const t = telemetry_;
  std::size_t unknown = 0;
  const std::size_t released = release_batch_impl(ids, unknown);
  if (t != nullptr) {
    if (released != 0) t->releases->add(released);
    if (unknown != 0) t->unknown_releases->add(unknown);
  }
  return released;
}

std::size_t ConcurrentAdmissionController::release_batch_impl(
    std::span<const traffic::FlowId> ids, std::size_t& unknown) {
  // Extract records shard by shard (each lock taken at most once; one
  // caller's recent ids share a block, so usually one lock in all), then
  // return the reservations outside any lock.
  std::vector<FlowRecord> records;
  records.reserve(ids.size());
  for (std::size_t s = 0; s < kShardCount; ++s) {
    bool locked = false;
    std::unique_lock<std::mutex> lock(shards_[s].mutex, std::defer_lock);
    for (const traffic::FlowId id : ids) {
      if (shard_index(id) != s) continue;
      if (!locked) {
        lock.lock();
        locked = true;
      }
      FlowRecord record;
      if (shards_[s].flows.erase(id, record))
        records.push_back(record);
      else
        ++unknown;
    }
  }
  if (records.empty()) return 0;
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    for (const FlowRecord& record : records) recorder->on_release(record.id);
  for (const FlowRecord& record : records) {
    const RateFx rho = rho_units_[record.class_index];
    for (const net::ServerId s : *record.route)
      slot(record.class_index, s)
          .reserved.fetch_sub(rho, std::memory_order_relaxed);
  }
  return records.size();
}

double ConcurrentAdmissionController::class_utilization(
    net::ServerId server, std::size_t class_index) const {
  const traffic::ServiceClass& cls = classes_->at(class_index);
  if (!cls.realtime) return 0.0;
  // Denominator is the *live* share, so after an apply_shares() swap the
  // gauge reports against the budget admits are actually decided by.
  const double share = live_share_[class_index].load(std::memory_order_relaxed);
  if (share <= 0.0) return 0.0;
  const BitsPerSecond limit = share * graph_->server(server).capacity;
  return reserved_rate(server, class_index) / limit;
}

BitsPerSecond ConcurrentAdmissionController::reserved_rate(
    net::ServerId server, std::size_t class_index) const {
  return traffic::bps_from_units(reserved_units(server, class_index));
}

traffic::RateUnits ConcurrentAdmissionController::reserved_units(
    net::ServerId server, std::size_t class_index) const {
  if (class_index >= classes_->size() || server >= servers_)
    throw std::out_of_range("reserved_units: bad class or server");
  return slot(class_index, server).reserved.load(std::memory_order_relaxed);
}

traffic::RateUnits ConcurrentAdmissionController::limit_units(
    net::ServerId server, std::size_t class_index) const {
  if (class_index >= classes_->size() || server >= servers_)
    throw std::out_of_range("limit_units: bad class or server");
  return limit(class_index, server);
}

std::size_t ConcurrentAdmissionController::active_flows() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    n += shards_[s].flows.size();
  }
  return n;
}

std::size_t ConcurrentAdmissionController::held_flow_bound() const {
  std::size_t bound = 0;
  for (std::size_t c = 0; c < classes_->size(); ++c) {
    if (!classes_->at(c).realtime) continue;
    for (net::ServerId s = 0; s < servers_; ++s)
      bound += static_cast<std::size_t>(limit(c, s) / rho_units_[c]);
  }
  return bound;
}

BitsPerSecond ConcurrentAdmissionController::peak_reserved_rate(
    net::ServerId server, std::size_t class_index) const {
  if (class_index >= classes_->size() || server >= servers_)
    throw std::out_of_range("peak_reserved_rate: bad class or server");
  return traffic::bps_from_units(
      slot(class_index, server).peak.load(std::memory_order_relaxed));
}

BudgetSwapReport ConcurrentAdmissionController::apply_shares(
    std::span<const ShareUpdate> updates) {
  UBAC_SPAN_ARG("admission.apply_shares", "admission", "updates",
                updates.size());
  std::lock_guard<std::mutex> lock(reconfig_mutex_);
  // Validate everything before touching any budget: a swap is all-or-
  // nothing with respect to bad input.
  for (const ShareUpdate& u : updates) {
    if (u.class_index >= classes_->size())
      throw std::invalid_argument("apply_shares: unknown class index");
    if (!(u.share >= 0.0 && u.share <= 1.0))
      throw std::invalid_argument("apply_shares: share outside [0, 1]");
  }

  BudgetSwapReport report;
  std::vector<std::size_t> shrunk;
  // Phase 1 — fence. Store every new budget first: from this point on new
  // admits are decided against the new limits (a shrunken slot transiently
  // holding reserved > limit reads as saturated, never as wrapped).
  for (const ShareUpdate& u : updates) {
    if (!classes_->at(u.class_index).realtime) continue;
    bool lowered = false;
    for (net::ServerId s = 0; s < servers_; ++s) {
      Slot& sl = slot(u.class_index, s);
      const RateFx next =
          traffic::quantize_budget_down(u.share * graph_->server(s).capacity);
      const RateFx prev = sl.limit.exchange(next, std::memory_order_relaxed);
      if (next > prev) {
        ++report.slots_raised;
      } else if (next < prev) {
        ++report.slots_lowered;
        lowered = true;
      }
    }
    live_share_[u.class_index].store(u.share, std::memory_order_relaxed);
    if (lowered) shrunk.push_back(u.class_index);
  }
  if (shrunk.empty()) return report;

  // Phase 2 — shed. Reverse priority order (class index = priority, 0
  // highest): best-effort/statistical classes give ground before
  // guaranteed ones.
  std::sort(shrunk.rbegin(), shrunk.rend());
  for (const std::size_t c : shrunk) shed_class(c, report);
  return report;
}

bool ConcurrentAdmissionController::any_over_budget(
    std::size_t class_index) const {
  for (net::ServerId s = 0; s < servers_; ++s) {
    const Slot& sl = slot(class_index, s);
    if (sl.reserved.load(std::memory_order_relaxed) >
        sl.limit.load(std::memory_order_relaxed))
      return true;
  }
  return false;
}

void ConcurrentAdmissionController::shed_class(std::size_t class_index,
                                               BudgetSwapReport& report) {
  const RateFx rho = rho_units_[class_index];
  if (rho == 0) return;
  ControllerTelemetry* const t = telemetry_;
  while (any_over_budget(class_index)) {
    // Collect the class's registered flows; shed newest (highest id)
    // first, so the longest-lived reservations survive a shrink.
    std::vector<std::pair<traffic::FlowId, const net::ServerPath*>> flows;
    for (std::size_t s = 0; s < kShardCount; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      shards_[s].flows.for_each([&](const FlowRecord& record) {
        if (record.class_index == class_index)
          flows.emplace_back(record.id, record.route);
      });
    }
    std::sort(flows.begin(), flows.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    bool progressed = false;
    for (const auto& [id, route] : flows) {
      bool crosses = false;
      for (const net::ServerId s : *route) {
        const Slot& sl = slot(class_index, s);
        if (sl.reserved.load(std::memory_order_relaxed) >
            sl.limit.load(std::memory_order_relaxed)) {
          crosses = true;
          break;
        }
      }
      if (!crosses) continue;  // sheds nothing that isn't over-committed
      // Normal release path: a racing external release of the same id
      // makes exactly one of the two succeed.
      if (!release_impl(id)) continue;
      progressed = true;
      ++report.shed_flows;
      report.shed_ids.push_back(id);
      if (t != nullptr) {
        t->releases->add();
        if (t->tracer != nullptr && t->tracer->should_sample()) {
          telemetry::TraceEvent ev;
          ev.kind = telemetry::TraceEventKind::kRelease;
          ev.flow_id = id;
          ev.class_index = static_cast<std::uint32_t>(class_index);
          ev.reason = "reconfig-shed";
          t->tracer->record(ev);
        }
      }
      if (!any_over_budget(class_index)) return;
    }
    // No registered flow crosses an over-committed hop: the remainder is
    // owned by admits racing the fence (they register right after their
    // CAS). A re-scan only helps once they appear; without progress this
    // pass, leave the transient to the next swap/scan — admits against
    // those slots stay fenced out meanwhile.
    if (!progressed) return;
  }
}

std::optional<FlowView> ConcurrentAdmissionController::find_flow(
    traffic::FlowId id) const {
  Shard& sh = shard(id);
  std::lock_guard<std::mutex> lock(sh.mutex);
  const FlowRecord* record = sh.flows.find(id);
  if (record == nullptr) return std::nullopt;
  return FlowView{record->id, record->class_index, record->src, record->dst,
                  record->route};
}

}  // namespace ubac::admission
