#pragma once

/// \file controller.hpp
/// \brief Concurrent run-time utilization-based admission control
///        (Section 4, item 2).
///
/// The whole point of the paper: once configuration has verified a safe
/// utilization assignment, admitting a flow is a constant-time-per-hop
/// bandwidth check — no per-flow analysis, no core router state. Per-flow
/// state (the registry) lives only at the edge.
///
/// This controller serves that check from many threads at once, entirely
/// in unsigned fixed-point integers (the grid defined in traffic/flow.hpp).
/// See docs/concurrency.md for the full protocol description.
///
/// ## Safety argument: no over-commit despite racing CAS loops
///
/// Per (class, server) the reserved rate is a single atomic fixed-point
/// counter. A request reserves its route hop by hop; each hop reservation
/// is one compare-and-swap that moves the counter from `cur` to
/// `cur + rho` *only if* `cur + rho <= limit`, where
/// `limit = quantize_budget_down(alpha * C)` is precomputed per
/// (class, server) and `rho = quantize_demand_up(class rate)` is
/// precomputed per class — budget rounded down, demand rounded up, so the
/// integer test is conservative against the exact real-valued test.
///
///  1. The counter only changes through (a) a successful admit-CAS, which
///     by its own guard never produces a value above `limit`, and (b)
///     `fetch_sub` of a previously added `rho` (release or rollback),
///     which only decreases it. Since every modification is one atomic
///     RMW, there is no window in which two racing admits can both read a
///     low value and jointly exceed the limit: one of the two CAS's loses,
///     re-reads the other's addition, and re-checks the guard. Hence
///     `reserved <= alpha * C` holds at *every* instant, not just at
///     quiescence (verified by the high-watermark in
///     tests/concurrent_admission_test.cpp).
///  2. A request that finds hop k saturated rolls back hops [0, k) with
///     `fetch_sub(rho)`; each of those subtracts exactly what the same
///     request added, so a failed request is conservation-neutral.
///  3. Counters are uint64 grid units (2^-10 bit/s), so admit/release
///     pairs cancel exactly — no floating-point drift, and at quiescence
///     each counter equals the sum of quantized rates of registered flows
///     crossing the hop (the conservation invariant). The grid constants
///     in traffic/flow.hpp prove no counter (nor any transient
///     `cur + rho`) can overflow under the kMaxServers / kMaxCapacityBps
///     preconditions this constructor enforces.
///
/// What is *not* guaranteed under contention: a request may be rejected
/// even though capacity would have sufficed in some serialization (a
/// racing winner may release moments later). That is the usual
/// conservative behaviour of optimistic admission and affects liveness
/// statistics only, never the delay-safety property alpha certifies.
///
/// ## Flow ids and the sharded registry
///
/// Besides the per-hop reservation counters, an admit or release writes
/// no controller-wide word. Flow ids come in blocks of kIdBlock: each
/// caller stripe (util::stripe_index(), the per-thread index metric
/// counters use) hands out ids from its current block and takes the next
/// free block from a block counter once every kIdBlock admits. One caller
/// therefore gets 1, 2, 3, … exactly as SequentialAdmissionController
/// does; concurrent callers get unique ids that interleave block by block.
/// The per-flow edge registry is kShardCount mutex-guarded flat maps
/// (flow_registry.hpp) and a flow's shard is its id block,
/// `(id / kIdBlock) mod kShardCount`, so one caller's inserts and releases
/// stay on one shard's lock line for a whole block, registry updates scale
/// with cores, and admit/release touch no allocator at steady state.
/// active_flows() sums the shard sizes.
///
/// ## Batch admission
///
/// `admit_batch()` runs k admission tests with one telemetry flush and
/// draws its ids from the caller's id cursor, registering each run of ids
/// that shares a block under one lock (usually one lock per batch).
/// Single-threaded it is decision-for-decision identical to k sequential
/// `request()` calls — same admit set, same rejection reasons, same flow
/// ids, also when the batch straddles an id block. Under concurrent
/// interference each request still reserves through the same per-hop
/// CAS, so a mid-batch capacity loss rejects exactly the requests that no
/// longer fit and rolls back only their own partial reservations;
/// already-committed batch members are unaffected.

#include <atomic>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "admission/flow_registry.hpp"
#include "admission/routing_table.hpp"
#include "net/server_graph.hpp"
#include "traffic/flow.hpp"
#include "traffic/service_class.hpp"

namespace ubac::admission {

struct ControllerTelemetry;  // admission/telemetry.hpp

/// Why a request was rejected (or kAdmitted).
enum class AdmissionOutcome {
  kAdmitted,
  kNoRoute,              ///< no configured route for (src, dst, class)
  kUtilizationExceeded,  ///< some hop's class reservation is full
  kBadClass,             ///< class index unknown or best-effort
};

const char* to_string(AdmissionOutcome outcome);

struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kBadClass;
  traffic::FlowId flow_id = 0;  ///< valid when admitted
  /// Index of the first saturated hop (when kUtilizationExceeded).
  std::size_t blocking_hop = 0;

  bool admitted() const { return outcome == AdmissionOutcome::kAdmitted; }
};

/// Registered-flow view returned by find_flow(). The route pointer aims
/// into the controller's immutable routing table, so it stays valid for
/// the controller's lifetime (not merely until the flow is released).
struct FlowView {
  traffic::FlowId id = 0;
  std::size_t class_index = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  const net::ServerPath* route = nullptr;
};

/// One class's new verified share, as committed by an analysis re-search.
struct ShareUpdate {
  std::size_t class_index = 0;
  double share = 0.0;  ///< new alpha fraction of every server's capacity
};

/// What a live budget swap did; returned by apply_shares().
struct BudgetSwapReport {
  std::size_t slots_raised = 0;   ///< (class, server) budgets that grew
  std::size_t slots_lowered = 0;  ///< (class, server) budgets that shrank
  std::size_t shed_flows = 0;     ///< flows dropped to fit shrunken budgets
  std::vector<traffic::FlowId> shed_ids;  ///< the dropped flows, shed order
};

/// Utilization-based admission controller over a configured network,
/// safe under concurrent request()/release() from any number of threads.
class ConcurrentAdmissionController {
 public:
  /// Throws std::invalid_argument when the graph exceeds the fixed-point
  /// preconditions (more than traffic::kMaxServers servers, a server
  /// capacity above traffic::kMaxCapacityBps, or a real-time class rate
  /// above traffic::kMaxCapacityBps) — the bounds under which the grid's
  /// overflow-freedom proof holds.
  ConcurrentAdmissionController(const net::ServerGraph& graph,
                                const traffic::ClassSet& classes,
                                RoutingTable table);

  /// Admission test + reservation: O(route length) CAS utilization checks.
  /// Thread-safe; never over-commits any hop past alpha*C.
  AdmissionDecision request(net::NodeId src, net::NodeId dst,
                            std::size_t class_index);

  /// Batch admission test: decide requests[i] into results[i] for every i,
  /// in order, and return the number admitted. Semantically equivalent to
  /// calling request() per element; amortizes flow-id allocation, registry
  /// shard locking (one lock per id block the batch's ids span) and
  /// telemetry (one counter flush and one sampled latency record per
  /// batch).
  /// `results.size() >= requests.size()` is required.
  std::size_t admit_batch(std::span<const traffic::Demand> requests,
                          std::span<AdmissionDecision> results);

  /// Tear down an admitted flow, freeing its reservation on every hop.
  /// Returns false when the id is unknown (double release). Thread-safe:
  /// of two racing releases of the same id exactly one succeeds.
  bool release(traffic::FlowId id);

  /// Batch teardown: release every id, grouping registry work so each
  /// shard's lock is taken at most once per batch. Returns the number of
  /// flows actually released (unknown/duplicate ids are skipped, counted
  /// in telemetry as unknown releases).
  std::size_t release_batch(std::span<const traffic::FlowId> ids);

  /// Current reserved-rate fraction of class `class_index`'s share on a
  /// server: reserved / (alpha * C). In [0, 1].
  double class_utilization(net::ServerId server, std::size_t class_index) const;

  /// Reserved rate of a class on a server, bits/s.
  BitsPerSecond reserved_rate(net::ServerId server,
                              std::size_t class_index) const;

  /// Exact ledger occupancy of a class on a server, in fixed-point grid
  /// units (2^-10 bit/s). This is the value the CAS loop compares, useful
  /// for bit-identical replay checks and (later) per-shard quota splits.
  traffic::RateUnits reserved_units(net::ServerId server,
                                    std::size_t class_index) const;

  /// The precomputed integer budget the CAS loop admits against:
  /// quantize_budget_down(alpha * C), in grid units.
  traffic::RateUnits limit_units(net::ServerId server,
                                 std::size_t class_index) const;

  /// High watermark: the largest reserved rate the (server, class) counter
  /// ever held. Always <= alpha * C — the concurrency tests assert this.
  BitsPerSecond peak_reserved_rate(net::ServerId server,
                                   std::size_t class_index) const;

  /// Registered flows: the sum of the shard sizes, each read under its
  /// shard lock (exact at quiescence).
  std::size_t active_flows() const;

  /// Upper bound on flows the controller can hold at once: the sum over
  /// servers and real-time classes of limit ÷ ρ. Every held flow takes
  /// at least one (server, class) slot of ρ, so the bound covers any mix
  /// of routes. Sizes per-flow tables such as the ArrivalRecorder's.
  std::size_t held_flow_bound() const;

  std::size_t server_count() const { return servers_; }
  const traffic::ClassSet& classes() const { return *classes_; }

  /// Attach (or detach, with nullptr) an instrument bundle; see
  /// admission/telemetry.hpp. The bundle and its registry must outlive the
  /// controller's use. Call before serving requests — attaching is not
  /// synchronized against in-flight request()/release() calls. Without
  /// telemetry attached, request()/release() pay one branch.
  void attach_telemetry(ControllerTelemetry* telemetry) {
    telemetry_ = telemetry;
  }

  /// Copy of a registered flow's record, or nullopt when unknown. The
  /// contained route pointer stays valid for the controller's lifetime.
  std::optional<FlowView> find_flow(traffic::FlowId id) const;

  /// Atomic live budget swap: re-derive every (class, server) budget from
  /// the new shares — quantize_budget_down on the same fixed-point grid
  /// the constructor used, so the resulting limits are bit-identical to a
  /// fresh controller built at the new shares — without dropping in-flight
  /// flows of growing classes. The protocol is fence-then-shed:
  ///
  ///  1. *Fence.* Each new limit is stored into the atomic budget word
  ///     first, so new admits are immediately decided against the new
  ///     budget. A shrunken slot may transiently hold reserved > limit;
  ///     the admission guard treats that as saturated (never wraps).
  ///  2. *Shed.* For every class whose budget shrank — visited in reverse
  ///     priority order, so best-effort/statistical classes give ground
  ///     before guaranteed ones — registered flows are dropped newest
  ///     first (highest id), but only flows actually crossing a still
  ///     over-committed hop, until every slot fits its new budget. Ids
  ///     grow with admission order per caller; across concurrent callers
  ///     they interleave by id block (see "Flow ids" above), so "newest"
  ///     is per-caller id order, not a global admission order.
  ///
  /// Growing a class never sheds anything. Concurrent-safe against
  /// request()/release(); an admit racing the fence may commit against the
  /// old budget and is cleaned up by the shed passes (callers observing
  /// quiescence see every budget respected). Shed teardowns release
  /// reservations through the normal path, so a later release() of a shed
  /// id is a benign unknown-release. Throws std::invalid_argument on an
  /// unknown class or a share outside [0, 1].
  BudgetSwapReport apply_shares(std::span<const ShareUpdate> updates);

 private:
  /// Ledger word: unsigned fixed-point grid units (traffic/flow.hpp).
  using RateFx = traffic::RateUnits;

  static constexpr std::size_t kShardCount = 16;  // power of two
  static constexpr unsigned kIdBlockBits = 6;
  static constexpr traffic::FlowId kIdBlock = traffic::FlowId{1}
                                              << kIdBlockBits;

  /// One (class, server) reservation cell; cache-line padded so counters
  /// of adjacent servers never false-share. The budget lives in the same
  /// line as the counter it caps: the utilization test for a hop — the
  /// whole of the hot path on a rejected request — touches one cache line.
  /// The budget word is atomic since live reconfiguration: apply_shares()
  /// stores new limits while admits race their relaxed loads.
  struct alignas(64) Slot {
    std::atomic<RateFx> reserved{0};
    std::atomic<RateFx> peak{0};  ///< high watermark of `reserved`
    /// quantize_budget_down(share * C); set at build, swapped live by
    /// apply_shares().
    std::atomic<RateFx> limit{0};
  };

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    FlowShardMap flows;
  };

  /// One caller stripe's id cursor: the next id it hands out, 0 before
  /// its first block. A multiple of kIdBlock means the block is used up.
  struct alignas(64) IdCursor {
    std::atomic<traffic::FlowId> next{0};
  };

  /// A run of consecutive ids inside one block.
  struct IdRun {
    traffic::FlowId first = 0;
    std::size_t count = 0;
  };

  Slot& slot(std::size_t class_index, net::ServerId server) const {
    return slots_[class_index * servers_ + server];
  }
  RateFx limit(std::size_t class_index, net::ServerId server) const {
    return slots_[class_index * servers_ + server].limit.load(
        std::memory_order_relaxed);
  }
  static std::size_t shard_index(traffic::FlowId id) {
    return static_cast<std::size_t>(id >> kIdBlockBits) & (kShardCount - 1);
  }
  Shard& shard(traffic::FlowId id) const { return shards_[shard_index(id)]; }

  /// Claim between 1 and `want` consecutive ids, all in one block, from
  /// the calling thread's stripe cursor.
  IdRun claim_ids(std::size_t want);

  /// CAS loop for one hop: add `rho` iff the result stays within `cap`.
  static bool try_reserve(Slot& s, RateFx rho, RateFx cap);

  /// A resolved route, hot-path form. When the dense index is built,
  /// `slots` points into route_arena_ at the route's hop list already
  /// translated to slot indices (the cells are per class, so the
  /// class*servers_+server arithmetic is done once at construction), and
  /// `first` carries slots[0] inline so the common overload rejection —
  /// blocked at hop 0 — needs no arena load at all. On the hash-fallback
  /// path `slots` is nullptr and hops are read from `path` directly.
  /// `path` is also what flow registration records for release.
  struct RouteRef {
    const std::uint32_t* slots = nullptr;
    std::uint32_t len = 0;
    std::uint32_t first = 0;
    const net::ServerPath* path = nullptr;
  };

  /// Hop-by-hop reservation along `route` with rollback on saturation.
  /// Fills `decision` (outcome + blocking hop); true on full reservation.
  bool reserve_route(const RouteRef& route, std::size_t class_index,
                     AdmissionDecision& decision);

  /// Validate class and resolve the route into `out`; on failure fills the
  /// decision outcome and returns false.
  bool route_for(net::NodeId src, net::NodeId dst, std::size_t class_index,
                 RouteRef& out, AdmissionDecision& decision) const;

  /// The uninstrumented decision/teardown paths (semantics are identical
  /// whether or not telemetry is attached).
  AdmissionDecision request_impl(net::NodeId src, net::NodeId dst,
                                 std::size_t class_index);
  bool release_impl(traffic::FlowId id);
  std::size_t admit_batch_impl(std::span<const traffic::Demand> requests,
                               std::span<AdmissionDecision> results);
  std::size_t release_batch_impl(std::span<const traffic::FlowId> ids,
                                 std::size_t& unknown);

  /// Any (class_index, server) slot holding more than its live budget?
  bool any_over_budget(std::size_t class_index) const;
  /// Shed registered flows of `class_index` (newest first, only flows
  /// crossing a still over-committed hop) until every slot fits its
  /// budget or no registered flow can make further progress.
  void shed_class(std::size_t class_index, BudgetSwapReport& report);

  /// Telemetry tail of an instrumented request (counters, latency sample,
  /// trace events). Out of line to keep the hot path small.
  void record_request_telemetry(const AdmissionDecision& decision,
                                net::NodeId src, net::NodeId dst,
                                std::size_t class_index, bool timed,
                                std::int64_t start_ns);

  const net::ServerGraph* graph_;
  const traffic::ClassSet* classes_;
  RoutingTable table_;
  /// Dense (class, src, dst) -> route index over table_, built at
  /// construction (the table is immutable from then on). Hop lists are
  /// copied into one contiguous arena as slot indices, so a decision walks
  /// two flat arrays — index cell, then slots — with no hash-node hop or
  /// per-hop index arithmetic in between. Empty when the node-id range is
  /// too sparse to justify the memory; route_for falls back to the hash
  /// lookup.
  std::vector<RouteRef> route_index_;
  std::vector<std::uint32_t> route_arena_;
  std::uint32_t index_nodes_ = 0;  ///< index stride (max node id + 1)
  std::size_t servers_;
  /// slots_[class * servers_ + server]: admitted rate + budget, fixed-point.
  std::unique_ptr<Slot[]> slots_;
  std::vector<RateFx> rho_units_;  ///< per-class demand on the grid
  /// Per-class live share, kept in lockstep with the slot budgets —
  /// class_utilization() reports against the share admits are decided by,
  /// before and after a swap.
  std::unique_ptr<std::atomic<double>[]> live_share_;
  /// Serializes apply_shares() calls (the swap itself is wait-free for
  /// admits; only whole swaps are mutually exclusive).
  std::mutex reconfig_mutex_;
  mutable std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<IdCursor[]> id_cursors_;  ///< one per util::kStripes
  std::atomic<traffic::FlowId> next_block_{0};
  ControllerTelemetry* telemetry_ = nullptr;
};

/// The run-time controller of the repo; concurrent since the atomic
/// reservation rewrite. Single-threaded callers see behaviour identical
/// to SequentialAdmissionController (the seed implementation, kept as the
/// regression oracle in sequential_controller.hpp) whenever demands and
/// budgets are exactly representable on the grid; otherwise the integer
/// path only ever differs by rejecting conservatively.
using AdmissionController = ConcurrentAdmissionController;

}  // namespace ubac::admission
