#pragma once

/// \file perfbench.hpp
/// \brief Shared pieces of the end-to-end benchmark (see METRICS.md).
///
/// The benchmark drives both ubac pipelines through their public APIs:
/// the config-time pipeline (Table 1 configure on MCI) and the run-time
/// pipeline (admission decisions against a configured controller). Every
/// workload is a closed loop: a caller issues its next operation only once
/// the previous one returned, as an edge signalling thread does.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "admission/controller.hpp"
#include "admission/sequential_controller.hpp"
#include "net/server_graph.hpp"
#include "net/topology_factory.hpp"
#include "traffic/flow.hpp"
#include "traffic/leaky_bucket.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace perfbench {

using namespace ubac;

/// Command-line settings of one invocation.
struct Options {
  std::string workload;     ///< configure_mci | churn_serve | overload_batch | all
  std::uint64_t seed = 1;   ///< schedule seed
  double seconds = 10.0;    ///< measured time of one workload run
  bool trace = false;       ///< traced run: per-layer metrics instead of end-to-end
  /// Fault injection for the benchmark's own gate tests: "" (none),
  /// "wrong-alpha", "double-release" or "small-recorder".
  std::string inject;
  std::string out_dir = ".bench_out";  ///< result files and traces
  std::string revision = "unknown";    ///< source revision for the stamp
  std::size_t callers = 1;             ///< min(4, nproc)
};

/// The paper's Section 6 voice-over-IP scenario on the MCI backbone, the
/// input of both pipelines.
struct Scenario {
  Scenario();
  // graph points at topo.
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  traffic::LeakyBucket bucket{640.0, units::kbps(32)};  // T, rho
  Seconds deadline = units::milliseconds(100);          // D
  net::Topology topo;
  net::ServerGraph graph;
  std::vector<traffic::Demand> demands;  ///< all 342 ordered router pairs
};

/// Hop-count shortest path of every demand, at link-server granularity:
/// the routes `ubac_configtool serve` admits on.
std::vector<net::ServerPath> shortest_routes(const Scenario& scenario);

/// The share the run-time workloads serve at (serve's default).
inline constexpr double kServeAlpha = 0.32;

/// Collects named metrics, correctness gates and operation counts.
class Report {
 public:
  /// A metric of the final JSON line (end-to-end or per-layer).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A figure printed and stored in the result file only.
  void info(const std::string& name, double value, const std::string& unit);

  /// One correctness check; a failure counts one failed operation.
  void gate(const std::string& name, bool ok, const std::string& detail);
  /// Operations performed, and those whose output failed its check.
  void operations(std::uint64_t attempted, std::uint64_t failed);

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };

  const std::vector<Entry>& metrics() const { return metrics_; }
  const std::vector<Entry>& infos() const { return infos_; }
  const std::vector<Gate>& gates() const { return gates_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Entry> metrics_;
  std::vector<Entry> infos_;
  std::vector<Gate> gates_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -- workloads (each fills `report`; trace selects the traced run) --------

void run_configure_mci(const Options& options, Report& report);
void run_churn_serve(const Options& options, Report& report);
void run_overload_batch(const Options& options, Report& report);

/// The traced run: times every layer from outside, runs every pipeline body
/// untraced and then traced on the same schedule, and reports per-layer
/// metrics, span self times and the tracing overhead of `options.workload`.
void run_traced(const Options& options, Report& report);

// -- bodies shared by the end-to-end and traced runs ----------------------

/// One configure of the Table 1 pipeline and its outputs.
struct ConfigureOutcome {
  double lower = 0.0, sp = 0.0, heuristic = 0.0, upper = 0.0;
  std::uint64_t route_digest = 0;
};

/// One configure: SP maximize + Configurator::maximize (heuristic, k = 8)
/// over all pairs. `pool` may be nullptr (serial).
ConfigureOutcome configure_table1(const Scenario& scenario,
                                  util::ThreadPool* pool);

/// Gate the Table 1 outputs of one configure against the expected α values
/// (0.30 / 0.40 / 0.47 / 0.61) and the reference route digest. Returns an
/// empty string when the outcome is correct, else what differs.
std::string check_configure(const ConfigureOutcome& outcome,
                            const ConfigureOutcome& reference,
                            bool wrong_alpha);

/// A fixed-size uniform sample of call times (reservoir sampling), so that
/// memory, and with it peak RSS, does not grow with the calls a run makes.
class CallSamples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;

  void add(std::int64_t ns) {
    ++seen_;
    if (ns_.size() < kCapacity) {
      if (ns_.empty()) ns_.reserve(kCapacity);
      ns_.push_back(ns);
      return;
    }
    state_ ^= state_ << 13;  // xorshift64
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::uint64_t slot = state_ % seen_;
    if (slot < kCapacity) ns_[slot] = ns;
  }
  const std::vector<std::int64_t>& values() const { return ns_; }
  std::uint64_t seen() const { return seen_; }
  void clear() {
    ns_.clear();
    seen_ = 0;
  }

 private:
  std::vector<std::int64_t> ns_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ull;
};

/// Operations of the admission workloads, generated from the seed outside
/// any timed region.
struct ChurnOp {
  std::uint32_t pick = 0;    ///< release position (mod held count)
  std::uint16_t demand = 0;  ///< demand index of a request
  bool release = false;
};

/// Per-caller churn schedule: 60 % requests, 40 % releases. Callers cycle
/// through it when a run outlasts it.
inline constexpr std::size_t kChurnScheduleOps = std::size_t{1} << 20;
std::vector<ChurnOp> churn_schedule(std::uint64_t seed, std::size_t caller,
                                    std::size_t demand_count);

/// One closed-loop churn caller: schedule cursor, held flows and counts.
struct ChurnCaller {
  const std::vector<ChurnOp>* schedule = nullptr;
  std::size_t cursor = 0;
  std::vector<traffic::FlowId> held;
  std::uint64_t requests = 0;
  std::uint64_t releases = 0;
  std::uint64_t rejected = 0;      ///< kUtilizationExceeded outcomes
  /// kNoRoute / kBadClass outcomes and releases the controller refused.
  std::uint64_t failed = 0;
  CallSamples request_ns;  ///< sampled request() times
  CallSamples release_ns;  ///< sampled release() times
  std::uint64_t timed_ops = 0;     ///< calls made by the last run_churn
};

struct ChurnLimit {
  double seconds = 0.0;            ///< run this long; 0 = run `ops`
  std::uint64_t ops = 0;           ///< calls per caller when seconds == 0
  std::uint32_t sample_every = 0;  ///< time every n-th call (power of 2)
  const char* span = nullptr;      ///< bench span around each caller's run
};

/// Run every caller on its own thread against `ctl` and return the wall
/// seconds from the common start to the last caller's end.
double run_churn(admission::ConcurrentAdmissionController& ctl,
                 const std::vector<traffic::Demand>& demands,
                 std::vector<ChurnCaller>& callers, const ChurnLimit& limit);

/// Release every flow the callers hold. Refused releases count as failed.
void drain(admission::ConcurrentAdmissionController& ctl,
           std::vector<ChurnCaller>& callers);

/// Ledger gate after a drain: every real-time slot reads zero reserved
/// units, no watermark exceeds its budget, and no flow is active. Returns
/// an empty string when all hold, else the first violation.
std::string check_drained_ledger(
    const admission::ConcurrentAdmissionController& ctl);

/// Upper bound on flows the controller can hold at once: every flow holds
/// at least one (server, class) slot of the real-time budget.
std::size_t max_held_flows(const admission::ConcurrentAdmissionController& ctl,
                           const traffic::ClassSet& classes);

/// The saturated schedule of overload_batch, as kRounds rounds of 2
/// releases then 1024 requests; runs cycle through it. Requests are stored
/// resolved so admit_batch can take a contiguous span.
struct OverloadSchedule {
  static constexpr std::size_t kAdmitsPerRound = 1024;
  static constexpr std::size_t kReleasesPerRound = 2;
  static constexpr std::size_t kBatch = 16;
  /// admit_batch calls made back to back before their decisions are read.
  static constexpr std::size_t kGroupCalls = 8;
  static constexpr std::size_t kRounds = 512;
  std::vector<traffic::Demand> requests;  ///< rounds * kAdmitsPerRound
  std::vector<std::uint32_t> picks;       ///< rounds * kReleasesPerRound
};

OverloadSchedule overload_schedule(std::uint64_t seed,
                                   const std::vector<traffic::Demand>& demands);

/// Untimed prefill: round-robin request() over every demand until a whole
/// pass admits nothing, i.e. every route is at capacity.
template <class Controller>
void prefill(Controller& ctl, const std::vector<traffic::Demand>& demands,
             std::vector<traffic::FlowId>& held) {
  for (;;) {
    std::size_t admitted = 0;
    for (const auto& d : demands) {
      const auto decision = ctl.request(d.src, d.dst, d.class_index);
      if (decision.admitted()) {
        held.push_back(decision.flow_id);
        ++admitted;
      }
    }
    if (admitted == 0) return;
  }
}

struct OverloadRun {
  std::uint64_t rounds = 0;
  std::uint64_t ops = 0;  ///< requests decided plus flows released
  std::uint64_t rejected = 0;
  std::uint64_t hop0_rejects = 0;
  std::uint64_t released = 0;
  std::uint64_t failed = 0;  ///< refused releases, kNoRoute / kBadClass
  double seconds = 0.0;
  /// Per round, up to OverloadLimit::digest_rounds: digest of the
  /// positions admitted in it.
  std::vector<std::uint64_t> round_digest;
  CallSamples batch_ns;  ///< sampled admit_batch call times
  /// Sampled times of kGroupCalls back-to-back admit_batch calls.
  CallSamples group_ns;
  double admit_call_s = 0.0;       ///< time inside admit_batch (time_calls)
  double release_call_s = 0.0;     ///< time inside release_batch (time_calls)
};

struct OverloadLimit {
  std::uint64_t first_round = 0;   ///< schedule position to continue from
  double seconds = 0.0;            ///< run this long; 0 = run `rounds`
  std::uint64_t rounds = 0;
  /// Time every n-th admit_batch call (power of 2) and one group of
  /// calls per round.
  std::uint32_t sample_every = 0;
  bool time_calls = false;         ///< time every batch call
  std::uint64_t digest_rounds = ~std::uint64_t{0};  ///< rounds to digest
};

/// Replay rounds through admit_batch(kBatch) / release_batch on one caller.
OverloadRun run_overload_batched(admission::ConcurrentAdmissionController& ctl,
                                 const OverloadSchedule& schedule,
                                 std::vector<traffic::FlowId>& held,
                                 const OverloadLimit& limit);

/// The same rounds through per-call request() / release() of the
/// double-precision oracle controller.
OverloadRun run_overload_oracle(admission::SequentialAdmissionController& ctl,
                                const OverloadSchedule& schedule,
                                std::vector<traffic::FlowId>& held,
                                std::uint64_t rounds);

// -- small helpers ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The q-quantile (0..1) of `values` by linear interpolation; sorts.
double quantile(std::vector<double>& values, double q);

/// The q-quantile of call times read off a 1 ns clock. Each reading
/// stands for the 1 ns bin around it, and the quantile is interpolated
/// inside its bin (the grouped-data estimate), so that ties at the clock
/// resolution do not pin the result to a whole nanosecond.
double timer_quantile(std::vector<std::int64_t> ns, double q);
double median(std::vector<double> values);

/// Runs are measured in slices of about this length, and each metric is
/// the median over slices, so that a burst of interference from other
/// tenants of the host, shorter than half the run, does not move it.
inline constexpr double kSliceSeconds = 0.5;

/// FNV-1a step, for route and decision digests.
inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

}  // namespace perfbench
