#pragma once

/// \file stacks.hpp
/// \brief The program objects each workload sets up before it measures.
/// Their construction is what setup_s times.

#include <bit>
#include <memory>
#include <vector>

#include "admission/controller.hpp"
#include "admission/routing_table.hpp"
#include "admission/telemetry.hpp"
#include "analysis/engine.hpp"
#include "perfbench.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/metrics.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// The scenario and configtool's default candidate-scoring pool of
/// min(4, nproc) threads.
struct ConfigureStack {
  explicit ConfigureStack(std::size_t threads) : pool(threads) {}
  Scenario scenario;
  util::ThreadPool pool;
};

/// Bare controller over the SP routes at the serve share.
struct AdmissionStack {
  AdmissionStack()
      : routes(shortest_routes(scenario)),
        classes(traffic::ClassSet::two_class(scenario.bucket,
                                             scenario.deadline, kServeAlpha)),
        ctl(scenario.graph, classes,
            admission::RoutingTable(scenario.demands, routes)) {}

  Scenario scenario;
  std::vector<net::ServerPath> routes;
  traffic::ClassSet classes;
  admission::ConcurrentAdmissionController ctl;
};

/// What serve --conformance puts on the decision path: the share verified
/// by the analysis engine, ControllerTelemetry with an EventTracer(8192)
/// at sampling 1.0, and an ArrivalRecorder behind the admission gate.
struct ServeStack : AdmissionStack {
  explicit ServeStack(bool small_recorder)
      : telemetry(registry, "serve", &tracer),
        recorder(recorder_options(small_recorder)) {
    analysis::AnalysisEngine engine(scenario.graph, kServeAlpha,
                                    scenario.bucket, scenario.deadline);
    for (const auto& route : routes) engine.add_route(route);
    verified = engine.solve().safe();
    ctl.attach_telemetry(&telemetry);
  }

  /// Capacity at least 1.5x the most flows the ledger can hold, so probe
  /// windows stay short and registrations almost never drop. Serve's own
  /// 8192 slots (small_recorder) overflow under this churn.
  telemetry::ArrivalRecorder::Options recorder_options(bool small_recorder) {
    telemetry::ArrivalRecorder::Options o;
    o.capacity = small_recorder ? 8192
                                : std::bit_ceil(max_held_flows(ctl, classes) *
                                                3 / 2);
    return o;
  }

  bool verified = false;
  telemetry::MetricsRegistry registry;
  telemetry::EventTracer tracer{8192};
  admission::ControllerTelemetry telemetry;
  telemetry::ArrivalRecorder recorder;
};

/// Registrations the ArrivalRecorder may drop before a run counts as
/// measuring its overflow path rather than its registration path. The
/// recorder probes at most 16 slots, so even a table four times larger
/// than the held-flow count drops a few registrations per million.
inline constexpr double kMaxDroppedRegistrationFrac = 1e-4;

/// Bare controller prefilled to capacity: the state overload_batch starts in.
struct OverloadStack : AdmissionStack {
  OverloadStack() { prefill(ctl, scenario.demands, held); }
  std::vector<traffic::FlowId> held;
};

/// Set-ups timed before and again after the measurement of a run; setup_s
/// is the median of all of them, so one slow moment of the host does not
/// decide it.
inline constexpr int kSetupRepeats = 5;

/// Build `make()` `repeats` times, keeping the last in `out`, and append
/// each build time in seconds to `times`.
template <class T, class Make>
void timed_setup(std::unique_ptr<T>& out, int repeats, const Make& make,
                 std::vector<double>& times) {
  for (int i = 0; i < repeats; ++i) {
    out.reset();
    const auto start = Clock::now();
    out = make();
    times.push_back(seconds_since(start));
  }
}

}  // namespace perfbench
