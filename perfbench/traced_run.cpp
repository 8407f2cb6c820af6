// The traced run (--trace 1): per-layer metrics of both pipelines.
//
// Layers are timed from outside, by calling each layer's public functions
// on the workload inputs. Then every pipeline body runs twice on the same
// schedule, untraced and with a SpanRecorder installed; bench-owned spans
// wrap each phase and chunk of operations, and the program's own UBAC_SPAN
// sites record inside them. Span self times give the per-layer breakdown;
// traced over untraced body time gives the tracing overhead.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>

#include "analysis/engine.hpp"
#include "analysis/fixed_point.hpp"
#include "config/configurator.hpp"
#include "net/ksp.hpp"
#include "perfbench.hpp"
#include "routing/max_util_search.hpp"
#include "routing/route_selection.hpp"
#include "stacks.hpp"
#include "telemetry/span.hpp"

namespace perfbench {
namespace {

/// The span sites whose self time and count are per-layer metrics.
constexpr const char* kSpanSites[] = {
    "config.maximize",    "maxutil.probe", "maxutil.reverify",
    "route.select_pair",  "route.final_verify", "engine.solve",
    "engine.probe_route", "config.commit", "admission.request"};

double mean(const CallSamples& samples) {
  const auto& v = samples.values();
  return v.empty() ? 0.0
                   : static_cast<double>(
                         std::accumulate(v.begin(), v.end(), std::int64_t{0})) /
                         static_cast<double>(v.size());
}

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

/// Completed spans, moved out of the recorder's ring between chunks of
/// work so that none is lost to the ring wrapping.
class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity) : recorder_(capacity) {}
  ~SpanCollector() { uninstall(); }
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void install() { telemetry::SpanRecorder::install(&recorder_); }
  void uninstall() {
    if (telemetry::SpanRecorder::active() == &recorder_)
      telemetry::SpanRecorder::install(nullptr);
  }

  /// Take the spans completed since the last call, keeping them while
  /// `keep()` is on. Every thread that records must be quiescent.
  void collect() {
    const std::uint64_t recorded = recorder_.recorded();
    std::uint64_t kept = 0;
    for (const auto& ev : recorder_.snapshot()) {
      if (ev.seq < taken_) continue;
      if (keep_) spans_.push_back(ev);
      ++kept;
    }
    lost_ += (recorded - taken_) - kept;
    taken_ = recorded;
  }
  /// Spans of repeated traced bodies after the first are dropped, so each
  /// site is counted over one body run.
  void keep(bool on) { keep_ = on; }

  const std::vector<telemetry::SpanEvent>& spans() const { return spans_; }
  std::uint64_t lost() const { return lost_; }
  std::int64_t epoch_ns() const { return telemetry::span_epoch_ns(recorder_); }

 private:
  telemetry::SpanRecorder recorder_;
  std::vector<telemetry::SpanEvent> spans_;
  std::uint64_t taken_ = 0;
  std::uint64_t lost_ = 0;
  bool keep_ = true;
};

/// Tracing overhead of a body: untraced and traced runs alternate, and the
/// medians compare. Spans are kept from the first traced run only.
template <class Body>
double overhead(SpanCollector& spans, Body body) {
  constexpr int kPairs = 3;
  std::vector<double> plain, traced;
  for (int i = 0; i < kPairs; ++i) {
    plain.push_back(body(false));
    spans.keep(i == 0);
    traced.push_back(body(true));
  }
  spans.keep(true);
  return median(traced) / median(plain) - 1.0;
}

struct SpanTotals {
  double self_ns = 0.0;
  double total_ns = 0.0;
  std::uint64_t count = 0;
};

/// Self time per span name: a span's duration minus the part of it that
/// its child spans on the same thread cover.
std::map<std::string, SpanTotals> self_times(
    std::vector<telemetry::SpanEvent> spans) {
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.duration_ns > b.duration_ns;
  });
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].thread != spans[i - 1].thread) open.clear();
    while (!open.empty() && spans[open.back()].start_ns +
                                    spans[open.back()].duration_ns <=
                                spans[i].start_ns)
      open.pop_back();
    if (!open.empty()) child_ns[open.back()] += spans[i].duration_ns;
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.self_ns += static_cast<double>(spans[i].duration_ns - child_ns[i]);
    t.total_ns += static_cast<double>(spans[i].duration_ns);
    ++t.count;
  }
  return totals;
}

void gate_configure(Report& report, const ConfigureOutcome& outcome,
                    const ConfigureOutcome& reference, bool wrong_alpha) {
  const std::string why = check_configure(outcome, reference, wrong_alpha);
  report.operations(1, why.empty() ? 0 : 1);
  if (!why.empty()) report.gate("trace.configure.table1_reproduced", false, why);
}

// -- config-time layers ------------------------------------------------------

void configure_layers(const Options& options, Report& report) {
  ConfigureStack stack(options.callers);
  const Scenario& s = stack.scenario;
  const bool wrong_alpha = options.inject == "wrong-alpha";
  const ConfigureOutcome reference = configure_table1(s, &stack.pool);
  gate_configure(report, reference, reference, wrong_alpha);

  std::vector<double> pooled, serial;
  for (int i = 0; i < 3; ++i) {
    auto t = Clock::now();
    gate_configure(report, configure_table1(s, &stack.pool), reference,
                   wrong_alpha);
    pooled.push_back(ms_since(t));
    t = Clock::now();
    gate_configure(report, configure_table1(s, nullptr), reference,
                   wrong_alpha);
    serial.push_back(ms_since(t));
  }
  report.metric("routing.pool_speedup", median(serial) / median(pooled),
                "ratio");
  report.info("configure_pooled_ms_p50", median(pooled), "ms");
  report.info("configure_serial_ms_p50", median(serial), "ms");
  report.info("pool_threads", static_cast<double>(options.callers), "count");

  std::vector<double> ksp_ms;
  std::vector<std::vector<net::NodePath>> candidates;
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    candidates.clear();
    for (const auto& d : s.demands)
      candidates.push_back(net::k_shortest_paths(s.topo, d.src, d.dst, 8));
    ksp_ms.push_back(ms_since(t));
  }
  report.metric("net.ksp_ms", median(ksp_ms), "ms");

  routing::HeuristicOptions heuristic;
  heuristic.candidates_per_pair = 8;
  heuristic.pool = &stack.pool;
  const auto best = routing::maximize_utilization_heuristic(
      s.graph, s.bucket, s.deadline, s.demands, heuristic);
  report.metric("routing.probes", best.probes, "count");
  report.metric("routing.reverify_hits", best.reverify_hits, "count");
  const double alpha = best.max_alpha;

  std::vector<double> select_ms;
  bool selected = true;
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    selected &= routing::select_routes_heuristic(s.graph, alpha, s.bucket,
                                                 s.deadline, s.demands,
                                                 heuristic)
                    .success;
    select_ms.push_back(ms_since(t));
  }
  report.metric("routing.select_ms", median(select_ms), "ms");
  report.gate("trace.routing.select_feasible", selected,
              "heuristic selection failed at its own maximum alpha");

  std::vector<double> solve_ms;
  bool safe = true;
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    safe &= analysis::solve_two_class(s.graph, alpha, s.bucket, s.deadline,
                                      best.best.server_routes)
                .safe();
    solve_ms.push_back(ms_since(t));
  }
  report.metric("analysis.solve_cold_ms", median(solve_ms), "ms");
  report.gate("trace.analysis.solve_safe", safe,
              "cold solve of the Table 1 configuration is not safe");

  analysis::AnalysisEngine engine(s.graph, alpha, s.bucket, s.deadline);
  for (const auto& route : best.best.server_routes) engine.add_route(route);
  engine.solve();
  std::vector<net::ServerPath> probes;
  for (const auto& pair : candidates)
    for (const auto& path : pair) probes.push_back(s.graph.map_path(path));
  std::vector<double> probe_us;
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    for (const auto& route : probes) engine.probe_route(route);
    probe_us.push_back(seconds_since(t) * 1e6 /
                       static_cast<double>(probes.size()));
  }
  report.metric("analysis.probe_us", median(probe_us), "us");

  const config::Configurator configurator(s.graph, s.bucket, s.deadline);
  std::vector<double> commit_ms;
  bool committed = true;
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    committed &= configurator.verify(alpha, s.demands, best.best.routes).success;
    commit_ms.push_back(ms_since(t));
  }
  report.metric("config.commit_ms", median(commit_ms), "ms");
  report.gate("trace.config.commit_verifies", committed,
              "Configurator::verify rejected the Table 1 configuration");
}

// -- run-time layers -----------------------------------------------------------

constexpr std::uint64_t kWarmupOps = 200'000;

std::vector<ChurnCaller> make_callers(
    const std::vector<std::vector<ChurnOp>>& schedules, std::size_t n) {
  std::vector<ChurnCaller> callers(n);
  for (std::size_t i = 0; i < n; ++i) callers[i].schedule = &schedules[i];
  return callers;
}

void count_churn(Report& report, const std::vector<ChurnCaller>& callers) {
  std::uint64_t calls = 0, failed = 0;
  for (const auto& c : callers) {
    calls += c.requests + c.releases;
    failed += c.failed;
  }
  report.operations(calls, failed);
}

/// Warm up from an empty ledger, then run `ops` calls per caller; returns
/// the measured seconds. The callers keep their flows.
double churn_run(admission::ConcurrentAdmissionController& ctl,
                 const std::vector<traffic::Demand>& demands,
                 std::vector<ChurnCaller>& callers, std::uint64_t ops,
                 std::uint32_t sample_every = 0) {
  run_churn(ctl, demands, callers, {0.0, kWarmupOps, 0, nullptr});
  return run_churn(ctl, demands, callers, {0.0, ops, sample_every, nullptr});
}

void gate_ledger(Report& report, const std::string& name,
                 const admission::ConcurrentAdmissionController& ctl) {
  const std::string why = check_drained_ledger(ctl);
  report.gate(name, why.empty(), why);
}

void admission_layers(const Options& options, Report& report) {
  constexpr std::uint64_t kOps = 2'000'000;
  const std::size_t n = options.callers;
  AdmissionStack bare;
  const auto& demands = bare.scenario.demands;
  std::vector<std::vector<ChurnOp>> schedules;
  for (std::size_t i = 0; i < n; ++i)
    schedules.push_back(churn_schedule(options.seed, i, demands.size()));

  auto one = make_callers(schedules, 1);
  const double bare_s = churn_run(bare.ctl, demands, one, kOps);
  report.metric("admission.reject_frac",
                static_cast<double>(one[0].rejected) /
                    static_cast<double>(one[0].requests),
                "ratio");
  count_churn(report, one);
  drain(bare.ctl, one);

  auto many = make_callers(schedules, n);
  const double many_s = churn_run(bare.ctl, demands, many, kOps / 2);
  count_churn(report, many);
  drain(bare.ctl, many);
  const double dps_1 = static_cast<double>(kOps) / bare_s;
  const double dps_n = static_cast<double>(n * kOps / 2) / many_s;
  report.metric("admission.bare_dps_t1", dps_1, "1/s");
  report.metric("admission.bare_dps_tN", dps_n, "1/s");
  report.metric("admission.scaling_ratio", dps_n / dps_1, "ratio");

  // Per-call times, sampled on every 4th call of a separate run.
  auto timed = make_callers(schedules, 1);
  churn_run(bare.ctl, demands, timed, kOps / 2, 4);
  report.metric("admission.admit_ns", mean(timed[0].request_ns), "ns");
  report.metric("admission.release_ns", mean(timed[0].release_ns), "ns");
  std::uint64_t missing = 0;
  const auto t = Clock::now();
  for (const auto id : timed[0].held)
    if (!bare.ctl.find_flow(id)) ++missing;
  report.metric("admission.find_flow_ns",
                seconds_since(t) * 1e9 /
                    static_cast<double>(std::max<std::size_t>(1, timed[0].held.size())),
                "ns");
  report.gate("trace.admission.find_flow_held", missing == 0,
              std::to_string(missing) + " held flows not found");
  count_churn(report, timed);
  drain(bare.ctl, timed);
  gate_ledger(report, "trace.admission.bare_ledger_drained", bare.ctl);

  // serve's instruments, first without the ArrivalRecorder, then with it.
  ServeStack serve(options.inject == "small-recorder");
  auto hooked = make_callers(schedules, 1);
  const double hooked_s = churn_run(serve.ctl, demands, hooked, kOps);
  const double bare_ns = bare_s * 1e9 / static_cast<double>(kOps);
  const double hooked_ns = hooked_s * 1e9 / static_cast<double>(kOps);
  report.metric("telemetry.hook_ns_per_decision", hooked_ns - bare_ns, "ns");
  report.metric("admission.rollback_hops_per_reject",
                static_cast<double>(serve.telemetry.rollback_hops->value()) /
                    static_cast<double>(std::max<std::uint64_t>(1, hooked[0].rejected)),
                "ratio");
  report.metric("telemetry.tracer_events",
                static_cast<double>(serve.tracer.recorded()), "count");
  count_churn(report, hooked);
  drain(serve.ctl, hooked);

  telemetry::ArrivalRecorder::install(&serve.recorder);
  auto conformant = make_callers(schedules, 1);
  const double conformance_s = churn_run(serve.ctl, demands, conformant, kOps);
  count_churn(report, conformant);
  drain(serve.ctl, conformant);
  telemetry::ArrivalRecorder::install(nullptr);
  report.metric("telemetry.conformance_hook_ns",
                conformance_s * 1e9 / static_cast<double>(kOps) - hooked_ns,
                "ns");
  const auto dropped = serve.recorder.dropped_registrations();
  const auto admitted =
      conformant[0].requests - conformant[0].rejected - conformant[0].failed;
  report.metric("telemetry.conformance_dropped_registrations",
                static_cast<double>(dropped), "count");
  report.gate("trace.telemetry.recorder_registers_flows",
              static_cast<double>(dropped) <=
                  kMaxDroppedRegistrationFrac * static_cast<double>(admitted),
              std::to_string(dropped) + " of " + std::to_string(admitted) +
                  " registrations dropped");
  gate_ledger(report, "trace.admission.serve_ledger_drained", serve.ctl);
}

void overload_layers(const Options& options, Report& report) {
  constexpr std::uint64_t kRounds = 4096;
  AdmissionStack inputs;
  const auto schedule =
      overload_schedule(options.seed, inputs.scenario.demands);
  OverloadLimit limit;
  limit.rounds = kRounds;

  OverloadStack fast_stack;
  const OverloadRun fast =
      run_overload_batched(fast_stack.ctl, schedule, fast_stack.held, limit);
  const double fast_dps = static_cast<double>(fast.ops) / fast.seconds;
  report.metric("admission.hop0_reject_frac",
                static_cast<double>(fast.hop0_rejects) /
                    static_cast<double>(std::max<std::uint64_t>(1, fast.rejected)),
                "ratio");

  OverloadStack call_stack;
  limit.time_calls = true;
  const OverloadRun calls =
      run_overload_batched(call_stack.ctl, schedule, call_stack.held, limit);
  report.metric("admission.batch_ns_per_decision",
                calls.admit_call_s * 1e9 /
                    static_cast<double>(kRounds * OverloadSchedule::kAdmitsPerRound),
                "ns");
  report.metric("admission.release_batch_ns_per_flow",
                calls.release_call_s * 1e9 /
                    static_cast<double>(std::max<std::uint64_t>(1, calls.released)),
                "ns");

  admission::SequentialAdmissionController oracle(
      inputs.scenario.graph, inputs.classes,
      admission::RoutingTable(inputs.scenario.demands, inputs.routes));
  std::vector<traffic::FlowId> held;
  prefill(oracle, inputs.scenario.demands, held);
  const OverloadRun reference = run_overload_oracle(oracle, schedule, held, kRounds);
  const double oracle_dps = static_cast<double>(reference.ops) / reference.seconds;
  report.metric("admission.oracle_dps", oracle_dps, "1/s");
  report.metric("admission.fastpath_speedup", fast_dps / oracle_dps, "ratio");
  report.operations(fast.ops + calls.ops, fast.failed + calls.failed);
  report.gate("trace.overload.matches_oracle",
              fast.round_digest == reference.round_digest &&
                  calls.round_digest == reference.round_digest,
              "batch path admits a different set than the oracle");
}

// -- traced pipeline bodies ------------------------------------------------------

/// Configure body: untraced, then traced; returns traced / untraced - 1.
double traced_configure(const Options& options, Report& report,
                        SpanCollector& spans) {
  constexpr int kConfigures = 4;
  ConfigureStack stack(options.callers);
  const bool wrong_alpha = options.inject == "wrong-alpha";
  const ConfigureOutcome reference = configure_table1(stack.scenario, &stack.pool);
  const auto body = [&](bool traced) {
    double seconds = 0.0;
    if (traced) spans.install();
    {
      telemetry::ScopedSpan phase("bench.phase.configure", "bench");
      for (int i = 0; i < kConfigures; ++i) {
        const auto t = Clock::now();
        {
          telemetry::ScopedSpan chunk("bench.configure", "bench");
          gate_configure(report, configure_table1(stack.scenario, &stack.pool),
                         reference, wrong_alpha);
        }
        seconds += seconds_since(t);
        if (traced) spans.collect();
      }
    }
    if (traced) {
      spans.uninstall();
      spans.collect();
    }
    return seconds;
  };
  return overhead(spans, body);
}

/// churn_serve body (1 caller, then N callers, on serve's instrument set):
/// untraced, then traced; returns traced / untraced - 1.
double traced_churn(const Options& options, Report& report,
                    SpanCollector& spans) {
  constexpr std::uint64_t kChunkOps = 16'384;
  constexpr int kChunks = 8;
  ServeStack stack(options.inject == "small-recorder");
  const auto& demands = stack.scenario.demands;
  std::vector<std::vector<ChurnOp>> schedules;
  for (std::size_t i = 0; i < options.callers; ++i)
    schedules.push_back(churn_schedule(options.seed, i, demands.size()));

  telemetry::ArrivalRecorder::install(&stack.recorder);
  const auto body = [&](bool traced) {
    double seconds = 0.0;
    for (const std::size_t n : {std::size_t{1}, options.callers}) {
      auto callers = make_callers(schedules, n);
      run_churn(stack.ctl, demands, callers, {0.0, kWarmupOps, 0, nullptr});
      if (traced) spans.install();
      {
        telemetry::ScopedSpan phase(
            n == 1 ? "bench.phase.churn_1" : "bench.phase.churn_n", "bench");
        for (int k = 0; k < kChunks; ++k) {
          seconds += run_churn(stack.ctl, demands, callers,
                               {0.0, kChunkOps, 0, "bench.churn.chunk"});
          if (traced) spans.collect();
        }
      }
      if (traced) {
        spans.uninstall();
        spans.collect();
      }
      count_churn(report, callers);
      drain(stack.ctl, callers);
    }
    return seconds;
  };
  const double result = overhead(spans, body);
  telemetry::ArrivalRecorder::install(nullptr);
  gate_ledger(report, "trace.churn.ledger_drained", stack.ctl);
  return result;
}

/// overload_batch body: untraced, then traced on a fresh prefilled
/// controller; returns traced / untraced - 1.
double traced_overload(const Options& options, Report& report,
                       SpanCollector& spans) {
  constexpr std::uint64_t kChunkRounds = 256;
  constexpr int kChunks = 16;
  const Scenario inputs;
  const auto schedule =
      overload_schedule(options.seed, inputs.demands);
  std::vector<std::uint64_t> digests[2];
  const auto body = [&](bool traced) {
    OverloadStack stack;
    OverloadLimit limit;
    limit.rounds = kChunkRounds;
    run_overload_batched(stack.ctl, schedule, stack.held, limit);
    double seconds = 0.0;
    if (traced) spans.install();
    {
      telemetry::ScopedSpan phase("bench.phase.overload", "bench");
      for (int k = 0; k < kChunks; ++k) {
        limit.first_round = (k + 1) * kChunkRounds;
        OverloadRun run;
        {
          telemetry::ScopedSpan chunk("bench.overload.chunk", "bench");
          run = run_overload_batched(stack.ctl, schedule, stack.held, limit);
        }
        seconds += run.seconds;
        report.operations(run.ops, run.failed);
        auto& d = digests[traced ? 1 : 0];
        d.insert(d.end(), run.round_digest.begin(), run.round_digest.end());
        if (traced) spans.collect();
      }
    }
    if (traced) {
      spans.uninstall();
      spans.collect();
    }
    return seconds;
  };
  const double result = overhead(spans, body);
  report.gate("trace.overload.tracing_keeps_decisions", digests[0] == digests[1],
              "traced runs admitted a different set than untraced runs");
  return result;
}

void write_trace(const Options& options, const SpanCollector& spans) {
  // Per-decision sites are capped so the file stays loadable.
  constexpr std::uint64_t kPerName = 20'000;
  telemetry::ChromeTraceWriter writer;
  writer.add_process_name(1, "ubac perfbench");
  std::map<std::string, std::uint64_t> written;
  const std::int64_t epoch = spans.epoch_ns();
  for (const auto& s : spans.spans()) {
    if (++written[s.name] > kPerName) continue;
    writer.add_complete_event(s.name, s.category, 1, static_cast<int>(s.thread),
                              static_cast<double>(s.start_ns - epoch) / 1e3,
                              static_cast<double>(s.duration_ns) / 1e3);
  }
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  std::filesystem::create_directories(options.out_dir);
  writer.write(path);
  std::printf("[%s] Perfetto trace written to %s\n", options.workload.c_str(),
              path.c_str());
}

}  // namespace

void run_traced(const Options& options, Report& report) {
  configure_layers(options, report);
  admission_layers(options, report);
  overload_layers(options, report);

  SpanCollector spans(std::size_t{1} << 17);
  const std::pair<const char*, double> overheads[] = {
      {"configure_mci", traced_configure(options, report, spans)},
      {"churn_serve", traced_churn(options, report, spans)},
      {"overload_batch", traced_overload(options, report, spans)}};

  const auto totals = self_times(spans.spans());
  for (const char* site : kSpanSites) {
    const auto it = totals.find(site);
    const SpanTotals t = it == totals.end() ? SpanTotals{} : it->second;
    report.metric(std::string("span.") + site + ".self_ms", t.self_ns * 1e-6,
                  "ms");
    report.metric(std::string("span.") + site + ".count",
                  static_cast<double>(t.count), "count");
  }
  for (const auto& [name, t] : totals)
    report.info("span." + name + ".total_ms", t.total_ns * 1e-6, "ms");
  for (const auto& [workload, overhead] : overheads) {
    if (workload == options.workload)
      report.metric("trace.overhead_frac", overhead, "ratio");
    else if (options.workload == "all")
      report.metric(std::string("trace.overhead_frac.") + workload, overhead,
                    "ratio");
    report.info(std::string("trace.overhead_frac.") + workload, overhead,
                "ratio");
  }
  report.info("trace.spans", static_cast<double>(spans.spans().size()), "count");
  report.info("trace.lost_spans", static_cast<double>(spans.lost()), "count");
  write_trace(options, spans);
}

}  // namespace perfbench
