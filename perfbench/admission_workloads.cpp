// The run-time workloads: churn_serve (admit/release churn against a
// controller instrumented like `ubac_configtool serve --conformance`) and
// overload_batch (saturated batch admission on a bare controller).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "admission/routing_table.hpp"
#include "admission/telemetry.hpp"
#include "perfbench.hpp"
#include "stacks.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace perfbench {

namespace {

using admission::AdmissionDecision;
using admission::AdmissionOutcome;

std::int64_t elapsed_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// One closed-loop call: a release of a held flow or a request.
template <bool kTimed>
inline void churn_step(admission::ConcurrentAdmissionController& ctl,
                       const std::vector<traffic::Demand>& demands,
                       ChurnCaller& c) {
  const ChurnOp& op = (*c.schedule)[c.cursor++ & (kChurnScheduleOps - 1)];
  if (op.release && !c.held.empty()) {
    const std::size_t pos = op.pick % c.held.size();
    bool released;
    if (kTimed) {
      const auto start = Clock::now();
      released = ctl.release(c.held[pos]);
      c.release_ns.add(elapsed_ns(start));
    } else {
      released = ctl.release(c.held[pos]);
    }
    if (!released) ++c.failed;
    c.held[pos] = c.held.back();
    c.held.pop_back();
    ++c.releases;
    return;
  }
  const traffic::Demand& d = demands[op.demand];
  ++c.requests;
  AdmissionDecision decision;
  if (kTimed) {
    const auto start = Clock::now();
    decision = ctl.request(d.src, d.dst, d.class_index);
    c.request_ns.add(elapsed_ns(start));
  } else {
    decision = ctl.request(d.src, d.dst, d.class_index);
  }
  if (decision.admitted()) {
    c.held.push_back(decision.flow_id);
  } else if (decision.outcome == AdmissionOutcome::kUtilizationExceeded) {
    ++c.rejected;
  } else {
    ++c.failed;
  }
}

void churn_ops(admission::ConcurrentAdmissionController& ctl,
               const std::vector<traffic::Demand>& demands, ChurnCaller& c,
               std::uint64_t n, std::uint32_t sample_every) {
  const std::uint64_t mask = sample_every == 0 ? 0 : sample_every - 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (sample_every != 0 && ((c.cursor & mask) == mask))
      churn_step<true>(ctl, demands, c);
    else
      churn_step<false>(ctl, demands, c);
  }
}

}  // namespace

double run_churn(admission::ConcurrentAdmissionController& ctl,
                 const std::vector<traffic::Demand>& demands,
                 std::vector<ChurnCaller>& callers, const ChurnLimit& limit) {
  const std::size_t n = callers.size();
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  bool abandon = false;  // published by `go`
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<Clock::time_point> ends(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  const auto release_and_join = [&] {
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
  };
  try {
    for (std::size_t i = 0; i < n; ++i)
      threads.emplace_back([&, i] {
        ChurnCaller& c = callers[i];
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (abandon) return;
        std::optional<telemetry::ScopedSpan> span;
        if (limit.span != nullptr) span.emplace(limit.span, "bench");
        std::uint64_t ops = 0;
        if (limit.seconds > 0.0) {
          constexpr std::uint64_t kStride = 256;
          do {
            churn_ops(ctl, demands, c, kStride, limit.sample_every);
            ops += kStride;
          } while (Clock::now() < deadline);
        } else {
          churn_ops(ctl, demands, c, limit.ops, limit.sample_every);
          ops = limit.ops;
        }
        c.timed_ops = ops;
        ends[i] = Clock::now();
      });
  } catch (...) {
    // A thread failed to start: let the started ones return, then rethrow.
    abandon = true;
    release_and_join();
    throw;
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(limit.seconds));
  release_and_join();
  const auto last = *std::max_element(ends.begin(), ends.end());
  return std::chrono::duration<double>(last - start).count();
}

void drain(admission::ConcurrentAdmissionController& ctl,
           std::vector<ChurnCaller>& callers) {
  for (auto& c : callers) {
    for (const auto id : c.held)
      if (!ctl.release(id)) ++c.failed;
    c.held.clear();
  }
}

std::string check_drained_ledger(
    const admission::ConcurrentAdmissionController& ctl) {
  char buf[160];
  for (std::size_t c = 0; c < ctl.classes().size(); ++c) {
    if (!ctl.classes().at(c).realtime) continue;
    for (net::ServerId s = 0; s < ctl.server_count(); ++s) {
      if (ctl.reserved_units(s, c) != 0) {
        std::snprintf(buf, sizeof(buf),
                      "server %u class %zu holds %llu units after drain", s, c,
                      static_cast<unsigned long long>(ctl.reserved_units(s, c)));
        return buf;
      }
      const double limit = traffic::bps_from_units(ctl.limit_units(s, c));
      if (ctl.peak_reserved_rate(s, c) > limit) {
        std::snprintf(buf, sizeof(buf),
                      "server %u class %zu peaked at %.0f b/s over limit %.0f",
                      s, c, ctl.peak_reserved_rate(s, c), limit);
        return buf;
      }
    }
  }
  if (ctl.active_flows() != 0)
    return std::to_string(ctl.active_flows()) + " flows active after drain";
  return "";
}

std::size_t max_held_flows(const admission::ConcurrentAdmissionController& ctl,
                           const traffic::ClassSet& classes) {
  std::size_t bound = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (!classes.at(c).realtime) continue;
    const traffic::RateUnits rho = classes.at(c).spec.rate_units;
    for (net::ServerId s = 0; s < ctl.server_count(); ++s)
      bound += static_cast<std::size_t>(ctl.limit_units(s, c) / rho);
  }
  return bound;
}

OverloadRun run_overload_batched(admission::ConcurrentAdmissionController& ctl,
                                 const OverloadSchedule& schedule,
                                 std::vector<traffic::FlowId>& held,
                                 const OverloadLimit& limit) {
  constexpr std::size_t kBatch = OverloadSchedule::kBatch;
  constexpr std::size_t kGroupCalls = OverloadSchedule::kGroupCalls;
  constexpr std::size_t kGroups =
      OverloadSchedule::kAdmitsPerRound / (kGroupCalls * kBatch);
  OverloadRun run;
  AdmissionDecision decisions[kGroupCalls * kBatch];
  std::vector<traffic::FlowId> release_ids;
  release_ids.reserve(OverloadSchedule::kReleasesPerRound);
  const std::uint32_t mask = limit.sample_every == 0 ? 0 : limit.sample_every - 1;
  std::uint64_t batch_calls = 0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(limit.seconds));
  for (std::uint64_t r = 0;; ++r) {
    if (limit.seconds > 0.0 ? Clock::now() >= deadline : r >= limit.rounds)
      break;
    const std::size_t round = (limit.first_round + r) % OverloadSchedule::kRounds;
    release_ids.clear();
    for (std::size_t k = 0; k < OverloadSchedule::kReleasesPerRound; ++k) {
      if (held.empty()) break;
      const std::size_t pos =
          schedule.picks[round * OverloadSchedule::kReleasesPerRound + k] %
          held.size();
      release_ids.push_back(held[pos]);
      held[pos] = held.back();
      held.pop_back();
    }
    std::size_t released;
    if (limit.time_calls) {
      const auto t = Clock::now();
      released = ctl.release_batch(release_ids);
      run.release_call_s += seconds_since(t);
    } else {
      released = ctl.release_batch(release_ids);
    }
    run.released += released;
    run.failed += release_ids.size() - released;

    // The round's calls run in groups of kGroupCalls back-to-back
    // admit_batch calls whose decisions are read after the group. When
    // sampling, one group per round (a different one each round) is timed
    // as a whole, and the other calls are sampled one at a time.
    const std::size_t timed_group =
        mask == 0 || limit.time_calls ? kGroups : r % kGroups;
    std::uint64_t digest = kFnvBasis;
    const traffic::Demand* requests =
        &schedule.requests[round * OverloadSchedule::kAdmitsPerRound];
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::size_t first = g * kGroupCalls * kBatch;
      const auto call = [&](std::size_t c) {
        ctl.admit_batch({requests + first + c * kBatch, kBatch},
                        {decisions + c * kBatch, kBatch});
      };
      if (g == timed_group) {
        const auto t = Clock::now();
        for (std::size_t c = 0; c < kGroupCalls; ++c) call(c);
        run.group_ns.add(elapsed_ns(t));
      } else {
        for (std::size_t c = 0; c < kGroupCalls; ++c) {
          ++batch_calls;
          if (limit.time_calls || (mask != 0 && (batch_calls & mask) == 0)) {
            const auto t = Clock::now();
            call(c);
            const std::int64_t ns = elapsed_ns(t);
            if (limit.time_calls)
              run.admit_call_s += static_cast<double>(ns) * 1e-9;
            if (mask != 0 && (batch_calls & mask) == 0) run.batch_ns.add(ns);
          } else {
            call(c);
          }
        }
      }
      for (std::size_t k = 0; k < kGroupCalls * kBatch; ++k) {
        const AdmissionDecision& d = decisions[k];
        if (d.admitted()) {
          held.push_back(d.flow_id);
          digest = fnv(digest, first + k);
        } else if (d.outcome == AdmissionOutcome::kUtilizationExceeded) {
          ++run.rejected;
          if (d.blocking_hop == 0) ++run.hop0_rejects;
        } else {
          ++run.failed;
        }
      }
    }
    if (r < limit.digest_rounds) run.round_digest.push_back(digest);
    ++run.rounds;
    run.ops += OverloadSchedule::kAdmitsPerRound + release_ids.size();
  }
  run.seconds = seconds_since(start);
  return run;
}

OverloadRun run_overload_oracle(admission::SequentialAdmissionController& ctl,
                                const OverloadSchedule& schedule,
                                std::vector<traffic::FlowId>& held,
                                std::uint64_t rounds) {
  OverloadRun run;
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::size_t round = r % OverloadSchedule::kRounds;
    std::size_t releases = 0;
    for (std::size_t k = 0; k < OverloadSchedule::kReleasesPerRound; ++k) {
      if (held.empty()) break;
      const std::size_t pos =
          schedule.picks[round * OverloadSchedule::kReleasesPerRound + k] %
          held.size();
      if (ctl.release(held[pos])) ++run.released; else ++run.failed;
      held[pos] = held.back();
      held.pop_back();
      ++releases;
    }
    std::uint64_t digest = kFnvBasis;
    const traffic::Demand* requests =
        &schedule.requests[round * OverloadSchedule::kAdmitsPerRound];
    for (std::size_t k = 0; k < OverloadSchedule::kAdmitsPerRound; ++k) {
      const auto d = ctl.request(requests[k].src, requests[k].dst,
                                 requests[k].class_index);
      if (d.admitted()) {
        held.push_back(d.flow_id);
        digest = fnv(digest, k);
      } else {
        ++run.rejected;
      }
    }
    run.round_digest.push_back(digest);
    ++run.rounds;
    run.ops += OverloadSchedule::kAdmitsPerRound + releases;
  }
  run.seconds = seconds_since(start);
  return run;
}

// -- churn_serve -------------------------------------------------------------

void run_churn_serve(const Options& options, Report& report) {
  const auto make = [&] {
    return std::make_unique<ServeStack>(options.inject == "small-recorder");
  };
  std::unique_ptr<ServeStack> stack;
  std::vector<double> setup_times;
  timed_setup(stack, kSetupRepeats, make, setup_times);
  report.gate("churn.alpha_verified", stack->verified,
              "SP routes must verify at alpha=0.32");
  auto& ctl = stack->ctl;
  const auto& demands = stack->scenario.demands;

  std::vector<std::vector<ChurnOp>> schedules;
  for (std::size_t i = 0; i < options.callers; ++i)
    schedules.push_back(churn_schedule(options.seed, i, demands.size()));
  std::vector<ChurnCaller> single(1), multi(options.callers);
  single[0].schedule = &schedules[0];
  for (std::size_t i = 0; i < options.callers; ++i)
    multi[i].schedule = &schedules[i];

  // The 1-caller and N-caller phases alternate in blocks spread over the
  // run, so both see the same mix of host conditions. Each phase starts
  // from an empty ledger and warms it to its churn steady state untimed.
  constexpr int kBlocks = 4;
  constexpr std::uint64_t kWarmupOps = 200'000;
  constexpr std::uint32_t kSampleEvery = 64;
  struct PhaseStats {
    std::vector<double> rate, p50_ns, p99_ns;
    std::uint64_t samples = 0;
  };
  PhaseStats single_stats, multi_stats;
  std::uint64_t held_at_stop = 0;
  const auto phase = [&](std::vector<ChurnCaller>& callers, double seconds,
                         PhaseStats& stats) {
    run_churn(ctl, demands, callers, {0.0, kWarmupOps, 0, nullptr});
    const int slices = std::max(1, static_cast<int>(seconds / kSliceSeconds));
    for (int k = 0; k < slices; ++k) {
      for (auto& c : callers) c.request_ns.clear();
      const double wall = run_churn(
          ctl, demands, callers, {seconds / slices, 0, kSampleEvery, nullptr});
      std::uint64_t ops = 0;
      std::vector<std::int64_t> latency;
      for (const auto& c : callers) {
        ops += c.timed_ops;
        latency.insert(latency.end(), c.request_ns.values().begin(),
                       c.request_ns.values().end());
      }
      stats.rate.push_back(static_cast<double>(ops) / wall);
      stats.p50_ns.push_back(timer_quantile(latency, 0.5));
      stats.p99_ns.push_back(timer_quantile(latency, 0.99));
      stats.samples += latency.size();
    }
    std::uint64_t held = 0;
    for (const auto& c : callers) held += c.held.size();
    held_at_stop = std::max(held_at_stop, held);
    drain(ctl, callers);
  };
  telemetry::ArrivalRecorder::install(&stack->recorder);
  for (int b = 0; b < kBlocks; ++b) {
    phase(single, options.seconds * 0.4 / kBlocks, single_stats);
    phase(multi, options.seconds * 0.6 / kBlocks, multi_stats);
  }
  telemetry::ArrivalRecorder::install(nullptr);

  if (options.inject == "double-release") {
    // Release a flow id the drain already released.
    if (!ctl.release(1)) ++single[0].failed;
  }

  std::uint64_t requests = 0, admitted = 0, calls = 0, failed = 0;
  for (const auto* group : {&single, &multi})
    for (const auto& c : *group) {
      requests += c.requests;
      admitted += c.requests - c.rejected - c.failed;
      calls += c.requests + c.releases;
      failed += c.failed;
    }
  report.operations(calls, failed);

  const std::string ledger = check_drained_ledger(ctl);
  report.gate("churn.ledger_drained", ledger.empty(), ledger);
  const auto unknown = stack->telemetry.unknown_releases->value();
  report.gate("churn.no_unknown_releases", unknown == 0,
              std::to_string(unknown) + " unknown releases");
  const auto bad = stack->telemetry.decision(AdmissionOutcome::kNoRoute).value() +
                   stack->telemetry.decision(AdmissionOutcome::kBadClass).value();
  report.gate("churn.no_route_or_class_errors", bad == 0,
              std::to_string(bad) + " kNoRoute/kBadClass outcomes");
  const auto dropped = stack->recorder.dropped_registrations();
  const double dropped_frac =
      static_cast<double>(dropped) /
      static_cast<double>(std::max<std::uint64_t>(1, admitted));
  report.gate("churn.recorder_registers_flows",
              dropped_frac <= kMaxDroppedRegistrationFrac,
              std::to_string(dropped) + " of " + std::to_string(admitted) +
                  " ArrivalRecorder registrations dropped (capacity " +
                  std::to_string(stack->recorder.capacity()) + ")");

  const double p50 = median(multi_stats.p50_ns);
  const double p99 = median(multi_stats.p99_ns);
  const double dps = median(multi_stats.rate);
  const double dps_1t = median(single_stats.rate);
  report.metric("ops_per_s", dps, "1/s");
  report.metric("ops_per_s_1t", dps_1t, "1/s");
  report.metric("latency_p50_us", p50 * 1e-3, "us");
  report.metric("latency_tail_us", p99 * 1e-3, "us");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  report.info("decisions_per_s", dps, "1/s");
  report.info("decisions_per_s_1t", dps_1t, "1/s");
  report.info("decision_ns_p50", p50, "ns");
  report.info("decision_ns_p99", p99, "ns");
  report.info("decision_ns.samples", static_cast<double>(multi_stats.samples),
              "count");
  report.info("slices", static_cast<double>(multi_stats.rate.size()), "count");
  report.info("slices_1t", static_cast<double>(single_stats.rate.size()),
              "count");
  report.info("callers", static_cast<double>(options.callers), "count");
  report.info("requests", static_cast<double>(requests), "count");
  report.info("held_flows_at_stop", static_cast<double>(held_at_stop), "count");
  report.info("recorder_capacity",
              static_cast<double>(stack->recorder.capacity()), "count");
  report.info("recorder_dropped_registrations", static_cast<double>(dropped),
              "count");
  report.info("tracer_events", static_cast<double>(stack->tracer.recorded()),
              "count");

  timed_setup(stack, kSetupRepeats, make, setup_times);
  report.metric("setup_s", median(setup_times), "s");
}

// -- overload_batch ----------------------------------------------------------

namespace {

/// Rounds the oracle replays to gate a run: the whole run when it is
/// shorter, else its first kOracleRounds rounds (the oracle is ~5x slower
/// than the batch path, so a full replay would outlast the run).
constexpr std::uint64_t kOracleRounds = 4096;

}  // namespace

void run_overload_batch(const Options& options, Report& report) {
  const auto make = [] { return std::make_unique<OverloadStack>(); };
  std::unique_ptr<OverloadStack> stack;
  std::vector<double> setup_times;
  timed_setup(stack, kSetupRepeats, make, setup_times);
  const auto schedule =
      overload_schedule(options.seed, stack->scenario.demands);

  // Warm-up rounds are part of the decision sequence the oracle replays.
  constexpr std::uint64_t kWarmupRounds = 256;
  OverloadLimit warm;
  warm.rounds = kWarmupRounds;
  const OverloadRun warmup =
      run_overload_batched(stack->ctl, schedule, stack->held, warm);
  std::vector<std::uint64_t> digests = warmup.round_digest;
  std::vector<double> rates, p50_ns, p99_ns;
  std::uint64_t group_samples = 0, samples = 0, ops = 0, failed = 0,
                rounds = 0, rejected = 0, hop0 = 0;
  std::uint64_t next_round = kWarmupRounds;
  const int slices =
      std::max(1, static_cast<int>(options.seconds / kSliceSeconds));
  for (int k = 0; k < slices; ++k) {
    OverloadLimit timed;
    timed.first_round = next_round;
    timed.seconds = options.seconds / slices;
    timed.sample_every = 8;
    timed.digest_rounds = kOracleRounds - std::min<std::uint64_t>(
                                              kOracleRounds, digests.size());
    const OverloadRun run =
        run_overload_batched(stack->ctl, schedule, stack->held, timed);
    next_round += run.rounds;
    digests.insert(digests.end(), run.round_digest.begin(),
                   run.round_digest.end());
    rates.push_back(static_cast<double>(run.ops) / run.seconds);
    // A batch call counts its time divided by its size. Single calls are
    // multimodal (a call of 16 hop-0 rejects takes about half as long as
    // one that reaches a deeper hop), so their median jumps between modes
    // as the mix shifts with seed and host; the median is taken over groups of
    // kGroupCalls calls instead, and the tail over single calls.
    p50_ns.push_back(timer_quantile(run.group_ns.values(), 0.5) /
                     (OverloadSchedule::kGroupCalls * OverloadSchedule::kBatch));
    p99_ns.push_back(timer_quantile(run.batch_ns.values(), 0.99) /
                     OverloadSchedule::kBatch);
    group_samples += run.group_ns.values().size();
    samples += run.batch_ns.values().size();
    ops += run.ops;
    failed += run.failed;
    rounds += run.rounds;
    rejected += run.rejected;
    hop0 += run.hop0_rejects;
  }
  const std::uint64_t replay = digests.size();
  AdmissionStack oracle_stack;
  admission::SequentialAdmissionController oracle(
      oracle_stack.scenario.graph, oracle_stack.classes,
      admission::RoutingTable(oracle_stack.scenario.demands, oracle_stack.routes));
  std::vector<traffic::FlowId> oracle_held;
  prefill(oracle, oracle_stack.scenario.demands, oracle_held);
  const OverloadRun reference =
      run_overload_oracle(oracle, schedule, oracle_held, replay);
  std::uint64_t mismatched = 0;
  for (std::uint64_t r = 0; r < replay; ++r)
    if (reference.round_digest[r] != digests[r]) ++mismatched;
  report.gate("overload.matches_oracle", mismatched == 0,
              std::to_string(mismatched) + " of " + std::to_string(replay) +
                  " replayed rounds admit a different set than "
                  "SequentialAdmissionController");
  report.operations(warmup.ops + ops, warmup.failed + failed + mismatched);

  const double p50 = median(p50_ns);
  const double p99 = median(p99_ns);
  const double dps = median(rates);
  report.metric("ops_per_s", dps, "1/s");
  report.metric("ops_per_s_1t", dps, "1/s");
  report.metric("latency_p50_us", p50 * 1e-3, "us");
  report.metric("latency_tail_us", p99 * 1e-3, "us");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  report.info("decisions_per_s", dps, "1/s");
  report.info("decision_ns_p50", p50, "ns");
  report.info("decision_ns_p99", p99, "ns");
  report.info("decision_ns_p50.samples", static_cast<double>(group_samples),
              "count");
  report.info("decision_ns_p99.samples", static_cast<double>(samples), "count");
  report.info("slices", static_cast<double>(slices), "count");
  report.info("rounds", static_cast<double>(rounds), "count");
  report.info("oracle_rounds_replayed", static_cast<double>(replay), "count");
  report.info("held_flows_at_stop", static_cast<double>(stack->held.size()),
              "count");
  report.info("hop0_reject_frac",
              static_cast<double>(hop0) /
                  static_cast<double>(std::max<std::uint64_t>(1, rejected)),
              "ratio");

  timed_setup(stack, kSetupRepeats, make, setup_times);
  report.metric("setup_s", median(setup_times), "s");
}

}  // namespace perfbench
