#pragma once

/// \file event_trace.hpp
/// \brief Bounded ring buffer of structured admission-control events.
///
/// One TraceEvent per admit / reject / release / rollback decision (plus
/// periodic kSample records from the simulator): flow id, class, endpoints,
/// the blocking hop and the observed utilization at decision time, a static
/// reject-reason string, and a nanosecond timestamp.
///
/// Events go into a TraceRing (trace_ring.hpp): per-thread stripe
/// buffers claimed in blocks, so a writer touches no shared word per event.
/// recorded() and snapshot() flush pending events first; once writers are
/// quiescent the ring holds exactly the most recent `capacity` events with
/// dense sequence numbers (at sampling = 1.0 the last `capacity` recorded
/// events are always retrievable).
///
/// Sampling < 1.0 keeps a uniform random subset via geometric skipping:
/// the gap to the next sampled event is drawn once per hit, so a
/// sampled-out event costs one thread-local decrement — no RNG draw, no
/// shared state. sampled_out() is credited in per-thread batches at each
/// sampled event, so it can lag by up to one gap per thread.

#include <cstdint>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace_ring.hpp"

namespace ubac::telemetry {

enum class TraceEventKind : std::uint8_t {
  kAdmit,
  kReject,
  kRelease,
  kRollback,
  kSample,
  /// AlertEngine fire/resolve transition; `reason` names the rule and the
  /// polarity, `utilization` carries the rule's observed value.
  kAlert,
  /// ReconfigurationActuator phase marker; `reason` names the phase
  /// ("reconfig:research", "reconfig:apply", ...), `utilization` carries
  /// the alpha (or shed count) the phase produced.
  kReconfig,
  /// ConformanceMonitor verdict transition; `reason` is
  /// "conformance:violation" or "conformance:clear", `flow_id` names the
  /// flow and `utilization` carries its conformance margin.
  kConformance,
};

const char* to_string(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kAdmit;
  std::uint64_t seq = 0;       ///< ring order, filled when published
  std::int64_t timestamp_ns = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t class_index = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t blocking_hop = 0;  ///< first saturated hop (rejects)
  /// Highest per-hop class utilization observed at decision time (or the
  /// sampled quantity for kSample events).
  double utilization = 0.0;
  /// Static reject-reason string (never owned; outcome names). May be "".
  const char* reason = "";
};

class EventTracer {
 public:
  /// `capacity` is rounded up to a power of two; `sampling` in [0, 1].
  explicit EventTracer(std::size_t capacity, double sampling = 1.0);

  /// True when the event should be recorded (Bernoulli(sampling) per
  /// call, realized as geometric gaps). Callers gate event *construction*
  /// on this so sampled-out decisions pay only the thread-local decrement.
  bool should_sample() noexcept;

  /// Appends `ev` to the ring (timestamp_ns is filled in when 0).
  void record(TraceEvent ev) noexcept;

  std::size_t capacity() const noexcept { return ring_.capacity(); }
  /// Events recorded (post-sampling), total. Flushes pending events.
  std::uint64_t recorded() const noexcept { return ring_.recorded(); }
  /// Events skipped by sampling.
  std::uint64_t sampled_out() const noexcept {
    return sampled_out_.value();
  }

  /// The retained (most recent) events, oldest first. Flushes pending
  /// events.
  std::vector<TraceEvent> snapshot() const { return ring_.snapshot(); }

  static std::int64_t now_ns() noexcept;

 private:
  double sampling_;
  TraceRing<TraceEvent> ring_;
  /// Striped: bumped on ~every decision when sampling is low, so a single
  /// shared cell would ping-pong across cores (measured ~17% on the
  /// 8-thread admission bench; striped it is <1%).
  Counter sampled_out_;
};

}  // namespace ubac::telemetry
