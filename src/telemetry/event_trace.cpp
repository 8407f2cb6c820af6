#include "telemetry/event_trace.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

namespace ubac::telemetry {

namespace {

/// Per-thread xorshift64* state for sampling draws.
std::uint64_t next_draw() noexcept {
  thread_local std::uint64_t state =
      0x9E3779B97F4A7C15ull ^
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1Dull;
}

double next_unit() noexcept {
  return static_cast<double>(next_draw() >> 11) * 0x1p-53;
}

/// Per-thread geometric-skip state (see should_sample). Keyed to the
/// tracer so several tracers on one thread stay independently correct;
/// only the most recent one keeps its skip run (the common case is a
/// single process-wide tracer).
struct SampleSkipState {
  const void* owner = nullptr;
  std::uint64_t skips_left = 0;  ///< misses before the next sampled event
  std::uint64_t pending = 0;     ///< misses not yet added to sampled_out_
};

/// Number of Bernoulli(p) misses before the next hit, geometrically
/// distributed — the gap distribution of per-event coin flips, drawn once
/// per sampled event instead of once per event.
std::uint64_t draw_geometric_skips(double p) noexcept {
  const double u = next_unit();
  if (u <= 0.0) return 0;
  const double skips = std::floor(std::log(u) / std::log1p(-p));
  return skips < 1e18 ? static_cast<std::uint64_t>(skips) : std::uint64_t(1)
                                                                << 60;
}

}  // namespace

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAdmit: return "admit";
    case TraceEventKind::kReject: return "reject";
    case TraceEventKind::kRelease: return "release";
    case TraceEventKind::kRollback: return "rollback";
    case TraceEventKind::kSample: return "sample";
    case TraceEventKind::kAlert: return "alert";
    case TraceEventKind::kReconfig: return "reconfig";
    case TraceEventKind::kConformance: return "conformance";
  }
  return "?";
}

EventTracer::EventTracer(std::size_t capacity, double sampling)
    : sampling_(sampling), ring_(capacity) {}

bool EventTracer::should_sample() noexcept {
  if (sampling_ >= 1.0) return true;
  if (sampling_ <= 0.0) {
    sampled_out_.add();
    return false;
  }
  // Geometric skipping: drawing the whole gap to the next sampled event at
  // once is distributed identically to a coin flip per event, but the miss
  // path is a thread-local decrement — no RNG draw and no shared atomic.
  // sampled_out_ is credited in batches at each sampled event (so it can
  // lag by up to one gap per thread; exact after every hit).
  thread_local SampleSkipState tls;
  if (tls.owner != this) {
    tls.owner = this;
    tls.skips_left = draw_geometric_skips(sampling_);
    tls.pending = 0;
  }
  if (tls.skips_left > 0) {
    --tls.skips_left;
    ++tls.pending;
    return false;
  }
  if (tls.pending > 0) {
    sampled_out_.add(tls.pending);
    tls.pending = 0;
  }
  tls.skips_left = draw_geometric_skips(sampling_);
  return true;
}

void EventTracer::record(TraceEvent ev) noexcept {
  if (ev.timestamp_ns == 0) ev.timestamp_ns = now_ns();
  ring_.append(ev);
}

std::int64_t EventTracer::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace ubac::telemetry
