#include "telemetry/event_trace.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "util/stripe.hpp"

namespace ubac::telemetry {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

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
    : capacity_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      sampling_(sampling),
      slots_(std::make_unique<Slot[]>(capacity_)),
      buffers_(std::make_unique<Buffer[]>(util::kStripes)) {}

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

void EventTracer::lock(Buffer& buf) noexcept {
  const std::uint32_t mine = buf.ticket.fetch_add(1, std::memory_order_relaxed);
  // The holder is inside one append or one flush (well under a
  // microsecond), so spin before giving the core away; yield only when
  // it has been descheduled.
  constexpr unsigned kSpinsBeforeYield = 4096;
  for (unsigned spins = 0;
       buf.serving.load(std::memory_order_acquire) != mine; ++spins)
    if (spins >= kSpinsBeforeYield) std::this_thread::yield();
}

void EventTracer::unlock(Buffer& buf) noexcept {
  buf.serving.store(buf.serving.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
}

void EventTracer::record(TraceEvent ev) noexcept {
  if (ev.timestamp_ns == 0) ev.timestamp_ns = now_ns();
  Buffer& buf = buffers_[util::stripe_index()];
  lock(buf);
  buf.events[buf.size++] = ev;
  if (buf.size == kBufferEvents) flush(buf);
  unlock(buf);
}

void EventTracer::flush(Buffer& buf) const noexcept {
  const std::uint64_t n = buf.size;
  if (n == 0) return;
  buf.size = 0;
  const std::uint64_t base = head_.fetch_add(n, std::memory_order_acq_rel);
  // A block longer than the ring overwrites its own head; only its last
  // `capacity_` events can survive, so only those are written.
  for (std::uint64_t i = n > capacity_ ? n - capacity_ : 0; i < n; ++i) {
    buf.events[i].seq = base + i;
    publish(buf.events[i]);
  }
}

void EventTracer::flush_all() const noexcept {
  for (std::size_t s = 0; s < util::kStripes; ++s) {
    Buffer& buf = buffers_[s];
    lock(buf);
    flush(buf);
    unlock(buf);
  }
}

std::uint64_t EventTracer::recorded() const noexcept {
  flush_all();
  return head_.load(std::memory_order_acquire);
}

void EventTracer::publish(const TraceEvent& ev) const noexcept {
  Slot& slot = slots_[ev.seq & (capacity_ - 1)];
  // Per-slot seqlock with writer exclusion. Two writers meet at one slot
  // only when one has been lapped by a whole ring rotation; without
  // exclusion their payload copies would race. The stamp holds
  // 2 * (seq + 1) once published and goes odd while a writer owns the
  // slot, so:
  //   * a writer that finds a claim >= its own is the lapped one — its
  //     event is stale by a full ring and is dropped;
  //   * a writer that finds an older claim mid-write waits it out (bounded
  //     by one payload copy), then takes the slot;
  // which guarantees the newest seq's payload is what quiesces in place.
  const std::uint64_t published = 2 * (ev.seq + 1);
  std::uint64_t cur = slot.stamp.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= published) return;  // lapped: a newer event owns this slot
    if (cur & 1) {  // older writer mid-copy; it cannot block, so spin
      cur = slot.stamp.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.stamp.compare_exchange_weak(cur, published | 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed))
      break;
  }
  std::uint64_t words[kEventWords];
  std::memcpy(words, &ev, sizeof(ev));
  for (std::size_t i = 0; i < kEventWords; ++i)
    slot.words[i].store(words[i], std::memory_order_relaxed);
  slot.stamp.store(published, std::memory_order_release);
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  flush_all();
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = head < capacity_ ? head : capacity_;
  std::vector<TraceEvent> events;
  events.reserve(n);
  for (std::uint64_t seq = head - n; seq < head; ++seq) {
    const Slot& slot = slots_[seq & (capacity_ - 1)];
    const std::uint64_t published = 2 * (seq + 1);
    if (slot.stamp.load(std::memory_order_acquire) != published)
      continue;  // mid-write or already overwritten
    std::uint64_t words[kEventWords];
    for (std::size_t i = 0; i < kEventWords; ++i)
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.stamp.load(std::memory_order_relaxed) != published) continue;
    TraceEvent& ev = events.emplace_back();
    std::memcpy(&ev, words, sizeof(ev));
  }
  return events;
}

std::string EventTracer::to_json() const {
  const auto events = snapshot();
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"seq\":%llu,\"kind\":\"%s\",\"t_ns\":%lld,\"flow\":%llu,"
        "\"class\":%u,\"src\":%u,\"dst\":%u,\"blocking_hop\":%u,"
        "\"utilization\":%.9g,\"reason\":\"%s\"}",
        i == 0 ? "" : ",", static_cast<unsigned long long>(e.seq),
        to_string(e.kind), static_cast<long long>(e.timestamp_ns),
        static_cast<unsigned long long>(e.flow_id), e.class_index, e.src,
        e.dst, e.blocking_hop, e.utilization, e.reason ? e.reason : "");
    out += buf;
  }
  out += "]";
  return out;
}

void EventTracer::write_csv(util::CsvWriter& csv) const {
  csv.write_row({"seq", "kind", "t_ns", "flow", "class", "src", "dst",
                 "blocking_hop", "utilization", "reason"});
  char num[64];
  for (const TraceEvent& e : snapshot()) {
    std::snprintf(num, sizeof(num), "%.9g", e.utilization);
    csv.write_row({std::to_string(e.seq), to_string(e.kind),
                   std::to_string(e.timestamp_ns), std::to_string(e.flow_id),
                   std::to_string(e.class_index), std::to_string(e.src),
                   std::to_string(e.dst), std::to_string(e.blocking_hop), num,
                   e.reason ? e.reason : ""});
  }
}

std::int64_t EventTracer::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace ubac::telemetry
