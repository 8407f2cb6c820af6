#pragma once

/// \file event_trace.hpp
/// \brief Bounded ring buffer of structured admission-control events.
///
/// One TraceEvent per admit / reject / release / rollback decision (plus
/// periodic kSample records from the simulator): flow id, class, endpoints,
/// the blocking hop and the observed utilization at decision time, a static
/// reject-reason string, and a nanosecond timestamp.
///
/// Writers do not touch a shared word per event. Each thread appends to a
/// pending buffer of kBufferEvents events on its stripe
/// (util::stripe_index()); a full buffer claims kBufferEvents sequence
/// numbers with one fetch_add and publishes its events into the ring
/// through a per-slot seqlock. Writers on different stripes never wait on
/// each other; two threads that share a stripe, or a reader draining it,
/// wait at most one flush. The only other wait is the rare case of a
/// writer lapped by a whole ring rotation, which briefly yields the slot
/// to the newer event.
///
/// recorded() and snapshot() flush every stripe's pending events first, so
/// once writers are quiescent the ring holds exactly the most recent
/// `capacity` events with dense sequence numbers (at sampling = 1.0 the
/// last `capacity` recorded events are always retrievable). Sequence order
/// is flush order: one thread's events keep their order, but events of
/// different threads are ordered by when their buffers were flushed, not
/// by timestamp. snapshot() taken while writers are active is best-effort
/// (slots mid-write are skipped); at quiescence it is exact.
///
/// Sampling < 1.0 keeps a uniform random subset via geometric skipping:
/// the gap to the next sampled event is drawn once per hit, so a
/// sampled-out event costs one thread-local decrement — no RNG draw, no
/// shared state. sampled_out() is credited in per-thread batches at each
/// sampled event, so it can lag by up to one gap per thread.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/csv.hpp"

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
  std::uint64_t seq = 0;       ///< filled by EventTracer::record
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

  /// Appends `ev` to this thread's pending buffer (timestamp_ns is filled
  /// in when 0; seq when the buffer is flushed into the ring).
  void record(TraceEvent ev) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Events recorded (post-sampling), total. Flushes every pending buffer.
  std::uint64_t recorded() const noexcept;
  /// Events skipped by sampling.
  std::uint64_t sampled_out() const noexcept {
    return sampled_out_.value();
  }

  /// The retained (most recent) events, oldest first. Flushes every
  /// pending buffer.
  std::vector<TraceEvent> snapshot() const;

  std::string to_json() const;
  void write_csv(util::CsvWriter& csv) const;

  static std::int64_t now_ns() noexcept;

 private:
  /// Events a stripe collects before it claims sequence numbers.
  static constexpr std::size_t kBufferEvents = 16;

  static constexpr std::size_t kEventWords =
      sizeof(TraceEvent) / sizeof(std::uint64_t);
  static_assert(sizeof(TraceEvent) % sizeof(std::uint64_t) == 0 &&
                std::is_trivially_copyable_v<TraceEvent>);

  struct Slot {
    /// 2 * (seq + 1) of the event the payload holds; odd while a writer
    /// owns the slot; 0 while unwritten. The parity bit serializes the
    /// rare lapped-writer collision (see publish()).
    std::atomic<std::uint64_t> stamp{0};
    /// The event as relaxed atomic words: a reader that copies it while a
    /// writer overwrites it sees a changed stamp and skips the slot, with
    /// no data race on the payload.
    std::atomic<std::uint64_t> words[kEventWords];
  };

  /// One stripe's pending events, guarded by a ticket lock held for one
  /// append or one flush. Tickets are served in order, so a reader (or a
  /// thread sharing the stripe) waits for at most the holder in front of
  /// it, however fast the owner keeps recording.
  struct alignas(64) Buffer {
    std::atomic<std::uint32_t> ticket{0};
    std::atomic<std::uint32_t> serving{0};
    std::uint32_t size = 0;
    TraceEvent events[kBufferEvents];
  };

  static void lock(Buffer& buf) noexcept;
  static void unlock(Buffer& buf) noexcept;
  /// Claims sequence numbers for `buf`'s events and publishes them; the
  /// caller holds `buf`.
  void flush(Buffer& buf) const noexcept;
  /// Flushes every stripe.
  void flush_all() const noexcept;
  /// Stores one sequenced event into its ring slot.
  void publish(const TraceEvent& ev) const noexcept;

  std::size_t capacity_;
  double sampling_;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<Buffer[]> buffers_;
  mutable std::atomic<std::uint64_t> head_{0};
  /// Striped: bumped on ~every decision when sampling is low, so a single
  /// shared cell would ping-pong across cores (measured ~17% on the
  /// 8-thread admission bench; striped it is <1%).
  Counter sampled_out_;
};

}  // namespace ubac::telemetry
