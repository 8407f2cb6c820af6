#pragma once

/// \file trace_ring.hpp
/// \brief The bounded multi-writer ring behind EventTracer and SpanRecorder.
///
/// Writers do not touch a shared word per event. Each thread appends to a
/// pending buffer of kBufferEvents events on its stripe
/// (util::stripe_index()); a full buffer claims its sequence numbers with
/// one fetch_add and publishes its events into the ring through a per-slot
/// seqlock. Writers on different stripes never wait on each other; two
/// threads that share a stripe, or a reader draining it, wait at most one
/// flush. The only other wait is the rare case of a writer lapped by a
/// whole ring rotation, which briefly yields the slot to the newer event.
///
/// recorded() and snapshot() flush every stripe's pending events first, so
/// once writers are quiescent the ring holds exactly the most recent
/// `capacity` events with dense sequence numbers. Sequence order is flush
/// order: one thread's events keep their order, but events of different
/// threads are ordered by when their buffers were flushed. A snapshot()
/// taken while writers are active is best-effort (slots mid-write are
/// skipped); at quiescence it is exact. Payloads are stored as relaxed
/// atomic words, so a snapshot racing a writer is free of data races.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/stripe.hpp"

namespace ubac::telemetry {

/// `Event` must be trivially copyable, a whole number of 64-bit words, and
/// have a `std::uint64_t seq` field, which the ring fills at publication.
template <typename Event>
class TraceRing {
  static_assert(std::is_trivially_copyable_v<Event> &&
                    sizeof(Event) % sizeof(std::uint64_t) == 0,
                "TraceRing copies events as 64-bit atomic words");
  static_assert(std::is_same_v<decltype(Event::seq), std::uint64_t>);

 public:
  /// `capacity` is rounded up to a power of two (0 gives one slot).
  explicit TraceRing(std::size_t capacity)
      : capacity_(std::bit_ceil(capacity)),
        slots_(std::make_unique<Slot[]>(capacity_)),
        buffers_(std::make_unique<Buffer[]>(util::kStripes)) {}

  /// Appends `ev` to the calling thread's pending buffer; its `seq` is
  /// assigned when the buffer is flushed into the ring.
  void append(const Event& ev) noexcept {
    Buffer& buf = buffers_[util::stripe_index()];
    lock(buf);
    buf.events[buf.size++] = ev;
    if (buf.size == kBufferEvents) flush(buf);
    unlock(buf);
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Events appended, total. Flushes every pending buffer.
  std::uint64_t recorded() const noexcept {
    flush_all();
    return head_.load(std::memory_order_acquire);
  }

  /// The retained (most recent) events, oldest first. Flushes every
  /// pending buffer.
  std::vector<Event> snapshot() const {
    flush_all();
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, capacity_);
    std::vector<Event> events;
    events.reserve(n);
    for (std::uint64_t seq = head - n; seq < head; ++seq) {
      const Slot& slot = slots_[seq & (capacity_ - 1)];
      const std::uint64_t published = 2 * (seq + 1);
      if (slot.stamp.load(std::memory_order_acquire) != published)
        continue;  // mid-write or already overwritten
      std::uint64_t words[kWords];
      for (std::size_t i = 0; i < kWords; ++i)
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != published) continue;
      std::memcpy(&events.emplace_back(), words, sizeof(Event));
    }
    return events;
  }

 private:
  /// Events a stripe collects before it claims sequence numbers.
  static constexpr std::size_t kBufferEvents = 16;
  static constexpr std::size_t kWords = sizeof(Event) / sizeof(std::uint64_t);

  struct Slot {
    /// 2 * (seq + 1) of the event the payload holds; odd while a writer
    /// owns the slot; 0 while unwritten. The parity bit serializes the
    /// rare lapped-writer collision (see publish()).
    std::atomic<std::uint64_t> stamp{0};
    /// The event as relaxed atomic words: a reader that copies it while a
    /// writer overwrites it sees a changed stamp and skips the slot, with
    /// no data race on the payload.
    std::atomic<std::uint64_t> words[kWords];
  };

  /// One stripe's pending events, guarded by a ticket lock held for one
  /// append or one flush. Tickets are served in order, so a reader (or a
  /// thread sharing the stripe) waits for at most the holder in front of
  /// it, however fast the owner keeps recording.
  struct alignas(64) Buffer {
    std::atomic<std::uint32_t> ticket{0};
    std::atomic<std::uint32_t> serving{0};
    std::uint32_t size = 0;
    Event events[kBufferEvents];
  };

  static void lock(Buffer& buf) noexcept {
    const std::uint32_t mine =
        buf.ticket.fetch_add(1, std::memory_order_relaxed);
    // The holder is inside one append or one flush (well under a
    // microsecond), so spin before giving the core away; yield only when
    // it has been descheduled.
    constexpr unsigned kSpinsBeforeYield = 4096;
    for (unsigned spins = 0;
         buf.serving.load(std::memory_order_acquire) != mine; ++spins)
      if (spins >= kSpinsBeforeYield) std::this_thread::yield();
  }

  static void unlock(Buffer& buf) noexcept {
    buf.serving.store(buf.serving.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
  }

  /// Claims sequence numbers for `buf`'s events and publishes them; the
  /// caller holds `buf`.
  void flush(Buffer& buf) const noexcept {
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

  void flush_all() const noexcept {
    for (std::size_t s = 0; s < util::kStripes; ++s) {
      Buffer& buf = buffers_[s];
      lock(buf);
      flush(buf);
      unlock(buf);
    }
  }

  /// Stores one sequenced event into its ring slot.
  void publish(const Event& ev) const noexcept {
    Slot& slot = slots_[ev.seq & (capacity_ - 1)];
    // Per-slot seqlock with writer exclusion. Two writers meet at one slot
    // only when one has been lapped by a whole ring rotation; without
    // exclusion their payload copies would race. The stamp holds
    // 2 * (seq + 1) once published and goes odd while a writer owns the
    // slot, so:
    //   * a writer that finds a claim >= its own is the lapped one — its
    //     event is stale by a full ring and is dropped;
    //   * a writer that finds an older claim mid-write waits it out
    //     (bounded by one payload copy), then takes the slot;
    // which guarantees the newest seq's payload is what quiesces in place.
    const std::uint64_t published = 2 * (ev.seq + 1);
    std::uint64_t cur = slot.stamp.load(std::memory_order_relaxed);
    for (;;) {
      if (cur >= published) return;  // lapped: a newer event owns the slot
      if (cur & 1) {  // older writer mid-copy; it cannot block, so spin
        cur = slot.stamp.load(std::memory_order_relaxed);
        continue;
      }
      if (slot.stamp.compare_exchange_weak(cur, published | 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
        break;
    }
    std::uint64_t words[kWords];
    std::memcpy(words, &ev, sizeof(Event));
    for (std::size_t i = 0; i < kWords; ++i)
      slot.words[i].store(words[i], std::memory_order_relaxed);
    slot.stamp.store(published, std::memory_order_release);
  }

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<Buffer[]> buffers_;
  mutable std::atomic<std::uint64_t> head_{0};
};

}  // namespace ubac::telemetry
