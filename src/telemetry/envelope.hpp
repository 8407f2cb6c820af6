#pragma once

/// \file envelope.hpp
/// \brief Lock-free per-flow empirical arrival-envelope estimation.
///
/// An ArrivalRecorder maintains, for every registered flow, a set of
/// multi-scale sliding arrival windows from which the ConformanceMonitor
/// (conformance.hpp) derives empirical envelopes Ê(I) over
/// I ∈ {10ms, 100ms, 1s, 10s} and checks them against the declared
/// leaky-bucket envelope min{C·I, T + ρ·I} (paper §3).
///
/// Each scale I is a ring of kBucketsPerScale sub-buckets of width
/// I / kBucketsPerScale; a bucket is an {epoch, units} atomic pair where
/// `epoch` is the absolute bucket number floor(t / width) and `units`
/// accumulates arrivals in 2^-10 bit granules — the same 2^-10 grid the
/// integer admission fast path reserves rates on (traffic/flow.hpp), so a
/// window sum divided by its span lands exactly on the RateUnits grid.
/// Summing the kBucketsPerScale newest buckets covers an actual time span
/// in (I - I/B, I], never more than I, so for traffic that satisfies
/// A[s,t] ≤ T + ρ(t-s) the window sum can never exceed T + ρ·I: a
/// conformant flow can never be falsely flagged. Arrivals are rounded
/// DOWN to the unit grid and a bucket-reset race between concurrent
/// writers may drop a few units — both err toward *under*-counting,
/// again the conservative direction for false positives.
///
/// Registration follows the admission hot path through a SpanRecorder
/// style global gate: `ArrivalRecorder::active()` is one acquire load,
/// which is the entire cost of admit/release when no recorder is
/// installed. With one installed, admit and release are lock-free, never
/// allocate and never block; a full table counts a dropped registration
/// rather than blocking the admit path. No process-global word is written
/// on admit or release: flow_count() counts keys instead.
///
/// Layout. The table is split three ways so that registration touches a
/// few cache lines and idle slots cost almost no memory:
///  * a dense key index, keys[capacity] of flow id + 1 (0 = free, all-ones
///    = claim in progress), probed one whole 64-byte line of 8 keys at a
///    time from the group a hash of the flow id picks. A flow lands in
///    the first group with a free key; each full group it passes counts
///    one spill in a small per-group array, and a lookup walks on to the
///    next group only while the spill count is non-zero (the overflow
///    counts of F14-style tables). In steady admit/release churn a
///    lookup reads 1.0 key lines on average at 1/4 load, 1.1 at 1/2 and
///    1.7 at 2/3, past which chains grow fast; a registration is dropped
///    only when every key is taken;
///  * a 24-byte header per slot: generation, class, registered_ns and
///    total_units, rewritten by each admit;
///  * the 1 KiB window payload per slot (kScales x kBucketsPerScale
///    buckets), which admit never touches. Each bucket's tag word holds
///    the slot generation next to its epoch, so admit bumps the generation
///    instead of scrubbing 64 buckets: record() resets a bucket whose
///    generation is stale, and collect() skips it.
/// All three start as zero (an all-zero bucket is a valid empty one), so
/// they come from zero-filled calloc pages accessed via std::atomic_ref:
/// construction writes nothing, and payload pages become resident only
/// for slots whose flows record(). An admitted flow that never records
/// keeps 32 bytes resident (its key and header). On a 4-vCPU Xeon VM
/// (GCC 12.2, Release) this layout took perfbench churn_serve from
/// 1.24-1.61 to 2.34-3.01 M ops/s at one caller and its peak RSS from
/// 177 to 50 MiB; docs/observability.md has the full before/after table.
///
/// A claim CASes the free key to the busy sentinel, writes the header,
/// then release-stores the key, so whoever sees the key also sees the new
/// generation, and collect() never pairs a new flow with the previous
/// occupant's windows. A bucket reset parks the tag on a reserved value
/// while it zeroes the units, so a reader that sees the new tag sees the
/// zeroed units too.
///
/// Generations keep Ê one-sided: a bucket counts only when its tag
/// carries the reader's generation, so windows left behind by a slot's
/// earlier occupants never add to a new flow's sums. The generation field
/// has kGenerationBits bits; the admit that wraps it scrubs the slot's
/// payload, so a generation never repeats on a slot while a bucket of its
/// earlier holder survives. The one remaining way to credit old arrivals
/// to a new flow is a record() for a released flow that stalls between
/// its key lookup and its bucket write while the slot is recycled — the
/// admission path releases a flow only after its traffic stops.
///
/// A recorder is clock-domain agnostic but single-domain: feed it either
/// wall-clock EventTracer::now_ns() stamps (PacedLoadDriver offered
/// load) or sim-time nanoseconds (NetworkSim delivery), never both.
/// Times are non-negative nanoseconds.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "traffic/flow.hpp"

namespace ubac::telemetry {

class ArrivalRecorder {
 public:
  /// Number of window scales maintained per flow.
  static constexpr std::size_t kScales = 4;
  /// Sub-buckets per scale; the sliding-window quantization error is one
  /// bucket, i.e. the measured span is within I/kBucketsPerScale of I.
  static constexpr std::size_t kBucketsPerScale = 16;
  /// The envelope windows I, smallest first: 10ms, 100ms, 1s, 10s.
  static constexpr std::int64_t kWindowNs[kScales] = {
      10'000'000, 100'000'000, 1'000'000'000, 10'000'000'000};

  /// Width of the slot generation stored in every bucket tag. The admit
  /// that wraps it scrubs the slot's payload.
  static constexpr unsigned kGenerationBits = 20;

  struct Options {
    /// Flow-slot table size (rounded up to a power of two). Flows beyond
    /// capacity are dropped, not blocked on. Keep it at least 1.5x the
    /// most flows held at once, so lookups stay about one key line long.
    std::size_t capacity = 4096;
  };

  ArrivalRecorder() : ArrivalRecorder(Options()) {}
  explicit ArrivalRecorder(Options options);

  ArrivalRecorder(const ArrivalRecorder&) = delete;
  ArrivalRecorder& operator=(const ArrivalRecorder&) = delete;

  // -- global gate (same pattern as SpanRecorder) ------------------------

  /// Install `recorder` as the process-wide active recorder (nullptr
  /// disables conformance tracking). The recorder must outlive all
  /// admit/release/record callers, i.e. stay alive until after
  /// install(nullptr).
  static void install(ArrivalRecorder* recorder);

  /// The active recorder, or nullptr when conformance is off. This load
  /// is the entire disabled-path cost on admit/release.
  static ArrivalRecorder* active() noexcept {
    return g_active_.load(std::memory_order_acquire);
  }

  // -- admission-path hooks (lock-free, never block) ---------------------

  /// Claim a slot for a newly admitted flow. Safe to call concurrently
  /// with record()/collect(); re-admitting an id already registered is a
  /// no-op. Flow ids up to 2^64 - 3 are representable.
  void on_admit(traffic::FlowId flow_id, std::uint32_t class_index) noexcept;

  /// Release the flow's slot (no-op for unknown ids, e.g. flows admitted
  /// before the recorder was installed).
  void on_release(traffic::FlowId flow_id) noexcept;

  /// Credit `bits` of arrivals to `flow_id` at time `t_ns` (>= 0; earlier
  /// times are ignored). Unknown ids count as dropped records. Bits are
  /// rounded down to 2^-10 granules.
  void record(traffic::FlowId flow_id, double bits,
              std::int64_t t_ns) noexcept;

  // -- inspection (monitor side; concurrent with writers) ----------------

  /// One registered flow's live windows, evaluated at collect() time.
  struct FlowWindows {
    traffic::FlowId flow_id = 0;
    std::uint32_t class_index = 0;
    std::int64_t registered_ns = 0;
    double total_bits = 0.0;  ///< lifetime arrivals since registration
    /// Ê over the trailing kWindowNs[s] window, in bits.
    double window_bits[kScales] = {0.0, 0.0, 0.0, 0.0};
  };

  /// Append one FlowWindows per live flow, windows evaluated at `now_ns`
  /// (same clock domain as record()). Best effort under churn: a flow
  /// admitted or released mid-scan may be missed or carry partial data.
  void collect(std::int64_t now_ns, std::vector<FlowWindows>& out) const;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Live registered flows: a scan of the key index. Exact when no
  /// admit or release runs concurrently, approximate under churn.
  std::size_t flow_count() const noexcept;
  /// Registrations refused because every slot was taken.
  std::uint64_t dropped_registrations() const noexcept {
    return dropped_registrations_.load(std::memory_order_relaxed);
  }
  /// record() calls for ids with no live slot.
  std::uint64_t dropped_records() const noexcept {
    return dropped_records_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-slot state rewritten by each admit, read through atomic_ref.
  struct Header {
    std::uint32_t generation;  ///< 1..kMaxGeneration once claimed
    std::uint32_t class_index;
    std::int64_t registered_ns;  ///< first record() time; 0 = none yet
    std::uint64_t total_units;
  };

  /// One sub-bucket. `tag` packs the slot generation above the bucket's
  /// absolute epoch + 1 (see tag()); 0 = never written. A writer that
  /// finds a stale tag parks it on kResetting, zeroes `units`, then
  /// publishes its own tag; a concurrent add during the reset is dropped
  /// (undercount — conservative).
  struct Bucket {
    std::uint64_t tag;
    std::uint64_t units;
  };

  struct FreeDeleter {
    void operator()(void* p) const noexcept;
  };

  /// Keys per 64-byte line: the key index is probed a whole line (one
  /// group) at a time.
  static constexpr std::size_t kKeysPerLine = 8;
  static constexpr std::uint64_t kBusyKey = ~std::uint64_t{0};
  static constexpr std::uint32_t kMaxGeneration =
      (std::uint32_t{1} << kGenerationBits) - 1;

  /// The 8-key group a flow's lookup starts at.
  std::size_t home_group(traffic::FlowId flow_id) const noexcept;
  /// Slot index holding `flow_id`, or capacity_ when none does.
  std::size_t find(traffic::FlowId flow_id) const noexcept;
  /// Reset the header of a slot whose key is held busy.
  void claim(std::size_t slot, std::uint32_t class_index) noexcept;
  Bucket* buckets(std::size_t slot) const noexcept {
    return payload_ + slot * kScales * kBucketsPerScale;
  }

  static std::atomic<ArrivalRecorder*> g_active_;

  std::size_t capacity_;    ///< power of two
  std::size_t group_size_;  ///< min(kKeysPerLine, capacity_)
  std::size_t groups_;      ///< capacity_ / group_size_, a power of two
  std::size_t group_mask_;
  std::unique_ptr<void, FreeDeleter> storage_;  ///< one zeroed block
  std::uint64_t* keys_;     ///< [capacity_], 64-byte aligned
  Header* headers_;         ///< [capacity_]
  /// [groups_]: flows placed beyond each group because it was full.
  std::uint32_t* overflow_;
  Bucket* payload_;         ///< [capacity_ * kScales * kBucketsPerScale]
  std::atomic<std::uint64_t> dropped_registrations_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
};

}  // namespace ubac::telemetry
