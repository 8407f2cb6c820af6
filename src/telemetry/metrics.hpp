#pragma once

/// \file metrics.hpp
/// \brief Lock-free metrics instruments and the process metrics registry.
///
/// The run-time admission hot path is a handful of relaxed atomic RMWs per
/// decision (see admission/controller.hpp); telemetry must not be slower
/// than the thing it observes. Every instrument here is therefore wait-free
/// on the update path:
///
///  * Counter          — monotonically increasing, exact. Updates go to one
///                       of util::kStripes cache-line-padded atomic cells
///                       chosen by util::stripe_index(), so concurrent
///                       writers do not contend; value() sums the stripes.
///  * Gauge            — last-set-wins double (one relaxed atomic store).
///  * LatencyHistogram — fixed upper-bound buckets (Prometheus `le`
///                       semantics: a sample lands in the first bucket
///                       whose bound is >= the value, inclusive), with
///                       striped bucket/count/sum cells. Counts are exact;
///                       sum is exact for any sequence of adds because each
///                       stripe is only merged at read time.
///
/// Instruments are registered in a MetricsRegistry keyed by
/// (name, labels); registration takes a mutex, updates never do. Naming
/// convention: `ubac_<subsystem>_<name>` with a unit suffix where
/// applicable (`_seconds`, `_total` for counters) — see
/// docs/observability.md for the inventory.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stripe.hpp"

namespace ubac::telemetry {

/// Ordered (key, value) label pairs attached to one series.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

struct alignas(64) U64Cell {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Exact monotonically increasing counter; wait-free striped updates.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[util::stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  detail::U64Cell cells_[util::kStripes];
};

/// Last-set-wins double gauge.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with Prometheus cumulative-export semantics.
/// Bucket i holds samples with value <= bounds[i] (and > bounds[i-1]);
/// samples above the last bound land in the implicit +Inf bucket.
class LatencyHistogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit LatencyHistogram(std::vector<double> upper_bounds);

  void record(double v) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the
  /// last entry being the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Approximate quantile (linear interpolation inside the bucket,
  /// Prometheus-style). Returns 0 when empty.
  double quantile(double q) const;

  /// n strictly increasing bounds spanning [lo, hi] geometrically.
  static std::vector<double> exponential_bounds(double lo, double hi,
                                                std::size_t n);

 private:
  /// One cache line of bucket counts.
  struct alignas(64) BucketLine {
    static constexpr std::size_t kCells = 64 / sizeof(std::uint64_t);
    std::atomic<std::uint64_t> cells[kCells];
  };
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  /// Bucket b of stripe s. Each stripe's buckets fill whole cache lines
  /// of one shared allocation, so writers on adjacent stripes never touch
  /// the same line.
  std::atomic<std::uint64_t>& bucket(std::size_t s, std::size_t b) const {
    return buckets_[s * lines_per_stripe_ + b / BucketLine::kCells]
        .cells[b % BucketLine::kCells];
  }

  std::vector<double> bounds_;
  std::size_t lines_per_stripe_;
  std::unique_ptr<BucketLine[]> buckets_;
  std::vector<Stripe> stripes_;
};

enum class InstrumentKind { kCounter, kGauge, kHistogram };

const char* to_string(InstrumentKind kind);

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< non-cumulative, +Inf last
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// One series of a family at snapshot time.
struct MetricSample {
  Labels labels;
  double value = 0.0;           ///< counter / gauge value
  HistogramSnapshot histogram;  ///< populated for kHistogram only
};

struct MetricFamily {
  std::string name;
  std::string help;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::vector<MetricSample> samples;
};

/// Consistent-enough copy of every registered instrument (each instrument
/// is read atomically; cross-instrument skew is possible under concurrent
/// updates, exactness holds at quiescence).
struct MetricsSnapshot {
  std::vector<MetricFamily> families;

  /// Sample lookup by name + labels; nullptr when absent.
  const MetricSample* find(const std::string& name,
                           const Labels& labels = {}) const;
};

/// Named instrument registry. Registration is get-or-create keyed on
/// (name, labels) and mutex-guarded; the returned references stay valid
/// for the registry's lifetime and their update paths are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  LatencyHistogram& histogram(const std::string& name, const std::string& help,
                              std::vector<double> upper_bounds,
                              const Labels& labels = {});

  MetricsSnapshot snapshot() const;

  /// Process-wide registry for tools that want a single sink.
  static MetricsRegistry& global();

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    InstrumentKind kind;
    std::vector<std::unique_ptr<Series>> series;
  };

  Family& family(const std::string& name, const std::string& help,
                 InstrumentKind kind);
  Series& series(Family& fam, const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace ubac::telemetry
