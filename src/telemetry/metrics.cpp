#include "telemetry/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace ubac::telemetry {

const char* to_string(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      lines_per_stripe_((bounds_.size() + BucketLine::kCells) /
                        BucketLine::kCells),
      buckets_(std::make_unique<BucketLine[]>(util::kStripes *
                                              lines_per_stripe_)),
      stripes_(util::kStripes) {
  if (bounds_.empty())
    throw std::invalid_argument("LatencyHistogram: no buckets");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i] > bounds_[i - 1]))
      throw std::invalid_argument(
          "LatencyHistogram: bounds must be strictly increasing");
}

void LatencyHistogram::record(double v) noexcept {
  // First bucket whose upper bound is >= v (`le` semantics); +Inf last.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto b = static_cast<std::size_t>(it - bounds_.begin());
  const std::size_t s = util::stripe_index();
  bucket(s, b).fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[s];
  stripe.count.fetch_add(1, std::memory_order_relaxed);
  double cur = stripe.sum.load(std::memory_order_relaxed);
  while (!stripe.sum.compare_exchange_weak(cur, cur + v,
                                           std::memory_order_relaxed)) {
  }
}

std::uint64_t LatencyHistogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& stripe : stripes_)
    n += stripe.count.load(std::memory_order_relaxed);
  return n;
}

double LatencyHistogram::sum() const noexcept {
  double s = 0.0;
  for (const auto& stripe : stripes_)
    s += stripe.sum.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (std::size_t s = 0; s < util::kStripes; ++s)
    for (std::size_t b = 0; b < counts.size(); ++b)
      counts[b] += bucket(s, b).load(std::memory_order_relaxed);
  return counts;
}

double LatencyHistogram::quantile(double q) const {
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("quantile: q outside [0,1]");
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cum += counts[b];
    if (static_cast<double>(cum) >= target && counts[b] > 0) {
      if (b >= bounds_.size()) return bounds_.back();  // +Inf bucket
      const double lo = b == 0 ? 0.0 : bounds_[b - 1];
      const double hi = bounds_[b];
      const auto below = static_cast<double>(cum - counts[b]);
      const double frac =
          (target - below) / static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds_.back();
}

std::vector<double> LatencyHistogram::exponential_bounds(double lo, double hi,
                                                         std::size_t n) {
  if (!(lo > 0.0) || !(hi > lo) || n < 2)
    throw std::invalid_argument("exponential_bounds: need 0 < lo < hi, n >= 2");
  std::vector<double> bounds(n);
  const double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(n - 1));
  double b = lo;
  for (std::size_t i = 0; i < n; ++i, b *= ratio) bounds[i] = b;
  bounds.back() = hi;  // guard fp drift on the final bound
  return bounds;
}

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const Labels& labels) const {
  for (const auto& fam : families) {
    if (fam.name != name) continue;
    for (const auto& sample : fam.samples)
      if (sample.labels == labels) return &sample;
  }
  return nullptr;
}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name,
                                                 const std::string& help,
                                                 InstrumentKind kind) {
  for (auto& fam : families_) {
    if (fam->name != name) continue;
    if (fam->kind != kind)
      throw std::logic_error("metric '" + name +
                             "' re-registered as a different kind");
    return *fam;
  }
  families_.push_back(std::make_unique<Family>(
      Family{name, help, kind, {}}));
  return *families_.back();
}

MetricsRegistry::Series& MetricsRegistry::series(Family& fam,
                                                 const Labels& labels) {
  for (auto& s : fam.series)
    if (s->labels == labels) return *s;
  fam.series.push_back(std::make_unique<Series>());
  fam.series.back()->labels = labels;
  return *fam.series.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series(family(name, help, InstrumentKind::kCounter), labels);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series(family(name, help, InstrumentKind::kGauge), labels);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             const std::string& help,
                                             std::vector<double> upper_bounds,
                                             const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series(family(name, help, InstrumentKind::kHistogram), labels);
  if (!s.histogram)
    s.histogram = std::make_unique<LatencyHistogram>(std::move(upper_bounds));
  return *s.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.families.reserve(families_.size());
  for (const auto& fam : families_) {
    MetricFamily out{fam->name, fam->help, fam->kind, {}};
    for (const auto& s : fam->series) {
      MetricSample sample;
      sample.labels = s->labels;
      switch (fam->kind) {
        case InstrumentKind::kCounter:
          sample.value = static_cast<double>(s->counter->value());
          break;
        case InstrumentKind::kGauge:
          sample.value = s->gauge->value();
          break;
        case InstrumentKind::kHistogram:
          sample.histogram.bounds = s->histogram->bounds();
          sample.histogram.counts = s->histogram->bucket_counts();
          sample.histogram.sum = s->histogram->sum();
          sample.histogram.count = s->histogram->count();
          break;
      }
      out.samples.push_back(std::move(sample));
    }
    snap.families.push_back(std::move(out));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace ubac::telemetry
