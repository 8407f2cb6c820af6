#include "telemetry/envelope.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <new>

namespace ubac::telemetry {
namespace {

constexpr double kUnitsPerBit = 1024.0;  // 2^10 granules per bit

/// Bucket tag layout: generation in the top kGenerationBits, epoch + 1
/// below. 44 epoch bits hold floor(t / 625us) + 1 for every int64 t >= 0.
constexpr unsigned kEpochBits = 64 - ArrivalRecorder::kGenerationBits;
static_assert((std::int64_t{1} << kEpochBits) >
                  INT64_MAX / (ArrivalRecorder::kWindowNs[0] /
                               static_cast<std::int64_t>(
                                   ArrivalRecorder::kBucketsPerScale)),
              "epoch field too narrow for the smallest bucket width");

/// Generation 0 is never live, so neither of these tags ever matches a
/// reader: 0 is a never-written bucket, kResetting one being reset.
constexpr std::uint64_t kResetting = 1;

std::uint64_t tag(std::uint32_t generation, std::int64_t epoch) noexcept {
  return (std::uint64_t{generation} << kEpochBits) |
         static_cast<std::uint64_t>(epoch + 1);
}

std::uint32_t generation_of(std::uint64_t tag) noexcept {
  return static_cast<std::uint32_t>(tag >> kEpochBits);
}

template <class T>
std::atomic_ref<T> ref(T& value) noexcept {
  return std::atomic_ref<T>(value);
}

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

/// SplitMix64 finalizer — full-avalanche mix of the flow id so the
/// controller's consecutive id blocks spread across the table.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::int64_t bucket_width(std::size_t scale) {
  return ArrivalRecorder::kWindowNs[scale] /
         static_cast<std::int64_t>(ArrivalRecorder::kBucketsPerScale);
}

}  // namespace

std::atomic<ArrivalRecorder*> ArrivalRecorder::g_active_{nullptr};

void ArrivalRecorder::install(ArrivalRecorder* recorder) {
  g_active_.store(recorder, std::memory_order_release);
}

void ArrivalRecorder::FreeDeleter::operator()(void* p) const noexcept {
  std::free(p);
}

ArrivalRecorder::ArrivalRecorder(Options options)
    : capacity_(std::bit_ceil(std::max<std::size_t>(options.capacity, 2))),
      group_size_(capacity_ < kKeysPerLine ? capacity_ : kKeysPerLine),
      groups_(capacity_ / group_size_),
      group_mask_(groups_ - 1) {
  // One calloc'd block, [keys | headers | spill counts | payload], each
  // part 64-byte aligned. Large blocks arrive as untouched zero pages.
  constexpr std::size_t kLine = 64;
  const std::size_t keys_bytes =
      align_up(capacity_ * sizeof(std::uint64_t), kLine);
  const std::size_t header_bytes = align_up(capacity_ * sizeof(Header), kLine);
  const std::size_t overflow_bytes =
      align_up(groups_ * sizeof(std::uint32_t), kLine);
  const std::size_t payload_bytes =
      capacity_ * kScales * kBucketsPerScale * sizeof(Bucket);
  storage_.reset(std::calloc(
      1, kLine + keys_bytes + header_bytes + overflow_bytes + payload_bytes));
  if (!storage_) throw std::bad_alloc();
  auto* base = static_cast<unsigned char*>(storage_.get());
  base += (kLine - reinterpret_cast<std::uintptr_t>(base) % kLine) % kLine;
  keys_ = reinterpret_cast<std::uint64_t*>(base);
  base += keys_bytes;
  headers_ = reinterpret_cast<Header*>(base);
  base += header_bytes;
  overflow_ = reinterpret_cast<std::uint32_t*>(base);
  base += overflow_bytes;
  payload_ = reinterpret_cast<Bucket*>(base);
}

std::size_t ArrivalRecorder::home_group(
    traffic::FlowId flow_id) const noexcept {
  return static_cast<std::size_t>(mix(flow_id)) & group_mask_;
}

std::size_t ArrivalRecorder::find(traffic::FlowId flow_id) const noexcept {
  const std::uint64_t key = flow_id + 1;
  std::size_t group = home_group(flow_id);
  for (std::size_t n = 0; n < groups_; ++n) {
    const std::size_t first = group * group_size_;
    for (std::size_t slot = first; slot < first + group_size_; ++slot)
      if (ref(keys_[slot]).load(std::memory_order_acquire) == key)
        return slot;
    // No flow homed here or earlier spilled past this group: stop.
    if (ref(overflow_[group]).load(std::memory_order_acquire) == 0) break;
    group = (group + 1) & group_mask_;
  }
  return capacity_;
}

void ArrivalRecorder::on_admit(traffic::FlowId flow_id,
                               std::uint32_t class_index) noexcept {
  if (find(flow_id) != capacity_) return;  // re-admit is a no-op
  const std::uint64_t key = flow_id + 1;
  const std::size_t home = home_group(flow_id);
  std::size_t group = home;
  for (std::size_t n = 0; n < groups_; ++n) {
    const std::size_t first = group * group_size_;
    for (std::size_t slot = first; slot < first + group_size_; ++slot) {
      std::uint64_t expected = 0;
      if (ref(keys_[slot]).load(std::memory_order_relaxed) != 0 ||
          !ref(keys_[slot]).compare_exchange_strong(
              expected, kBusyKey, std::memory_order_acquire,
              std::memory_order_relaxed))
        continue;
      claim(slot, class_index);
      ref(keys_[slot]).store(key, std::memory_order_release);
      return;
    }
    // Group full: mark the spill before the key can be published further
    // along, so lookups walk on past this group.
    ref(overflow_[group]).fetch_add(1, std::memory_order_relaxed);
    group = (group + 1) & group_mask_;
  }
  // Every group is full: take back the spill marks and drop.
  for (std::size_t n = 0; n < groups_; ++n)
    ref(overflow_[(home + n) & group_mask_])
        .fetch_sub(1, std::memory_order_relaxed);
  dropped_registrations_.fetch_add(1, std::memory_order_relaxed);
}

void ArrivalRecorder::claim(std::size_t slot,
                            std::uint32_t class_index) noexcept {
  // The key is busy: no reader pairs the slot with anyone until the caller
  // publishes it. A new generation retires the previous occupant's windows
  // without touching them, except when the counter wraps.
  Header& header = headers_[slot];
  std::uint32_t generation =
      ref(header.generation).load(std::memory_order_relaxed) + 1;
  if (generation > kMaxGeneration) {
    generation = 1;
    Bucket* bucket = buckets(slot);
    for (std::size_t b = 0; b < kScales * kBucketsPerScale; ++b) {
      ref(bucket[b].tag).store(0, std::memory_order_relaxed);
      ref(bucket[b].units).store(0, std::memory_order_relaxed);
    }
  }
  ref(header.generation).store(generation, std::memory_order_relaxed);
  ref(header.class_index).store(class_index, std::memory_order_relaxed);
  ref(header.registered_ns).store(0, std::memory_order_relaxed);
  ref(header.total_units).store(0, std::memory_order_relaxed);
}

void ArrivalRecorder::on_release(traffic::FlowId flow_id) noexcept {
  const std::size_t slot = find(flow_id);
  if (slot == capacity_) return;
  std::uint64_t expected = flow_id + 1;
  if (!ref(keys_[slot]).compare_exchange_strong(expected, 0,
                                                std::memory_order_acq_rel))
    return;
  // Take back the spill marks the admit left on the way to this group.
  const std::size_t last = slot / group_size_;
  for (std::size_t group = home_group(flow_id); group != last;
       group = (group + 1) & group_mask_)
    ref(overflow_[group]).fetch_sub(1, std::memory_order_relaxed);
}

void ArrivalRecorder::record(traffic::FlowId flow_id, double bits,
                             std::int64_t t_ns) noexcept {
  const std::size_t slot = find(flow_id);
  if (slot == capacity_) {
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!(bits > 0.0) || t_ns < 0) return;
  // Round DOWN to the 2^-10 grid: Ê never overcounts true arrivals.
  const std::uint64_t units =
      static_cast<std::uint64_t>(bits * kUnitsPerBit);
  Header& header = headers_[slot];
  const std::uint32_t generation =
      ref(header.generation).load(std::memory_order_relaxed);
  std::int64_t reg = ref(header.registered_ns).load(std::memory_order_relaxed);
  if (reg == 0)  // first arrival stamps the observation epoch
    ref(header.registered_ns)
        .compare_exchange_strong(reg, t_ns, std::memory_order_relaxed);
  ref(header.total_units).fetch_add(units, std::memory_order_relaxed);
  Bucket* scales = buckets(slot);
  for (std::size_t s = 0; s < kScales; ++s) {
    const std::int64_t epoch = t_ns / bucket_width(s);
    const std::uint64_t want = tag(generation, epoch);
    Bucket& bucket =
        scales[s * kBucketsPerScale +
               static_cast<std::size_t>(epoch) % kBucketsPerScale];
    std::uint64_t seen = ref(bucket.tag).load(std::memory_order_acquire);
    if (seen != want) {
      if (seen == kResetting) continue;  // another writer is resetting it
      // Same generation, newer epoch: a late arrival into a recycled
      // bucket. Any other generation is a retired occupant's: reset it.
      if (generation_of(seen) == generation && seen > want) continue;
      if (ref(bucket.tag).compare_exchange_strong(
              seen, kResetting, std::memory_order_acquire)) {
        ref(bucket.units).store(0, std::memory_order_relaxed);
        ref(bucket.tag).store(want, std::memory_order_release);
      } else if (seen != want) {
        continue;  // someone else reset or advanced the bucket
      }
    }
    ref(bucket.units).fetch_add(units, std::memory_order_relaxed);
  }
}

void ArrivalRecorder::collect(std::int64_t now_ns,
                              std::vector<FlowWindows>& out) const {
  for (std::size_t slot = 0; slot < capacity_; ++slot) {
    const std::uint64_t key =
        ref(keys_[slot]).load(std::memory_order_acquire);
    if (key == 0 || key == kBusyKey) continue;
    Header& header = headers_[slot];
    const std::uint32_t generation =
        ref(header.generation).load(std::memory_order_relaxed);
    FlowWindows fw;
    fw.flow_id = key - 1;
    fw.class_index = ref(header.class_index).load(std::memory_order_relaxed);
    fw.registered_ns =
        ref(header.registered_ns).load(std::memory_order_relaxed);
    fw.total_bits = static_cast<double>(ref(header.total_units).load(
                        std::memory_order_relaxed)) /
                    kUnitsPerBit;
    Bucket* scales = buckets(slot);
    for (std::size_t s = 0; s < kScales && now_ns >= 0; ++s) {
      const std::int64_t newest = now_ns / bucket_width(s);
      const std::int64_t oldest =
          newest - static_cast<std::int64_t>(kBucketsPerScale) + 1;
      // Tags of this generation with epoch in [oldest, newest]; any other
      // generation, kResetting and never-written buckets fall outside.
      const std::uint64_t lo = tag(generation, oldest < 0 ? 0 : oldest);
      const std::uint64_t hi = tag(generation, newest);
      std::uint64_t sum = 0;
      for (std::size_t b = 0; b < kBucketsPerScale; ++b) {
        Bucket& bucket = scales[s * kBucketsPerScale + b];
        const std::uint64_t seen =
            ref(bucket.tag).load(std::memory_order_acquire);
        if (seen >= lo && seen <= hi)
          sum += ref(bucket.units).load(std::memory_order_relaxed);
      }
      fw.window_bits[s] = static_cast<double>(sum) / kUnitsPerBit;
    }
    // A slot released or recycled mid-read carries another flow's
    // partial header: drop it, the next collect() sees a settled view.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (ref(keys_[slot]).load(std::memory_order_acquire) != key ||
        ref(header.generation).load(std::memory_order_relaxed) != generation)
      continue;
    out.push_back(fw);
  }
}

std::size_t ArrivalRecorder::flow_count() const noexcept {
  std::size_t live = 0;
  for (std::size_t slot = 0; slot < capacity_; ++slot) {
    const std::uint64_t key =
        ref(keys_[slot]).load(std::memory_order_relaxed);
    live += key != 0 && key != kBusyKey;
  }
  return live;
}

}  // namespace ubac::telemetry
