#pragma once

/// \file flow_registry.hpp
/// \brief Open-addressing flow record map used by the concurrent
///        controller's sharded edge registry.
///
/// The seed registry stored a full traffic::Flow (with its own route
/// vector) in a node-based unordered_map — three heap allocations per
/// admit. The run-time fast path only ever needs four words per flow:
/// the class, the endpoints, and a pointer to the route the controller's
/// own immutable RoutingTable already owns. This map stores exactly that
/// in one flat slot array with linear probing, so admit/release touch no
/// allocator at steady state (growth doubles the array, amortized O(1)).
///
/// Not thread-safe by itself: each controller shard wraps one map in its
/// shard mutex. Flow ids are unique for the life of a controller (each
/// caller hands out ids from its own 64-id block and every block is taken
/// once from a block counter), which is why insert() may take the first
/// free slot without a duplicate probe. Ids are neither dense nor
/// globally ordered under concurrency; the Fibonacci hash below does not
/// need them to be.

#include <cstdint>
#include <vector>

#include "net/path.hpp"
#include "traffic/flow.hpp"

namespace ubac::admission {

/// One registered flow, route held by reference into the routing table.
struct FlowRecord {
  traffic::FlowId id = 0;  ///< 0 = empty slot, kTombstone = erased slot
  const net::ServerPath* route = nullptr;
  std::uint32_t class_index = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
};

/// Flat linear-probing map keyed by flow id. Ids 0 and ~0 are reserved as
/// slot markers (the controller never assigns id 0).
class FlowShardMap {
 public:
  static constexpr traffic::FlowId kTombstone = ~traffic::FlowId{0};

  FlowShardMap() { slots_.resize(kInitialCapacity); }

  std::size_t size() const { return size_; }

  /// Insert a record whose id is not present (guaranteed by id
  /// uniqueness). Amortized O(1); reallocates only on growth.
  void insert(const FlowRecord& record) {
    if ((size_ + tombstones_ + 1) * 4 > slots_.size() * 3) rehash();
    place(record);
    ++size_;
  }

  /// Find a live record; the pointer is invalidated by the next insert or
  /// erase on this shard (callers copy under the shard lock). The reserved
  /// marker ids (0, kTombstone) are never present — without the explicit
  /// check they would match empty/erased slots.
  const FlowRecord* find(traffic::FlowId id) const {
    if (id == 0 || id == kTombstone) return nullptr;
    std::size_t i = index_of(id);
    while (true) {
      const FlowRecord& slot = slots_[i];
      if (slot.id == id) return &slot;
      if (slot.id == 0) return nullptr;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Remove a live record, copying it to `out`. False when absent (and
  /// always false for the reserved marker ids, which match slot markers).
  bool erase(traffic::FlowId id, FlowRecord& out) {
    if (id == 0 || id == kTombstone) return false;
    std::size_t i = index_of(id);
    while (true) {
      FlowRecord& slot = slots_[i];
      if (slot.id == id) {
        out = slot;
        slot = FlowRecord{};
        slot.id = kTombstone;
        --size_;
        ++tombstones_;
        return true;
      }
      if (slot.id == 0) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Visit every live record (teardown sweeps, tests).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const FlowRecord& slot : slots_)
      if (slot.id != 0 && slot.id != kTombstone) fn(slot);
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  std::size_t index_of(traffic::FlowId id) const {
    // Fibonacci hash: sequential ids spread over the whole table.
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }

  /// Claim the first empty or tombstone slot on id's probe chain. Safe
  /// without a duplicate check because ids are never reused.
  void place(const FlowRecord& record) {
    std::size_t i = index_of(record.id);
    while (true) {
      FlowRecord& slot = slots_[i];
      if (slot.id == 0 || slot.id == kTombstone) {
        if (slot.id == kTombstone) --tombstones_;
        slot = record;
        return;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  void rehash() {
    std::vector<FlowRecord> old = std::move(slots_);
    std::size_t capacity = kInitialCapacity;
    while (size_ * 2 >= capacity) capacity *= 2;
    slots_.assign(capacity, FlowRecord{});
    tombstones_ = 0;
    for (const FlowRecord& slot : old)
      if (slot.id != 0 && slot.id != kTombstone) place(slot);
  }

  std::vector<FlowRecord> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace ubac::admission
