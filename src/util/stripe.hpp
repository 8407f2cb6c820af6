#pragma once

/// \file stripe.hpp
/// \brief Per-thread stripe index shared by every striped structure.
///
/// Hot-path state that many threads update (metric counters, the flow-id
/// cursors and trace buffers of the admission path) is split into
/// kStripes cache-line-sized cells, and each thread works on the cell its
/// stripe index names. The first kStripes threads of the process get
/// distinct stripes; later threads wrap around and share, which costs
/// contention but never correctness — every striped structure must stay
/// correct when two threads share a stripe.

#include <cstddef>

namespace ubac::util {

inline constexpr std::size_t kStripes = 16;

namespace detail {
/// Hands out stripe indices round-robin; called once per thread.
std::size_t claim_stripe() noexcept;
}  // namespace detail

/// Stable per-thread stripe index in [0, kStripes).
inline std::size_t stripe_index() noexcept {
  thread_local const std::size_t idx = detail::claim_stripe();
  return idx;
}

}  // namespace ubac::util
