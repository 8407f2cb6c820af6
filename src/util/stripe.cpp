#include "util/stripe.hpp"

#include <atomic>

namespace ubac::util::detail {

std::size_t claim_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

}  // namespace ubac::util::detail
