// CoPP-style token bucket for the router options slow path.
//
// Cisco's control-plane policing guidance rate-limits packets with IP
// options to a small budget; we model each policed router with one bucket
// over virtual time. Time comes from the probing schedule, so probing
// faster than the refill rate produces exactly the drop patterns Figure 4
// investigates.
//
// A bucket is plain serial state with virtual-time-ordered semantics: its
// outcome sequence is fully determined by the ordered sequence of consume
// times it is fed. The network exploits this: a send only *records* its
// would-be consumes, and Network::settle() replays them in the caller's
// canonical order (virtual-time order for the campaign) — the bucket
// itself is never touched from two threads.
#pragma once

#include <algorithm>

namespace rr::sim {

class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_s, double burst) noexcept
      : rate_(rate_per_s), burst_(burst), tokens_(burst) {}

  /// Consumes one token at virtual time `now` (seconds); returns false
  /// when the bucket is empty (the packet is policed). Tolerates
  /// non-monotonic time by never refilling backwards.
  bool try_consume(double now) noexcept {
    if (rate_ <= 0.0) return true;  // unpoliced
    if (now > last_) {
      tokens_ = std::min(burst_, tokens_ + (now - last_) * rate_);
      last_ = now;
    }
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }

  void reset() noexcept {
    tokens_ = burst_;
    last_ = 0.0;
  }

  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  double rate_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  double last_ = 0.0;
};

}  // namespace rr::sim
