#include "measure/stopset.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace rr::measure {
namespace {

// Key tags (2 bits at 56..57; bits 58+ stay zero pre-mix so the packed
// value is lossless in 58 bits).
constexpr std::uint64_t kTagLocal = 0;
constexpr std::uint64_t kTagGlobal = 1;
constexpr std::uint64_t kTagPathPoint = 2;
constexpr std::uint64_t kTagReachPoint = 3;

/// Bijective: distinct packed facts map to distinct keys, so the set has
/// no cross-fact collisions — only deliberate Doubletree sharing.
[[nodiscard]] std::uint64_t key_of(std::uint64_t packed) noexcept {
  const std::uint64_t mixed = util::mix64(packed);
  // 0 is the empty-slot sentinel; remap the single colliding input.
  return mixed != 0 ? mixed : 0x9e3779b97f4a7c15ULL;
}

}  // namespace

net::IPv4Address stopset_prefix_of(net::IPv4Address a) noexcept {
  return net::IPv4Address{a.value() & 0xffffff00u};
}

std::uint64_t local_stop_key(net::IPv4Address iface, int ttl) noexcept {
  return key_of((kTagLocal << 56) | (std::uint64_t{iface.value()} << 8) |
                (static_cast<std::uint64_t>(ttl) & 0xff));
}

std::uint64_t global_stop_key(net::IPv4Address iface,
                              net::IPv4Address dest) noexcept {
  // iface (32b) + dest /24 (24b) + tag = 58 bits.
  return key_of((kTagGlobal << 56) | (std::uint64_t{iface.value()} << 24) |
                (stopset_prefix_of(dest).value() >> 8));
}

std::uint64_t path_point_key(net::IPv4Address dest, int ttl) noexcept {
  return key_of((kTagPathPoint << 56) |
                (std::uint64_t{stopset_prefix_of(dest).value()} << 8) |
                (static_cast<std::uint64_t>(ttl) & 0xff));
}

std::uint64_t reach_point_key(net::IPv4Address dest, int ttl) noexcept {
  return key_of((kTagReachPoint << 56) |
                (std::uint64_t{stopset_prefix_of(dest).value()} << 8) |
                (static_cast<std::uint64_t>(ttl) & 0xff));
}

// ------------------------------------------------------------- StopSet

StopSet::StopSet(std::size_t expected_keys)
    // Inserts cap at 3/4 load per stripe so the lock-free probe loop
    // always terminates on an empty slot.
    : stripe_capacity_(std::max<std::size_t>(
          64, (2 * expected_keys + kStripes - 1) / kStripes)),
      stripe_limit_(stripe_capacity_ - stripe_capacity_ / 4),
      // Value-initialized: every slot starts at 0, the empty sentinel.
      slots_(std::make_unique<std::atomic<std::uint64_t>[]>(
          kStripes * stripe_capacity_)),
      stripes_(std::make_unique<Stripe[]>(kStripes)) {}

bool StopSet::contains(std::uint64_t key) const noexcept {
  // RROPT_HOT_BEGIN(stopset-contains): membership sits on the probing hot
  // path (one check per candidate probe); lock-free acquire loads over
  // the stripe's open-addressing run, no allocation, no mutex.
  const std::atomic<std::uint64_t>* slots = stripe_slots(stripe_of(key));
  for (std::size_t i = home_of(key);; i = next_slot(i)) {
    const std::uint64_t v = slots[i].load(std::memory_order_acquire);
    if (v == key) return true;
    if (v == 0) return false;
  }
  // RROPT_HOT_END(stopset-contains)
}

bool StopSet::insert(std::uint64_t key) {
  const std::size_t s = stripe_of(key);
  Stripe& stripe = stripes_[s];
  util::MutexLock lock(stripe.mu);
  return insert_locked(stripe, stripe_slots(s), key);
}

bool StopSet::insert_locked(Stripe& stripe, std::atomic<std::uint64_t>* slots,
                            std::uint64_t key) {
  std::size_t i = home_of(key);
  for (;; i = next_slot(i)) {
    // Writers are serialized per stripe, so a relaxed read of our own
    // stripe is exact; the release store below pairs with readers'
    // acquire loads.
    const std::uint64_t v = slots[i].load(std::memory_order_relaxed);
    if (v == key) return false;
    if (v == 0) break;
  }
  if (stripe.size >= stripe_limit_) {
    overflows_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots[i].store(key, std::memory_order_release);
  ++stripe.size;
  return true;
}

std::size_t StopSet::commit(
    std::span<const std::span<const std::uint64_t>> batches,
    util::ThreadPool& pool) {
  // Bucket each batch by stripe, keeping its order: batch b's keys land in
  // keys[base[b] .. base[b + 1]), its stripe-s run starting at
  // runs[b * (kStripes + 1) + s].
  const std::size_t n = batches.size();
  std::vector<std::size_t> base(n + 1, 0);
  for (std::size_t b = 0; b < n; ++b) {
    base[b + 1] = base[b] + batches[b].size();
  }
  std::vector<std::uint64_t> keys(base[n]);
  std::vector<std::size_t> runs(n * (kStripes + 1));
  pool.parallel_for(n, [&](std::size_t b) {
    std::size_t* run = runs.data() + b * (kStripes + 1);
    std::array<std::size_t, kStripes> fill{};
    for (const std::uint64_t key : batches[b]) ++fill[stripe_of(key)];
    std::size_t at = base[b];
    for (std::size_t s = 0; s < kStripes; ++s) {
      run[s] = at;
      at += fill[s];
      fill[s] = run[s];
    }
    run[kStripes] = at;
    for (const std::uint64_t key : batches[b]) {
      keys[fill[stripe_of(key)]++] = key;
    }
  });

  // Then each stripe takes its runs in batch order, under one lock.
  std::array<std::size_t, kStripes> fresh{};
  pool.parallel_for(kStripes, [&](std::size_t s) {
    Stripe& stripe = stripes_[s];
    std::atomic<std::uint64_t>* slots = stripe_slots(s);
    util::MutexLock lock(stripe.mu);
    std::size_t inserted = 0;
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t* run = runs.data() + b * (kStripes + 1);
      for (std::size_t i = run[s]; i < run[s + 1]; ++i) {
        if (insert_locked(stripe, slots, keys[i])) ++inserted;
      }
    }
    fresh[s] = inserted;
  });
  return std::accumulate(fresh.begin(), fresh.end(), std::size_t{0});
}

std::size_t StopSet::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kStripes; ++s) {
    util::MutexLock lock(stripes_[s].mu);
    total += stripes_[s].size;
  }
  return total;
}

// ------------------------------------------------------ DoubletreeGate

int DoubletreeGate::begin(net::IPv4Address target) {
  target_prefix_ = stopset_prefix_of(target);
  return kFirstHop;
}

bool DoubletreeGate::stop_forward(net::IPv4Address iface) {
  ++stats_.checks;
  if (global_->contains(global_stop_key(iface, target_prefix_))) {
    ++stats_.hits;
    return true;
  }
  return false;
}

bool DoubletreeGate::stop_backward(net::IPv4Address iface, int ttl) {
  ++stats_.checks;
  if (!local_->contains(local_stop_key(iface, ttl))) return false;
  ++stats_.hits;
  return true;
}

void DoubletreeGate::record(net::IPv4Address iface, int ttl) {
  local_->insert(local_stop_key(iface, ttl));
  pending_global_.push_back(global_stop_key(iface, target_prefix_));
}

}  // namespace rr::measure
