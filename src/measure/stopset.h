// Doubletree-style stop sets (Donnet et al., "Efficient Route Tracing
// from a Single Source" — PAPERS.md): redundancy-aware probing for the
// traceroute and TTL-limited campaigns.
//
// Two kinds of knowledge stop a probe before it is sent:
//
//  * a per-VP **local stop set** of (interface, TTL) facts — the monitor
//    has already seen this router at this distance, so the shared tree
//    below it has been explored by this monitor before (Doubletree's
//    backward stopping rule);
//  * a **global stop set** of (interface, destination /24) facts shared by
//    every VP — some monitor has already traced from this interface to
//    this prefix, and destination-based forwarding makes the path suffix
//    from an interface to a prefix source-independent, so re-tracing it
//    discovers nothing (the forward stopping rule).
//
// Both kinds (plus the TTL-study's path-point/reach-point facts) live in
// the same structure, StopSet: a striped open-addressing hash set of
// 64-bit keys with allocation-free membership checks (they sit on the
// probing hot path). A set has one writer at a time and is never written
// while another thread reads it: a census local set belongs to its VP's
// task, the TTL study is serial, and the global set is read-only inside a
// census round. DoubletreeGate only queues its global facts, and the
// census commits them in canonical VP order at round boundaries (the
// deferred pattern the token-bucket replay established), so the set every
// worker reads is a pure function of the probe stream, never of thread
// timing. StopSet::commit runs such a commit with one pool task per
// stripe: stripes never interact, so each stripe's keys in VP order are
// all the canonical order fixes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netbase/address.h"
#include "probe/types.h"

namespace rr::util {
class ThreadPool;
}  // namespace rr::util

namespace rr::measure {

// ------------------------------------------------------------------ keys
//
// Every stop fact packs losslessly into 58 bits (tag + address material)
// and is then passed through a bijective 64-bit mix, so distinct facts
// are distinct keys — the set has no false positives, only the sharing
// approximations Doubletree itself makes.

/// Destination prefix used by the global stop set (the paper's campaigns
/// probe one host per advertised prefix, so /24 is a safe refinement).
[[nodiscard]] net::IPv4Address stopset_prefix_of(net::IPv4Address a) noexcept;

/// Local stop fact: this monitor saw `iface` answer at distance `ttl`.
[[nodiscard]] std::uint64_t local_stop_key(net::IPv4Address iface,
                                           int ttl) noexcept;
/// Global stop fact: some monitor traced through `iface` toward the
/// prefix of `dest`.
[[nodiscard]] std::uint64_t global_stop_key(net::IPv4Address iface,
                                            net::IPv4Address dest) noexcept;
/// TTL-study fact: a probe from this monitor toward the prefix of `dest`
/// with initial TTL `ttl` is known to expire in the tree.
[[nodiscard]] std::uint64_t path_point_key(net::IPv4Address dest,
                                           int ttl) noexcept;
/// TTL-study fact: a probe toward the prefix of `dest` with initial TTL
/// `ttl` is known to reach the destination.
[[nodiscard]] std::uint64_t reach_point_key(net::IPv4Address dest,
                                            int ttl) noexcept;

// ------------------------------------------------------------- StopSet

/// Striped open-addressing hash set of stop-fact keys.
///
/// Not thread-safe: at most one thread writes a set (insert() or
/// commit(), whose stripe tasks write disjoint stripes), and none reads it
/// meanwhile; any number may read it between writes. Fixed capacity,
/// chosen at construction from the expected fact count, so membership
/// checks never meet a rehash. A stripe that fills past its load limit
/// stops accepting inserts (counted in overflows()); saturation only
/// costs savings, never correctness — an absent fact means the probe is
/// sent, exactly as with stop sets disabled.
class StopSet {
 public:
  static constexpr std::size_t kStripes = 64;

  /// Gives each stripe ceil(2 * expected_keys / kStripes) slots, at least
  /// 64. A stripe takes keys up to 3/4 load, so the set holds
  /// `expected_keys` with room for the stripes' uneven shares.
  explicit StopSet(std::size_t expected_keys);

  StopSet(const StopSet&) = delete;
  StopSet& operator=(const StopSet&) = delete;

  /// Membership. No allocation.
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

  /// Inserts one key. Returns true when the key is new; false when it was
  /// already present or its stripe is full.
  bool insert(std::uint64_t key);

  /// The deferred-commit path: inserts every key of batches[0], then of
  /// batches[1], and so on, with one task per stripe on `pool`. Each
  /// stripe has its own slots, size and load limit, so inserts into
  /// different stripes never interact, and keeping each stripe's keys in
  /// batch order gives the same contents, slot layout, size() and
  /// overflows() as calling insert() on every key in that order, at any
  /// pool size. Returns how many keys were new.
  std::size_t commit(std::span<const std::span<const std::uint64_t>> batches,
                     util::ThreadPool& pool);

  /// Number of keys stored (sums the stripes; not for hot paths).
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept {
    return kStripes * stripe_capacity_;
  }
  /// Bytes held: every slot plus the per-stripe counters.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return capacity() * sizeof(std::uint64_t) + kStripes * sizeof(Stripe);
  }
  /// Inserts rejected because a stripe was at its load limit.
  [[nodiscard]] std::uint64_t overflows() const noexcept;

 private:
  struct Stripe {
    std::size_t size = 0;
    std::uint64_t overflows = 0;
  };

  /// insert() into stripe `s`, the key's stripe.
  bool insert_into(std::size_t s, std::uint64_t key);

  [[nodiscard]] std::size_t stripe_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key >> 58) & (kStripes - 1);
  }
  /// The key's home slot in its stripe: a multiply-shift of the key's low
  /// 32 bits (the top six chose the stripe) onto [0, stripe_capacity_).
  [[nodiscard]] std::size_t home_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(
        ((key & 0xffff'ffffu) * stripe_capacity_) >> 32);
  }
  [[nodiscard]] std::size_t next_slot(std::size_t i) const noexcept {
    return i + 1 == stripe_capacity_ ? 0 : i + 1;
  }
  [[nodiscard]] const std::uint64_t* stripe_slots(
      std::size_t s) const noexcept {
    return slots_.get() + s * stripe_capacity_;
  }
  [[nodiscard]] std::uint64_t* stripe_slots(std::size_t s) noexcept {
    return slots_.get() + s * stripe_capacity_;
  }

  std::size_t stripe_capacity_;  // ceil(2 * expected / kStripes), >= 64
  std::size_t stripe_limit_;     // max keys per stripe (3/4 load)
  std::unique_ptr<std::uint64_t[]> slots_;
  std::unique_ptr<Stripe[]> stripes_;
};

// -------------------------------------------------------------- stats

/// Uniform probing-cost counters recorded by every stop-set consumer and
/// surfaced in bench telemetry (probes_sent / probes_saved /
/// stopset_hit_rate).
struct StopSetStats {
  std::uint64_t probes_sent = 0;   // probes actually driven through the net
  std::uint64_t probes_saved = 0;  // probes a stop fact made unnecessary
  std::uint64_t checks = 0;        // membership queries
  std::uint64_t hits = 0;          // queries that found a fact

  [[nodiscard]] double hit_rate() const noexcept {
    return checks ? static_cast<double>(hits) / static_cast<double>(checks)
                  : 0.0;
  }
  /// Fraction of the off-run probe budget the stop sets eliminated.
  [[nodiscard]] double reduction() const noexcept {
    const std::uint64_t total = probes_sent + probes_saved;
    return total ? static_cast<double>(probes_saved) /
                       static_cast<double>(total)
                 : 0.0;
  }
  void merge(const StopSetStats& other) noexcept {
    probes_sent += other.probes_sent;
    probes_saved += other.probes_saved;
    checks += other.checks;
    hits += other.hits;
  }
};

// ------------------------------------------------------ DoubletreeGate

/// probe::TraceGate implementation over a local + global stop set: the
/// policy half of Doubletree (forward from hop h, backward h-1..1), bound
/// to one VP's probe stream.
///
/// The gate reads the global set and never writes it: record() inserts
/// the local fact and queues the global fact in pending_global(), and the
/// caller commits the queue (StopSet::commit) between traces. The census
/// commits every VP's queue in canonical VP order at round boundaries, so
/// its probe schedule is bit-identical at any thread count.
class DoubletreeGate final : public probe::TraceGate {
 public:
  /// Doubletree's h: a trace probes forward from this TTL, then backward
  /// from h-1 down to 1.
  static constexpr int kFirstHop = 5;

  DoubletreeGate(StopSet& local, const StopSet& global)
      : local_(&local), global_(&global) {}

  int begin(net::IPv4Address target) override;
  bool stop_forward(net::IPv4Address iface) override;
  bool stop_backward(net::IPv4Address iface, int ttl) override;
  void record(net::IPv4Address iface, int ttl) override;

  /// Global-set facts recorded since the last commit, in record order.
  [[nodiscard]] std::vector<std::uint64_t>& pending_global() noexcept {
    return pending_global_;
  }
  [[nodiscard]] StopSetStats& stats() noexcept { return stats_; }
  [[nodiscard]] const StopSetStats& stats() const noexcept { return stats_; }

 private:
  StopSet* local_;
  const StopSet* global_;
  net::IPv4Address target_prefix_;
  StopSetStats stats_;
  std::vector<std::uint64_t> pending_global_;
};

}  // namespace rr::measure
