// A small reusable worker pool for data-parallel loops.
//
// The campaign executor fans per-VP probe streams across these workers;
// anything else that wants a parallel sweep (benches, future studies) can
// reuse the same pool. Design goals, in order: determinism of the *caller*
// (the pool never reorders a caller's own work, it only partitions an index
// space), low dispatch overhead for repeated small regions (persistent
// workers, no per-call thread spawn), and graceful degradation to a plain
// loop at one thread so the single-threaded path stays allocation- and
// lock-free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace rr::util {

/// Resolves a thread-count request against the environment:
///   requested > 0          -> requested;
///   RROPT_THREADS set > 0  -> that value;
///   otherwise              -> hardware_concurrency (at least 1).
/// RROPT_THREADS=0 also means all cores; any value that is not a whole
/// integer in [0, INT_MAX] throws std::invalid_argument.
[[nodiscard]] int resolve_thread_count(int requested = 0);

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread participates in
  /// every region, so `threads == 1` spawns nothing).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept { return threads_; }

  /// Runs `fn(i)` for every i in [0, n), partitioned dynamically across
  /// the pool; blocks until all indices are done. `fn` must be safe to
  /// call concurrently for distinct indices. Exceptions from `fn` must not
  /// escape (workers would terminate the process).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      RROPT_EXCLUDES(mu_);

 private:
  void worker_loop();

  /// Claims the next index of region `generation`, storing it in `out`.
  /// Returns false when the region is exhausted — or when `claim_` already
  /// belongs to a *newer* region, which happens to a worker that woke for
  /// an old region but was preempted until after it completed. The
  /// generation check makes such stale claims impossible: the worker
  /// contributes nothing and re-parks instead of stealing an index (and
  /// invoking a dangling job pointer) from the region that replaced it.
  bool claim_index(std::uint64_t generation, std::size_t n, std::size_t& out);

  int threads_;
  std::vector<std::thread> workers_;

  /// Guards the region descriptor below: which job is current, how many
  /// indices it spans, and the region generation workers key their wakeups
  /// on. claim_ and completed_ are lock-free and deliberately outside the
  /// capability (their ordering story is the CAS protocol in claim_index).
  Mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ RROPT_GUARDED_BY(mu_) =
      nullptr;
  std::size_t job_n_ RROPT_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ RROPT_GUARDED_BY(mu_) = 0;
  /// Generation (high 32 bits) | next unclaimed index (low 32 bits), in
  /// one atomic so a claim can atomically verify it targets the current
  /// region. Limits a single region to < 2^32 indices; generation reuse
  /// would need a worker to sleep through 2^32 regions.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> completed_{0};
  bool stop_ RROPT_GUARDED_BY(mu_) = false;
};

}  // namespace rr::util
