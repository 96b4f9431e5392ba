#include "util/thread_pool.h"

#include <cassert>
#include <cstdlib>
#include <limits>

#include "util/strings.h"

namespace rr::util {

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  // getenv only races setenv/putenv, which the library never calls.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("RROPT_THREADS")) {
    const auto parsed = parse_int(env, "RROPT_THREADS", 0,
                                  std::numeric_limits<int>::max());
    if (parsed > 0) return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::claim_index(std::uint64_t generation, std::size_t n,
                             std::size_t& out) {
  std::uint64_t cur = claim_.load(std::memory_order_relaxed);
  while ((cur >> 32) == (generation & 0xffffffffu)) {
    const std::size_t i = static_cast<std::size_t>(cur & 0xffffffffu);
    if (i >= n) return false;
    // CAS rather than fetch_add: the compared value includes the
    // generation bits, so a claim against a region that has since been
    // replaced fails instead of consuming an index of the new region.
    if (claim_.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_relaxed)) {
      out = i;
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t n = 0;
    {
      // Manual wait loop rather than the predicate overload: the guarded
      // reads stay in this function, where the analysis sees the lock
      // (a predicate lambda is analysed with an empty capability set).
      CvLock lock(mu_);
      while (!stop_ && generation_ == seen) work_cv_.wait(lock.native());
      if (stop_) return;
      seen = generation_;
      job = job_;
      n = job_n_;
    }
    // If this worker was preempted here until after region `seen`
    // completed and a new one began, claim_index refuses every claim
    // (generation mismatch), done_here stays 0, and the worker re-parks —
    // then wakes again immediately for the newer generation.
    std::size_t done_here = 0;
    std::size_t i = 0;
    while (claim_index(seen, n, i)) {
      (*job)(i);
      ++done_here;
    }
    // Every claimed index is counted here before the region can complete,
    // so parallel_for cannot return — and reset completed_ — while any
    // worker still owes a contribution for its generation.
    if (done_here > 0 &&
        completed_.fetch_add(done_here, std::memory_order_acq_rel) +
                done_here == n) {
      MutexLock lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  assert(n <= 0xffffffffu && "region too large for 32-bit claim index");
  std::uint64_t gen;
  {
    MutexLock lock(mu_);
    job_ = &fn;
    job_n_ = n;
    completed_.store(0, std::memory_order_relaxed);
    gen = ++generation_;
    claim_.store((gen & 0xffffffffu) << 32, std::memory_order_relaxed);
  }
  work_cv_.notify_all();

  // The calling thread works too.
  std::size_t done_here = 0;
  std::size_t i = 0;
  while (claim_index(gen, n, i)) {
    fn(i);
    ++done_here;
  }
  if (done_here > 0) {
    completed_.fetch_add(done_here, std::memory_order_acq_rel);
  }

  CvLock lock(mu_);
  while (completed_.load(std::memory_order_acquire) != n) {
    done_cv_.wait(lock.native());
  }
  job_ = nullptr;
}

}  // namespace rr::util
