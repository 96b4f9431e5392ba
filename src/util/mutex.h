// Annotated synchronisation primitives (see util/annotations.h).
//
// util::Mutex wraps std::mutex with Clang Thread Safety Analysis
// capability annotations, so RROPT_GUARDED_BY members are actually
// checkable — libstdc++'s std::mutex carries no annotations and is
// invisible to the analysis. rropt_lint enforces the flip side: raw
// std::mutex members are allowed only under src/util/ (i.e. here), every
// other layer must hold its locks through these wrappers.
//
// util::SerialGate is a *zero-cost phase capability*: it is not a lock at
// all, but a compile-time token for "the caller promised nothing else
// touches the guarded state right now". Network's token buckets and
// aggregate counters are touched only by one serial actor at a time (a
// settle — the campaign's pass B or a settled send —, a counter merge,
// reset between campaigns); guarding them with a real mutex would tax the
// hot path for a discipline that is enforced by campaign structure, not
// by blocking. The gate gives the structure a name the compiler can
// check: direct accesses to RROPT_GUARDED_BY(serial_gate_) state must
// either hold a SerialGateLock or assert the contract with assert_held().
//
// The contract is about the guarded state, not about sends in general: a
// gate holder may run beside sends, which never read or write gate-guarded
// state — the campaign settles one chunk's probes while the next chunk's
// probes walk. It must never run beside another gate holder.
#pragma once

#include <mutex>

#include "util/annotations.h"

namespace rr::util {

class RROPT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RROPT_ACQUIRE() { mu_.lock(); }
  void unlock() RROPT_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() RROPT_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

  /// The wrapped mutex, for APIs that need the concrete type (currently
  /// std::condition_variable via CvLock). The returned reference carries
  /// no annotations; lock it only through this class.
  [[nodiscard]] std::mutex& native_handle() noexcept { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII exclusive lock over a util::Mutex (std::lock_guard shape).
class RROPT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RROPT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RROPT_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock that exposes a std::unique_lock for condition-
/// variable waits. The analysis treats the capability as held for the
/// whole scope; a cv wait releases and reacquires inside one statement,
/// which is sound at the statement granularity the analysis checks.
/// Keep waited-on predicates as plain loops in the holding function
/// (`while (!pred()) cv.wait(lock.native());`) — lambda bodies are
/// analysed with an empty capability set and would warn spuriously.
class RROPT_SCOPED_CAPABILITY CvLock {
 public:
  explicit CvLock(Mutex& mu) RROPT_ACQUIRE(mu) : lock_(mu.native_handle()) {}
  ~CvLock() RROPT_RELEASE() {}

  CvLock(const CvLock&) = delete;
  CvLock& operator=(const CvLock&) = delete;

  [[nodiscard]] std::unique_lock<std::mutex>& native() noexcept {
    return lock_;
  }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Zero-cost capability for caller-serialized phases (see file comment):
/// one holder at a time, but sends may be in flight. acquire()/release()
/// compile to nothing; the value is entirely in the annotations they
/// carry.
class RROPT_CAPABILITY("serial-phase") SerialGate {
 public:
  SerialGate() = default;
  SerialGate(const SerialGate&) = delete;
  SerialGate& operator=(const SerialGate&) = delete;

  void acquire() RROPT_ACQUIRE() {}
  void release() RROPT_RELEASE() {}

  /// Claims the serial contract holds here without a scoped acquisition —
  /// the annotated equivalent of "the caller promised not to race this
  /// call" (a read of Network's totals between phases).
  void assert_held() const RROPT_ASSERT_CAPABILITY() {}
};

/// RAII holder for a SerialGate phase. Zero runtime cost.
class RROPT_SCOPED_CAPABILITY SerialGateLock {
 public:
  explicit SerialGateLock(SerialGate& gate) RROPT_ACQUIRE(gate)
      : gate_(gate) {
    gate_.acquire();
  }
  ~SerialGateLock() RROPT_RELEASE() { gate_.release(); }

  SerialGateLock(const SerialGateLock&) = delete;
  SerialGateLock& operator=(const SerialGateLock&) = delete;

 private:
  SerialGate& gate_;
};

}  // namespace rr::util
