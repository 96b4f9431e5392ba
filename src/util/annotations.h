// Clang Thread Safety Analysis annotations for the rropt concurrency spine.
//
// The repo's core contract — bit-identical datasets at any thread count —
// rests on a small set of lock and phase disciplines (ThreadPool region
// state, Network's serial-replay phases).
// These macros turn those disciplines into compile-time facts: a clang
// build with -Wthread-safety (wired into the static-analysis CI job as
// -Werror=thread-safety) refuses code that touches guarded state without
// the declared capability. On non-clang compilers every macro expands to
// nothing.
//
// Vocabulary (see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//   RROPT_CAPABILITY(name)   — marks a class as a lockable capability
//   RROPT_SCOPED_CAPABILITY  — marks an RAII lock holder
//   RROPT_GUARDED_BY(mu)     — data member readable/writable only under mu
//   RROPT_PT_GUARDED_BY(mu)  — pointee guarded by mu (pointer itself free)
//   RROPT_REQUIRES(mu)       — function must be called with mu held
//   RROPT_ACQUIRE(mu)        — function acquires mu and does not release it
//   RROPT_RELEASE(mu)        — function releases mu
//   RROPT_TRY_ACQUIRE(b, mu) — acquires mu iff the function returns b
//   RROPT_EXCLUDES(mu)       — function must NOT be called with mu held
//   RROPT_ASSERT_CAPABILITY  — runtime claim that mu is held (AssertHeld)
//   RROPT_RETURN_CAPABILITY  — accessor returning a reference to mu
//
// Use util::Mutex / util::MutexLock (util/mutex.h) rather than annotating
// std::mutex directly: libstdc++'s std::mutex carries no annotations, so
// the analysis cannot see its lock/unlock pairs (and rropt_lint bans raw
// std::mutex members outside util/ for exactly that reason).
#pragma once

#if defined(__clang__)
#define RROPT_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define RROPT_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

#define RROPT_CAPABILITY(x) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

#define RROPT_SCOPED_CAPABILITY \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

#define RROPT_GUARDED_BY(x) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

#define RROPT_PT_GUARDED_BY(x) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

#define RROPT_REQUIRES(...) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

#define RROPT_REQUIRES_SHARED(...) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

#define RROPT_ACQUIRE(...) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

#define RROPT_RELEASE(...) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

#define RROPT_TRY_ACQUIRE(...) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

#define RROPT_EXCLUDES(...) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

#define RROPT_ASSERT_CAPABILITY(...) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(__VA_ARGS__))

#define RROPT_RETURN_CAPABILITY(x) \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

#define RROPT_NO_THREAD_SAFETY_ANALYSIS \
  RROPT_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)
