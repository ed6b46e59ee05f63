#ifndef FORESIGHT_UTIL_SYNC_H_
#define FORESIGHT_UTIL_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

/// Annotated synchronization primitives for Clang Thread Safety Analysis.
///
/// Every lock in the engine and serving stack lives behind the wrappers in
/// this header (tools/lint_determinism.py bans raw std::mutex and friends in
/// src/ outside util/sync.{h,cc}), so the locking rules are machine-checked
/// at compile time under clang: which fields a mutex guards (GUARDED_BY),
/// which functions must hold it (REQUIRES) or must not (EXCLUDES), and that
/// every acquire has a matching release. Under GCC the attributes expand to
/// nothing and the wrappers are zero-cost forwarding shims; correctness does
/// not depend on the analysis, only the *checking* does. Build with
/// -DFORESIGHT_THREAD_SAFETY=ON (default for clang) to turn on
/// -Wthread-safety -Wthread-safety-beta; CI runs that configuration under
/// -Werror, and tools/check_thread_safety.py proves the warnings still fire
/// on known-bad code so the gate cannot silently rot.
///
/// ## Lock hierarchy
///
/// When more than one of these locks is held at once, they must be acquired
/// in the order below (release order is unconstrained). Most locks are
/// leaves — held only across short critical sections that acquire nothing —
/// so the full chain never occurs; the order matters because metric export
/// runs component callbacks under the registry lock:
///
///   1. MetricsRegistry::mutex_      (util/metrics.h)    ToJson /
///      ToPrometheusText invoke callback metrics while holding it; a
///      callback may read component counters guarded by locks below.
///   2. QueryCache::Shard::mutex     (core/query_cache.h) taken by the
///      QuerySession cache-stats callbacks under the registry lock.
///   3. ThreadPool::queue_mutex_     (util/thread_pool.h) task admission;
///      metric updates made under it are lock-free atomics, never the
///      registry lock, so 1 -> 3 never inverts.
///   4. Serve-side locks             (serve/server.h, serve/request_queue.h)
///      HttpServer::completions_mutex_ and RequestQueue::mutex_; the serve
///      connection table itself is loop-thread-only and unlocked.
///
///   Leaves (never held while acquiring any other lock in this table):
///   RandomPanelCache::Slot::mutex, ThreadPool::ForJob::mutex,
///   FirstError::mutex_, DatasetRegistry::mutex_ (core/dataset_registry.h:
///   dataset loads and evicted-dataset destruction — which takes a
///   per-dataset MetricsRegistry lock — both run with it released, and its
///   registry.* metric handles are pre-resolved lock-free atomics).
///
/// New code must slot into this order; a function that acquires a lock while
/// its caller may hold a lower-numbered one is a hierarchy violation even if
/// no test deadlocks today. Annotate cross-lock requirements with
/// FORESIGHT_ACQUIRED_BEFORE / FORESIGHT_ACQUIRED_AFTER where both mutexes
/// are statically nameable — -Wthread-safety-beta checks those orders at
/// compile time — and with FORESIGHT_EXCLUDES on functions that acquire a
/// lock their callers might hold.
///
/// ## Annotating new state
///
///   Mutex mu_;
///   std::deque<Work> items_ FORESIGHT_GUARDED_BY(mu_);
///   Widget* widget_ FORESIGHT_PT_GUARDED_BY(mu_);   // *widget_ guarded.
///   void DrainLocked() FORESIGHT_REQUIRES(mu_);     // caller holds mu_.
///   void Drain() FORESIGHT_EXCLUDES(mu_);           // caller must NOT.
///
/// Suppressions (FORESIGHT_NO_THREAD_SAFETY_ANALYSIS, or a "sync-ok: with a
/// reason" comment for the raw-primitive lint) are a last resort for code
/// the analysis cannot model (e.g. lock handoff across threads); every one
/// needs a written reason, and "the warning was annoying" is not one.

#if defined(__clang__)
#define FORESIGHT_TS_ATTR(x) __attribute__((x))
#else
#define FORESIGHT_TS_ATTR(x)  // GCC et al.: annotations compile to nothing.
#endif

#define FORESIGHT_CAPABILITY(x) FORESIGHT_TS_ATTR(capability(x))
#define FORESIGHT_SCOPED_CAPABILITY FORESIGHT_TS_ATTR(scoped_lockable)
#define FORESIGHT_GUARDED_BY(x) FORESIGHT_TS_ATTR(guarded_by(x))
#define FORESIGHT_PT_GUARDED_BY(x) FORESIGHT_TS_ATTR(pt_guarded_by(x))
#define FORESIGHT_ACQUIRED_BEFORE(...) \
  FORESIGHT_TS_ATTR(acquired_before(__VA_ARGS__))
#define FORESIGHT_ACQUIRED_AFTER(...) \
  FORESIGHT_TS_ATTR(acquired_after(__VA_ARGS__))
#define FORESIGHT_REQUIRES(...) \
  FORESIGHT_TS_ATTR(requires_capability(__VA_ARGS__))
#define FORESIGHT_REQUIRES_SHARED(...) \
  FORESIGHT_TS_ATTR(requires_shared_capability(__VA_ARGS__))
#define FORESIGHT_ACQUIRE(...) \
  FORESIGHT_TS_ATTR(acquire_capability(__VA_ARGS__))
#define FORESIGHT_ACQUIRE_SHARED(...) \
  FORESIGHT_TS_ATTR(acquire_shared_capability(__VA_ARGS__))
#define FORESIGHT_RELEASE(...) \
  FORESIGHT_TS_ATTR(release_capability(__VA_ARGS__))
#define FORESIGHT_RELEASE_SHARED(...) \
  FORESIGHT_TS_ATTR(release_shared_capability(__VA_ARGS__))
#define FORESIGHT_RELEASE_GENERIC(...) \
  FORESIGHT_TS_ATTR(release_generic_capability(__VA_ARGS__))
#define FORESIGHT_TRY_ACQUIRE(...) \
  FORESIGHT_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define FORESIGHT_EXCLUDES(...) FORESIGHT_TS_ATTR(locks_excluded(__VA_ARGS__))
#define FORESIGHT_ASSERT_CAPABILITY(x) FORESIGHT_TS_ATTR(assert_capability(x))
#define FORESIGHT_ASSERT_SHARED_CAPABILITY(x) \
  FORESIGHT_TS_ATTR(assert_shared_capability(x))
#define FORESIGHT_RETURN_CAPABILITY(x) FORESIGHT_TS_ATTR(lock_returned(x))
#define FORESIGHT_NO_THREAD_SAFETY_ANALYSIS \
  FORESIGHT_TS_ATTR(no_thread_safety_analysis)

namespace foresight {

class CondVar;

/// Annotated exclusive mutex. Debug builds additionally track the owning
/// thread so AssertHeld() is a real runtime check, not only a static fact
/// fed to the analysis.
class FORESIGHT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FORESIGHT_ACQUIRE() {
    raw_.lock();
    DebugMarkAcquired();
  }
  void Unlock() FORESIGHT_RELEASE() {
    DebugMarkReleased();
    raw_.unlock();
  }
  /// True (and the lock is held) or false (state unchanged).
  bool TryLock() FORESIGHT_TRY_ACQUIRE(true) {
    if (!raw_.try_lock()) return false;
    DebugMarkAcquired();
    return true;
  }
  /// Tells the analysis the calling thread holds this mutex (for code
  /// reached only with the lock held but outside a visible critical
  /// section). In debug builds it also aborts if that claim is false.
  void AssertHeld() const FORESIGHT_ASSERT_CAPABILITY(this);

 private:
  friend class CondVar;
#ifndef NDEBUG
  void DebugMarkAcquired() {
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  void DebugMarkReleased() {
    owner_.store(std::thread::id(), std::memory_order_relaxed);
  }
#else
  void DebugMarkAcquired() {}
  void DebugMarkReleased() {}
#endif

  std::mutex raw_;
#ifndef NDEBUG
  std::atomic<std::thread::id> owner_{};
#endif
};

/// Annotated reader/writer mutex. Exclusive ownership is debug-tracked like
/// Mutex; shared holders are counted so AssertReaderHeld() can at least
/// verify some reader (or the writer) exists.
class FORESIGHT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() FORESIGHT_ACQUIRE() {
    raw_.lock();
#ifndef NDEBUG
    writer_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }
  void Unlock() FORESIGHT_RELEASE() {
#ifndef NDEBUG
    writer_.store(std::thread::id(), std::memory_order_relaxed);
#endif
    raw_.unlock();
  }
  void LockShared() FORESIGHT_ACQUIRE_SHARED() {
    raw_.lock_shared();
#ifndef NDEBUG
    readers_.fetch_add(1, std::memory_order_relaxed);
#endif
  }
  void UnlockShared() FORESIGHT_RELEASE_SHARED() {
#ifndef NDEBUG
    readers_.fetch_sub(1, std::memory_order_relaxed);
#endif
    raw_.unlock_shared();
  }
  /// Claims exclusive ownership to the analysis; debug-checked at runtime.
  void AssertHeld() const FORESIGHT_ASSERT_CAPABILITY(this);
  /// Claims shared (or exclusive) ownership to the analysis; debug builds
  /// verify at least one holder exists. Per-thread reader identity is not
  /// tracked, so this is a weaker runtime check than AssertHeld().
  void AssertReaderHeld() const FORESIGHT_ASSERT_SHARED_CAPABILITY(this);

 private:
  std::shared_mutex raw_;
#ifndef NDEBUG
  std::atomic<std::thread::id> writer_{};
  std::atomic<int> readers_{0};
#endif
};

/// Scoped exclusive lock of a Mutex (the std::lock_guard replacement).
class FORESIGHT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FORESIGHT_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() FORESIGHT_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock of a SharedMutex.
class FORESIGHT_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) FORESIGHT_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() FORESIGHT_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock of a SharedMutex.
class FORESIGHT_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) FORESIGHT_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() FORESIGHT_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock of a nullable SharedMutex pointer: a no-op
/// when `mu` is null. For paths where only some targets need a lock (e.g. the
/// HTTP server's append/query exclusion: a registry dataset's data_mutex(),
/// but no lock for the immutable default dataset). Mirrors
/// absl::MutexLockMaybe.
class FORESIGHT_SCOPED_CAPABILITY ReaderLockMaybe {
 public:
  explicit ReaderLockMaybe(SharedMutex* mu) FORESIGHT_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    if (mu_ != nullptr) mu_->LockShared();
  }
  ~ReaderLockMaybe() FORESIGHT_RELEASE_GENERIC() {
    if (mu_ != nullptr) mu_->UnlockShared();
  }

  ReaderLockMaybe(const ReaderLockMaybe&) = delete;
  ReaderLockMaybe& operator=(const ReaderLockMaybe&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable paired with Mutex. There is deliberately no
/// predicate-taking Wait overload: the analysis does not propagate lock
/// state into lambda bodies, so predicates reading guarded fields would
/// warn spuriously — write the `while (!predicate) cv.Wait(mu);` loop in
/// the calling function, where the analysis sees the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Spurious wakeups happen; always re-check the predicate.
  void Wait(Mutex& mu) FORESIGHT_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A movable relaxed atomic scalar, for epoch counters and flags that are
/// read concurrently with serving but carry no release/acquire obligations
/// of their own (monotonic epochs, idempotent toggles). std::atomic is
/// neither copyable nor movable, which would delete the move operations of
/// any class holding one (InsightEngine is moved out of StatusOr); this
/// wrapper copies by value snapshot. All accesses are relaxed — do NOT use
/// it to publish data another thread will read through it.
template <typename T>
class RelaxedAtomic {
 public:
  RelaxedAtomic() = default;
  explicit RelaxedAtomic(T value) : value_(value) {}
  RelaxedAtomic(const RelaxedAtomic& other) : value_(other.load()) {}
  RelaxedAtomic& operator=(const RelaxedAtomic& other) {
    store(other.load());
    return *this;
  }

  T load() const { return value_.load(std::memory_order_relaxed); }
  void store(T value) { value_.store(value, std::memory_order_relaxed); }
  T fetch_add(T delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::atomic<T> value_{};
};

}  // namespace foresight

#endif  // FORESIGHT_UTIL_SYNC_H_
