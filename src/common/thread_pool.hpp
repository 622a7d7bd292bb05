#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace exaclim {

/// Fixed-size worker pool used by the tensor kernels for intra-op
/// parallelism (the stand-in for the CUDA stream the paper's kernels ran
/// on). ParallelFor partitions an index range into contiguous blocks,
/// one per worker, and blocks until all complete — deterministic
/// partitioning keeps reductions reproducible.
///
/// Dispatch is allocation-free in steady state (DESIGN §12): blocks are
/// POD Task records in a grow-only ring buffer, the callable travels as
/// a non-owning FunctionRef (no std::function closure heap), and the
/// fork/join rendezvous is an atomic counter on the caller's stack
/// joined through pool-owned join_mutex_/join_cv_ — nothing is
/// heap-allocated per call once the ring has grown to the working size.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  /// Returns once every worker has pre-sized its scratch streams
  /// (WarmThreadScratch, common/workspace.hpp), so no worker's first
  /// task ever grows one.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(begin, end) over disjoint sub-ranges of [begin, end) on the
  /// pool (and the calling thread), returning when every block is done.
  /// `grain` is the minimum block size worth shipping to a worker.
  ///
  /// `fn` is non-owning (FunctionRef): the call blocks until every block
  /// has finished running it, so the referenced callable outlives all
  /// uses. Lambdas with captures bind implicitly, closure-free.
  ///
  /// Nesting policy: a ParallelFor issued from inside a running block of
  /// another ParallelFor (any pool) executes fn(begin, end) inline on the
  /// calling thread. Re-entering the pool from a worker would stack a
  /// blocked join wait behind the queued outer blocks and oversubscribe
  /// the machine; inline execution keeps one level of parallelism live
  /// with zero extra threads (DESIGN §9).
  void ParallelFor(std::size_t begin, std::size_t end,
                   FunctionRef<void(std::size_t, std::size_t)> fn,
                   std::size_t grain = 1024) EXACLIM_EXCLUDES(mutex_);

  /// True while the calling thread is executing a ParallelFor block —
  /// i.e. a nested ParallelFor from here would run inline.
  static bool InParallelRegion();

  /// Process-wide pool shared by tensor kernels. Sized from
  /// EXACLIM_THREADS when set (a positive integer — anything else fails,
  /// common/env.hpp), else from std::thread::hardware_concurrency().
  static ThreadPool& Global();

 private:
  /// Fork/join rendezvous for one ParallelFor call. Lives on the
  /// caller's stack: the final fetch_sub in FinishBlock is the last time
  /// any worker touches it (the notify that follows uses only the
  /// pool-owned join_mutex_/join_cv_), so the caller may return as soon
  /// as remaining reads 0 — no heap latch needed.
  struct JoinCounter {
    std::atomic<std::size_t> remaining{0};
  };

  /// One enqueued block: trivially copyable, heap-free.
  struct Task {
    FunctionRef<void(std::size_t, std::size_t)> fn;
    std::size_t lo = 0;
    std::size_t hi = 0;
    JoinCounter* join = nullptr;
  };

  void WorkerLoop() EXACLIM_EXCLUDES(mutex_);
  /// Runs one dequeued block and signals its JoinCounter.
  void RunBlock(const Task& task) EXACLIM_EXCLUDES(join_mutex_);
  /// Counts one arrival at `join`, waking the waiter on the last one.
  void Arrive(JoinCounter& join) EXACLIM_EXCLUDES(join_mutex_);
  /// Blocks until every shipped block of `join` has finished.
  void AwaitJoin(JoinCounter& join) EXACLIM_EXCLUDES(join_mutex_);

  /// Appends to the ring, growing (re-normalised to head 0) only when
  /// the live count hits capacity.
  void PushTask(const Task& task) EXACLIM_REQUIRES(mutex_);

  // Debug-build queue invariants; no-op in Release.
  void CheckQueueInvariants() const EXACLIM_REQUIRES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  // Grow-only ring of pending blocks: live tasks occupy
  // [ring_head_, ring_head_ + ring_count_) modulo ring_.size().
  std::vector<Task> ring_ EXACLIM_GUARDED_BY(mutex_);
  std::size_t ring_head_ EXACLIM_GUARDED_BY(mutex_) = 0;
  std::size_t ring_count_ EXACLIM_GUARDED_BY(mutex_) = 0;
  bool stop_ EXACLIM_GUARDED_BY(mutex_) = false;
  // Debug-build queue accounting: ring_count_ == enqueued_ - dequeued_.
  std::size_t enqueued_ EXACLIM_GUARDED_BY(mutex_) = 0;
  std::size_t dequeued_ EXACLIM_GUARDED_BY(mutex_) = 0;

  // Join rendezvous, shared by all concurrent ParallelFor callers (the
  // counters disambiguate; spurious wakeups re-check and re-wait).
  Mutex join_mutex_;
  CondVar join_cv_;
};

/// Convenience wrapper over ThreadPool::Global().ParallelFor.
void ParallelFor(std::size_t begin, std::size_t end,
                 FunctionRef<void(std::size_t, std::size_t)> fn,
                 std::size_t grain = 1024);

}  // namespace exaclim
