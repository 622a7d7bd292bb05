#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/workspace.hpp"

namespace exaclim {

namespace {

/// Depth of ParallelFor blocks currently executing on this thread. Any
/// ParallelFor issued while this is non-zero runs inline (the nesting
/// policy documented in the header); blocks == 1 degenerate calls do not
/// count, so an inner kernel under a serial outer loop still gets the
/// pool.
thread_local int tls_parallel_depth = 0;

struct ParallelRegionGuard {
  ParallelRegionGuard() { ++tls_parallel_depth; }
  ~ParallelRegionGuard() { --tls_parallel_depth; }
  ParallelRegionGuard(const ParallelRegionGuard&) = delete;
  ParallelRegionGuard& operator=(const ParallelRegionGuard&) = delete;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in ParallelFor, so spawn one fewer.
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  JoinCounter started;
  started.remaining.store(workers, std::memory_order_relaxed);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, &started] {
      WarmThreadScratch();
      Arrive(started);
      WorkerLoop();
    });
  }
  AwaitJoin(started);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::CheckQueueInvariants() const {
  EXACLIM_DCHECK(dequeued_ <= enqueued_,
                 "dequeued " << dequeued_ << " > enqueued " << enqueued_);
  EXACLIM_DCHECK(ring_count_ == enqueued_ - dequeued_,
                 "ring holds " << ring_count_ << " tasks but accounting "
                               << "says " << (enqueued_ - dequeued_));
  EXACLIM_DCHECK(ring_count_ <= ring_.size(),
                 "ring count " << ring_count_ << " exceeds capacity "
                               << ring_.size());
}

void ThreadPool::PushTask(const Task& task) {
  if (ring_count_ == ring_.size()) {
    // Capacity grow: the one allocating path, hit only until the ring
    // reaches the working set's high-water mark. Re-normalise so the
    // live tasks sit at [0, ring_count_) and head restarts at 0.
    std::vector<Task> grown(std::max<std::size_t>(16, ring_.size() * 2));
    for (std::size_t i = 0; i < ring_count_; ++i) {
      grown[i] = ring_[(ring_head_ + i) % ring_.size()];
    }
    ring_.swap(grown);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_count_) % ring_.size()] = task;
  ++ring_count_;
}

void ThreadPool::RunBlock(const Task& task) {
  {
    ParallelRegionGuard region;
    task.fn(task.lo, task.hi);
  }
  Arrive(*task.join);
}

void ThreadPool::Arrive(JoinCounter& join) {
  // After this fetch_sub the worker never touches the caller's stack
  // again — the notify below only uses pool-owned members, so a caller
  // observing remaining == 0 may safely return (and destroy the
  // JoinCounter) while this thread is still inside NotifyAll. The
  // acq_rel RMW chain makes every block's writes visible to the caller's
  // acquire load in AwaitJoin.
  if (join.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Taking join_mutex_ serialises with a waiter sitting between its
    // predicate check and Wait(), so the notify cannot land in that
    // window (no missed wakeup).
    MutexLock lock(join_mutex_);
    join_cv_.NotifyAll();
  }
}

void ThreadPool::AwaitJoin(JoinCounter& join) {
  MutexLock lock(join_mutex_);
  while (join.remaining.load(std::memory_order_acquire) != 0) {
    join_cv_.Wait(lock);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && ring_count_ == 0) cv_.Wait(lock);
      if (stop_ && ring_count_ == 0) return;
      task = ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % ring_.size();
      --ring_count_;
      ++dequeued_;
      CheckQueueInvariants();
    }
    RunBlock(task);
  }
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             FunctionRef<void(std::size_t, std::size_t)> fn,
                             std::size_t grain) {
  if (begin >= end) return;
  if (tls_parallel_depth > 0) {
    // Nested call from inside a parallel block: run inline (see header).
    fn(begin, end);
    return;
  }
  const std::size_t total = end - begin;
  const std::size_t max_blocks = workers_.size() + 1;
  const std::size_t blocks = std::max<std::size_t>(
      1,
      std::min(max_blocks, total / std::max<std::size_t>(1, grain)));
  if (blocks == 1) {
    fn(begin, end);
    return;
  }

  const std::size_t chunk = (total + blocks - 1) / blocks;
  // Stack rendezvous: AwaitJoin below keeps this frame (and whatever
  // `fn` references) alive until every shipped block has finished.
  JoinCounter join;
  join.remaining.store(blocks - 1, std::memory_order_relaxed);

  {
    MutexLock lock(mutex_);
    EXACLIM_DCHECK(!stop_, "ParallelFor on a stopped pool");
    for (std::size_t b = 1; b < blocks; ++b) {
      const std::size_t lo = begin + b * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      PushTask(Task{fn, lo, hi, &join});
      ++enqueued_;
    }
    CheckQueueInvariants();
  }
  cv_.NotifyAll();

  // The caller runs the first block itself, then waits out the rest.
  {
    ParallelRegionGuard region;
    fn(begin, std::min(end, begin + chunk));
  }
  AwaitJoin(join);
}

bool ThreadPool::InParallelRegion() { return tls_parallel_depth > 0; }

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool([] {
    const char* env = std::getenv("EXACLIM_THREADS");
    return env == nullptr ? std::size_t{0}  // hardware_concurrency
                          : static_cast<std::size_t>(ParseEnvPositiveInt(
                                "EXACLIM_THREADS", env));
  }());
  return pool;
}

void ParallelFor(std::size_t begin, std::size_t end,
                 FunctionRef<void(std::size_t, std::size_t)> fn,
                 std::size_t grain) {
  ThreadPool::Global().ParallelFor(begin, end, fn, grain);
}

}  // namespace exaclim
