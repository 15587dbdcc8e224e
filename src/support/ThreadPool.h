//===- support/ThreadPool.h - Small fixed-size worker pool ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool backing the parallel analysis pipeline
/// (docs/PERF.md). Design constraints, in priority order:
///
///  1. Determinism: parallelMap() returns results in index order, and every
///     caller in src/analysis keeps output materialization in a fixed order,
///     so a profile analyzed at N threads is byte-identical to the same
///     profile analyzed at 0 threads.
///  2. Reproducible fallback: a pool of 0 (or 1) threads runs everything
///     inline on the calling thread, in ascending index order, with no
///     worker threads at all. `EV_THREADS=0` forces this mode process-wide.
///  3. Bounded resources: the pool is fixed-size; parallelFor() blocks the
///     caller (which also participates in the work), so at most
///     threadCount() threads are ever runnable per pool.
///
/// Exceptions thrown by loop bodies are captured, the loop is cancelled
/// cooperatively, and the first exception is rethrown on the calling
/// thread.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_SUPPORT_THREADPOOL_H
#define EASYVIEW_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ev {

class ThreadPool {
public:
  /// Creates a pool executing loops on \p Threads threads total (including
  /// the caller, which always participates). 0 and 1 both mean "no worker
  /// threads": loops run inline, sequentially, in ascending order.
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total threads that execute a loop (workers + calling thread); >= 1.
  unsigned threadCount() const { return static_cast<unsigned>(Workers.size()) + 1; }

  /// True when loops run inline on the calling thread only.
  bool sequential() const { return Workers.empty(); }

  /// Runs \p Body(Begin, End) over disjoint chunks covering [0, N). Blocks
  /// until every chunk completed. Chunk boundaries are claimed dynamically,
  /// so bodies must not depend on which thread runs which chunk; writes
  /// must go to per-index slots. Nested calls from inside a body run
  /// inline. Rethrows the first exception a body threw.
  void parallelForChunks(size_t N,
                         const std::function<void(size_t, size_t)> &Body);

  /// Element-wise convenience over parallelForChunks().
  void parallelFor(size_t N, const std::function<void(size_t)> &Body) {
    parallelForChunks(N, [&Body](size_t Begin, size_t End) {
      for (size_t I = Begin; I < End; ++I)
        Body(I);
    });
  }

  /// Maps [0, N) through \p Fn into a vector with deterministic (index)
  /// ordering regardless of scheduling. T must be default-constructible.
  template <typename T, typename Fn>
  std::vector<T> parallelMap(size_t N, Fn &&F) {
    std::vector<T> Out(N);
    parallelForChunks(N, [&](size_t Begin, size_t End) {
      for (size_t I = Begin; I < End; ++I)
        Out[I] = F(I);
    });
    return Out;
  }

  /// The process-wide pool used by the analysis pipeline. Sized from the
  /// `EV_THREADS` environment variable on first use: unset picks the
  /// hardware concurrency (capped at 8); `EV_THREADS=0` forces the
  /// sequential fallback.
  static ThreadPool &shared();

  /// Replaces the shared pool with one of \p Threads threads (benchmarks
  /// and tests sweep thread counts this way). Not safe while another
  /// thread is inside a shared-pool loop.
  static void setSharedThreadCount(unsigned Threads);

  /// The thread count `EV_THREADS` requests (or the capped hardware
  /// default when unset/unparsable).
  static unsigned configuredThreads();

private:
  void workerLoop();
  void runChunks(const std::function<void(size_t, size_t)> &Body, size_t End,
                 size_t ChunkSize);

  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable JobDone;
  bool ShuttingDown = false;

  // State of the single in-flight loop (parallelForChunks is blocking and
  // non-reentrant, so one slot suffices).
  uint64_t JobGeneration = 0;
  const std::function<void(size_t, size_t)> *JobBody = nullptr;
  size_t JobEnd = 0;
  size_t JobChunk = 1;
  std::atomic<size_t> JobNext{0};
  std::atomic<bool> JobCancelled{false};
  unsigned JobActiveWorkers = 0;
  std::exception_ptr JobError;
  std::atomic<bool> InLoop{false};
};

/// A FIFO task executor backing the concurrent PVP service (see
/// ide/SessionManager.h): N dedicated worker threads drain an unbounded
/// queue of posted closures in submission order. Unlike ThreadPool — a
/// blocking fork-join primitive for data-parallel loops — TaskQueue is a
/// fire-and-forget executor: post() never blocks, tasks run exactly once,
/// and workers that execute a task may post() follow-up tasks (the session
/// strands repost themselves this way), including during shutdown drain.
///
/// Destruction drains: the destructor stops accepting NEW external posts
/// conceptually at the caller's discretion, runs every task already queued
/// (plus tasks those tasks post), and joins the workers. A task that
/// throws terminates via std::terminate — session tasks convert all
/// failures to JSON-RPC error replies, so nothing should ever throw here.
class TaskQueue {
public:
  /// Creates \p Threads dedicated workers (clamped to at least 1).
  explicit TaskQueue(unsigned Threads);
  ~TaskQueue();

  TaskQueue(const TaskQueue &) = delete;
  TaskQueue &operator=(const TaskQueue &) = delete;

  /// Enqueues \p Task; runs on some worker in FIFO order. Never blocks.
  void post(std::function<void()> Task);

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Tasks executed since construction (telemetry).
  uint64_t executedCount() const {
    return Executed.load(std::memory_order_relaxed);
  }

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable Idle;
  std::deque<std::function<void()>> Queue;
  unsigned Busy = 0;
  bool ShuttingDown = false;
  std::atomic<uint64_t> Executed{0};
};

} // namespace ev

#endif // EASYVIEW_SUPPORT_THREADPOOL_H
