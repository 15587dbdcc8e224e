//===- support/ThreadPool.h - Session task executor -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer's task executor. Each PVP request's analysis runs
/// on the thread that dispatches it (docs/PERF.md): sessions, drained by a
/// TaskQueue, are the unit of concurrency.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_SUPPORT_THREADPOOL_H
#define EASYVIEW_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ev {

/// Analysis threads per request: always 1, since analysis runs on the
/// dispatching thread. The only caller is perfbench's host fingerprint
/// (perfbench/main.cpp), which changes only together with the benchmark;
/// remove this when that line goes.
struct ThreadPool {
  static unsigned configuredThreads() { return 1; }
};

/// A FIFO task executor backing the concurrent PVP service (see
/// ide/SessionManager.h): N dedicated worker threads drain an unbounded
/// queue of posted closures in submission order. TaskQueue is a
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
