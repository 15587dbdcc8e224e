//===- support/ThreadPool.cpp - Session task executor ---------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

namespace ev {

TaskQueue::TaskQueue(unsigned Threads) {
  unsigned N = Threads == 0 ? 1 : Threads;
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

TaskQueue::~TaskQueue() {
  // Drain: wait until the queue is empty AND no task is mid-flight (a
  // running task may still post follow-ups), then signal shutdown.
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Idle.wait(Lock, [&] { return Queue.empty() && Busy == 0; });
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void TaskQueue::post(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WakeWorkers.notify_one();
}

void TaskQueue::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock, [&] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // Shutting down with nothing left to run.
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Busy;
    }
    Task();
    Executed.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --Busy;
    }
    Idle.notify_all();
  }
}

} // namespace ev
