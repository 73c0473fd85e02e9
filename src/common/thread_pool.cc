#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace pronghorn {

uint32_t ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint32_t ThreadPool::EffectiveParallelism(uint32_t requested) {
  const uint32_t hardware = DefaultThreadCount();
  return std::min(requested == 0 ? hardware : requested, hardware);
}

ThreadPool::ThreadPool(uint32_t threads) {
  // Cap at kMaxThreads: beyond any plausible core count, more OS threads only
  // add scheduling overhead, and an accidental huge request (e.g. a negative
  // flag value cast to unsigned) must not try to spawn billions of threads.
  const uint32_t count =
      std::min(threads == 0 ? DefaultThreadCount() : threads, kMaxThreads);
  queues_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Push(std::function<void()> task) {
  const size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    // The count must change under idle_mutex_: a worker that just evaluated
    // its wait predicate would otherwise miss this notification and sleep
    // through available work.
    std::lock_guard<std::mutex> lock(idle_mutex_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_one();
}

bool ThreadPool::RunOneTask(size_t self) {
  std::function<void()> task;
  {
    // Own queue first, newest task (LIFO keeps the working set warm).
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    // Steal oldest-first from peers, scanning from the next queue over so
    // contention spreads instead of piling onto queue 0.
    for (size_t offset = 1; offset < queues_.size() && !task; ++offset) {
      WorkerQueue& victim = *queues_[(self + offset) % queues_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) {
    return false;
  }
  queued_.fetch_sub(1, std::memory_order_release);
  task();  // packaged_task captures any exception into the future.
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  while (true) {
    if (RunOneTask(self)) {
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mutex_);
    idle_cv_.wait(lock, [this]() {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (queued_.load(std::memory_order_acquire) == 0 &&
        stop_.load(std::memory_order_acquire)) {
      return;
    }
  }
}

bool ThreadPool::TryRunOnePending() {
  std::function<void()> task;
  for (size_t i = 0; i < queues_.size() && !task; ++i) {
    WorkerQueue& queue = *queues_[i];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (!queue.tasks.empty()) {
      task = std::move(queue.tasks.front());
      queue.tasks.pop_front();
    }
  }
  if (!task) {
    return false;
  }
  queued_.fetch_sub(1, std::memory_order_release);
  task();
  return true;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(Submit([&fn, i]() { fn(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    // Caller assist: the calling thread is an idle core while it waits, so
    // drain queued tasks instead of blocking — only sleep on the future once
    // every queue is empty (the remaining tasks are in flight on workers).
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready &&
           TryRunOnePending()) {
    }
    try {
      future.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace pronghorn
