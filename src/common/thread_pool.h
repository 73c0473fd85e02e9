// Work-stealing thread pool for sharded simulations.
//
// The fleet simulation partitions independent function deployments into
// shards and runs each shard's discrete-event loop on its own thread. Shard
// runtimes vary by orders of magnitude (a 2000-request JVM cluster vs a
// 50-request PyPy one), so a static partition would leave threads idle;
// instead each worker owns a deque and steals from its peers when it runs
// dry. Determinism is unaffected: tasks carry their own RNG substreams, so
// which thread runs a task never influences results.

#ifndef PRONGHORN_SRC_COMMON_THREAD_POOL_H_
#define PRONGHORN_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pronghorn {

// Cache-line size assumed for alignment of per-thread slots. x86-64 and most
// AArch64 parts use 64-byte lines; over-aligning on a platform with smaller
// lines is harmless. (std::hardware_destructive_interference_size exists but
// triggers -Winterference-size ABI warnings on GCC, so the constant is
// pinned here.)
inline constexpr std::size_t kCacheLineBytes = 64;

class ThreadPool {
 public:
  // Hard ceiling on the worker count, applied to any requested size.
  static constexpr uint32_t kMaxThreads = 256;

  // Spawns `threads` workers; 0 means DefaultThreadCount(). Requests above
  // kMaxThreads are clamped.
  explicit ThreadPool(uint32_t threads = 0);

  // Drains every queued task, then joins the workers. Submitting from a task
  // that outlives the destructor call is a programming error.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t thread_count() const { return static_cast<uint32_t>(workers_.size()); }

  // Hardware concurrency, clamped to at least 1 (hardware_concurrency() may
  // legally report 0).
  static uint32_t DefaultThreadCount();

  // The worker count that actually helps for CPU-bound work: `requested`
  // (0 = default) clamped to the hardware thread count. Oversubscribing
  // CPU-bound shards past the core count only adds context-switch and
  // cache-thrash overhead — on a single-core host a fleet run with 4 threads
  // once measured ~25% *slower* than with 1.
  // Callers treat a --threads request as a parallelism cap, not a demand;
  // results never depend on it (determinism is schedule-independent).
  static uint32_t EffectiveParallelism(uint32_t requested);

  // Enqueues `fn` and returns a future for its result. Exceptions thrown by
  // `fn` are captured and rethrown from future::get().
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Push([task]() { (*task)(); });
    return future;
  }

  // Runs fn(i) for every i in [0, n), blocking until all complete. The first
  // exception (in index order) is rethrown after every task has finished.
  // Must be called from outside the pool's worker threads. The calling
  // thread participates: while waiting it drains queued tasks instead of
  // sleeping, so a pool of W workers delivers W+1 execution streams.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Runs one queued task on the calling thread if any is immediately
  // available; returns false when every queue is empty. Safe from any
  // thread; this is the caller-assist primitive behind ParallelFor.
  bool TryRunOnePending();

 private:
  // One deque per worker; submissions are distributed round-robin and idle
  // workers steal from the opposite end of their peers' queues.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void Push(std::function<void()> task);
  void WorkerLoop(size_t self);
  // Pops own work (LIFO) or steals (FIFO); true when a task was run.
  bool RunOneTask(size_t self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Sleep/wake coordination. `queued_` counts tasks pushed but not yet
  // popped; workers only exit when stopping and the count is zero, so the
  // destructor drains queued work instead of dropping it.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<uint64_t> queued_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_queue_{0};
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_COMMON_THREAD_POOL_H_
