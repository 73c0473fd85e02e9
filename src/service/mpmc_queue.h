// Bounded multi-producer multi-consumer queue for the orchestrator service.
//
// Producers (service clients) block in Push when the queue is full — the
// service's backpressure — and consumers (shard threads) block in Pop until
// work arrives or the queue is closed. Close() is the shutdown handshake:
// pushes fail immediately, pops drain whatever is already queued and then
// return false, so every accepted request is still answered before a shard
// thread exits. Plain mutex + condition variables: the round-trip through the
// queue is also the happens-before edge that lets service mode stay
// data-race-free while shard threads drive simulation state.

#ifndef PRONGHORN_SRC_SERVICE_MPMC_QUEUE_H_
#define PRONGHORN_SRC_SERVICE_MPMC_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace pronghorn {

// Outcome of a deadline-bounded push.
enum class PushOutcome {
  kAccepted = 0,  // Item enqueued.
  kClosed = 1,    // Queue closed; item dropped.
  kShed = 2,      // Still full at the deadline; item dropped (backpressure).
};

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Blocks while the queue is full; false when the queue was closed (the item
  // is dropped). `depth_after` (optional) receives the queue depth right
  // after the push — the service's queue-depth gauge.
  bool Push(T item, size_t* depth_after = nullptr) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Readers take the same lock, so they see this count only while the
      // wait has released it, i.e. while the producer is really blocked.
      ++blocked_producers_;
      not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
      --blocked_producers_;
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
      if (depth_after != nullptr) {
        *depth_after = items_.size();
      }
    }
    not_empty_.notify_one();
    return true;
  }

  // Push that gives up when the queue is still full after `deadline` of host
  // time — the service's load-shedding decision point. A zero deadline means
  // wait forever (identical to Push). On kShed, `depth_after` receives the
  // depth observed at the deadline so the shed reply can cite the pressure.
  PushOutcome PushWithDeadline(T item, std::chrono::milliseconds deadline,
                               size_t* depth_after = nullptr) {
    if (deadline.count() <= 0) {
      return Push(std::move(item), depth_after) ? PushOutcome::kAccepted
                                                : PushOutcome::kClosed;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++blocked_producers_;
      const bool ready = not_full_.wait_for(
          lock, deadline, [&] { return closed_ || items_.size() < capacity_; });
      --blocked_producers_;
      if (closed_) {
        return PushOutcome::kClosed;
      }
      if (!ready) {
        if (depth_after != nullptr) {
          *depth_after = items_.size();
        }
        return PushOutcome::kShed;
      }
      items_.push_back(std::move(item));
      if (depth_after != nullptr) {
        *depth_after = items_.size();
      }
    }
    not_empty_.notify_one();
    return PushOutcome::kAccepted;
  }

  // Re-queues an item at the FRONT, bypassing the capacity bound (the queue
  // may briefly hold capacity+1 items). Recovery only: a crashed shard's
  // parked envelope must re-enter ahead of everything behind it so the
  // arrival order — and with it the simulation trajectory — is preserved.
  // False when the queue is closed.
  bool PushFront(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      items_.push_front(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available; false once the queue is closed AND
  // drained (consumers see every item accepted before the close).
  bool Pop(T& out) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) {
        return false;
      }
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  // Non-blocking pop; false when the queue is currently empty.
  bool TryPop(T& out) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (items_.empty()) {
        return false;
      }
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  void Close() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t depth() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return items_.size();
  }

  // Producers currently waiting in Push / PushWithDeadline for a free slot.
  size_t blocked_producers() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return blocked_producers_;
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  size_t blocked_producers_ = 0;
  bool closed_ = false;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_SERVICE_MPMC_QUEUE_H_
