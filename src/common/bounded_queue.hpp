// Bounded MPMC queue with backpressure — the one producer/consumer
// hand-off of the library (DESIGN.md §11). Its users:
//   * serve::QueryFrontEnd admits client requests through it;
//   * stream::AssignServer::assign_file runs its reader ring on two of
//     them, a queue of free slot indices and a queue of filled ones;
//   * sem::IoEngine's prefetch thread pops its staging requests from it.
//
// A fixed-capacity FIFO where the BOUND is the backpressure. Producers
// that find the queue full either block until a consumer frees a slot
// (ShedPolicy-style kBlock admission) or fail immediately (kShed);
// consumers block until an item arrives or the queue is closed AND
// drained. close() is the shutdown contract the stress tests pin: it wakes
// every blocked producer (they return kClosed without enqueuing) while
// letting consumers drain what was already admitted, so
// shutdown-with-queued-work can neither deadlock nor drop admitted items.
//
// Accounting is exact, not sampled: pushed/shed/blocked counters and the
// high-water mark are maintained under the same mutex as the queue itself,
// so after the queue is quiescent they reconcile exactly (pushed ==
// popped once drained; max_occupancy() <= capacity() always).
//
// A mutex + two condvars, not a lock-free ring: its users hand off at
// request or batch granularity (thousands per second), not chunk
// granularity — the scheduler's CAS deques stay where the per-chunk rates
// are.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

namespace knor {

template <typename T>
class BoundedQueue {
 public:
  enum class Push { kOk, kShed, kClosed };

  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }

  /// Enqueue `v`. block=true waits for a free slot (kBlock admission);
  /// block=false returns kShed immediately when full. Returns kClosed —
  /// without enqueuing — once close() has been called, including for
  /// producers that were blocked waiting when the close arrived.
  Push push(T v, bool block) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return Push::kClosed;
    if (items_.size() >= capacity_) {
      if (!block) {
        ++shed_;
        return Push::kShed;
      }
      ++blocked_;
      cv_free_.wait(lock,
                    [&] { return items_.size() < capacity_ || closed_; });
      if (closed_) return Push::kClosed;
    }
    items_.push_back(std::move(v));
    ++pushed_;
    if (items_.size() > max_occupancy_) max_occupancy_ = items_.size();
    lock.unlock();
    cv_full_.notify_one();
    return Push::kOk;
  }

  /// Dequeue into `out`; blocks until an item is available. Returns false
  /// only when the queue is closed AND fully drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_full_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    lock.unlock();
    cv_free_.notify_one();
    return true;
  }

  /// Non-blocking pop for batch draining: the consumer that just took one
  /// item sweeps the rest of the window without re-sleeping.
  bool try_pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    lock.unlock();
    cv_free_.notify_one();
    return true;
  }

  /// Stop admitting. Blocked producers wake and return kClosed; consumers
  /// drain the remaining items, then pop() returns false. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_free_.notify_all();
    cv_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  /// High-water mark of the occupancy; never exceeds capacity() (the
  /// stress test's bound invariant).
  std::size_t max_occupancy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_occupancy_;
  }
  std::uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
  }
  std::uint64_t popped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return popped_;
  }
  std::uint64_t shed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shed_;
  }
  /// Pushes that had to wait for a free slot (backpressure events).
  std::uint64_t blocked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_full_, cv_free_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t max_occupancy_ = 0;
  std::uint64_t pushed_ = 0, popped_ = 0, shed_ = 0, blocked_ = 0;
};

}  // namespace knor
