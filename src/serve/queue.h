// Bounded multi-producer multi-consumer queue, the server's admission
// point. Capacity is a hard limit: try_push fails (sheds) when the queue
// is full instead of growing without bound, which keeps worst-case queueing
// latency proportional to capacity. A mutex + condition variable is
// deliberate — at the service's request rates (tens of microseconds of
// model work per item, amortized further by batch pops) lock hold times
// are nanoseconds and a lock-free ring would buy nothing measurable.
//
// The queue also counts execution slots: every successful pop claims one
// until release(), and try_claim_idle() claims one for work that skips the
// queue. Pops wait for a free slot, so at most `slots` consumers — queued
// or not — run at once, and because a slot is only claimed past the queue
// while it is empty, such work never overtakes an item already queued.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/error.h"

namespace acsel::serve {

template <typename T>
class BoundedQueue {
 public:
  BoundedQueue(std::size_t capacity, std::size_t slots)
      : capacity_(capacity), slots_(slots) {
    ACSEL_CHECK_MSG(capacity >= 1, "queue capacity must be >= 1");
    ACSEL_CHECK_MSG(slots >= 1, "queue needs >= 1 execution slot");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues unless the queue already holds `admission_limit` items (or
  /// is full or closed); returns whether the item was accepted. Never
  /// blocks. This is the priority-admission primitive: lower classes
  /// push with a lower limit, so under pressure they are shed while the
  /// headroom between their limit and capacity stays reserved for higher
  /// classes. Admission only; the drain stays strictly FIFO, so items
  /// already accepted are never starved or reordered by class.
  bool try_push(T item, std::size_t admission_limit) {
    const std::size_t limit = std::min(admission_limit, capacity_);
    {
      std::lock_guard<std::mutex> lock{mu_};
      if (closed_ || items_.size() >= limit) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks for the first item and a free slot, then drains up to
  /// `max_items` without further waiting — the batching primitive. Appends
  /// to `out` and returns the number of items taken (0 only when closed
  /// and drained); a non-zero return claims one slot for the whole batch.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    ACSEL_CHECK_MSG(max_items >= 1, "batch size must be >= 1");
    std::unique_lock<std::mutex> lock{mu_};
    wait_for_work(lock);
    std::size_t taken = 0;
    while (taken < max_items && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    if (taken > 0) {
      claim_popped();
    }
    return taken;
  }

  /// Claims a slot for work done outside the queue, but only while the
  /// queue is open and empty and a slot is free; returns whether it did.
  /// Never blocks.
  bool try_claim_idle() {
    std::lock_guard<std::mutex> lock{mu_};
    if (closed_ || !items_.empty() || busy_ == slots_) {
      return false;
    }
    ++busy_;
    return true;
  }

  /// Returns a slot claimed by a pop or by try_claim_idle(); call it once
  /// per claim. Never throws, so a destructor may call it.
  void release() {
    // Notified under the lock: once the last slot is back, wait_idle() may
    // return and its caller destroy the queue, so nothing here may touch
    // the queue after unlocking.
    std::lock_guard<std::mutex> lock{mu_};
    --busy_;
    if (!items_.empty()) {
      cv_.notify_one();  // a consumer may be waiting for this slot
    }
    if (busy_ == 0) {
      idle_cv_.notify_all();
    }
  }

  /// Blocks until no slot is claimed.
  void wait_idle() {
    std::unique_lock<std::mutex> lock{mu_};
    idle_cv_.wait(lock, [&] { return busy_ == 0; });
  }

  /// Closing rejects future pushes and wakes all poppers; already-queued
  /// items remain poppable so shutdown drains rather than drops.
  void close() {
    {
      std::lock_guard<std::mutex> lock{mu_};
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock{mu_};
    return items_.size();
  }

 private:
  /// Claims the slot of a successful pop. The pop that drains a closed
  /// queue ends every other consumer's wait, but nothing else would wake
  /// them: release() only wakes a consumer while items remain.
  void claim_popped() {
    ++busy_;
    if (closed_ && items_.empty()) {
      cv_.notify_all();
    }
  }

  void wait_for_work(std::unique_lock<std::mutex>& lock) {
    cv_.wait(lock, [&] {
      return (closed_ && items_.empty()) ||
             (!items_.empty() && busy_ < slots_);
    });
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;       // consumers waiting for work
  std::condition_variable idle_cv_;  // wait_idle() callers
  std::deque<T> items_;
  const std::size_t capacity_;
  const std::size_t slots_;
  std::size_t busy_ = 0;  // claimed slots
  bool closed_ = false;
};

}  // namespace acsel::serve
