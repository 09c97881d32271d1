// Generic streaming result machinery: the sink contract, the stock sink
// adapters, the bounded MPSC hand-off queue, and the one delivery loop
// (stream_batch), all templated on the result type so every batch engine in
// the repo delivers through the same plumbing. core::BatchRunner speaks the
// ScenarioResult instantiations (`core::ResultSink` & co., aliased in
// batch_runner.hpp); ckt::MonteCarlo instantiates the same templates over
// its CornerResult so a 10k-corner sweep streams with identical semantics.
//
// Sink contract (what every streaming driver guarantees a sink):
//   * on_start(total) once, then zero or more on_result calls, then
//     on_complete() once — all from ONE thread, never concurrently, so
//     sinks need no locking of their own;
//   * on_result(index, result) may arrive in ANY order; `index` is the
//     position in the job list, and every index in [0, total) arrives
//     exactly once (wrap in BasicOrderedSink for in-order delivery);
//   * a sink callback may throw: the batch still runs to completion and a
//     broken consumer never tears down the pool. A throw from on_result
//     loses THAT delivery only; a throw from on_start withholds every
//     delivery; on_complete still runs either way;
//   * under RunLimits cancellation/deadline, unfinished jobs are still
//     delivered — exactly once per index — carrying their kCancelled /
//     kDeadlineExceeded verdict;
//   * results are delivered while workers are still computing; a slow sink
//     backpressures the workers through the bounded queue rather than
//     buffering unboundedly.
//
// The result type R must be movable; BasicCallbackSink additionally wants
// an `ok()` member for its on_error hook, and BasicTeeSink wants copyability.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/fault_injection.hpp"

namespace ferro::core {

template <typename R>
class BasicResultSink {
 public:
  virtual ~BasicResultSink() = default;

  /// Called once, before any result, with the batch size.
  virtual void on_start(std::size_t total) { (void)total; }

  /// Called once per job, in arrival (NOT job) order, from a single thread.
  /// The sink owns `result` after the call.
  virtual void on_result(std::size_t index, R&& result) = 0;

  /// Called once after the last delivery attempt, even when an earlier sink
  /// callback threw.
  virtual void on_complete() {}
};

/// Re-sequencing adapter: buffers out-of-order arrivals and forwards to the
/// inner sink strictly by ascending index, so the inner sink sees exactly
/// the order a collecting run would have returned. The price of ordering is
/// buffering — worst case (index 0 finishes last) it holds the whole batch,
/// so callers who only need "which job is this" should consume unordered.
template <typename R>
class BasicOrderedSink : public BasicResultSink<R> {
 public:
  explicit BasicOrderedSink(BasicResultSink<R>& inner) : inner_(inner) {}

  void on_start(std::size_t total) override {
    next_ = 0;
    max_buffered_ = 0;
    pending_.clear();
    inner_.on_start(total);
  }

  void on_result(std::size_t index, R&& result) override {
    if (index != next_) {
      pending_.emplace(index, std::move(result));
      max_buffered_ = std::max(max_buffered_, pending_.size());
      return;
    }
    inner_.on_result(next_++, std::move(result));
    // Flush the contiguous run this arrival unblocked. Each entry is erased
    // BEFORE its delivery: if the inner sink throws mid-flush, on_complete
    // must not re-forward a moved-from duplicate.
    while (!pending_.empty() && pending_.begin()->first == next_) {
      R next_result = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      inner_.on_result(next_++, std::move(next_result));
    }
  }

  void on_complete() override {
    // Every index arrives exactly once, so nothing can still be pending
    // unless deliveries were cut short by a sink error; forward what we have
    // in order rather than dropping it silently.
    for (auto& [index, result] : pending_) {
      inner_.on_result(index, std::move(result));
    }
    pending_.clear();
    inner_.on_complete();
  }

  /// Largest buffer the adapter ever held — observability for tests/benches.
  [[nodiscard]] std::size_t max_buffered() const { return max_buffered_; }

 private:
  BasicResultSink<R>& inner_;
  std::map<std::size_t, R> pending_;
  std::size_t next_ = 0;
  std::size_t max_buffered_ = 0;
};

/// Collects results into a vector indexed by job — the streaming equivalent
/// of a collecting run's return value, mostly for tests and migration.
template <typename R>
class BasicCollectingSink : public BasicResultSink<R> {
 public:
  void on_start(std::size_t total) override { results_.resize(total); }
  void on_result(std::size_t index, R&& result) override {
    results_[index] = std::move(result);
  }

  [[nodiscard]] std::vector<R>& results() { return results_; }
  [[nodiscard]] const std::vector<R>& results() const { return results_; }

 private:
  std::vector<R> results_;
};

/// Live progress/error hooks without writing a sink class. Any callback may
/// be empty. on_error fires (before on_result) for results carrying a
/// per-job error (R::ok() false); on_progress fires after every delivery
/// with the running count, for progress bars.
template <typename R>
struct BasicStreamCallbacks {
  std::function<void(std::size_t index, const R& result)> on_result;
  std::function<void(std::size_t index, const R& result)> on_error;
  std::function<void(std::size_t done, std::size_t total)> on_progress;
};

template <typename R>
class BasicCallbackSink : public BasicResultSink<R> {
 public:
  explicit BasicCallbackSink(BasicStreamCallbacks<R> callbacks)
      : callbacks_(std::move(callbacks)) {}

  void on_start(std::size_t total) override {
    total_ = total;
    done_ = 0;  // the sink is reusable across batches, like BasicOrderedSink
  }

  void on_result(std::size_t index, R&& result) override {
    if (!result.ok() && callbacks_.on_error) callbacks_.on_error(index, result);
    if (callbacks_.on_result) callbacks_.on_result(index, result);
    ++done_;
    if (callbacks_.on_progress) callbacks_.on_progress(done_, total_);
  }

 private:
  BasicStreamCallbacks<R> callbacks_;
  std::size_t total_ = 0;
  std::size_t done_ = 0;
};

/// Fans every delivery out to several sinks (e.g. a CSV writer plus a
/// progress printer). Downstream sinks receive the result by const reference
/// copy, so they are independent owners. Pointers are non-owning.
template <typename R>
class BasicTeeSink : public BasicResultSink<R> {
 public:
  explicit BasicTeeSink(std::vector<BasicResultSink<R>*> sinks)
      : sinks_(std::move(sinks)) {}

  void on_start(std::size_t total) override {
    for (BasicResultSink<R>* s : sinks_) s->on_start(total);
  }

  void on_result(std::size_t index, R&& result) override {
    for (std::size_t i = 0; i + 1 < sinks_.size(); ++i) {
      R copy = result;
      sinks_[i]->on_result(index, std::move(copy));
    }
    if (!sinks_.empty()) sinks_.back()->on_result(index, std::move(result));
  }

  void on_complete() override {
    for (BasicResultSink<R>* s : sinks_) s->on_complete();
  }

 private:
  std::vector<BasicResultSink<R>*> sinks_;
};

/// One in-flight result: the index names the job, because arrival order is
/// scheduling-dependent by design.
template <typename R>
struct BasicStreamItem {
  std::size_t index = 0;
  R result;
};

/// The bounded MPSC hand-off between a batch engine's workers and the
/// single consumer thread that drives a sink.
///
/// Many producers (pool workers) push finished results; exactly one consumer
/// pops them. The queue is bounded: push() blocks while the queue is full,
/// so a slow sink applies backpressure to the workers instead of letting
/// results buffer unboundedly — peak memory in flight is capacity() results,
/// whatever the batch size. Condition-variable based on purpose: the
/// producers are coarse-grained simulation jobs, so a blocking queue costs
/// nothing measurable and keeps the code obviously correct under TSan.
///
/// Shutdown: close() marks the stream finished. Pops drain whatever is still
/// queued and then return false; pushes after close() are refused (returns
/// false, item dropped) — that only happens if a producer outlives the
/// batch, which the drivers' structure prevents.
template <typename R>
class BasicResultQueue {
 public:
  /// `capacity` is clamped to at least 1 (a zero-capacity queue could never
  /// transfer anything).
  explicit BasicResultQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  BasicResultQueue(const BasicResultQueue&) = delete;
  BasicResultQueue& operator=(const BasicResultQueue&) = delete;

  /// Blocks while the queue is full. Returns false (dropping `item`) only if
  /// the queue was closed.
  bool push(BasicStreamItem<R>&& item) {
    // Fault site BEFORE the lock: an injected throw or stall here models a
    // producer dying in the hand-off, never a producer unwinding mid-queue.
    (void)FERRO_FAULT_HIT(FaultSite::kQueuePush);
    std::unique_lock<std::mutex> lk(mutex_);
    can_push_.wait(lk, [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    high_water_ = std::max(high_water_, items_.size());
    lk.unlock();
    can_pop_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty and not closed. Returns false once the
  /// queue is closed *and* drained; true with `out` filled otherwise.
  bool pop(BasicStreamItem<R>& out) {
    std::unique_lock<std::mutex> lk(mutex_);
    can_pop_.wait(lk, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    can_push_.notify_one();
    return true;
  }

  /// No more pushes; pending items stay poppable. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      closed_ = true;
    }
    can_push_.notify_all();
    can_pop_.notify_all();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Highest occupancy ever observed — lets tests and benches check that
  /// backpressure actually bounded the buffer. Racy only in the benign
  /// "read while producing" sense; read it after the batch for exact values.
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return high_water_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<BasicStreamItem<R>> items_;
  std::size_t capacity_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

/// The delivery accounting every stream reports. Invariant:
/// delivered + discarded_deliveries always equals the job count — a result
/// is discarded (never silently dropped elsewhere) only when its own delivery
/// failed, when on_start threw (the sink was never initialised, so every
/// delivery is withheld), or when its queue hand-off failed.
struct DeliveryCounters {
  std::size_t delivered = 0;  ///< on_result calls that returned normally
  /// Results withheld from or refused by the sink (see invariant above).
  std::size_t discarded_deliveries = 0;
  /// Sink callbacks (on_start/on_result/on_complete) that threw — tells
  /// "one hiccup" (1, and delivery continued) from "the sink kept failing".
  std::size_t sink_error_count = 0;
  /// First pipeline failure: kSinkError for a throwing sink callback,
  /// kInternal for a failed queue hand-off. kOk when the stream was clean.
  Error sink_error;

  [[nodiscard]] bool ok() const { return sink_error.ok(); }
};

/// Thread-safe result hand-off from a batch engine's dispatch: receives each
/// job index exactly once, possibly concurrently from several workers.
template <typename R>
using EmitFn = std::function<void(std::size_t, R&&)>;

namespace detail {

/// Runs one sink callback; a throw is booked into `counters` as kSinkError
/// instead of propagating. Returns whether the callback returned normally.
template <typename Fn>
bool guard_sink(DeliveryCounters& counters, const Fn& fn) {
  std::string detail;
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    detail = e.what();
  } catch (...) {
    detail = "unknown exception from sink";
  }
  ++counters.sink_error_count;
  if (counters.sink_error.ok()) {
    counters.sink_error = {ErrorCode::kSinkError, std::move(detail)};
  }
  return false;
}

}  // namespace detail

/// The delivery loop both batch engines share: calls `dispatch(emit)` —
/// which must emit every index in [0, total) exactly once — and delivers the
/// results to `sink` under the contract above, booking the outcome into
/// `counters`. `observe(result)` runs on the delivering thread just before
/// each delivery attempt (engine-specific tallies).
///
/// With `threads` <= 1 the dispatch runs in this thread, so the sink is
/// driven inline — no queue, no consumer thread, same contract. Otherwise
/// workers push into a BasicResultQueue of `queue_capacity` (0 = twice the
/// worker count) and one consumer thread drains it for the whole batch. A
/// failed hand-off (only possible through fault injection or allocation
/// death inside push) loses that result but never unwinds a pool worker: it
/// is counted as discarded, with a kInternal sink_error. If `dispatch` itself
/// throws, the consumer is closed and joined and the exception propagates
/// without on_complete. An empty batch never calls `dispatch`.
template <typename R, typename Dispatch, typename Observe>
void stream_batch(BasicResultSink<R>& sink, std::size_t total,
                  unsigned threads, std::size_t queue_capacity,
                  DeliveryCounters& counters, const Dispatch& dispatch,
                  const Observe& observe) {
  // An on_result that throws loses THAT delivery only — later results are
  // still offered — but an on_start that throws withholds every delivery,
  // because the sink never initialised (e.g. a collecting sink's backing
  // vector was never sized).
  const bool started =
      detail::guard_sink(counters, [&] { sink.on_start(total); });
  const auto deliver = [&](std::size_t index, R&& result) {
    observe(result);
    if (!started) {
      ++counters.discarded_deliveries;
      return;
    }
    if (detail::guard_sink(counters, [&] {
          (void)FERRO_FAULT_HIT(FaultSite::kSinkDeliver);
          sink.on_result(index, std::move(result));
        })) {
      ++counters.delivered;
    } else {
      ++counters.discarded_deliveries;
    }
  };

  if (total != 0 && threads <= 1) {
    dispatch(EmitFn<R>(deliver));
  } else if (total != 0) {
    BasicResultQueue<R> queue(queue_capacity != 0
                                  ? queue_capacity
                                  : static_cast<std::size_t>(threads) * 2);
    std::mutex lost_mutex;  // guards lost_pushes and first_lost
    std::size_t lost_pushes = 0;
    Error first_lost;

    // One consumer drains the queue for the whole batch, so the sink sees a
    // single-threaded, serialised call sequence. It keeps popping even after
    // a sink error (deliver() then counts that delivery as discarded) —
    // otherwise workers blocked on a full queue would deadlock the pool.
    std::thread consumer([&] {
      BasicStreamItem<R> item;
      while (queue.pop(item)) deliver(item.index, std::move(item.result));
    });

    const auto lose = [&](std::string detail) {
      std::lock_guard<std::mutex> lk(lost_mutex);
      ++lost_pushes;
      if (first_lost.ok()) {
        first_lost = {ErrorCode::kInternal, std::move(detail)};
      }
    };
    // The consumer MUST be closed-and-joined even if dispatch throws (e.g.
    // lazy pool construction failing under resource exhaustion) — letting a
    // joinable std::thread unwind calls std::terminate.
    try {
      dispatch(EmitFn<R>([&](std::size_t i, R&& r) {
        try {
          queue.push(BasicStreamItem<R>{i, std::move(r)});
        } catch (const std::exception& e) {
          lose(std::string("result hand-off failed: ") + e.what());
        } catch (...) {
          lose("result hand-off failed");
        }
      }));
    } catch (...) {
      queue.close();
      consumer.join();
      throw;
    }

    queue.close();
    consumer.join();
    counters.discarded_deliveries += lost_pushes;
    if (!first_lost.ok() && counters.sink_error.ok()) {
      counters.sink_error = std::move(first_lost);
    }
  }

  // on_complete always fires, even after earlier sink failures — it's the
  // sink's chance to close files.
  (void)detail::guard_sink(counters, [&] { sink.on_complete(); });
}

}  // namespace ferro::core
