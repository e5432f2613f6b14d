// Single-threaded epoll event loop.
//
// One EventLoop drives any number of fds and timers on the caller's thread:
// handlers registered with watch() run when their fd is ready, timers run
// when their due time passes, and run_until() dispatches both until a
// predicate says the work is done. Watch/modify/timer calls must come from
// the loop thread — which is exactly the execution model the sans-IO
// sessions want: one thread, many sessions, no data races by construction.
//
// The one cross-thread entry point is post(): any thread may enqueue a task,
// an eventfd wakes the loop, and the task runs on the loop thread. This is
// how a federation spread over several loops injects work into a sibling
// loop — MemHub frame deliveries, straggler teardown, shutdown wakeups —
// without ever sharing loop state across threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/error.hpp"

namespace gendpr::net {

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;
  using TimerId = std::uint64_t;

  /// Readiness callback for a watched fd. `events` is the epoll event mask
  /// (EPOLLIN / EPOLLOUT / EPOLLERR / EPOLLHUP bits).
  class IoHandler {
   public:
    virtual ~IoHandler() = default;
    virtual void on_ready(std::uint32_t events) = 0;
  };

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  bool valid() const noexcept { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  /// Registers `fd` for `events`; the handler is kept alive by the loop
  /// while watched (and through its own dispatch even if it unwatches
  /// itself from inside on_ready).
  common::Status watch(int fd, std::uint32_t events,
                       std::shared_ptr<IoHandler> handler);
  /// Changes the event mask of a watched fd.
  common::Status modify(int fd, std::uint32_t events);
  /// Stops watching `fd`. Safe to call from inside the fd's own on_ready.
  void unwatch(int fd);

  /// Runs `fn` once when `when` passes. Timers fire in due order.
  TimerId add_timer(TimePoint when, std::function<void()> fn);
  TimerId add_timer_after(std::chrono::milliseconds delay,
                          std::function<void()> fn) {
    return add_timer(Clock::now() + delay, std::move(fn));
  }
  void cancel_timer(TimerId id);

  /// Enqueues `fn` to run on the loop thread and wakes the loop. The ONLY
  /// entry point that is safe from any thread; everything a foreign thread
  /// wants done to loop-owned state goes through here. Posted tasks never
  /// count as pending work for run_until's nothing-can-wake-us exit (a task
  /// already enqueued still runs first).
  void post(std::function<void()> fn);

  /// Dispatches fd and timer events until `done()` returns true (checked
  /// after every dispatch batch) or nothing is left that could ever wake
  /// the loop (no watched fds and no timers).
  void run_until(const std::function<bool()>& done);

  /// Runs at most one epoll_wait batch with the given cap on blocking time.
  void poll_once(std::chrono::milliseconds max_wait);

 private:
  int wait_timeout_ms(std::chrono::milliseconds max_wait) const;
  void run_due_timers();
  void run_posted_tasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; watched directly, never in handlers_
  std::map<int, std::shared_ptr<IoHandler>> handlers_;
  struct Timer {
    TimerId id;
    std::function<void()> fn;
  };
  std::multimap<TimePoint, Timer> timers_;
  TimerId next_timer_id_ = 1;
  std::mutex posted_mutex_;                       // guards posted_ only
  std::deque<std::function<void()>> posted_;      // cross-thread task queue
};

}  // namespace gendpr::net
