// Synchronization primitives for simulation processes: mutex, counting
// semaphore, one-shot broadcast event, and a CSP-style typed channel.
//
// All primitives serve waiters in arrival order (the semaphore within a
// caller-given priority) and resume them through the engine's event queue
// (never recursively), preserving deterministic ordering.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.h"
#include "sim/engine.h"

namespace portus::sim {

// ---------------------------------------------------------------------------
// SimMutex: `co_await mutex.lock()` yields a move-only Guard whose
// destruction unlocks. Guards must be destroyed in the owning process.
// ---------------------------------------------------------------------------
class SimMutex final : public Resettable {
 public:
  explicit SimMutex(Engine& engine) : engine_{engine} { engine.register_resettable(this); }
  ~SimMutex() { engine_.deregister_resettable(this); }
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  void reset_waiters() noexcept override {
    waiters_.clear();
    locked_ = false;
  }

  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    explicit Guard(SimMutex* m) : mutex_{m} {}
    Guard(Guard&& o) noexcept : mutex_{std::exchange(o.mutex_, nullptr)} {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        release();
        mutex_ = std::exchange(o.mutex_, nullptr);
      }
      return *this;
    }
    ~Guard() { release(); }
    void release() {
      if (mutex_ != nullptr) std::exchange(mutex_, nullptr)->unlock();
    }

   private:
    SimMutex* mutex_ = nullptr;
  };

  struct LockAwaitable {
    SimMutex& mutex;
    bool await_ready() const noexcept { return !mutex.locked_; }
    void await_suspend(std::coroutine_handle<> h) { mutex.waiters_.push_back(h); }
    Guard await_resume() {
      // Either acquired immediately (was unlocked) or handed over by unlock().
      mutex.locked_ = true;
      return Guard{&mutex};
    }
  };

  LockAwaitable lock() { return LockAwaitable{*this}; }
  bool locked() const { return locked_; }

 private:
  friend struct LockAwaitable;
  void unlock() {
    PORTUS_CHECK(locked_, "unlock of unlocked SimMutex");
    locked_ = false;
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      // The resumed waiter re-sets locked_ in await_resume; mark it held now
      // so awaiters arriving in between do not sneak past the queue.
      locked_ = true;
      engine_.resume_later(h);
    }
  }

  Engine& engine_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// ---------------------------------------------------------------------------
// SimSemaphore: counting semaphore. `co_await sem.acquire()` takes a token
// that the caller hands back with release(); `co_await sem.permit()` takes
// one as a move-only Permit whose destruction releases it (SimMutex::Guard
// style), so no exit path of the holder can leak the token.
//
// Waiters are served smallest caller-given priority first, in arrival order
// among equals; a caller that gives none waits at 0, so a semaphore whose
// callers give no priority is FIFO (and queues each waiter in O(1)). A
// Permit's holder may hand_over() its token to a waiter of strictly smaller
// priority and queue for a token again itself.
// ---------------------------------------------------------------------------
class SimSemaphore final : public Resettable {
 public:
  SimSemaphore(Engine& engine, int initial) : engine_{engine}, count_{initial} {
    engine.register_resettable(this);
  }
  ~SimSemaphore() { engine_.deregister_resettable(this); }
  SimSemaphore(const SimSemaphore&) = delete;
  SimSemaphore& operator=(const SimSemaphore&) = delete;

  void reset_waiters() noexcept override { waiters_.clear(); }

  struct AcquireAwaitable {
    SimSemaphore& sem;
    std::uint64_t priority = 0;
    bool await_ready() const noexcept {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem.enqueue(h, priority); }
    void await_resume() const noexcept {}  // token already transferred by release()
  };

  AcquireAwaitable acquire(std::uint64_t priority = 0) { return AcquireAwaitable{*this, priority}; }

  class [[nodiscard]] Permit {
   public:
    explicit Permit(SimSemaphore* s) : sem_{s} {}
    Permit(Permit&& o) noexcept : sem_{std::exchange(o.sem_, nullptr)} {}
    ~Permit() {
      if (sem_ != nullptr) sem_->release();
    }

    // Whether hand_over(priority) would pass the token on.
    bool would_hand_over(std::uint64_t priority) const {
      return sem_ != nullptr && !sem_->waiters_.empty() &&
             sem_->waiters_.front().priority < priority;
    }

    // When the first waiter's priority is strictly below `priority`, pass
    // the token to it, queue at `priority` for a token again, and resume
    // with true once one comes back. Otherwise resume at once, without
    // suspending, with false. While queued the Permit holds no token, so a
    // holder destroyed there releases nothing.
    struct HandOverAwaitable {
      Permit& permit;
      std::uint64_t priority;
      SimSemaphore* queued = nullptr;
      bool await_ready() const noexcept { return !permit.would_hand_over(priority); }
      void await_suspend(std::coroutine_handle<> h) {
        queued = std::exchange(permit.sem_, nullptr);
        queued->release();  // the first waiter takes the token
        queued->enqueue(h, priority);
      }
      bool await_resume() noexcept {
        if (queued == nullptr) return false;
        permit.sem_ = queued;  // a release() handed a token back
        return true;
      }
    };

    HandOverAwaitable hand_over(std::uint64_t priority) {
      PORTUS_CHECK(sem_ != nullptr, "hand-over of a permit that holds no token");
      return HandOverAwaitable{*this, priority};
    }

   private:
    SimSemaphore* sem_;
  };

  struct PermitAwaitable : AcquireAwaitable {
    Permit await_resume() const noexcept { return Permit{&sem}; }
  };

  PermitAwaitable permit(std::uint64_t priority = 0) { return PermitAwaitable{{*this, priority}}; }

  void release(int n = 1) {
    for (int i = 0; i < n; ++i) {
      if (!waiters_.empty()) {
        auto h = waiters_.front().handle;
        waiters_.pop_front();
        engine_.resume_later(h);  // token goes directly to the waiter
      } else {
        ++count_;
      }
    }
  }

  int available() const { return count_; }

 private:
  friend struct AcquireAwaitable;

  struct Waiter {
    std::uint64_t priority;
    std::coroutine_handle<> handle;
  };

  // Behind every waiter of equal or smaller priority: a scan from the back
  // that stops at once when no larger priority is queued.
  void enqueue(std::coroutine_handle<> h, std::uint64_t priority) {
    auto at = waiters_.end();
    while (at != waiters_.begin() && std::prev(at)->priority > priority) --at;
    waiters_.insert(at, Waiter{priority, h});
  }

  Engine& engine_;
  int count_;
  std::deque<Waiter> waiters_;
};

// ---------------------------------------------------------------------------
// SimEvent: one-shot broadcast ("gate"). Waiting after set() is immediate.
// ---------------------------------------------------------------------------
class SimEvent final : public Resettable {
 public:
  explicit SimEvent(Engine& engine) : engine_{engine} { engine.register_resettable(this); }
  ~SimEvent() { engine_.deregister_resettable(this); }
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  void reset_waiters() noexcept override { waiters_.clear(); }

  struct WaitAwaitable {
    SimEvent& ev;
    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  WaitAwaitable wait() { return WaitAwaitable{*this}; }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) engine_.resume_later(h);
    waiters_.clear();
  }

 private:
  friend struct WaitAwaitable;
  Engine& engine_;
  bool set_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// ---------------------------------------------------------------------------
// Channel<T>: FIFO typed channel. Unbounded by default; a bounded channel
// blocks senders when full. close() wakes all blocked receivers with
// portus::Disconnected; senders to a closed channel throw immediately.
// ---------------------------------------------------------------------------
template <typename T>
class Channel final : public Resettable {
 public:
  explicit Channel(Engine& engine, std::size_t capacity = SIZE_MAX)
      : engine_{engine}, capacity_{capacity} {
    engine.register_resettable(this);
  }
  ~Channel() { engine_.deregister_resettable(this); }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void reset_waiters() noexcept override {
    recv_waiters_.clear();
    send_waiters_.clear();
  }

  struct RecvWaiter {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
    bool closed = false;
  };

  struct RecvAwaitable {
    Channel& chan;
    std::shared_ptr<RecvWaiter> waiter;

    bool await_ready() {
      if (!chan.queue_.empty()) {
        waiter = std::make_shared<RecvWaiter>();
        waiter->slot = std::move(chan.queue_.front());
        chan.queue_.pop_front();
        chan.wake_one_sender();
        return true;
      }
      if (chan.closed_) {
        waiter = std::make_shared<RecvWaiter>();
        waiter->closed = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      waiter = std::make_shared<RecvWaiter>();
      waiter->handle = h;
      chan.recv_waiters_.push_back(waiter);
    }
    T await_resume() {
      if (waiter->closed) throw Disconnected("channel closed");
      return std::move(*waiter->slot);
    }
  };

  struct SendAwaitable {
    Channel& chan;
    std::optional<T> value;

    bool await_ready() {
      if (chan.closed_) throw Disconnected("send on closed channel");
      if (chan.try_deliver(*value)) {
        value.reset();
        return true;
      }
      if (chan.queue_.size() < chan.capacity_) {
        chan.queue_.push_back(std::move(*value));
        value.reset();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { chan.send_waiters_.push_back({h, this}); }
    void await_resume() {
      if (value.has_value()) {
        // Resumed by wake_one_sender: space is now available.
        if (chan.closed_) throw Disconnected("send on closed channel");
        if (!chan.try_deliver(*value)) chan.queue_.push_back(std::move(*value));
      }
    }
  };

  RecvAwaitable recv() { return RecvAwaitable{*this, nullptr}; }
  SendAwaitable send(T value) { return SendAwaitable{*this, std::move(value)}; }

  // Non-blocking push (always succeeds; ignores the capacity bound). Used by
  // callbacks that cannot suspend, e.g. delayed network delivery.
  void push(T value) {
    PORTUS_CHECK(!closed_, "push on closed channel");
    if (try_deliver(value)) return;
    queue_.push_back(std::move(value));
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    for (auto& w : recv_waiters_) {
      w->closed = true;
      engine_.resume_later(w->handle);
    }
    recv_waiters_.clear();
    for (auto& [h, aw] : send_waiters_) {
      engine_.resume_later(h);
    }
    send_waiters_.clear();
  }

  bool closed() const { return closed_; }
  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

 private:
  friend struct RecvAwaitable;
  friend struct SendAwaitable;

  bool try_deliver(T& value) {
    if (recv_waiters_.empty()) return false;
    auto w = recv_waiters_.front();
    recv_waiters_.pop_front();
    w->slot = std::move(value);
    engine_.resume_later(w->handle);
    return true;
  }

  void wake_one_sender() {
    if (send_waiters_.empty()) return;
    auto [h, aw] = send_waiters_.front();
    send_waiters_.pop_front();
    engine_.resume_later(h);
  }

  Engine& engine_;
  std::size_t capacity_;
  bool closed_ = false;
  std::deque<T> queue_;
  std::deque<std::shared_ptr<RecvWaiter>> recv_waiters_;
  std::deque<std::pair<std::coroutine_handle<>, SendAwaitable*>> send_waiters_;
};

}  // namespace portus::sim
