#include "exec/parallel.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace dmr::exec {

namespace {

// Every wait re-checks its predicate at least this often. The predicates
// decide what happens, so this changes no outcome; it turns a lost wakeup
// (older glibc can drop a pthread_cond_signal wakeup, sourceware bug 25847)
// into a delay of one interval instead of a hang.
constexpr std::chrono::milliseconds kRecheckInterval{10};

template <typename Pred>
void WaitUntil(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
               Pred ready) {
  while (!cv.wait_for(lock, kRecheckInterval, ready)) {
  }
}

}  // namespace

int ThreadPool::HardwareThreads() {
  if (const char* env = std::getenv("DMR_THREADS")) {
    // from_chars takes no whitespace or '+', so a value that parses whole
    // into 1..kMaxThreads is all digits; anything else (4x, -3, an int
    // overflow) falls back to the hardware count.
    const char* end = env + std::strlen(env);
    int n = 0;
    auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec == std::errc() && ptr == end && n >= 1 && n <= kMaxThreads) {
      return n;
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : queue_capacity_(queue_capacity > 0 ? queue_capacity : 1) {
  int n = num_threads > 0 ? num_threads : HardwareThreads();
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    WaitUntil(space_ready_, lock, [this] {
      return queue_.size() < queue_capacity_ || shutdown_;
    });
    if (shutdown_) return;  // tasks submitted after shutdown are dropped
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  WaitUntil(idle_, lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      WaitUntil(task_ready_, lock,
                [this] { return !queue_.empty() || shutdown_; });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    space_ready_.notify_one();
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn) {
  // Lowest failed index wins so error reporting is deterministic no matter
  // how the cells interleave across workers.
  std::atomic<size_t> first_error{n};
  std::vector<Status> errors(n);
  for (size_t i = 0; i < n; ++i) {
    pool->Submit([&, i] {
      Status status = fn(i);
      if (!status.ok()) {
        errors[i] = std::move(status);
        size_t current = first_error.load(std::memory_order_relaxed);
        while (i < current && !first_error.compare_exchange_weak(
                                  current, i, std::memory_order_release,
                                  std::memory_order_relaxed)) {
        }
      }
    });
  }
  pool->Wait();
  size_t bad = first_error.load(std::memory_order_acquire);
  if (bad < n) return errors[bad];
  return Status::OK();
}

}  // namespace dmr::exec
