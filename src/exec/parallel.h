#ifndef DMR_EXEC_PARALLEL_H_
#define DMR_EXEC_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dmr::exec {

/// \brief A fixed-size thread pool with a bounded FIFO task queue.
///
/// Deliberately work-stealing-free: tasks are taken in submission order from
/// a single queue, which keeps the pool simple and the scheduling overhead
/// negligible next to experiment-cell granularity (milliseconds to minutes).
/// Submit blocks once `queue_capacity` tasks are waiting, providing natural
/// backpressure for producers that enumerate huge grids. Every wait
/// re-checks its condition every 10 ms, so a lost condition-variable wakeup
/// delays the pool instead of hanging it.
///
/// Used by the experiment harness to fan independent simulation cells out
/// across hardware threads. Each cell must build its own Simulation (the
/// one-Simulation-per-thread determinism contract, see DESIGN.md §9).
class ThreadPool {
 public:
  /// \param num_threads     worker count; <= 0 selects HardwareThreads().
  /// \param queue_capacity  max queued (not yet running) tasks before
  ///                        Submit blocks.
  explicit ThreadPool(int num_threads = 0, size_t queue_capacity = 1024);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; blocks while the queue is at capacity.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Largest worker count a caller may ask for (`--threads`, DMR_THREADS).
  static constexpr int kMaxThreads = 4096;

  /// Worker count used for `num_threads <= 0`: the DMR_THREADS environment
  /// variable when it is all digits with a value in 1..kMaxThreads, else
  /// hardware concurrency.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;   // workers wait for tasks/shutdown
  std::condition_variable space_ready_;  // producers wait for queue space
  std::condition_variable idle_;         // Wait() waits for quiescence
  std::deque<std::function<void()>> queue_;
  size_t queue_capacity_;
  size_t in_flight_ = 0;  // queued + currently running
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// \brief Runs `fn(i)` for every i in [0, n) on the pool and blocks until
/// all complete. Returns the Status of the lowest-index failure (subsequent
/// cells still run; deterministic error reporting regardless of timing).
Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn);

/// \brief Computes `fn(i)` for every i in [0, n) on the pool and returns the
/// results in index order — the parallel analogue of a serial cell loop,
/// with bit-identical output as long as each cell is self-contained.
/// On failure returns the Status of the lowest-index failed cell.
template <typename T>
Result<std::vector<T>> ParallelMap(
    ThreadPool* pool, size_t n,
    const std::function<Result<T>(size_t)>& fn) {
  std::vector<Result<T>> cells;
  cells.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    cells.emplace_back(Status::Internal("cell not run"));
  }
  Status status = ParallelFor(pool, n, [&](size_t i) {
    cells[i] = fn(i);
    return cells[i].status();
  });
  DMR_RETURN_NOT_OK(status);
  std::vector<T> values;
  values.reserve(n);
  for (auto& cell : cells) values.push_back(std::move(cell).ValueUnsafe());
  return values;
}

}  // namespace dmr::exec

#endif  // DMR_EXEC_PARALLEL_H_
