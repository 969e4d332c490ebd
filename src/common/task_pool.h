// A minimal thread pool for a fixed batch of tasks (no dynamic submission).
//
// Every worker, the caller among them, claims the next unclaimed entry of the caller's
// task list from one shared atomic cursor, so tasks start in list order and no worker
// idles while a task is unclaimed. The audit scheduler hands the pool a list sorted
// largest-first, which makes this greedy longest-processing-time (LPT) list scheduling:
// each next-largest task goes to the first worker that frees up. Tasks never spawn
// tasks, so a worker that finds the cursor past the end exits: all remaining work is
// already running elsewhere.
//
// Worker placement. The workers live for one Run, so the CPU a new thread starts on is
// usually the CPU it finishes on. Where the kernel does not spread new threads or
// rebalance within that time (seen under a cpuset with sched_load_balance off), every
// worker can land on the caller's CPU. A "parallel" run then takes one CPU's time, and
// whether it does changes from run to run.
// So each spawned worker first moves itself to its own CPU of the caller's affinity mask,
// taken round-robin after the caller's current CPU, and then restores the full mask. The
// start is spread, and the kernel can still move the worker later.
#ifndef SRC_COMMON_TASK_POOL_H_
#define SRC_COMMON_TASK_POOL_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace orochi {

class TaskPool {
 public:
  explicit TaskPool(size_t num_threads) : num_threads_(num_threads < 1 ? 1 : num_threads) {}

  // Runs fn(task) for every element of `tasks` across the pool's workers and blocks until
  // all have returned. The calling thread acts as worker 0, so only num_threads - 1
  // threads are spawned: a pool of one runs every task on the caller, in list order.
  // fn must be safe to call concurrently from distinct threads.
  void Run(const std::vector<size_t>& tasks, const std::function<void(size_t)>& fn) {
    const size_t w = num_threads_;
    if (w == 1) {
      for (size_t task : tasks) {
        fn(task);  // Nothing to place or share.
      }
      return;
    }
    // The cursor only hands out positions; join() publishes every task's effects.
    std::atomic<size_t> next{0};
    auto worker = [&tasks, &fn, &next] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < tasks.size();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(tasks[i]);
      }
    };
    const Placement placement;
    std::vector<std::thread> threads;
    threads.reserve(w - 1);
    for (size_t i = 1; i < w; i++) {
      threads.emplace_back([&worker, &placement, i] {
        placement.MoveToOwnCpu(i);
        worker();
      });
    }
    worker();
    for (std::thread& t : threads) {
      t.join();
    }
  }

 private:
  // The calling thread's CPU and affinity mask, read once per Run (see the header comment).
  class Placement {
   public:
#if defined(__linux__)
    Placement() {
      const int current = sched_getcpu();
      if (current < 0 || sched_getaffinity(0, sizeof(mask_), &mask_) != 0) {
        return;  // No placement: more CPUs than cpu_set_t holds, or no getcpu.
      }
      for (int c = 0; c < CPU_SETSIZE; c++) {
        if (CPU_ISSET(c, &mask_)) {
          if (c == current) {
            first_ = cpus_.size();
          }
          cpus_.push_back(c);
        }
      }
    }

    // Runs on spawned worker `i` (>= 1) before it takes a task.
    void MoveToOwnCpu(size_t i) const {
      if (cpus_.size() < 2) {
        return;
      }
      cpu_set_t own;
      CPU_ZERO(&own);
      CPU_SET(cpus_[(first_ + i) % cpus_.size()], &own);
      if (sched_setaffinity(0, sizeof(own), &own) == 0) {
        sched_setaffinity(0, sizeof(mask_), &mask_);
      }
    }

   private:
    cpu_set_t mask_{};
    std::vector<int> cpus_;  // The mask's CPUs, ascending.
    size_t first_ = 0;       // Index of the caller's CPU in cpus_.
#else
    void MoveToOwnCpu(size_t) const {}
#endif
  };

  size_t num_threads_;
};

}  // namespace orochi

#endif  // SRC_COMMON_TASK_POOL_H_
