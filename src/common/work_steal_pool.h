// A minimal work-stealing pool for a fixed batch of tasks (no dynamic submission).
//
// The audit scheduler hands the pool an index list pre-sorted largest-first; worker w's
// initial share is the indices at positions w, w+W, 2w+W, ... (round-robin over the sorted
// list, an LPT-style assignment), and a worker whose own deque drains steals from the back
// of another worker's deque. Tasks never spawn tasks, so a worker that finds every deque
// empty can exit: all remaining work is already running elsewhere.
//
// Worker placement. The workers live for one Run, so the CPU a new thread starts on is
// usually the CPU it finishes on. Where the kernel does not spread new threads or
// rebalance within that time (seen under a cpuset with sched_load_balance off), every
// worker can land on the caller's CPU. A "parallel" run then takes one CPU's time, and
// whether it does changes from run to run.
// So each spawned worker first moves itself to its own CPU of the caller's affinity mask,
// taken round-robin after the caller's current CPU, and then restores the full mask. The
// start is spread, and the kernel can still move the worker later.
#ifndef SRC_COMMON_WORK_STEAL_POOL_H_
#define SRC_COMMON_WORK_STEAL_POOL_H_

#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace orochi {

class WorkStealPool {
 public:
  explicit WorkStealPool(size_t num_threads) : num_threads_(num_threads < 1 ? 1 : num_threads) {}

  // Runs fn(task) for every element of `tasks` across the pool's workers and blocks until
  // all have returned. The calling thread acts as worker 0, so only num_threads - 1
  // threads are spawned: a pool of one runs every task on the caller, in list order.
  // fn must be safe to call concurrently from distinct threads.
  void Run(const std::vector<size_t>& tasks, const std::function<void(size_t)>& fn) {
    const size_t w = num_threads_;
    std::vector<Shard> shards(w);
    for (size_t i = 0; i < tasks.size(); i++) {
      shards[i % w].q.push_back(tasks[i]);
    }
    auto worker = [&shards, &fn, w](size_t self) {
      while (true) {
        size_t task = 0;
        bool found = false;
        {
          std::lock_guard<std::mutex> lock(shards[self].mu);
          if (!shards[self].q.empty()) {
            task = shards[self].q.front();
            shards[self].q.pop_front();
            found = true;
          }
        }
        if (!found) {
          // Steal from the back of the first non-empty victim.
          for (size_t k = 1; k < w && !found; k++) {
            Shard& victim = shards[(self + k) % w];
            std::lock_guard<std::mutex> lock(victim.mu);
            if (!victim.q.empty()) {
              task = victim.q.back();
              victim.q.pop_back();
              found = true;
            }
          }
        }
        if (!found) {
          return;  // Every deque is empty and no task can create more work.
        }
        fn(task);
      }
    };
    if (w == 1) {
      worker(0);  // Nothing to place.
      return;
    }
    const Placement placement;
    std::vector<std::thread> threads;
    threads.reserve(w - 1);
    for (size_t i = 1; i < w; i++) {
      threads.emplace_back([&worker, &placement, i] {
        placement.MoveToOwnCpu(i);
        worker(i);
      });
    }
    worker(0);
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

  struct Shard {
    std::mutex mu;
    std::deque<size_t> q;
  };

  size_t num_threads_;
};

}  // namespace orochi

#endif  // SRC_COMMON_WORK_STEAL_POOL_H_
