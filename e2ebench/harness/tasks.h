#ifndef E2EBENCH_HARNESS_TASKS_H_
#define E2EBENCH_HARNESS_TASKS_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "tmerge/core/thread_pool.h"

namespace tmerge::e2ebench {

/// Busy time of pool tasks against the wall time of the regions that ran
/// them (for pool.worker_utilization).
struct PoolUsage {
  std::int64_t task_ns = 0;
  std::int64_t region_ns = 0;
};

/// Runs fn(0) .. fn(count - 1) as pool tasks and waits for all of them.
/// Unlike ThreadPool::ParallelFor the calling thread only waits, so the
/// work runs on the pool's workers alone. Each task opens a TaskContext
/// with the caller's current span as parent and its index as request id.
/// The first exception a task throws is rethrown here.
void RunTasks(core::ThreadPool& pool, std::size_t count,
              const std::function<void(std::size_t)>& fn,
              PoolUsage* usage = nullptr);

}  // namespace tmerge::e2ebench

#endif  // E2EBENCH_HARNESS_TASKS_H_
