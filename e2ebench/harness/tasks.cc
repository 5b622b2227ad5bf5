#include "tasks.h"

#include <condition_variable>
#include <exception>
#include <mutex>

#include "trace.h"

namespace tmerge::e2ebench {

void RunTasks(core::ThreadPool& pool, std::size_t count,
              const std::function<void(std::size_t)>& fn, PoolUsage* usage) {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = count;
  std::exception_ptr error;
  std::int64_t task_ns = 0;
  const std::int64_t parent = CurrentSpanId();
  const std::int64_t region_start = NowNs();

  auto run_one = [&](std::size_t index) {
    std::int64_t start = NowNs();
    std::exception_ptr failure;
    {
      TaskContext context(parent, static_cast<std::int32_t>(index));
      try {
        fn(index);
      } catch (...) {
        failure = std::current_exception();
      }
    }
    std::int64_t busy = NowNs() - start;
    std::lock_guard<std::mutex> lock(mutex);
    task_ns += busy;
    if (failure && !error) error = failure;
    if (--remaining == 0) done.notify_all();
  };
  for (std::size_t i = 0; i < count; ++i) {
    if (!pool.Submit([&run_one, i] { run_one(i); }).ok()) run_one(i);
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return remaining == 0; });
  }
  if (usage != nullptr) {
    usage->task_ns += task_ns;
    usage->region_ns += NowNs() - region_start;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace tmerge::e2ebench
