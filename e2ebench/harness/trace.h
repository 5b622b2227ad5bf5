#ifndef E2EBENCH_HARNESS_TRACE_H_
#define E2EBENCH_HARNESS_TRACE_H_

// The benchmark's own span recorder. Spans are taken only in benchmark
// code, around calls into the library's public functions and its three
// virtual seams (decorators.h), so the library itself runs untouched.
// Recording is off unless a SpanRecorder is active; an inactive ScopedSpan
// costs one relaxed atomic load.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace tmerge::e2ebench {

/// Steady-clock nanoseconds (the benchmark's only clock).
std::int64_t NowNs();

/// One closed span. `parent` is the id of the span that caused it (on any
/// thread), -1 for a root. `request` is the video or camera index the
/// work belongs to, -1 when it belongs to none.
struct Span {
  const char* name = "";
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int32_t request = -1;
  std::int32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Time spent on this thread in nested calls that are counted but not
  /// recorded as spans (ReidModel::Embed, see TimedReidModel).
  std::int64_t untraced_child_ns = 0;
};

/// In-memory span store; written out once, when the run ends.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// The recorder spans go to, or null when tracing is off.
  static SpanRecorder* Active();
  static void SetActive(SpanRecorder* recorder);

  std::int64_t NextId() { return next_id_.fetch_add(1); }
  void Record(const Span& span);
  /// All spans recorded so far, ordered by start time.
  std::vector<Span> Spans() const;

 private:
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. Its parent is the innermost open span on this thread, or the
/// parent set by the enclosing TaskContext when none is open.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// -1 when tracing is off.
  std::int64_t id() const { return span_.id; }

 private:
  friend void AddUntracedChildTime(std::int64_t ns);
  SpanRecorder* recorder_;
  ScopedSpan* outer_ = nullptr;
  Span span_;
};

/// Sets the cross-thread parent span and request id for spans opened on
/// this thread while it lives: a task handed to a worker opens one with the
/// id of the span that submitted it.
class TaskContext {
 public:
  TaskContext(std::int64_t parent, std::int32_t request);
  ~TaskContext();
  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

 private:
  std::int64_t saved_parent_;
  std::int32_t saved_request_;
};

/// Id of the innermost open span on this thread (or the task parent).
std::int64_t CurrentSpanId();

/// Charges `ns` of nested, unrecorded work to the innermost open span on
/// this thread, so it is excluded from that span's self time.
void AddUntracedChildTime(std::int64_t ns);

/// Length of the union of `intervals` clipped to [clip_start, clip_end).
std::int64_t UnionLength(std::vector<std::pair<std::int64_t, std::int64_t>>
                             intervals,
                         std::int64_t clip_start, std::int64_t clip_end);

/// Self time of every span: its duration minus the part of it that its
/// child spans (on any thread, overlapping or not) cover, minus its
/// untraced child time. Returned per span id.
std::map<std::int64_t, std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per span name, in seconds.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

/// Share of [start_ns, end_ns) during which no span named in `layers` was
/// open on any thread.
double UncoveredShare(const std::vector<Span>& spans,
                      const std::set<std::string>& layers,
                      std::int64_t start_ns, std::int64_t end_ns);

/// Chrome trace-event JSON ({"traceEvents": [...]}, B/E pairs, times in
/// microseconds from the earliest span) — the format
/// tools/trace_summarize.py reads. Span id, parent and request ride in
/// each begin event's args.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace tmerge::e2ebench

#endif  // E2EBENCH_HARNESS_TRACE_H_
