#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <unordered_map>

namespace tmerge::e2ebench {
namespace {

std::atomic<SpanRecorder*> g_active{nullptr};
std::atomic<std::int32_t> g_next_thread{0};

thread_local ScopedSpan* tls_open = nullptr;
thread_local std::int64_t tls_task_parent = -1;
thread_local std::int32_t tls_request = -1;
thread_local std::int32_t tls_thread = -1;

std::int32_t ThreadIndex() {
  if (tls_thread < 0) tls_thread = g_next_thread.fetch_add(1);
  return tls_thread;
}

void AppendJsonString(std::string& out, const char* text) {
  out += '"';
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') out += '\\';
    out += *c;
  }
  out += '"';
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder* SpanRecorder::Active() {
  return g_active.load(std::memory_order_relaxed);
}

void SpanRecorder::SetActive(SpanRecorder* recorder) {
  g_active.store(recorder, std::memory_order_relaxed);
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Spans() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tie(a.start_ns, a.id) < std::tie(b.start_ns, b.id);
  });
  return spans;
}

ScopedSpan::ScopedSpan(const char* name) : recorder_(SpanRecorder::Active()) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.id = recorder_->NextId();
  span_.parent = tls_open != nullptr ? tls_open->span_.id : tls_task_parent;
  span_.request = tls_request;
  span_.thread = ThreadIndex();
  outer_ = tls_open;
  tls_open = this;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = NowNs();
  tls_open = outer_;
  recorder_->Record(span_);
}

TaskContext::TaskContext(std::int64_t parent, std::int32_t request)
    : saved_parent_(tls_task_parent), saved_request_(tls_request) {
  tls_task_parent = parent;
  tls_request = request;
}

TaskContext::~TaskContext() {
  tls_task_parent = saved_parent_;
  tls_request = saved_request_;
}

std::int64_t CurrentSpanId() {
  return tls_open != nullptr ? tls_open->id() : tls_task_parent;
}

void AddUntracedChildTime(std::int64_t ns) {
  if (tls_open != nullptr) tls_open->span_.untraced_child_ns += ns;
}

std::int64_t UnionLength(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t clip_start, std::int64_t clip_end) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (auto [start, end] : intervals) {
    start = std::max(start, clip_start);
    end = std::min(end, clip_end);
    if (end <= start) continue;
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

std::map<std::int64_t, std::int64_t> SelfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::int64_t, std::int64_t> self;
  for (const Span& span : spans) {
    std::int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      covered = UnionLength(it->second, span.start_ns, span.end_ns);
    }
    std::int64_t value =
        span.end_ns - span.start_ns - covered - span.untraced_child_ns;
    self[span.id] = std::max<std::int64_t>(0, value);
  }
  return self;
}

std::map<std::string, double> SelfSecondsByName(
    const std::vector<Span>& spans) {
  std::map<std::int64_t, std::int64_t> self = SelfTimes(spans);
  std::map<std::string, double> by_name;
  for (const Span& span : spans) {
    by_name[span.name] += static_cast<double>(self[span.id]) * 1e-9;
  }
  return by_name;
}

double UncoveredShare(const std::vector<Span>& spans,
                      const std::set<std::string>& layers,
                      std::int64_t start_ns, std::int64_t end_ns) {
  if (end_ns <= start_ns) return 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& span : spans) {
    if (layers.contains(span.name)) {
      intervals.emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::int64_t covered = UnionLength(std::move(intervals), start_ns, end_ns);
  return 1.0 - static_cast<double>(covered) /
                   static_cast<double>(end_ns - start_ns);
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  // Nesting depth on the span's own thread orders events that share a
  // timestamp: ends innermost-first, begins outermost-first, ends before
  // begins — so per-thread B/E stacks always pair correctly.
  std::unordered_map<std::int64_t, const Span*> by_id;
  for (const Span& span : spans) by_id[span.id] = &span;
  auto depth_of = [&](const Span& span) {
    int depth = 0;
    for (auto it = by_id.find(span.parent); it != by_id.end();
         it = by_id.find(it->second->parent)) {
      if (it->second->thread == span.thread) ++depth;
    }
    return depth;
  };
  struct Event {
    std::int64_t ts;
    int order;
    const Span* span;
  };
  std::vector<Event> events;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    origin = std::min(origin, span.start_ns);
    int depth = depth_of(span);
    events.push_back({span.start_ns, 1 + depth, &span});
    events.push_back({span.end_ns, -1 - depth, &span});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.span->thread != b.span->thread) {
      return a.span->thread < b.span->thread;
    }
    return a.order < b.order;
  });
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  bool first = true;
  for (const Event& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, event.span->name);
    double ts_us = static_cast<double>(event.ts - origin) / 1000.0;
    if (event.order > 0) {
      std::snprintf(buffer, sizeof(buffer),
                    ",\"cat\":\"e2ebench\",\"ph\":\"B\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"args\":{\"id\":%lld,"
                    "\"parent\":%lld,\"request\":%d}}",
                    event.span->thread, ts_us,
                    static_cast<long long>(event.span->id),
                    static_cast<long long>(event.span->parent),
                    event.span->request);
    } else {
      std::snprintf(buffer, sizeof(buffer),
                    ",\"cat\":\"e2ebench\",\"ph\":\"E\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f}",
                    event.span->thread, ts_us);
    }
    out += buffer;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace tmerge::e2ebench
