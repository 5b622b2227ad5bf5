#include "tmerge/core/kernel_level.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tmerge::core {
namespace {

KernelLevel ComputeDefaultLevel() {
  const KernelLevel level = DetectedKernelLevel();
  const char* env = std::getenv("TMERGE_KERNEL_LEVEL");
  if (env == nullptr || *env == '\0') return level;
  KernelLevel parsed;
  // Strict like the other TMERGE_* knobs (TMERGE_OBS policy): a typo must
  // never silently decide which kernel tier a run measures.
  if (!ParseKernelLevel(env, &parsed)) {
    std::fprintf(stderr,
                 "tmerge: ignoring invalid TMERGE_KERNEL_LEVEL=\"%s\" "
                 "(want scalar, sse2 or avx2); using %s\n",
                 env, KernelLevelName(level));
    return level;
  }
  if (!KernelLevelSupported(parsed)) {
    std::fprintf(stderr,
                 "tmerge: TMERGE_KERNEL_LEVEL=\"%s\" not supported on this "
                 "host (best is %s); using %s\n",
                 env, KernelLevelName(DetectedKernelLevel()),
                 KernelLevelName(level));
    return level;
  }
  return parsed;
}

/// Session default: the detected level, overridden once by the
/// environment. Memoized via magic static (thread-safe), so a bad
/// override warns once.
KernelLevel DefaultLevel() {
  static const KernelLevel level = ComputeDefaultLevel();
  return level;
}

/// Current dispatch level. -1 = not yet initialized from DefaultLevel()
/// (lazy so the env override applies before first use, without ordering
/// against static initialization).
std::atomic<int> g_level{-1};

}  // namespace

KernelLevel DetectedKernelLevel() {
#if TMERGE_KERNEL_MULTIVERSION
  static const KernelLevel detected =
      __builtin_cpu_supports("avx2") ? KernelLevel::kAvx2
                                     : KernelLevel::kSse2;  // x86-64 baseline.
  return detected;
#elif defined(__SSE2__)
  return KernelLevel::kSse2;
#else
  return KernelLevel::kScalar;
#endif
}

bool KernelLevelSupported(KernelLevel level) {
  return static_cast<int>(level) <= static_cast<int>(DetectedKernelLevel());
}

std::vector<KernelLevel> SupportedKernelLevels() {
  std::vector<KernelLevel> levels;
  for (int l = 0; l <= static_cast<int>(DetectedKernelLevel()); ++l) {
    levels.push_back(static_cast<KernelLevel>(l));
  }
  return levels;
}

KernelLevel CurrentKernelLevel() {
  int value = g_level.load(std::memory_order_relaxed);
  if (value >= 0) return static_cast<KernelLevel>(value);
  const KernelLevel def = DefaultLevel();
  int expected = -1;
  g_level.compare_exchange_strong(expected, static_cast<int>(def),
                                  std::memory_order_relaxed);
  return static_cast<KernelLevel>(g_level.load(std::memory_order_relaxed));
}

bool SetKernelLevel(KernelLevel level) {
  if (!KernelLevelSupported(level)) return false;
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kSse2:
      return "sse2";
    case KernelLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseKernelLevel(const char* text, KernelLevel* out) {
  if (text == nullptr || out == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0) {
    *out = KernelLevel::kScalar;
  } else if (std::strcmp(text, "sse2") == 0) {
    *out = KernelLevel::kSse2;
  } else if (std::strcmp(text, "avx2") == 0) {
    *out = KernelLevel::kAvx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace tmerge::core
