#ifndef TMERGE_CORE_KERNEL_LEVEL_H_
#define TMERGE_CORE_KERNEL_LEVEL_H_

#include <vector>

// Function multiversioning: the AVX2 kernels are compiled with
// per-function target attributes so their translation units stay
// buildable at the baseline arch. GCC and clang support this on x86-64;
// elsewhere dispatch tops out at whatever the global flags provide.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TMERGE_KERNEL_MULTIVERSION 1
#else
#define TMERGE_KERNEL_MULTIVERSION 0
#endif

namespace tmerge::core {

/// Instruction-set tier the vectorised kernels dispatch to: the distance
/// kernels (reid/distance_kernels.h) and the θ block sampler
/// (core/beta_sampler.h). Levels are ordered: a level is usable only when
/// the CPU supports it (checked once via CPUID at startup) and the
/// compiler could build it (function multiversioning via target
/// attributes; GCC/clang on x86-64). Every level returns bits identical
/// to the scalar reference (DESIGN.md §10.2), so the level is a pure
/// throughput knob.
enum class KernelLevel : int {
  kScalar = 0,  ///< Straight-line reference loops.
  kSse2 = 1,    ///< 2-lane double blocks (baseline x86-64).
  kAvx2 = 2,    ///< 4-lane double blocks; the 8-lane θ block.
};

/// Highest level this host supports (CPUID + compiler), memoized.
KernelLevel DetectedKernelLevel();

/// True when `level` can run on this host.
bool KernelLevelSupported(KernelLevel level);

/// Every level usable on this host, ascending (always includes kScalar).
std::vector<KernelLevel> SupportedKernelLevels();

/// The level the dispatching entry points currently route to. The
/// default is the detected best level — or the TMERGE_KERNEL_LEVEL
/// environment override, applied once at first query with the same
/// strict parsing as the other TMERGE_* knobs (exact level name; junk or
/// an unsupported level warns on stderr and is ignored). This is the only
/// kernel-selection knob; tests pin a level with SetKernelLevel and
/// restore the previous CurrentKernelLevel() afterwards.
KernelLevel CurrentKernelLevel();

/// Routes subsequent kernel calls to `level`. Returns false (and leaves
/// the level unchanged) when the host does not support it. Reads are
/// relaxed atomic loads, one predictable branch per kernel call.
bool SetKernelLevel(KernelLevel level);

/// Display/parse name: "scalar", "sse2", "avx2".
const char* KernelLevelName(KernelLevel level);

/// Strict parser for TMERGE_KERNEL_LEVEL-style values: accepts exactly
/// the level names, nothing else. Returns false on junk.
bool ParseKernelLevel(const char* text, KernelLevel* out);

}  // namespace tmerge::core

#endif  // TMERGE_CORE_KERNEL_LEVEL_H_
