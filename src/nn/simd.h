#ifndef AMS_NN_SIMD_H_
#define AMS_NN_SIMD_H_

namespace ams::nn::simd {

/// Instruction-set tiers the inference kernels can run at. The scalar tier
/// is always compiled; the vector tiers are compiled on their architecture
/// and picked at runtime, so one Release binary runs (fast) everywhere.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,  // x86-64, runtime-detected via CPUID
  kNeon = 2,  // aarch64 baseline
};

/// Widest output row the gemv_narrow slot takes: four 8-lane AVX2
/// accumulators held in registers.
constexpr int kNarrowMaxCols = 32;

/// The vectorizable inner loops of the nn substrate, as a function-pointer
/// table resolved once at startup. Every fp32 kernel is elementwise
/// equivalent to its scalar counterpart — vector lanes map to output
/// columns, each lane performs the same mul-then-add sequence in the same
/// order, and no tier may use FMA contraction — so switching tiers never
/// changes results bitwise.
struct Kernels {
  /// out[j] += v * b[j] for j in [0, n). Callers skip v == 0 themselves
  /// (the scalar kernels' sparse zero-skip; adding 0 * b[j] would differ
  /// for inf/NaN inputs).
  void (*axpy)(float v, const float* b, float* out, int n);
  /// Four axpys sharing one pass over b. All four v's must be nonzero —
  /// callers fall back to individual axpy calls otherwise to preserve the
  /// zero-skip exactly.
  void (*axpy4)(float v0, float v1, float v2, float v3, const float* b,
                float* o0, float* o1, float* o2, float* o3, int n);
  /// One output row of a dense layer with n <= kNarrowMaxCols outputs:
  /// out[j] = sum of a[kk] * b[kk*n + j] over kk in [0, k), for j in
  /// [0, n), where b is the k x n row-major weight matrix. Each out[j]
  /// starts from +0 and adds the products in ascending kk with a separate
  /// mul then add, skipping every a[kk] == 0 — bitwise identical to
  /// zero-filling out and calling axpy once per nonzero a[kk]. Writes every
  /// out[j] exactly once and touches nothing outside a[0, k), b[0, k*n) and
  /// out[0, n).
  void (*gemv_narrow)(const float* a, const float* b, int k, int n,
                      float* out);
  /// out[j] += b[j].
  void (*add_inplace)(const float* b, float* out, int n);
  /// out[j] = in[j] > 0 ? in[j] : 0, with scalar-identical -0.0/NaN
  /// behavior (both map to +0.0). in == out is allowed.
  void (*relu)(const float* in, float* out, int n);
  /// acc8[l] += sum_c a[c] * bt8[c*8 + l] for l in [0, 8): eight
  /// dot-products against the columns of an n x 8 panel, each lane
  /// accumulating sequentially over c in index order.
  void (*dot8)(const float* a, const float* bt8, int n, float* acc8);
};

/// Human-readable tier name ("scalar", "avx2", "neon").
const char* TierName(Tier tier);

/// Whether this binary both compiled the tier and runs on hardware that
/// supports it.
bool TierSupported(Tier tier);

/// Highest supported tier on this machine.
Tier BestSupportedTier();

/// The tier Active() dispatches to. Resolved once from the AMS_SIMD
/// environment variable: unset/"on"/"auto" pick BestSupportedTier(),
/// "off"/"scalar" force the scalar kernels (kill switch), "avx2"/"neon"
/// force a specific tier and abort if it is unsupported.
Tier ActiveTier();

/// Kernel table for an explicit tier; aborts if unsupported.
const Kernels& KernelsFor(Tier tier);

/// The active kernel table. Hot loops hoist this reference once per call.
const Kernels& Active();

/// Test/bench hook: overrides the active tier (aborts if unsupported).
/// Not thread-safe — call before spawning workers.
void ForceTier(Tier tier);
/// Undoes ForceTier, returning to the AMS_SIMD/auto resolution.
void ResetForcedTier();

namespace internal {
/// Defined in simd_kernels_avx2.cc / simd_kernels_neon.cc; null when the
/// tier was not compiled into this binary.
const Kernels* Avx2KernelsOrNull();
const Kernels* NeonKernelsOrNull();
}  // namespace internal

}  // namespace ams::nn::simd

#endif  // AMS_NN_SIMD_H_
