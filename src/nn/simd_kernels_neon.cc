// NEON kernel tier (aarch64 baseline — no runtime probe needed). Compiled
// with -ffp-contract=off and written with separate vmul/vadd intrinsics
// (never vmla/vfma, which fuse) so results stay bitwise identical to the
// scalar kernels. An empty stub on other architectures.

#include "nn/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace ams::nn::simd::internal {

namespace {

void NeonAxpy(float v, const float* b, float* out, int n) {
  const float32x4_t vv = vdupq_n_f32(v);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t prod = vmulq_f32(vv, vld1q_f32(b + j));
    vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), prod));
  }
  for (; j < n; ++j) out[j] += v * b[j];
}

void NeonAxpy4(float v0, float v1, float v2, float v3, const float* b,
               float* o0, float* o1, float* o2, float* o3, int n) {
  const float32x4_t w0 = vdupq_n_f32(v0);
  const float32x4_t w1 = vdupq_n_f32(v1);
  const float32x4_t w2 = vdupq_n_f32(v2);
  const float32x4_t w3 = vdupq_n_f32(v3);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t bj = vld1q_f32(b + j);
    vst1q_f32(o0 + j, vaddq_f32(vld1q_f32(o0 + j), vmulq_f32(w0, bj)));
    vst1q_f32(o1 + j, vaddq_f32(vld1q_f32(o1 + j), vmulq_f32(w1, bj)));
    vst1q_f32(o2 + j, vaddq_f32(vld1q_f32(o2 + j), vmulq_f32(w2, bj)));
    vst1q_f32(o3 + j, vaddq_f32(vld1q_f32(o3 + j), vmulq_f32(w3, bj)));
  }
  for (; j < n; ++j) {
    const float bj = b[j];
    o0[j] += v0 * bj;
    o1[j] += v1 * bj;
    o2[j] += v2 * bj;
    o3[j] += v3 * bj;
  }
}

// The parent's per-row path, unchanged: zero-fill, then one NeonAxpy per
// nonzero a[kk] in ascending kk. A register-blocked NEON kernel waits for
// an aarch64 toolchain to compile and measure it on.
void NeonGemvNarrow(const float* a, const float* b, int k, int n,
                    float* out) {
  for (int j = 0; j < n; ++j) out[j] = 0.0f;
  for (int kk = 0; kk < k; ++kk) {
    if (a[kk] == 0.0f) continue;
    NeonAxpy(a[kk], b + static_cast<size_t>(kk) * n, out, n);
  }
}

void NeonAddInplace(const float* b, float* out, int n) {
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) out[j] += b[j];
}

void NeonRelu(const float* in, float* out, int n) {
  // Compare-and-select (not vmaxq, whose NaN behavior differs): x > 0 picks
  // x, else +0.0 — identical to the scalar ternary for -0.0 and NaN.
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t x = vld1q_f32(in + j);
    const uint32x4_t pos = vcgtq_f32(x, zero);
    vst1q_f32(out + j, vbslq_f32(pos, x, zero));
  }
  for (; j < n; ++j) out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void NeonDot8(const float* a, const float* bt8, int n, float* acc8) {
  float32x4_t lo = vld1q_f32(acc8);
  float32x4_t hi = vld1q_f32(acc8 + 4);
  for (int c = 0; c < n; ++c) {
    const float32x4_t ac = vdupq_n_f32(a[c]);
    const float* panel = bt8 + static_cast<size_t>(c) * 8;
    lo = vaddq_f32(lo, vmulq_f32(ac, vld1q_f32(panel)));
    hi = vaddq_f32(hi, vmulq_f32(ac, vld1q_f32(panel + 4)));
  }
  vst1q_f32(acc8, lo);
  vst1q_f32(acc8 + 4, hi);
}

const Kernels kNeonKernels = {
    NeonAxpy, NeonAxpy4, NeonGemvNarrow, NeonAddInplace, NeonRelu, NeonDot8,
};

}  // namespace

const Kernels* NeonKernelsOrNull() { return &kNeonKernels; }

}  // namespace ams::nn::simd::internal

#else  // !__aarch64__

namespace ams::nn::simd::internal {
const Kernels* NeonKernelsOrNull() { return nullptr; }
}  // namespace ams::nn::simd::internal

#endif  // __aarch64__
