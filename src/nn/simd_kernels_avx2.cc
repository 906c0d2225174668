// AVX2 kernel tier. This translation unit is compiled with
// -mavx2 -mno-fma -ffp-contract=off (see CMakeLists.txt) on x86 and is an
// empty stub elsewhere; the #if below keys on __AVX2__ so the file is inert
// whenever those flags are absent. -mno-fma matters: with FMA available the
// compiler may contract the separate mul+add intrinsics below into fused
// ops, which would round once instead of twice and break the bitwise parity
// contract with the scalar kernels.

#include "nn/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ams::nn::simd::internal {

namespace {

// Rows start at arbitrary offsets (row stride = cols), so all loads are
// unaligned even though Matrix buffers are 64-byte aligned.

void Avx2Axpy(float v, const float* b, float* out, int n) {
  const __m256 vv = _mm256_set1_ps(v);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(vv, _mm256_loadu_ps(b + j));
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), prod));
  }
  for (; j < n; ++j) out[j] += v * b[j];
}

void Avx2Axpy4(float v0, float v1, float v2, float v3, const float* b,
               float* o0, float* o1, float* o2, float* o3, int n) {
  const __m256 w0 = _mm256_set1_ps(v0);
  const __m256 w1 = _mm256_set1_ps(v1);
  const __m256 w2 = _mm256_set1_ps(v2);
  const __m256 w3 = _mm256_set1_ps(v3);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 bj = _mm256_loadu_ps(b + j);
    _mm256_storeu_ps(
        o0 + j, _mm256_add_ps(_mm256_loadu_ps(o0 + j), _mm256_mul_ps(w0, bj)));
    _mm256_storeu_ps(
        o1 + j, _mm256_add_ps(_mm256_loadu_ps(o1 + j), _mm256_mul_ps(w1, bj)));
    _mm256_storeu_ps(
        o2 + j, _mm256_add_ps(_mm256_loadu_ps(o2 + j), _mm256_mul_ps(w2, bj)));
    _mm256_storeu_ps(
        o3 + j, _mm256_add_ps(_mm256_loadu_ps(o3 + j), _mm256_mul_ps(w3, bj)));
  }
  for (; j < n; ++j) {
    const float bj = b[j];
    o0[j] += v0 * bj;
    o1[j] += v1 * bj;
    o2[j] += v2 * bj;
    o3[j] += v3 * bj;
  }
}

// kBlocks = ceil(n / 8) accumulators stay in registers across the whole k
// loop, so each nonzero a[kk] costs one pass over its weight row and the
// output row is stored once. The last block is a masked load/store (lanes
// [0, n - 8 * (kBlocks - 1))), which neither reads past the last weight row
// nor writes past out[n - 1]; its masked-off lanes are computed but never
// stored. The zero-skip runs as a branch-free compaction of the nonzero
// indices, chunk by chunk: a ReLU output's zero pattern is data-dependent,
// and branching on each a[kk] cost more in mispredictions than the
// multiply-adds it saved. Lane j still sees the scalar sequence +0, then
// += a[kk] * b[kk*n + j] for each nonzero a[kk] in ascending kk.
template <int kBlocks>
void Avx2GemvNarrowBlocks(const float* a, const float* b, int k, int n,
                          float* out) {
  constexpr int kLast = 8 * (kBlocks - 1);
  constexpr int kChunk = 256;
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(n - kLast),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc[kBlocks];
  for (int q = 0; q < kBlocks; ++q) acc[q] = _mm256_setzero_ps();
  int nonzero[kChunk];
  for (int k0 = 0; k0 < k; k0 += kChunk) {
    const int k1 = k - k0 < kChunk ? k : k0 + kChunk;
    int count = 0;
    for (int kk = k0; kk < k1; ++kk) {
      nonzero[count] = kk;
      count += a[kk] != 0.0f;
    }
    for (int t = 0; t < count; ++t) {
      const int kk = nonzero[t];
      const __m256 vv = _mm256_set1_ps(a[kk]);
      const float* row = b + static_cast<size_t>(kk) * n;
      for (int q = 0; q + 1 < kBlocks; ++q) {
        acc[q] = _mm256_add_ps(
            acc[q], _mm256_mul_ps(vv, _mm256_loadu_ps(row + 8 * q)));
      }
      acc[kBlocks - 1] = _mm256_add_ps(
          acc[kBlocks - 1],
          _mm256_mul_ps(vv, _mm256_maskload_ps(row + kLast, tail)));
    }
  }
  for (int q = 0; q + 1 < kBlocks; ++q) {
    _mm256_storeu_ps(out + 8 * q, acc[q]);
  }
  _mm256_maskstore_ps(out + kLast, tail, acc[kBlocks - 1]);
}

void Avx2GemvNarrow(const float* a, const float* b, int k, int n,
                    float* out) {
  switch ((n + 7) / 8) {
    case 1: Avx2GemvNarrowBlocks<1>(a, b, k, n, out); return;
    case 2: Avx2GemvNarrowBlocks<2>(a, b, k, n, out); return;
    case 3: Avx2GemvNarrowBlocks<3>(a, b, k, n, out); return;
    case 4: Avx2GemvNarrowBlocks<4>(a, b, k, n, out); return;
  }
}

void Avx2AddInplace(const float* b, float* out, int n) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(
        out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) out[j] += b[j];
}

void Avx2Relu(const float* in, float* out, int n) {
  // maxps(x, 0) returns the SECOND operand when x is NaN or the compare
  // ties (-0.0 vs +0.0), which is exactly the scalar `x > 0 ? x : 0`.
  const __m256 zero = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_max_ps(_mm256_loadu_ps(in + j), zero));
  }
  for (; j < n; ++j) out[j] = in[j] > 0.0f ? in[j] : 0.0f;
}

void Avx2Dot8(const float* a, const float* bt8, int n, float* acc8) {
  // One vector register holds the 8 accumulators; lane l sums
  // a[c] * bt8[c*8+l] over c in index order — the same per-lane sequence as
  // the scalar kernel, so the result is bitwise identical.
  __m256 acc = _mm256_loadu_ps(acc8);
  for (int c = 0; c < n; ++c) {
    const __m256 panel = _mm256_loadu_ps(bt8 + static_cast<size_t>(c) * 8);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a[c]), panel));
  }
  _mm256_storeu_ps(acc8, acc);
}

const Kernels kAvx2Kernels = {
    Avx2Axpy, Avx2Axpy4, Avx2GemvNarrow, Avx2AddInplace, Avx2Relu, Avx2Dot8,
};

}  // namespace

const Kernels* Avx2KernelsOrNull() { return &kAvx2Kernels; }

}  // namespace ams::nn::simd::internal

#else  // !__AVX2__

namespace ams::nn::simd::internal {
const Kernels* Avx2KernelsOrNull() { return nullptr; }
}  // namespace ams::nn::simd::internal

#endif  // __AVX2__
