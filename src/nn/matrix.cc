#include "nn/matrix.h"

#include <algorithm>
#include <cstring>

#include "nn/simd.h"
#include "util/check.h"

// Compiled with -ffp-contract=off (CMakeLists.txt): the scalar remainder
// loops here are the bitwise reference for the SIMD tiers, so the compiler
// must not FMA-contract them even under AMS_NATIVE_ARCH=-march=native.

namespace ams::nn {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f) {
  AMS_CHECK(rows >= 0 && cols >= 0);
}

Matrix Matrix::RandomNormal(int rows, int cols, float stddev, util::Rng* rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::FromRowVector(const std::vector<float>& v) {
  Matrix m(1, static_cast<int>(v.size()));
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

void Matrix::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::Resize(int rows, int cols) {
  AMS_CHECK(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
}

void Matrix::CopyRowFrom(const Matrix& src, int src_row, int dst_row) {
  AMS_DCHECK(src.cols() == cols_);
  std::memcpy(Row(dst_row), src.Row(src_row), sizeof(float) * cols_);
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  AMS_CHECK(a.cols() == b.rows(), "gemm shape mismatch");
  out->Resize(a.rows(), b.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const simd::Kernels& K = simd::Active();
  if (n <= simd::kNarrowMaxCols) {
    // Narrow outputs (the Q heads): the whole output row fits in registers,
    // so one gemv_narrow call per row writes it once — same per-element
    // order and zero-skip as the axpy path below, hence bitwise identical.
    for (int i = 0; i < m; ++i) {
      K.gemv_narrow(a.Row(i), b.data(), k, n, out->Row(i));
    }
    return;
  }
  out->Fill(0.0f);  // accumulating path — see the zero-init contract
  // Row-blocked traversal: 4 rows of a share each loaded row of b, cutting
  // the b traffic and per-kk loop overhead 4x for batched inputs — the part
  // of a batched forward pass a single-row call can never amortize. Each
  // out[i][j] still accumulates over kk in strictly increasing order, so
  // results are bitwise identical to the single-row traversal. The j-loops
  // run through the dispatched SIMD kernels (nn/simd.h), which preserve
  // that per-element mul+add order exactly.
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    float* o0 = out->Row(i);
    float* o1 = out->Row(i + 1);
    float* o2 = out->Row(i + 2);
    float* o3 = out->Row(i + 3);
    const float* a0 = a.Row(i);
    const float* a1 = a.Row(i + 1);
    const float* a2 = a.Row(i + 2);
    const float* a3 = a.Row(i + 3);
    for (int kk = 0; kk < k; ++kk) {
      const float* b_row = b.Row(kk);
      // Per-row zero skip: label states are sparse binary vectors. axpy4
      // requires all four values nonzero (it has no skip of its own).
      const float v0 = a0[kk];
      const float v1 = a1[kk];
      const float v2 = a2[kk];
      const float v3 = a3[kk];
      if (v0 != 0.0f && v1 != 0.0f && v2 != 0.0f && v3 != 0.0f) {
        K.axpy4(v0, v1, v2, v3, b_row, o0, o1, o2, o3, n);
      } else {
        if (v0 != 0.0f) K.axpy(v0, b_row, o0, n);
        if (v1 != 0.0f) K.axpy(v1, b_row, o1, n);
        if (v2 != 0.0f) K.axpy(v2, b_row, o2, n);
        if (v3 != 0.0f) K.axpy(v3, b_row, o3, n);
      }
    }
  }
  for (; i < m; ++i) {
    float* out_row = out->Row(i);
    const float* a_row = a.Row(i);
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a_row[kk];
      if (aik == 0.0f) continue;
      K.axpy(aik, b.Row(kk), out_row, n);
    }
  }
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  AMS_CHECK(a.rows() == b.rows(), "gemmTA shape mismatch");
  out->Resize(a.cols(), b.cols());
  out->Fill(0.0f);  // accumulating variant — see the zero-init contract
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const simd::Kernels& K = simd::Active();
  for (int r = 0; r < m; ++r) {
    const float* a_row = a.Row(r);
    const float* b_row = b.Row(r);
    for (int i = 0; i < k; ++i) {
      const float ari = a_row[i];
      if (ari == 0.0f) continue;
      K.axpy(ari, b_row, out->Row(i), n);
    }
  }
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  AMS_CHECK(a.cols() == b.cols(), "gemmTB shape mismatch");
  // No Fill(0): every out[i][j] below is computed into a fresh accumulator
  // and stored exactly once, so stale Resize contents cannot leak through
  // (the zero-init contract in the header).
  out->Resize(a.rows(), b.rows());
  const int m = a.rows(), n = a.cols(), p = b.rows();
  const simd::Kernels& K = simd::Active();
  // 8-column panels: transpose 8 rows of b into an n x 8 scratch so one
  // dot8 call produces 8 outputs per pass over a_row. Each lane still sums
  // over c in index order, bitwise identical to the scalar column loop.
  static thread_local util::AlignedVector<float> panel;
  int j = 0;
  for (; j + 8 <= p; j += 8) {
    panel.resize(static_cast<size_t>(n) * 8);
    for (int l = 0; l < 8; ++l) {
      const float* b_row = b.Row(j + l);
      for (int c = 0; c < n; ++c) panel[static_cast<size_t>(c) * 8 + l] = b_row[c];
    }
    for (int i = 0; i < m; ++i) {
      float acc8[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
      K.dot8(a.Row(i), panel.data(), n, acc8);
      float* out_row = out->Row(i);
      for (int l = 0; l < 8; ++l) out_row[j + l] = acc8[l];
    }
  }
  for (; j < p; ++j) {
    const float* b_row = b.Row(j);
    for (int i = 0; i < m; ++i) {
      const float* a_row = a.Row(i);
      float acc = 0.0f;
      for (int c = 0; c < n; ++c) acc += a_row[c] * b_row[c];
      out->Row(i)[j] = acc;
    }
  }
}

void AddRowVector(Matrix* m, const std::vector<float>& bias) {
  AMS_CHECK(static_cast<int>(bias.size()) == m->cols());
  const int cols = m->cols();
  const float* b = bias.data();
  const simd::Kernels& K = simd::Active();
  for (int i = 0; i < m->rows(); ++i) {
    K.add_inplace(b, m->Row(i), cols);
  }
}

void ReluForward(const Matrix& in, Matrix* out) {
  out->Resize(in.rows(), in.cols());
  simd::Active().relu(in.data(), out->data(), in.size());
}

void ReluBackward(const Matrix& pre_act, const Matrix& grad_out, Matrix* grad_in) {
  AMS_CHECK(pre_act.rows() == grad_out.rows() && pre_act.cols() == grad_out.cols());
  grad_in->Resize(pre_act.rows(), pre_act.cols());
  const float* pre = pre_act.data();
  const float* go = grad_out.data();
  float* gi = grad_in->data();
  const int n = pre_act.size();
  for (int i = 0; i < n; ++i) gi[i] = pre[i] > 0.0f ? go[i] : 0.0f;
}

void ColumnSums(const Matrix& m, std::vector<float>* out) {
  out->assign(static_cast<size_t>(m.cols()), 0.0f);
  for (int i = 0; i < m.rows(); ++i) {
    const float* row = m.Row(i);
    for (int j = 0; j < m.cols(); ++j) (*out)[j] += row[j];
  }
}

}  // namespace ams::nn
