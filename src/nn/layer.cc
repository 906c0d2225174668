#include "nn/layer.h"

#include <cmath>

#include "nn/simd.h"
#include "util/check.h"

// Compiled with -ffp-contract=off (CMakeLists.txt) so the scalar fallback
// loops stay bitwise identical to the SIMD tiers under -march=native.

namespace ams::nn {

DenseLayer::DenseLayer(int in_dim, int out_dim, util::Rng* rng)
    : w_(Matrix::RandomNormal(in_dim, out_dim,
                              std::sqrt(2.0f / static_cast<float>(in_dim)), rng)),
      b_(static_cast<size_t>(out_dim), 0.0f) {
  AMS_CHECK(in_dim > 0 && out_dim > 0);
}

void DenseLayer::Forward(const Matrix& x, Matrix* y) const {
  AMS_CHECK(x.cols() == w_.rows(), "dense layer input dim mismatch");
  Gemm(x, w_, y);
  AddRowVector(y, b_);
}

void DenseLayer::ForwardSparseRows(
    const std::vector<const std::vector<float>*>& rows,
    const std::vector<const std::vector<int>*>& indices, Matrix* y) const {
  const int n = static_cast<int>(rows.size());
  const int in = w_.rows();
  const int out = w_.cols();
  AMS_CHECK(indices.empty() || indices.size() == rows.size(),
            "sparse index lists must be absent or parallel to the rows");
  y->Resize(n, out);
  y->Fill(0.0f);
  const simd::Kernels& K = simd::Active();
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& x = *rows[static_cast<size_t>(i)];
    AMS_CHECK(static_cast<int>(x.size()) == in,
              "dense layer input dim mismatch");
    float* y_row = y->Row(i);
    const float* x_data = x.data();
    const std::vector<int>* idx =
        indices.empty() ? nullptr : indices[static_cast<size_t>(i)];
    if (idx != nullptr) {
      // Set positions are known: touch only those weight rows. Ascending
      // index order keeps the float accumulation identical to the dense
      // scan below (zero entries contribute nothing there).
      for (const int kk : *idx) {
        const float v = x_data[kk];
        if (v == 0.0f) continue;
        K.axpy(v, w_.Row(kk), y_row, out);
      }
    } else {
      for (int kk = 0; kk < in; ++kk) {
        const float v = x_data[kk];
        if (v == 0.0f) continue;
        K.axpy(v, w_.Row(kk), y_row, out);
      }
    }
    K.add_inplace(b_.data(), y_row, out);
  }
}

void DenseLayer::Backward(const Matrix& x, const Matrix& grad_y, Matrix* grad_x) {
  AMS_CHECK(grad_y.cols() == w_.cols());
  AMS_CHECK(x.rows() == grad_y.rows());
  AllocateGrads();  // keeps CollectParams views valid: same-size resizes
  GemmTransA(x, grad_y, &dw_);      // dW = x^T * dY
  ColumnSums(grad_y, &db_);         // db = column sums of dY
  if (grad_x != nullptr) {
    GemmTransB(grad_y, w_, grad_x);  // dX = dY * W^T
  }
}

void DenseLayer::AllocateGrads() {
  if (!db_.empty()) return;
  dw_.Resize(w_.rows(), w_.cols());
  dw_.Fill(0.0f);
  db_.assign(b_.size(), 0.0f);
}

void DenseLayer::CollectParams(std::vector<ParamGrad>* out) {
  AllocateGrads();
  out->push_back({w_.data(), dw_.data(), static_cast<size_t>(w_.size())});
  out->push_back({b_.data(), db_.data(), b_.size()});
}

void DenseLayer::CollectWeights(std::vector<ParamGrad>* out) {
  out->push_back({w_.data(), nullptr, static_cast<size_t>(w_.size())});
  out->push_back({b_.data(), nullptr, b_.size()});
}

void DenseLayer::Save(util::BinaryWriter* w) const {
  w->WriteI32(w_.rows());
  w->WriteI32(w_.cols());
  std::vector<float> flat(w_.data(), w_.data() + w_.size());
  w->WriteFloatVector(flat);
  w->WriteFloatVector(b_);
}

bool DenseLayer::Load(util::BinaryReader* r) {
  const int in_dim = r->ReadI32();
  const int out_dim = r->ReadI32();
  if (!r->ok() || in_dim <= 0 || out_dim <= 0) return false;
  std::vector<float> flat = r->ReadFloatVector();
  std::vector<float> bias = r->ReadFloatVector();
  if (!r->ok()) return false;
  if (static_cast<int>(flat.size()) != in_dim * out_dim) return false;
  if (static_cast<int>(bias.size()) != out_dim) return false;
  w_.Resize(in_dim, out_dim);
  std::copy(flat.begin(), flat.end(), w_.data());
  b_ = std::move(bias);
  // A layer already holding gradients keeps them, reshaped and cleared; a
  // layer that never trained stays without them.
  if (!db_.empty()) {
    dw_.Resize(in_dim, out_dim);
    dw_.Fill(0.0f);
    db_.assign(b_.size(), 0.0f);
  }
  return true;
}

}  // namespace ams::nn
