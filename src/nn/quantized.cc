#include "nn/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "nn/simd.h"
#include "util/check.h"

namespace ams::nn {

namespace {

/// Symmetric int8 quantum for a tensor whose values reach max |v| = maxabs.
float QuantScale(float maxabs) {
  return maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
}

int32_t QuantClamp(float v, float inv_scale) {
  const long q = std::lrintf(v * inv_scale);
  return static_cast<int32_t>(std::max(-127L, std::min(127L, q)));
}

float MaxAbs(const Matrix& m) {
  float best = 0.0f;
  const float* data = m.data();
  const int n = m.size();
  for (int i = 0; i < n; ++i) best = std::max(best, std::fabs(data[i]));
  return best;
}

[[noreturn]] void InferenceOnly(const char* op) {
  AMS_CHECK(false, std::string("quantized nets are inference-only: ") + op);
  std::abort();  // unreachable; AMS_CHECK above is noreturn
}

}  // namespace

// ---------------------------------------------------------------------------
// QuantizedDenseLayer

QuantizedDenseLayer::QuantizedDenseLayer(const Matrix& w,
                                         const std::vector<float>& bias,
                                         float input_maxabs)
    : in_(w.rows()),
      out_(w.cols()),
      bias_(bias),
      acc_(static_cast<size_t>(w.cols()), 0) {
  AMS_CHECK(static_cast<int>(bias.size()) == out_, "bias/weight mismatch");
  input_scale_ = QuantScale(input_maxabs);
  inv_input_scale_ = 1.0f / input_scale_;
  wq_.resize(static_cast<size_t>(in_) * static_cast<size_t>(out_));
  combined_scale_.resize(static_cast<size_t>(out_));
  for (int j = 0; j < out_; ++j) {
    float col_max = 0.0f;
    for (int kk = 0; kk < in_; ++kk) {
      col_max = std::max(col_max, std::fabs(w.At(kk, j)));
    }
    const float ws = QuantScale(col_max);
    combined_scale_[static_cast<size_t>(j)] = input_scale_ * ws;
    const float inv_ws = 1.0f / ws;
    for (int kk = 0; kk < in_; ++kk) {
      wq_[static_cast<size_t>(kk) * out_ + j] =
          static_cast<int8_t>(QuantClamp(w.At(kk, j), inv_ws));
    }
  }
}

void QuantizedDenseLayer::ForwardRow(const float* x,
                                     const std::vector<int>* idx,
                                     float* y) const {
  std::memset(acc_.data(), 0, acc_.size() * sizeof(int32_t));
  const simd::Kernels& K = simd::Active();
  int32_t* acc = acc_.data();
  if (idx != nullptr) {
    for (const int kk : *idx) {
      const float v = x[kk];
      if (v == 0.0f) continue;
      const int32_t qv = QuantClamp(v, inv_input_scale_);
      if (qv == 0) continue;
      K.qaxpy(qv, wq_.data() + static_cast<size_t>(kk) * out_, acc, out_);
    }
  } else {
    for (int kk = 0; kk < in_; ++kk) {
      const float v = x[kk];
      if (v == 0.0f) continue;
      const int32_t qv = QuantClamp(v, inv_input_scale_);
      if (qv == 0) continue;
      K.qaxpy(qv, wq_.data() + static_cast<size_t>(kk) * out_, acc, out_);
    }
  }
  K.dequant(acc, combined_scale_.data(), bias_.data(), y, out_);
}

// ---------------------------------------------------------------------------
// QuantizedMlp

QuantizedMlp::QuantizedMlp(const MlpConfig& config,
                           std::vector<QuantizedDenseLayer> layers)
    : config_(config), layers_(std::move(layers)) {
  AMS_CHECK(!layers_.empty());
  size_t max_dim = 0;
  for (const auto& layer : layers_) {
    max_dim = std::max(max_dim, static_cast<size_t>(layer.out_dim()));
  }
  act_a_.resize(max_dim);
  act_b_.resize(max_dim);
}

void QuantizedMlp::ForwardRow(const float* x, const std::vector<int>* idx,
                              float* q_row) {
  const simd::Kernels& K = simd::Active();
  const size_t n = layers_.size();
  const float* cur = x;
  float* scratch = act_a_.data();
  float* other = act_b_.data();
  for (size_t i = 0; i < n; ++i) {
    const bool last = i + 1 == n;
    float* dst = last ? q_row : scratch;
    layers_[i].ForwardRow(cur, idx, dst);
    idx = nullptr;  // only the input row is sparse
    if (!last) {
      K.relu(dst, dst, layers_[i].out_dim());
      cur = dst;
      std::swap(scratch, other);
    }
  }
}

void QuantizedMlp::Forward(const Matrix& x, Matrix* q) {
  AMS_CHECK(x.cols() == config_.input_dim, "quantized mlp input dim mismatch");
  q->Resize(x.rows(), config_.output_dim);
  for (int i = 0; i < x.rows(); ++i) {
    ForwardRow(x.Row(i), nullptr, q->Row(i));
  }
}

void QuantizedMlp::PredictBatch(
    const std::vector<const std::vector<float>*>& rows,
    const std::vector<const std::vector<int>*>& indices, Matrix* q) {
  AMS_CHECK(indices.empty() || indices.size() == rows.size(),
            "sparse index lists must be absent or parallel to the rows");
  const int n = static_cast<int>(rows.size());
  q->Resize(n, config_.output_dim);
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& x = *rows[static_cast<size_t>(i)];
    AMS_CHECK(static_cast<int>(x.size()) == config_.input_dim);
    const std::vector<int>* idx =
        indices.empty() ? nullptr : indices[static_cast<size_t>(i)];
    ForwardRow(x.data(), idx, q->Row(i));
  }
}

void QuantizedMlp::Backward(const Matrix& grad_q) {
  (void)grad_q;
  InferenceOnly("Backward");
}

void QuantizedMlp::CollectParams(std::vector<ParamGrad>* out) {
  (void)out;
  InferenceOnly("CollectParams");
}

void QuantizedMlp::CollectWeights(std::vector<ParamGrad>* out) {
  (void)out;
  InferenceOnly("CollectWeights");
}

void QuantizedMlp::Save(util::BinaryWriter* w) const {
  (void)w;
  InferenceOnly("Save");
}

bool QuantizedMlp::Load(util::BinaryReader* r) {
  (void)r;
  InferenceOnly("Load");
}

std::unique_ptr<QValueNet> QuantizedMlp::Clone() const {
  return std::make_unique<QuantizedMlp>(*this);
}

// ---------------------------------------------------------------------------
// QuantizedDuelingMlp

QuantizedDuelingMlp::QuantizedDuelingMlp(const MlpConfig& config,
                                         std::vector<QuantizedDenseLayer> trunk,
                                         QuantizedDenseLayer value_head,
                                         QuantizedDenseLayer advantage_head)
    : config_(config),
      trunk_(std::move(trunk)),
      value_head_(std::move(value_head)),
      advantage_head_(std::move(advantage_head)) {
  AMS_CHECK(!trunk_.empty());
  size_t max_dim = 1;
  for (const auto& layer : trunk_) {
    max_dim = std::max(max_dim, static_cast<size_t>(layer.out_dim()));
  }
  act_a_.resize(max_dim);
  act_b_.resize(max_dim);
}

void QuantizedDuelingMlp::ForwardRow(const float* x,
                                     const std::vector<int>* idx,
                                     float* q_row) {
  const simd::Kernels& K = simd::Active();
  const float* cur = x;
  float* scratch = act_a_.data();
  float* other = act_b_.data();
  for (auto& layer : trunk_) {
    layer.ForwardRow(cur, idx, scratch);
    idx = nullptr;
    K.relu(scratch, scratch, layer.out_dim());
    cur = scratch;
    std::swap(scratch, other);
  }
  // cur now points at the trunk output. The advantage head writes straight
  // into q_row; Q_j = V + A_j - mean(A) is applied in place.
  float value = 0.0f;
  value_head_.ForwardRow(cur, nullptr, &value);
  advantage_head_.ForwardRow(cur, nullptr, q_row);
  const int out = config_.output_dim;
  float mean_adv = 0.0f;
  for (int j = 0; j < out; ++j) mean_adv += q_row[j];
  mean_adv /= static_cast<float>(out);
  const float shift = value - mean_adv;
  for (int j = 0; j < out; ++j) q_row[j] += shift;
}

void QuantizedDuelingMlp::Forward(const Matrix& x, Matrix* q) {
  AMS_CHECK(x.cols() == config_.input_dim,
            "quantized dueling input dim mismatch");
  q->Resize(x.rows(), config_.output_dim);
  for (int i = 0; i < x.rows(); ++i) {
    ForwardRow(x.Row(i), nullptr, q->Row(i));
  }
}

void QuantizedDuelingMlp::PredictBatch(
    const std::vector<const std::vector<float>*>& rows,
    const std::vector<const std::vector<int>*>& indices, Matrix* q) {
  AMS_CHECK(indices.empty() || indices.size() == rows.size(),
            "sparse index lists must be absent or parallel to the rows");
  const int n = static_cast<int>(rows.size());
  q->Resize(n, config_.output_dim);
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& x = *rows[static_cast<size_t>(i)];
    AMS_CHECK(static_cast<int>(x.size()) == config_.input_dim);
    const std::vector<int>* idx =
        indices.empty() ? nullptr : indices[static_cast<size_t>(i)];
    ForwardRow(x.data(), idx, q->Row(i));
  }
}

void QuantizedDuelingMlp::Backward(const Matrix& grad_q) {
  (void)grad_q;
  InferenceOnly("Backward");
}

void QuantizedDuelingMlp::CollectParams(std::vector<ParamGrad>* out) {
  (void)out;
  InferenceOnly("CollectParams");
}

void QuantizedDuelingMlp::CollectWeights(std::vector<ParamGrad>* out) {
  (void)out;
  InferenceOnly("CollectWeights");
}

void QuantizedDuelingMlp::Save(util::BinaryWriter* w) const {
  (void)w;
  InferenceOnly("Save");
}

bool QuantizedDuelingMlp::Load(util::BinaryReader* r) {
  (void)r;
  InferenceOnly("Load");
}

std::unique_ptr<QValueNet> QuantizedDuelingMlp::Clone() const {
  return std::make_unique<QuantizedDuelingMlp>(*this);
}

// ---------------------------------------------------------------------------
// Quantize factories (declared on the fp32 nets in nn/net.h; defined here so
// net.cc stays free of quantization concerns).

namespace {

/// Stacks calibration rows into a dense batch, checking dimensions.
Matrix StackCalibration(const std::vector<std::vector<float>>& rows,
                        int input_dim) {
  AMS_CHECK(!rows.empty(), "quantization needs calibration rows");
  Matrix x(static_cast<int>(rows.size()), input_dim);
  for (size_t i = 0; i < rows.size(); ++i) {
    AMS_CHECK(static_cast<int>(rows[i].size()) == input_dim,
              "calibration row dim mismatch");
    std::copy(rows[i].begin(), rows[i].end(), x.Row(static_cast<int>(i)));
  }
  return x;
}

}  // namespace

std::unique_ptr<QValueNet> Mlp::Quantize(
    const std::vector<std::vector<float>>& calibration_rows) {
  const Matrix x = StackCalibration(calibration_rows, config_.input_dim);
  Matrix q;
  Forward(x, &q);  // populates post_act_ with this batch's activations
  std::vector<QuantizedDenseLayer> qlayers;
  qlayers.reserve(layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Matrix& input = (i == 0) ? x : post_act_[i - 1];
    qlayers.emplace_back(layers_[i].weights(), layers_[i].bias(),
                         MaxAbs(input));
  }
  return std::make_unique<QuantizedMlp>(config_, std::move(qlayers));
}

std::unique_ptr<QValueNet> DuelingMlp::Quantize(
    const std::vector<std::vector<float>>& calibration_rows) {
  const Matrix x = StackCalibration(calibration_rows, config_.input_dim);
  Matrix q;
  Forward(x, &q);
  std::vector<QuantizedDenseLayer> qtrunk;
  qtrunk.reserve(trunk_.size());
  for (size_t i = 0; i < trunk_.size(); ++i) {
    const Matrix& input = (i == 0) ? x : post_act_[i - 1];
    qtrunk.emplace_back(trunk_[i].weights(), trunk_[i].bias(), MaxAbs(input));
  }
  const float trunk_out_maxabs = MaxAbs(post_act_.back());
  QuantizedDenseLayer qvalue(value_head_->weights(), value_head_->bias(),
                             trunk_out_maxabs);
  QuantizedDenseLayer qadvantage(advantage_head_->weights(),
                                 advantage_head_->bias(), trunk_out_maxabs);
  return std::make_unique<QuantizedDuelingMlp>(
      config_, std::move(qtrunk), std::move(qvalue), std::move(qadvantage));
}

}  // namespace ams::nn
