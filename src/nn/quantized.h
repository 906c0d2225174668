#ifndef AMS_NN_QUANTIZED_H_
#define AMS_NN_QUANTIZED_H_

#include <memory>
#include <vector>

#include "nn/matrix.h"
#include "nn/net.h"
#include "util/aligned.h"

namespace ams::nn {

/// int8 dense layer for the quantized inference path.
///
/// Weights are quantized symmetrically per OUTPUT column (scale_j =
/// max|W[:,j]| / 127) so every output unit keeps its own dynamic range;
/// inputs are quantized per layer with a scale calibrated offline from
/// observed activations (max|x| / 127). The forward accumulates in int32 —
/// |q_x| <= 127, |q_w| <= 127, so even a 100k-wide layer cannot overflow —
/// and dequantizes once per output: y_j = acc_j * (s_x * s_wj) + b_j.
/// Inference-only and held to recall tolerance, not bitwise parity.
class QuantizedDenseLayer {
 public:
  /// Quantizes `w` [in,out] and captures `input_maxabs`, the calibration
  /// max |x| this layer's inputs showed (0 degrades to a unit scale).
  QuantizedDenseLayer(const Matrix& w, const std::vector<float>& bias,
                      float input_maxabs);

  int in_dim() const { return in_; }
  int out_dim() const { return out_; }
  float input_scale() const { return input_scale_; }

  /// y[0..out) = dequant(sum_kk q(x[kk]) * wq[kk][:]) + bias. `idx`, when
  /// non-null, lists the nonzero positions of x in ascending order (the
  /// sparse binary label states); otherwise x is scanned densely. Reuses
  /// an internal accumulator — not thread-safe (nets never are).
  void ForwardRow(const float* x, const std::vector<int>* idx, float* y) const;

 private:
  int in_ = 0;
  int out_ = 0;
  float input_scale_ = 1.0f;
  float inv_input_scale_ = 1.0f;
  util::AlignedVector<int8_t> wq_;     // [in, out] row-major
  std::vector<float> combined_scale_;  // input_scale_ * per-column w scale
  std::vector<float> bias_;
  mutable util::AlignedVector<int32_t> acc_;  // [out] scratch
};

/// int8 snapshot of an Mlp, built by Mlp::Quantize(). Inference-only:
/// Backward/CollectParams/CollectWeights/Save abort, weight syncs skip it
/// (IsQuantized).
class QuantizedMlp : public QValueNet {
 public:
  QuantizedMlp(const MlpConfig& config,
               std::vector<QuantizedDenseLayer> layers);

  int input_dim() const override { return config_.input_dim; }
  int output_dim() const override { return config_.output_dim; }
  bool IsQuantized() const override { return true; }

  void Forward(const Matrix& x, Matrix* q) override;
  using QValueNet::PredictBatch;
  void PredictBatch(const std::vector<const std::vector<float>*>& rows,
                    const std::vector<const std::vector<int>*>& indices,
                    Matrix* q) override;
  void Backward(const Matrix& grad_q) override;
  void CollectParams(std::vector<ParamGrad>* out) override;
  void CollectWeights(std::vector<ParamGrad>* out) override;
  void Save(util::BinaryWriter* w) const override;
  bool Load(util::BinaryReader* r) override;
  std::unique_ptr<QValueNet> Clone() const override;

 private:
  void ForwardRow(const float* x, const std::vector<int>* idx, float* q_row);

  MlpConfig config_;
  std::vector<QuantizedDenseLayer> layers_;
  std::vector<float> act_a_, act_b_;  // per-row activation scratch
};

/// int8 snapshot of a DuelingMlp, built by DuelingMlp::Quantize().
class QuantizedDuelingMlp : public QValueNet {
 public:
  QuantizedDuelingMlp(const MlpConfig& config,
                      std::vector<QuantizedDenseLayer> trunk,
                      QuantizedDenseLayer value_head,
                      QuantizedDenseLayer advantage_head);

  int input_dim() const override { return config_.input_dim; }
  int output_dim() const override { return config_.output_dim; }
  bool IsQuantized() const override { return true; }

  void Forward(const Matrix& x, Matrix* q) override;
  using QValueNet::PredictBatch;
  void PredictBatch(const std::vector<const std::vector<float>*>& rows,
                    const std::vector<const std::vector<int>*>& indices,
                    Matrix* q) override;
  void Backward(const Matrix& grad_q) override;
  void CollectParams(std::vector<ParamGrad>* out) override;
  void CollectWeights(std::vector<ParamGrad>* out) override;
  void Save(util::BinaryWriter* w) const override;
  bool Load(util::BinaryReader* r) override;
  std::unique_ptr<QValueNet> Clone() const override;

 private:
  void ForwardRow(const float* x, const std::vector<int>* idx, float* q_row);

  MlpConfig config_;
  std::vector<QuantizedDenseLayer> trunk_;
  QuantizedDenseLayer value_head_;
  QuantizedDenseLayer advantage_head_;
  std::vector<float> act_a_, act_b_;
};

}  // namespace ams::nn

#endif  // AMS_NN_QUANTIZED_H_
