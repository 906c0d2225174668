// Bitwise-parity locks for the dispatched SIMD kernels (nn/simd.h): every
// vectorized fp32 kernel and every op built on one must produce bit-for-bit
// the same results as the always-compiled scalar tier, across even, odd and
// sub-vector-width shapes. On machines with no vector tier the tier-vs-tier
// parity tests skip (there is nothing to compare); the gemv_narrow tests,
// which also check the scalar reference against the axpy path and behind
// guard pages, and the dispatch/alignment tests always run.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/matrix.h"
#include "nn/net.h"
#include "nn/simd.h"
#include "util/check.h"
#include "util/rng.h"

namespace ams::nn {
namespace {

// Restores auto dispatch after every test, whatever it forced.
class SimdParityTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetForcedTier(); }

  /// The vector tier to pit against scalar, or nullopt to skip.
  static bool VectorTier(simd::Tier* tier) {
    const simd::Tier best = simd::BestSupportedTier();
    if (best == simd::Tier::kScalar) return false;
    *tier = best;
    return true;
  }
};

const std::vector<int>& KernelSizes() {
  // Below, at, and straddling the 4- and 8-lane widths, plus large-ish.
  static const std::vector<int> kSizes = {1,  2,  3,  4,  5,  7,  8,  9,
                                          15, 16, 17, 31, 33, 64, 100};
  return kSizes;
}

void FillRandom(float* p, int n, util::Rng* rng) {
  for (int i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Uniform(-2.0, 2.0));
  }
}

void ExpectBitEqual(const float* a, const float* b, size_t n,
                    const std::string& what) {
  ASSERT_EQ(std::memcmp(a, b, n * sizeof(float)), 0) << what;
}

TEST_F(SimdParityTest, AxpyBitwiseMatchesScalar) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(11);
  for (const int n : KernelSizes()) {
    std::vector<float> b(n), out_s(n), out_v(n);
    FillRandom(b.data(), n, &rng);
    FillRandom(out_s.data(), n, &rng);
    out_v = out_s;
    const float v = static_cast<float>(rng.Uniform(-3.0, 3.0));
    sca.axpy(v, b.data(), out_s.data(), n);
    vec.axpy(v, b.data(), out_v.data(), n);
    ExpectBitEqual(out_s.data(), out_v.data(), out_s.size(),
                   "axpy n=" + std::to_string(n));
  }
}

TEST_F(SimdParityTest, Axpy4BitwiseMatchesScalar) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(12);
  for (const int n : KernelSizes()) {
    std::vector<float> b(n);
    FillRandom(b.data(), n, &rng);
    float v[4];
    FillRandom(v, 4, &rng);
    std::vector<std::vector<float>> s(4, std::vector<float>(n));
    for (auto& row : s) FillRandom(row.data(), n, &rng);
    std::vector<std::vector<float>> q = s;
    sca.axpy4(v[0], v[1], v[2], v[3], b.data(), s[0].data(), s[1].data(),
              s[2].data(), s[3].data(), n);
    vec.axpy4(v[0], v[1], v[2], v[3], b.data(), q[0].data(), q[1].data(),
              q[2].data(), q[3].data(), n);
    for (int r = 0; r < 4; ++r) {
      ExpectBitEqual(s[r].data(), q[r].data(), s[r].size(),
                     "axpy4 row " + std::to_string(r) +
                         " n=" + std::to_string(n));
    }
  }
}

TEST_F(SimdParityTest, AddInplaceBitwiseMatchesScalar) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(13);
  for (const int n : KernelSizes()) {
    std::vector<float> b(n), out_s(n), out_v(n);
    FillRandom(b.data(), n, &rng);
    FillRandom(out_s.data(), n, &rng);
    out_v = out_s;
    sca.add_inplace(b.data(), out_s.data(), n);
    vec.add_inplace(b.data(), out_v.data(), n);
    ExpectBitEqual(out_s.data(), out_v.data(), out_s.size(),
                   "add_inplace n=" + std::to_string(n));
  }
}

TEST_F(SimdParityTest, ReluBitwiseMatchesScalarIncludingEdgeValues) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(14);
  for (const int n : KernelSizes()) {
    std::vector<float> in(n), out_s(n), out_v(n);
    FillRandom(in.data(), n, &rng);
    // Seed the edge cases the scalar x > 0 ? x : 0 form pins down.
    if (n > 0) in[0] = -0.0f;
    if (n > 2) in[2] = 0.0f;
    if (n > 4) in[4] = std::numeric_limits<float>::quiet_NaN();
    sca.relu(in.data(), out_s.data(), n);
    vec.relu(in.data(), out_v.data(), n);
    ExpectBitEqual(out_s.data(), out_v.data(), out_s.size(),
                   "relu n=" + std::to_string(n));
    // In-place form.
    std::vector<float> inplace = in;
    vec.relu(inplace.data(), inplace.data(), n);
    ExpectBitEqual(out_s.data(), inplace.data(), out_s.size(),
                   "relu in-place n=" + std::to_string(n));
  }
}

TEST_F(SimdParityTest, Dot8BitwiseMatchesScalar) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  const simd::Kernels& vec = simd::KernelsFor(tier);
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(15);
  for (const int n : KernelSizes()) {
    std::vector<float> a(n), panel(static_cast<size_t>(n) * 8);
    FillRandom(a.data(), n, &rng);
    FillRandom(panel.data(), static_cast<int>(panel.size()), &rng);
    float acc_s[8], acc_v[8];
    FillRandom(acc_s, 8, &rng);
    std::memcpy(acc_v, acc_s, sizeof(acc_s));
    sca.dot8(a.data(), panel.data(), n, acc_s);
    vec.dot8(a.data(), panel.data(), n, acc_v);
    ExpectBitEqual(acc_s, acc_v, 8, "dot8 n=" + std::to_string(n));
  }
}

// --- gemv_narrow: the register-blocked narrow-output kernel ----------------

/// The NaN that inf * 0 produces on this hardware. Using it as the only NaN
/// input keeps every NaN in a sum bit-identical whichever operand the
/// hardware propagates, so NaN lanes can be compared bitwise.
float DefaultNaN() {
  volatile float zero = 0.0f;
  return zero * std::numeric_limits<float>::infinity();
}

/// Sets each entry to edge[e] with probability per_mille[e] / 1000, else to
/// Uniform(-2, 2).
template <size_t kCount>
void FillEdgeMix(float* p, size_t n, const float (&edge)[kCount],
                 const int (&per_mille)[kCount], util::Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    int roll = rng->UniformInt(0, 999);
    p[i] = static_cast<float>(rng->Uniform(-2.0, 2.0));
    for (size_t e = 0; e < kCount; ++e) {
      if (roll < per_mille[e]) {
        p[i] = edge[e];
        break;
      }
      roll -= per_mille[e];
    }
  }
}

/// Activations: half zeros of both signs (the skipped entries, as after a
/// ReLU), denormals and large magnitudes.
void FillActivations(float* p, size_t n, util::Rng* rng) {
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const float edge[] = {0.0f, -0.0f, kDenorm * 3, -1e-40f, 1e30f, -1e20f};
  const int per_mille[] = {400, 100, 40, 40, 40, 40};
  FillEdgeMix(p, n, edge, per_mille, rng);
}

/// Weights: signed zeros, denormals, magnitudes that overflow against the
/// large activations, infinities (which a skipped zero activation must never
/// multiply: 0 * inf is NaN) and NaN. Rare enough that at k = 256 over
/// 40% of the output columns stay finite.
void FillWeights(float* p, size_t n, util::Rng* rng) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const float edge[] = {0.0f,  -0.0f, kDenorm, -2e-39f,
                        3e38f, kInf,  -kInf,   DefaultNaN()};
  const int per_mille[] = {50, 50, 30, 30, 5, 2, 2, 1};
  FillEdgeMix(p, n, edge, per_mille, rng);
}

/// The pre-slot composition gemv_narrow replaces: zero-fill, then one axpy
/// per nonzero activation.
void AxpyRow(const simd::Kernels& K, const float* a, const float* b, int k,
             int n, float* out) {
  for (int j = 0; j < n; ++j) out[j] = 0.0f;
  for (int kk = 0; kk < k; ++kk) {
    if (a[kk] != 0.0f) K.axpy(a[kk], b + static_cast<size_t>(kk) * n, out, n);
  }
}

std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kNeon}) {
    if (simd::TierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

TEST(SimdGemvNarrowTest, BitwiseMatchesScalarReferenceOnEveryTier) {
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  const float nan = DefaultNaN();
  util::Rng rng(17);
  for (const int n : {1, 2, 7, 8, 9, 15, 16, 17, 24, 25, 30, 31, 32}) {
    for (const int k : {1, 63, 256}) {
      // Variant 0 keeps NaN out of the activations (a NaN activation turns
      // its whole output row NaN); variant 1 plants one.
      for (int variant = 0; variant < 2; ++variant) {
        std::vector<float> a(static_cast<size_t>(k));
        std::vector<float> b(static_cast<size_t>(k) * n);
        FillActivations(a.data(), a.size(), &rng);
        FillWeights(b.data(), b.size(), &rng);
        if (variant == 1) a[static_cast<size_t>(k / 2)] = nan;
        const std::string what = "n=" + std::to_string(n) +
                                 " k=" + std::to_string(k) +
                                 " variant=" + std::to_string(variant);
        // Poisoned outputs: the slot must overwrite every column.
        std::vector<float> ref(static_cast<size_t>(n), nan);
        sca.gemv_narrow(a.data(), b.data(), k, n, ref.data());
        for (const simd::Tier tier : SupportedTiers()) {
          const simd::Kernels& K = simd::KernelsFor(tier);
          const std::string where = what + " tier=" + simd::TierName(tier);
          std::vector<float> out(static_cast<size_t>(n), nan);
          K.gemv_narrow(a.data(), b.data(), k, n, out.data());
          ExpectBitEqual(ref.data(), out.data(), ref.size(),
                         "gemv_narrow " + where);
          std::vector<float> composed(static_cast<size_t>(n), nan);
          AxpyRow(K, a.data(), b.data(), k, n, composed.data());
          ExpectBitEqual(composed.data(), out.data(), out.size(),
                         "gemv_narrow vs axpy " + where);
        }
      }
    }
  }
}

/// `count` floats ending exactly at a PROT_NONE page: touching data()[count]
/// (or anything beyond) faults.
class GuardedFloats {
 public:
  explicit GuardedFloats(size_t count) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = count * sizeof(float);
    const size_t data_pages = (bytes + page - 1) / page;
    size_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    AMS_CHECK(base != MAP_FAILED, "mmap failed");
    base_ = static_cast<char*>(base);
    char* guard = base_ + data_pages * page;
    AMS_CHECK(mprotect(guard, page, PROT_NONE) == 0, "mprotect failed");
    data_ = reinterpret_cast<float*>(guard - bytes);
  }
  ~GuardedFloats() { munmap(base_, size_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  float* data() { return data_; }

 private:
  char* base_ = nullptr;
  size_t size_ = 0;
  float* data_ = nullptr;
};

TEST(SimdGemvNarrowTest, NeverTouchesPastTheWeightsOrTheOutputRow) {
  // A kernel that loads a full vector past the last weight row, or stores
  // one past out[n - 1], hits a guard page and crashes this test.
  const simd::Kernels& sca = simd::KernelsFor(simd::Tier::kScalar);
  util::Rng rng(19);
  for (const int n : {1, 7, 31, 32}) {
    const int k = 63;
    GuardedFloats a(static_cast<size_t>(k));
    GuardedFloats b(static_cast<size_t>(k) * n);
    FillRandom(a.data(), k, &rng);
    FillRandom(b.data(), k * n, &rng);
    a.data()[k - 1] = 1.0f;  // the last weight row is always read
    std::vector<float> ref(static_cast<size_t>(n));
    sca.gemv_narrow(a.data(), b.data(), k, n, ref.data());
    for (const simd::Tier tier : SupportedTiers()) {
      GuardedFloats out(static_cast<size_t>(n));
      simd::KernelsFor(tier).gemv_narrow(a.data(), b.data(), k, n,
                                         out.data());
      ExpectBitEqual(ref.data(), out.data(), ref.size(),
                     "guarded gemv_narrow n=" + std::to_string(n) +
                         " tier=" + simd::TierName(tier));
    }
  }
}

// --- op-level parity: the matrix/layer entry points under forced tiers -----

Matrix RandomMatrix(int rows, int cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.At(r, c) = static_cast<float>(rng->Uniform(-2.0, 2.0));
    }
  }
  return m;
}

void ExpectMatrixBitEqual(const Matrix& a, const Matrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int r = 0; r < a.rows(); ++r) {
    ExpectBitEqual(a.Row(r), b.Row(r), static_cast<size_t>(a.cols()),
                   what + " row " + std::to_string(r));
  }
}

struct GemmShape {
  int m, k, n;
};

const std::vector<GemmShape>& GemmShapes() {
  // Odd/even/remainder widths around the 4-row block and 8-column panel.
  static const std::vector<GemmShape> kShapes = {
      {1, 1, 1},  {2, 3, 4},   {3, 7, 9},    {4, 8, 8},
      {5, 16, 7}, {7, 31, 33}, {16, 64, 31}, {9, 100, 24}};
  return kShapes;
}

TEST_F(SimdParityTest, GemmOpsBitwiseMatchScalarTier) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  for (const GemmShape& shape : GemmShapes()) {
    util::Rng rng(static_cast<uint64_t>(shape.m * 977 + shape.k * 31 +
                                        shape.n));
    const Matrix a = RandomMatrix(shape.m, shape.k, &rng);
    const Matrix b = RandomMatrix(shape.k, shape.n, &rng);
    // Sparse variant of a: zeros interleaved, exercising the zero-skip.
    Matrix a_sparse = a;
    for (int r = 0; r < a_sparse.rows(); ++r) {
      for (int c = 0; c < a_sparse.cols(); ++c) {
        if ((r + c) % 3 != 0) a_sparse.At(r, c) = 0.0f;
      }
    }
    const Matrix ta = RandomMatrix(shape.k, shape.m, &rng);  // for TransA
    const Matrix tb = RandomMatrix(shape.n, shape.k, &rng);  // for TransB

    Matrix out_s, out_sparse_s, out_ta_s, out_tb_s;
    simd::ForceTier(simd::Tier::kScalar);
    Gemm(a, b, &out_s);
    Gemm(a_sparse, b, &out_sparse_s);
    GemmTransA(ta, b, &out_ta_s);
    GemmTransB(a, tb, &out_tb_s);

    Matrix out_v, out_sparse_v, out_ta_v, out_tb_v;
    simd::ForceTier(tier);
    Gemm(a, b, &out_v);
    Gemm(a_sparse, b, &out_sparse_v);
    GemmTransA(ta, b, &out_ta_v);
    GemmTransB(a, tb, &out_tb_v);

    const std::string shape_str = std::to_string(shape.m) + "x" +
                                  std::to_string(shape.k) + "x" +
                                  std::to_string(shape.n);
    ExpectMatrixBitEqual(out_s, out_v, "Gemm " + shape_str);
    ExpectMatrixBitEqual(out_sparse_s, out_sparse_v,
                         "Gemm sparse " + shape_str);
    ExpectMatrixBitEqual(out_ta_s, out_ta_v, "GemmTransA " + shape_str);
    ExpectMatrixBitEqual(out_tb_s, out_tb_v, "GemmTransB " + shape_str);
  }
}

TEST_F(SimdParityTest, AddRowVectorAndReluBitwiseMatchScalarTier) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  util::Rng rng(21);
  for (const int cols : {1, 3, 8, 13, 31, 64}) {
    const Matrix base = RandomMatrix(5, cols, &rng);
    std::vector<float> bias(static_cast<size_t>(cols));
    FillRandom(bias.data(), cols, &rng);

    simd::ForceTier(simd::Tier::kScalar);
    Matrix add_s = base;
    AddRowVector(&add_s, bias);
    Matrix relu_s;
    ReluForward(base, &relu_s);

    simd::ForceTier(tier);
    Matrix add_v = base;
    AddRowVector(&add_v, bias);
    Matrix relu_v;
    ReluForward(base, &relu_v);

    ExpectMatrixBitEqual(add_s, add_v,
                         "AddRowVector cols=" + std::to_string(cols));
    ExpectMatrixBitEqual(relu_s, relu_v,
                         "ReluForward cols=" + std::to_string(cols));
  }
}

TEST_F(SimdParityTest, ForwardSparseRowsBitwiseMatchesScalarTier) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  util::Rng rng(31);
  DenseLayer layer(40, 23, &rng);
  // Sparse binary rows (the scheduling states) and one dense row.
  std::vector<std::vector<float>> rows(4, std::vector<float>(40, 0.0f));
  std::vector<std::vector<int>> idx(4);
  for (int r = 0; r < 3; ++r) {
    for (const int i : rng.SampleWithoutReplacement(40, 2 + 3 * r)) {
      rows[static_cast<size_t>(r)][static_cast<size_t>(i)] = 1.0f;
    }
    for (int i = 0; i < 40; ++i) {
      if (rows[static_cast<size_t>(r)][static_cast<size_t>(i)] != 0.0f) {
        idx[static_cast<size_t>(r)].push_back(i);
      }
    }
  }
  FillRandom(rows[3].data(), 40, &rng);
  for (int i = 0; i < 40; ++i) idx[3].push_back(i);

  std::vector<const std::vector<float>*> row_ptrs;
  std::vector<const std::vector<int>*> idx_ptrs;
  for (int r = 0; r < 4; ++r) {
    row_ptrs.push_back(&rows[static_cast<size_t>(r)]);
    idx_ptrs.push_back(&idx[static_cast<size_t>(r)]);
  }

  Matrix dense_s, sparse_s;
  simd::ForceTier(simd::Tier::kScalar);
  layer.ForwardSparseRows(row_ptrs, &dense_s);
  layer.ForwardSparseRows(row_ptrs, idx_ptrs, &sparse_s);

  Matrix dense_v, sparse_v;
  simd::ForceTier(tier);
  layer.ForwardSparseRows(row_ptrs, &dense_v);
  layer.ForwardSparseRows(row_ptrs, idx_ptrs, &sparse_v);

  ExpectMatrixBitEqual(dense_s, dense_v, "ForwardSparseRows dense-scan");
  ExpectMatrixBitEqual(sparse_s, sparse_v, "ForwardSparseRows indexed");
  // The index hint itself must be transparent, whatever the tier.
  ExpectMatrixBitEqual(dense_v, sparse_v, "indexed vs dense on vector tier");
}

TEST_F(SimdParityTest, PredictBatchBitwiseMatchesScalarTierEndToEnd) {
  simd::Tier tier;
  if (!VectorTier(&tier)) GTEST_SKIP() << "no vector tier on this machine";
  MlpConfig config;
  config.input_dim = 60;
  config.hidden_dims = {24};
  config.output_dim = 11;
  Mlp mlp(config, /*seed=*/7);
  DuelingMlp dueling(config, /*seed=*/8);

  util::Rng rng(41);
  std::vector<std::vector<float>> rows(5, std::vector<float>(60, 0.0f));
  for (auto& row : rows) {
    for (const int i : rng.SampleWithoutReplacement(60, 6)) {
      row[static_cast<size_t>(i)] = 1.0f;
    }
  }
  std::vector<const std::vector<float>*> row_ptrs;
  for (const auto& row : rows) row_ptrs.push_back(&row);

  Matrix mlp_s, duel_s;
  simd::ForceTier(simd::Tier::kScalar);
  mlp.PredictBatch(row_ptrs, &mlp_s);
  dueling.PredictBatch(row_ptrs, &duel_s);

  Matrix mlp_v, duel_v;
  simd::ForceTier(tier);
  mlp.PredictBatch(row_ptrs, &mlp_v);
  dueling.PredictBatch(row_ptrs, &duel_v);

  ExpectMatrixBitEqual(mlp_s, mlp_v, "Mlp::PredictBatch");
  ExpectMatrixBitEqual(duel_s, duel_v, "DuelingMlp::PredictBatch");
}

// --- dispatch plumbing ------------------------------------------------------

TEST(SimdDispatchTest, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(simd::TierSupported(simd::Tier::kScalar));
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  // The active tier must be one this machine supports.
  EXPECT_TRUE(simd::TierSupported(simd::ActiveTier()));
  // Exactly one architecture-specific tier can be compiled in.
  EXPECT_FALSE(simd::internal::Avx2KernelsOrNull() != nullptr &&
               simd::internal::NeonKernelsOrNull() != nullptr);
}

TEST(SimdDispatchTest, ForceTierSwitchesActiveKernels) {
  simd::ForceTier(simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  EXPECT_EQ(&simd::Active(), &simd::KernelsFor(simd::Tier::kScalar));
  simd::ResetForcedTier();
  EXPECT_TRUE(simd::TierSupported(simd::ActiveTier()));
}

TEST(SimdDispatchTest, EveryKernelSlotIsFilled) {
  // Aggregate initialisation silently nulls any slot a tier's table leaves
  // out, so check every slot of every table this machine can run.
  using Slot = void (*)();
  static_assert(sizeof(simd::Kernels) % sizeof(Slot) == 0,
                "Kernels must hold only function pointers");
  constexpr size_t kSlots = sizeof(simd::Kernels) / sizeof(Slot);
  for (const simd::Tier tier : SupportedTiers()) {
    Slot slots[kSlots];
    std::memcpy(slots, &simd::KernelsFor(tier), sizeof(slots));
    for (size_t i = 0; i < kSlots; ++i) {
      EXPECT_NE(slots[i], nullptr)
          << simd::TierName(tier) << " kernel slot " << i;
    }
  }
}

TEST(SimdDispatchTest, MatrixStorageIs64ByteAligned) {
  for (const int cols : {1, 7, 16, 33}) {
    Matrix m(3, cols);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % 64, 0u)
        << "cols=" << cols;
  }
}

}  // namespace
}  // namespace ams::nn
