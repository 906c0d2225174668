// Unit tests of the dense networks: numerically checked gradients for both
// architectures, serialization round trips, clones (bitwise copies sharing
// no storage), and lazily allocated gradient buffers.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "nn/grad_check.h"
#include "nn/net.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ams::nn {
namespace {

Matrix RandomBatch(int rows, int cols, uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.At(r, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  return m;
}

struct NetCase {
  bool dueling;
  MlpConfig config;
};

class NetGradTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetGradTest, AnalyticGradientsMatchNumeric) {
  const NetCase& c = GetParam();
  std::unique_ptr<QValueNet> net;
  if (c.dueling) {
    net = std::make_unique<DuelingMlp>(c.config, 33);
  } else {
    net = std::make_unique<Mlp>(c.config, 33);
  }
  const Matrix x = RandomBatch(3, c.config.input_dim, 1);
  const Matrix target = RandomBatch(3, c.config.output_dim, 2);
  const GradCheckResult result = CheckGradients(net.get(), x, target);
  EXPECT_GT(result.params_checked, 0u);
  EXPECT_LT(result.max_rel_diff, 2e-2)
      << "abs diff " << result.max_abs_diff;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, NetGradTest,
    ::testing::Values(NetCase{false, {5, {8}, 4}},
                      NetCase{false, {7, {6, 5}, 3}},
                      NetCase{false, {4, {}, 2}},  // linear model
                      NetCase{true, {5, {8}, 4}},
                      NetCase{true, {6, {7, 5}, 3}}));

TEST(MlpTest, ForwardShapesAndDeterminism) {
  MlpConfig config{10, {16}, 4};
  Mlp net(config, 7);
  const Matrix x = RandomBatch(5, 10, 3);
  Matrix q1, q2;
  net.Forward(x, &q1);
  net.Forward(x, &q2);
  ASSERT_EQ(q1.rows(), 5);
  ASSERT_EQ(q1.cols(), 4);
  for (int i = 0; i < q1.size(); ++i) {
    EXPECT_FLOAT_EQ(q1.data()[i], q2.data()[i]);
  }
}

TEST(MlpTest, Predict1MatchesBatchForward) {
  MlpConfig config{6, {8}, 3};
  Mlp net(config, 9);
  const Matrix x = RandomBatch(1, 6, 4);
  std::vector<float> row(x.Row(0), x.Row(0) + 6);
  const std::vector<float> single = net.Predict1(row);
  Matrix q;
  net.Forward(x, &q);
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(single[static_cast<size_t>(j)], q.At(0, j));
}

TEST(PredictBatchTest, SetIndexListsAreBitwiseIdenticalToDenseScan) {
  // Sparse binary rows like the scheduling states: the index-list fast path
  // must be bit-for-bit the dense zero-skipping scan, per architecture.
  const MlpConfig config{24, {16}, 5};
  std::vector<std::vector<float>> rows;
  std::vector<std::vector<int>> index_lists;
  util::Rng rng(21);
  for (int r = 0; r < 6; ++r) {
    std::vector<float> row(24, 0.0f);
    std::vector<int> indices;
    for (int k = 0; k < 24; ++k) {
      if (rng.Uniform(0.0, 1.0) < 0.2) {
        row[static_cast<size_t>(k)] = 1.0f;
        indices.push_back(k);  // ascending by construction
      }
    }
    rows.push_back(std::move(row));
    index_lists.push_back(std::move(indices));  // row 0 may be all-zero
  }
  std::vector<const std::vector<float>*> row_ptrs;
  std::vector<const std::vector<int>*> index_ptrs;
  for (size_t r = 0; r < rows.size(); ++r) {
    row_ptrs.push_back(&rows[r]);
    index_ptrs.push_back(&index_lists[r]);
  }
  for (const bool dueling : {false, true}) {
    std::unique_ptr<QValueNet> net;
    if (dueling) {
      net = std::make_unique<DuelingMlp>(config, 13);
    } else {
      net = std::make_unique<Mlp>(config, 13);
    }
    Matrix dense_q, sparse_q;
    net->PredictBatch(row_ptrs, &dense_q);
    net->PredictBatch(row_ptrs, index_ptrs, &sparse_q);
    ASSERT_EQ(sparse_q.rows(), dense_q.rows());
    ASSERT_EQ(sparse_q.cols(), dense_q.cols());
    for (int i = 0; i < dense_q.size(); ++i) {
      EXPECT_EQ(sparse_q.data()[i], dense_q.data()[i])
          << "dueling=" << dueling << " flat index " << i;
    }
  }
}

TEST(DuelingTest, QDecomposesIntoValuePlusCenteredAdvantage) {
  // Property of the dueling head: mean_a Q(s, a) equals the value head
  // output, because the advantage is mean-centered.
  MlpConfig config{6, {8}, 5};
  DuelingMlp net(config, 11);
  const Matrix x = RandomBatch(4, 6, 5);
  Matrix q;
  net.Forward(x, &q);
  // Compare against an independent forward with a different batch ordering:
  // mean-centering means row means must be identical for identical inputs
  // regardless of batching.
  Matrix single_q;
  for (int b = 0; b < 4; ++b) {
    Matrix row(1, 6);
    row.CopyRowFrom(x, b, 0);
    net.Forward(row, &single_q);
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(single_q.At(0, j), q.At(b, j), 1e-5);
    }
  }
}

TEST(NetSerializationTest, SaveLoadRoundTripBothKinds) {
  for (const bool dueling : {false, true}) {
    MlpConfig config{9, {12}, 5};
    std::unique_ptr<QValueNet> original;
    if (dueling) {
      original = std::make_unique<DuelingMlp>(config, 21);
    } else {
      original = std::make_unique<Mlp>(config, 21);
    }
    std::stringstream buffer;
    util::BinaryWriter writer(&buffer);
    SaveNet(*original, dueling ? NetKind::kDueling : NetKind::kMlp, &writer);
    util::BinaryReader reader(&buffer);
    NetKind kind;
    std::unique_ptr<QValueNet> loaded = LoadNet(&reader, &kind);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(kind, dueling ? NetKind::kDueling : NetKind::kMlp);
    const Matrix x = RandomBatch(2, 9, 6);
    Matrix q1, q2;
    original->Forward(x, &q1);
    loaded->Forward(x, &q2);
    for (int i = 0; i < q1.size(); ++i) {
      EXPECT_FLOAT_EQ(q1.data()[i], q2.data()[i]);
    }
  }
}

TEST(NetSerializationTest, LoadRejectsGarbage) {
  std::stringstream buffer;
  util::BinaryWriter writer(&buffer);
  writer.WriteI32(999);  // unknown kind tag
  util::BinaryReader reader(&buffer);
  EXPECT_EQ(LoadNet(&reader, nullptr), nullptr);
}

TEST(NetTest, CloneIsDeepCopy) {
  MlpConfig config{5, {6}, 3};
  Mlp net(config, 13);
  std::unique_ptr<QValueNet> clone = net.Clone();
  const Matrix x = RandomBatch(1, 5, 7);
  Matrix q_before;
  clone->Forward(x, &q_before);
  // Mutate the original's weights; the clone must be unaffected.
  std::vector<ParamGrad> params;
  net.CollectParams(&params);
  for (auto& p : params) {
    for (size_t i = 0; i < p.size; ++i) p.param[i] += 1.0f;
  }
  Matrix q_after;
  clone->Forward(x, &q_after);
  for (int i = 0; i < q_before.size(); ++i) {
    EXPECT_FLOAT_EQ(q_before.data()[i], q_after.data()[i]);
  }
}

TEST(NetTest, CloneCopiesWeightsBitwiseAndSharesNoStorage) {
  // A clone is built straight from the source's weights: every tensor
  // equal bitwise in its own storage, so Q rows match the source's exactly
  // and a later training step on the source leaves the clone untouched.
  const MlpConfig config{6, {8, 5}, 4};
  for (const bool dueling : {false, true}) {
    std::unique_ptr<QValueNet> source;
    if (dueling) {
      source = std::make_unique<DuelingMlp>(config, 31);
    } else {
      source = std::make_unique<Mlp>(config, 31);
    }
    std::vector<ParamGrad> source_params;
    source->CollectParams(&source_params);  // a trained source has gradients
    Adam adam(0.05f);
    const auto train_step = [&](uint64_t seed) {
      const Matrix x = RandomBatch(4, 6, seed);
      const Matrix grad_q = RandomBatch(4, 4, seed + 1);
      Matrix q;
      source->Forward(x, &q);
      source->Backward(grad_q);
      adam.Step(source_params);
    };
    train_step(60);
    std::unique_ptr<QValueNet> clone = source->Clone();

    std::vector<ParamGrad> src_w, clone_w;
    source->CollectWeights(&src_w);
    clone->CollectWeights(&clone_w);
    ASSERT_EQ(src_w.size(), clone_w.size());
    std::vector<std::vector<float>> cloned_values;
    for (size_t t = 0; t < src_w.size(); ++t) {
      ASSERT_EQ(src_w[t].size, clone_w[t].size);
      EXPECT_NE(src_w[t].param, clone_w[t].param) << "tensor " << t;
      EXPECT_EQ(std::memcmp(src_w[t].param, clone_w[t].param,
                            src_w[t].size * sizeof(float)),
                0)
          << "dueling=" << dueling << " tensor " << t;
      cloned_values.emplace_back(clone_w[t].param,
                                 clone_w[t].param + clone_w[t].size);
    }

    const Matrix x = RandomBatch(3, 6, 70);
    Matrix q_source, q_clone;
    source->Forward(x, &q_source);
    clone->Forward(x, &q_clone);
    ASSERT_EQ(q_source.size(), q_clone.size());
    EXPECT_EQ(std::memcmp(q_source.data(), q_clone.data(),
                          q_source.size() * sizeof(float)),
              0)
        << "dueling=" << dueling;

    train_step(80);
    Matrix q_source_after, q_clone_after;
    source->Forward(x, &q_source_after);
    clone->Forward(x, &q_clone_after);
    EXPECT_NE(std::memcmp(q_source.data(), q_source_after.data(),
                          q_source.size() * sizeof(float)),
              0)
        << "the training step must move the source";
    EXPECT_EQ(std::memcmp(q_clone.data(), q_clone_after.data(),
                          q_clone.size() * sizeof(float)),
              0)
        << "dueling=" << dueling;
    for (size_t t = 0; t < clone_w.size(); ++t) {
      EXPECT_EQ(std::memcmp(cloned_values[t].data(), clone_w[t].param,
                            clone_w[t].size * sizeof(float)),
                0)
          << "dueling=" << dueling << " tensor " << t;
    }
  }
}

TEST(NetTest, CopyWeightsFromSynchronizesTargets) {
  MlpConfig config{5, {6}, 3};
  Mlp online(config, 1);
  Mlp target(config, 2);
  const Matrix x = RandomBatch(2, 5, 8);
  Matrix q_online, q_target;
  online.Forward(x, &q_online);
  target.Forward(x, &q_target);
  bool differ = false;
  for (int i = 0; i < q_online.size(); ++i) {
    if (q_online.data()[i] != q_target.data()[i]) differ = true;
  }
  EXPECT_TRUE(differ) << "differently seeded nets should differ";
  target.CopyWeightsFrom(&online);
  online.Forward(x, &q_online);
  target.Forward(x, &q_target);
  for (int i = 0; i < q_online.size(); ++i) {
    EXPECT_FLOAT_EQ(q_online.data()[i], q_target.data()[i]);
  }
}

TEST(NetTest, NumParamsMatchesArchitecture) {
  MlpConfig config{10, {16}, 4};
  Mlp net(config, 3);
  EXPECT_EQ(net.NumParams(), 10u * 16u + 16u + 16u * 4u + 4u);
  DuelingMlp dueling(config, 3);
  EXPECT_EQ(dueling.NumParams(),
            10u * 16u + 16u + (16u * 1u + 1u) + (16u * 4u + 4u));
}

TEST(NetTest, GradientAllocationOrderDoesNotChangeOptimizerSteps) {
  // Gradient buffers appear on the first CollectParams or Backward call.
  // A trainer that collects before its first Backward and one that collects
  // after it must see the same buffers and take identical Adam steps.
  const MlpConfig config{6, {8, 5}, 3};
  for (const bool dueling : {false, true}) {
    std::unique_ptr<QValueNet> source;
    if (dueling) {
      source = std::make_unique<DuelingMlp>(config, 21);
    } else {
      source = std::make_unique<Mlp>(config, 21);
    }
    // Clones copy weights only, the serving-clone path: no gradients yet.
    std::unique_ptr<QValueNet> collect_first = source->Clone();
    std::unique_ptr<QValueNet> backward_first = source->Clone();
    Adam adam_a(0.01f), adam_b(0.01f);
    std::vector<ParamGrad> params_a, params_b;
    collect_first->CollectParams(&params_a);
    for (int step = 0; step < 3; ++step) {
      const Matrix x = RandomBatch(4, 6, 40 + step);
      const Matrix grad_q = RandomBatch(4, 3, 50 + step);
      Matrix q;
      collect_first->Forward(x, &q);
      collect_first->Backward(grad_q);
      adam_a.Step(params_a);
      backward_first->Forward(x, &q);
      backward_first->Backward(grad_q);
      if (step == 0) backward_first->CollectParams(&params_b);
      adam_b.Step(params_b);

      std::vector<ParamGrad> weights_a, weights_b;
      collect_first->CollectWeights(&weights_a);
      backward_first->CollectWeights(&weights_b);
      ASSERT_EQ(weights_a.size(), weights_b.size());
      for (size_t t = 0; t < weights_a.size(); ++t) {
        EXPECT_EQ(weights_a[t].grad, nullptr);
        ASSERT_EQ(weights_a[t].size, weights_b[t].size);
        for (size_t i = 0; i < weights_a[t].size; ++i) {
          ASSERT_EQ(weights_a[t].param[i], weights_b[t].param[i])
              << "dueling=" << dueling << " step " << step << " tensor " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ams::nn
