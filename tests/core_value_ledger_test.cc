// The kernel is the service's only value ledger: every execution record
// carries its marginal gain, and LabelOutcome::recall is those gains summed
// in finish order over f(M, d). For every item and every entry point —
// Submit, SubmitBatch with batched prediction on and off, ServerRuntime —
// and for recall targets off, 0.5, 0.8 and 1.0, that recall must equal,
// bitwise, a ValueAccumulator replay of the item's execution order, and
// each record's gain must equal the replay's AddModel gain.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/labeling_service.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "serve/server_runtime.h"

namespace ams::core {
namespace {

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

class ValueLedgerTest : public ::testing::TestWithParam<double> {
 protected:
  static constexpr int kItems = 40;

  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MirFlickr25(), zoo_->labels(), kItems, 23));
    oracle_ = new data::Oracle(zoo_, dataset_);
    nn::MlpConfig config;
    config.input_dim = zoo_->labels().total_labels();
    config.hidden_dims = {32};
    config.output_dim = zoo_->num_models() + 1;
    agent_ = new rl::Agent(std::make_unique<nn::Mlp>(config, 13),
                           nn::NetKind::kMlp);
  }
  static void TearDownTestSuite() {
    delete agent_;
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  /// Algorithm 2 under a deadline and a memory budget, full kernel mode
  /// (the per-execution records are what the replay reads).
  static LabelingService Session(bool batched, int workers) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = 1.0;
    constraints.memory_budget_mb = 8000.0;
    return LabelingServiceBuilder(zoo_)
        .WithOracle(oracle_)
        .WithPredictor(agent_)
        .WithMode(ExecutionMode::kParallel)
        .WithConstraints(constraints)
        .WithRecallTarget(GetParam())
        .WithBatchedPrediction(batched)
        .WithWorkers(workers)
        .Build();
  }

  static std::vector<WorkItem> Items() {
    std::vector<WorkItem> items;
    for (int i = 0; i < kItems; ++i) items.push_back(WorkItem::Stored(i));
    return items;
  }

  /// Checks one outcome against a ValueAccumulator replay; returns whether
  /// the item stopped on its recall target before running every model.
  static bool ExpectLedgerMatchesReplay(int item, const LabelOutcome& outcome,
                                        const std::string& entry) {
    const std::string ctx = entry + " item " + std::to_string(item);
    const ScheduleResult& schedule = outcome.schedule;
    EXPECT_EQ(static_cast<int>(schedule.executions.size()),
              schedule.num_executions)
        << ctx;
    ValueAccumulator replay(oracle_, item);
    double gains = 0.0;
    for (const ExecutionRecord& record : schedule.executions) {
      const double replay_gain = replay.AddModel(record.model_id);
      EXPECT_EQ(Bits(record.gain), Bits(replay_gain))
          << ctx << " model " << record.model_id;
      gains += record.gain;
    }
    const double ledger_recall =
        ValueRecall(gains, oracle_->TrueTotalValue(item));
    EXPECT_EQ(Bits(outcome.recall), Bits(ledger_recall)) << ctx;
    EXPECT_EQ(Bits(outcome.recall), Bits(replay.Recall())) << ctx;
    return RecallTargetReached(outcome.recall, GetParam()) &&
           schedule.num_executions < zoo_->num_models();
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
  static rl::Agent* agent_;
};

zoo::ModelZoo* ValueLedgerTest::zoo_ = nullptr;
data::Dataset* ValueLedgerTest::dataset_ = nullptr;
data::Oracle* ValueLedgerTest::oracle_ = nullptr;
rl::Agent* ValueLedgerTest::agent_ = nullptr;

TEST_P(ValueLedgerTest, SubmitRecallIsTheReplayedGainSum) {
  LabelingService session = Session(/*batched=*/false, /*workers=*/1);
  int target_stops = 0;
  for (int i = 0; i < kItems; ++i) {
    target_stops += ExpectLedgerMatchesReplay(
        i, session.Submit(WorkItem::Stored(i)), "Submit");
  }
  // With a target set, some items must actually stop on it.
  if (GetParam() >= 0.0) {
    EXPECT_GT(target_stops, 0);
  }
}

TEST_P(ValueLedgerTest, SubmitBatchRecallIsTheReplayedGainSum) {
  for (const bool batched : {false, true}) {
    LabelingService session = Session(batched, /*workers=*/2);
    const std::string entry =
        batched ? "SubmitBatch(batched)" : "SubmitBatch(scalar)";
    const std::vector<LabelOutcome> outcomes = session.SubmitBatch(Items());
    ASSERT_EQ(outcomes.size(), static_cast<size_t>(kItems));
    for (int i = 0; i < kItems; ++i) {
      ExpectLedgerMatchesReplay(i, outcomes[static_cast<size_t>(i)], entry);
    }
  }
}

TEST_P(ValueLedgerTest, ServerRuntimeRecallIsTheReplayedGainSum) {
  LabelingService session = Session(/*batched=*/false, /*workers=*/2);
  serve::ServeOptions options;
  options.workers = 2;
  options.max_resident_per_worker = 4;
  serve::ServerRuntime runtime(&session, options);
  // Two passes: the second reuses the workers' pooled runs throughout.
  std::vector<std::future<serve::ServeResult>> futures;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kItems; ++i) {
      futures.push_back(runtime.Enqueue(WorkItem::Stored(i)));
    }
  }
  for (size_t k = 0; k < futures.size(); ++k) {
    const serve::ServeResult result = futures[k].get();
    ASSERT_EQ(result.status, serve::ServeStatus::kOk) << k;
    ExpectLedgerMatchesReplay(static_cast<int>(k % kItems), result.outcome,
                              "ServerRuntime");
  }
}

INSTANTIATE_TEST_SUITE_P(RecallTargets, ValueLedgerTest,
                         ::testing::Values(-1.0, 0.5, 0.8, 1.0),
                         [](const auto& info) {
                           if (info.param < 0.0) return std::string("Off");
                           return "Target" + std::to_string(static_cast<int>(
                                                 info.param * 100.0 + 0.5));
                         });

}  // namespace
}  // namespace ams::core
