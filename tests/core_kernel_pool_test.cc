// Pooled-kernel parity: one ScheduleKernel re-targeted by Reset over a
// sequence of items must report, item for item, the bitwise ScheduleResult
// of a freshly constructed kernel — for every picker (greedy, Algorithm 1,
// Algorithm 2, random packing) in both kernel modes. The sequences mix
// items stopped by the deadline, items stopped by a recall target, items
// skipped at admission (re-targeted, never stepped) and items abandoned
// midway, so every table Reset clears sparsely is left dirty at least once.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_plane.h"
#include "core/schedule_kernel.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "util/rng.h"

namespace ams::core {
namespace {

enum class PickerKind { kGreedy, kDeadline, kDeadlineMemory, kRandom };

const char* Name(PickerKind kind) {
  switch (kind) {
    case PickerKind::kGreedy:
      return "greedy";
    case PickerKind::kDeadline:
      return "algorithm1";
    case PickerKind::kDeadlineMemory:
      return "algorithm2";
    case PickerKind::kRandom:
      return "random_packing";
  }
  return "?";
}

/// What happens to one item of the sequence.
enum class Fate {
  kRun,        // stepped to completion, result compared
  kSkipped,    // re-targeted at admission, never stepped
  kAbandoned,  // stepped twice, then the kernel moves on
};

struct ItemPlan {
  int item = 0;
  ScheduleConstraints constraints;
  double recall_target = -1.0;
  Fate fate = Fate::kRun;
};

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void ExpectSameLabels(const std::vector<zoo::LabelOutput>& a,
                      const std::vector<zoo::LabelOutput>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label_id, b[i].label_id) << what << " #" << i;
    EXPECT_EQ(Bits(a[i].confidence), Bits(b[i].confidence))
        << what << " #" << i;
  }
}

void ExpectBitwiseEqual(const ScheduleResult& pooled,
                        const ScheduleResult& fresh, const std::string& ctx) {
  EXPECT_EQ(Bits(pooled.value), Bits(fresh.value)) << ctx;
  EXPECT_EQ(Bits(pooled.makespan_s), Bits(fresh.makespan_s)) << ctx;
  EXPECT_EQ(Bits(pooled.peak_mem_mb), Bits(fresh.peak_mem_mb)) << ctx;
  EXPECT_EQ(pooled.num_executions, fresh.num_executions) << ctx;
  ASSERT_EQ(pooled.executions.size(), fresh.executions.size()) << ctx;
  for (size_t k = 0; k < pooled.executions.size(); ++k) {
    const ExecutionRecord& a = pooled.executions[k];
    const ExecutionRecord& b = fresh.executions[k];
    const std::string at = ctx + " execution " + std::to_string(k);
    EXPECT_EQ(a.model_id, b.model_id) << at;
    EXPECT_EQ(Bits(a.start_s), Bits(b.start_s)) << at;
    EXPECT_EQ(Bits(a.finish_s), Bits(b.finish_s)) << at;
    EXPECT_EQ(Bits(a.reward), Bits(b.reward)) << at;
    EXPECT_EQ(Bits(a.gain), Bits(b.gain)) << at;
    ExpectSameLabels(a.fresh, b.fresh, at + " fresh");
  }
  ExpectSameLabels(pooled.recalled_labels, fresh.recalled_labels,
                   ctx + " recalled_labels");
}

class KernelPoolTest : public ::testing::TestWithParam<KernelMode> {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MirFlickr25(), zoo_->labels(), 36, 17));
    oracle_ = new data::Oracle(zoo_, dataset_);
    nn::MlpConfig config;
    config.input_dim = zoo_->labels().total_labels();
    config.hidden_dims = {24};
    config.output_dim = zoo_->num_models() + 1;
    agent_ = new rl::Agent(std::make_unique<nn::Mlp>(config, 5),
                           nn::NetKind::kMlp);
  }
  static void TearDownTestSuite() {
    delete agent_;
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  /// Deadline stops, recall-target stops, admission skips and abandoned
  /// runs, interleaved with ordinary items.
  static std::vector<ItemPlan> Sequence() {
    std::vector<ItemPlan> plan;
    for (int i = 0; i < oracle_->num_items(); ++i) {
      ItemPlan p;
      p.item = i;
      p.constraints.time_budget_s = 1.0;
      p.constraints.memory_budget_mb = 8000.0;
      switch (i % 6) {
        case 0:  // stopped by a tight deadline
          p.constraints.time_budget_s = 0.3;
          break;
        case 1:  // stopped by a recall target, unconstrained
          p.constraints = ScheduleConstraints();
          p.recall_target = 0.5;
          break;
        case 2:
          p.fate = Fate::kSkipped;
          break;
        case 3:
          p.fate = Fate::kAbandoned;
          break;
        case 4:  // a recall target under the usual budgets
          p.recall_target = 0.8;
          break;
        default:
          break;
      }
      plan.push_back(p);
    }
    return plan;
  }

  /// Per-run inputs: an execution context, a picker on its own slot (or
  /// its own random stream) and a recall-target hook over the kernel's gain
  /// ledger. The pooled and the fresh side each build their own.
  struct RunInputs {
    std::unique_ptr<ReplayExecutionContext> exec;
    ModelPicker picker;
    KernelHooks hooks;
    DecisionPlane::Slot* slot = nullptr;
    /// The ledger lives on the heap so the hook's pointer survives moves.
    std::unique_ptr<double> value = std::make_unique<double>(0.0);
  };

  static void Prepare(PickerKind kind, const ItemPlan& plan,
                      DecisionPlane* plane, RunInputs* in) {
    in->exec = std::make_unique<ReplayExecutionContext>(oracle_, plan.item);
    *in->value = 0.0;
    if (in->slot != nullptr) plane->ReleaseSlot(in->slot);
    in->slot = nullptr;
    switch (kind) {
      case PickerKind::kGreedy:
        in->slot = plane->NewSlot();
        in->picker = MakeGreedyPicker(in->slot);
        break;
      case PickerKind::kDeadline:
        in->slot = plane->NewSlot();
        in->picker = MakeDeadlinePicker(in->slot);
        break;
      case PickerKind::kDeadlineMemory:
        in->slot = plane->NewSlot();
        in->picker = MakeDeadlineMemoryPicker(in->slot);
        break;
      case PickerKind::kRandom:
        in->picker = MakeRandomPackingPicker(
            util::HashCombine(99, static_cast<uint64_t>(plan.item)));
        break;
    }
    in->hooks = KernelHooks();
    if (plan.recall_target >= 0.0) {
      const double total = oracle_->TrueTotalValue(plan.item);
      const double target = plan.recall_target;
      double* value = in->value.get();
      in->hooks.on_executed = [value, total, target](
                                  const ExecutionRecord& record,
                                  const LabelingState&) {
        *value += record.gain;
        return RecallTargetReached(ValueRecall(*value, total), target);
      };
    }
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
  static rl::Agent* agent_;
};

zoo::ModelZoo* KernelPoolTest::zoo_ = nullptr;
data::Dataset* KernelPoolTest::dataset_ = nullptr;
data::Oracle* KernelPoolTest::oracle_ = nullptr;
rl::Agent* KernelPoolTest::agent_ = nullptr;

TEST_P(KernelPoolTest, ResetKernelMatchesFreshKernelBitwise) {
  const KernelMode mode = GetParam();
  const std::vector<ItemPlan> plan = Sequence();
  for (const PickerKind kind :
       {PickerKind::kGreedy, PickerKind::kDeadline,
        PickerKind::kDeadlineMemory, PickerKind::kRandom}) {
    const RowForm form =
        kind == PickerKind::kGreedy ? RowForm::kQ : RowForm::kProfit;
    DecisionPlane pooled_plane(agent_, /*memoize_rows=*/false, form);
    DecisionPlane fresh_plane(agent_, /*memoize_rows=*/false, form);
    RunInputs pooled_in;
    RunInputs fresh_in;
    std::unique_ptr<ScheduleKernel> pooled;
    int compared = 0;
    int early_stops = 0;
    int target_stops = 0;
    for (const ItemPlan& p : plan) {
      const std::string ctx = std::string(Name(kind)) + " item " +
                              std::to_string(p.item) +
                              (mode == KernelMode::kLean ? " lean" : " full");
      // The pooled side: one kernel, re-targeted for every item. Its
      // execution context must outlive the run, so the previous one is
      // released only after Reset points the kernel elsewhere.
      RunInputs next;
      next.slot = pooled_in.slot;
      pooled_in.slot = nullptr;
      Prepare(kind, p, &pooled_plane, &next);
      if (pooled == nullptr) {
        pooled = std::make_unique<ScheduleKernel>(
            next.exec.get(), p.constraints, next.picker, next.hooks, mode);
      } else {
        pooled->Reset(next.exec.get(), p.constraints, next.picker,
                      next.hooks);
      }
      pooled_in = std::move(next);
      if (p.fate == Fate::kSkipped) continue;
      if (p.fate == Fate::kAbandoned) {
        pooled->Step();
        pooled->Step();
        continue;
      }
      while (pooled->Step()) {
      }
      const ScheduleResult pooled_result = pooled->TakeResult();

      // The fresh side: a new kernel for this item alone.
      Prepare(kind, p, &fresh_plane, &fresh_in);
      const ScheduleResult fresh_result =
          RunScheduleKernel(*fresh_in.exec, p.constraints, fresh_in.picker,
                            fresh_in.hooks, mode);
      ExpectBitwiseEqual(pooled_result, fresh_result, ctx);
      ++compared;
      if (fresh_result.num_executions < zoo_->num_models()) ++early_stops;
      if (p.recall_target >= 0.0 &&
          ValueRecall(*fresh_in.value, oracle_->TrueTotalValue(p.item)) >=
              p.recall_target - 1e-12) {
        ++target_stops;
      }
      if (mode == KernelMode::kLean) {
        EXPECT_TRUE(pooled_result.executions.empty()) << ctx;
        EXPECT_TRUE(pooled_result.recalled_labels.empty()) << ctx;
      } else {
        EXPECT_EQ(static_cast<int>(pooled_result.executions.size()),
                  pooled_result.num_executions)
            << ctx;
      }
    }
    // The sequence exercised what it claims to.
    EXPECT_GE(compared, oracle_->num_items() / 2) << Name(kind);
    EXPECT_GT(early_stops, 0) << Name(kind);
    if (kind != PickerKind::kGreedy) {
      EXPECT_GT(target_stops, 0) << Name(kind);
    }
  }
}

TEST_P(KernelPoolTest, ResetValidatesLikeTheConstructor) {
  ItemPlan p;
  p.item = 0;
  RunInputs in;
  DecisionPlane plane(agent_, /*memoize_rows=*/false, RowForm::kProfit);
  Prepare(PickerKind::kDeadline, p, &plane, &in);
  ScheduleKernel kernel(in.exec.get(), p.constraints, in.picker, in.hooks,
                        GetParam());
  ScheduleConstraints bad;
  bad.time_budget_s = -1.0;
  EXPECT_DEATH(kernel.Reset(in.exec.get(), bad, in.picker, in.hooks),
               "time budget");
  EXPECT_DEATH(kernel.Reset(nullptr, p.constraints, in.picker, in.hooks), "");
}

INSTANTIATE_TEST_SUITE_P(BothModes, KernelPoolTest,
                         ::testing::Values(KernelMode::kFull,
                                           KernelMode::kLean),
                         [](const auto& info) {
                           return info.param == KernelMode::kFull
                                      ? std::string("Full")
                                      : std::string("Lean");
                         });

}  // namespace
}  // namespace ams::core
