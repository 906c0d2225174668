// Tests of the execution-plane seams: batched vs scalar Q-prediction
// (bitwise parity on rl::Agent, on DecisionPlane refreshes with and without
// a caller arena, on Q-form and profit-form planes, and identical service
// outcomes), table-driven vs per-model-scan pickers (identical schedules),
// lean vs full kernel mode (identical value/makespan/recall), the validity
// of SubmitBatch's session-lifetime row memo across calls (live weight
// changes, shared predictors, rebuilt clones), and the builder validation
// of the knobs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "eval/deadline_sweep.h"
#include "eval/memory_sweep.h"
#include "nn/net.h"
#include "rl/agent.h"
#include "sched/basic_policies.h"

namespace ams::core {
namespace {

std::unique_ptr<rl::Agent> MakeAgent(const zoo::ModelZoo& zoo,
                                     nn::NetKind kind, uint64_t seed) {
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {64};
  config.output_dim = zoo.num_models() + 1;
  std::unique_ptr<nn::QValueNet> net;
  if (kind == nn::NetKind::kDueling) {
    net = std::make_unique<nn::DuelingMlp>(config, seed);
  } else {
    net = std::make_unique<nn::Mlp>(config, seed);
  }
  return std::make_unique<rl::Agent>(std::move(net), kind);
}

// Thread-safe predictor that counts how its predictions are served; clones
// share the counters, so per-worker clones still report into one place.
class CountingPredictor : public ModelValuePredictor {
 public:
  CountingPredictor(int num_actions, std::atomic<long>* scalar_calls,
                    std::atomic<long>* batch_calls)
      : q_(static_cast<size_t>(num_actions), 1.0),
        scalar_calls_(scalar_calls),
        batch_calls_(batch_calls) {
    q_.back() = -1.0;  // END never outranks a model
  }
  std::vector<double> PredictValues(const std::vector<float>&) override {
    ++*scalar_calls_;
    return q_;
  }
  void PredictValuesBatchTo(const std::vector<float>* const*,
                            const std::vector<int>* const*, size_t count,
                            double* out) override {
    ++*batch_calls_;
    for (size_t i = 0; i < count; ++i) {
      std::copy(q_.begin(), q_.end(), out + i * q_.size());
    }
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    return std::make_unique<CountingPredictor>(*this);
  }

 private:
  std::vector<double> q_;
  std::atomic<long>* scalar_calls_;
  std::atomic<long>* batch_calls_;
};

// Deterministic predictor whose rows depend on the labeling state and on a
// phase the test flips between SubmitBatch calls: even models lead in phase
// 0 and odd ones in phase 1, so a row memoized in one phase schedules
// differently in the other. The default predictor cannot clone (workers
// share it; it only reads between calls); a clonable one copies its phase
// into each clone and cannot sync, so the session pool rebuilds its clones
// at every acquisition. `clones` counts clones made.
class PhasedPredictor : public ModelValuePredictor {
 public:
  PhasedPredictor(int num_actions, int phase, bool clonable = false,
                  std::atomic<int>* clones = nullptr)
      : num_actions_(num_actions),
        phase_(phase),
        clonable_(clonable),
        clones_(clones) {}
  void set_phase(int phase) { phase_ = phase; }
  std::vector<double> PredictValues(
      const std::vector<float>& features) override {
    int set = 0;
    for (const float f : features) set += f != 0.0f;
    std::vector<double> q(static_cast<size_t>(num_actions_));
    for (int a = 0; a + 1 < num_actions_; ++a) {
      q[static_cast<size_t>(a)] =
          (a % 2 == phase_ ? 2.0 : -2.0) + 0.01 * a - 0.001 * set;
    }
    q.back() = -1.0;
    return q;
  }
  int num_actions() const override { return num_actions_; }
  std::unique_ptr<ModelValuePredictor> ClonePredictor() const override {
    if (!clonable_) return nullptr;
    if (clones_ != nullptr) ++*clones_;
    return std::make_unique<PhasedPredictor>(*this);
  }

 private:
  int num_actions_;
  int phase_;
  bool clonable_;
  std::atomic<int>* clones_;
};

class ExecutionPlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new zoo::ModelZoo(zoo::ModelZoo::CreateDefault());
    dataset_ = new data::Dataset(data::Dataset::Generate(
        data::DatasetProfile::MirFlickr25(), zoo_->labels(), 48, 31));
    oracle_ = new data::Oracle(zoo_, dataset_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete dataset_;
    delete zoo_;
  }

  static std::vector<WorkItem> StoredItems(int count) {
    std::vector<WorkItem> items;
    for (int i = 0; i < count; ++i) items.push_back(WorkItem::Stored(i));
    return items;
  }

  static ScheduleConstraints ParallelConstraints() {
    ScheduleConstraints constraints;
    constraints.time_budget_s = 1.0;
    constraints.memory_budget_mb = 8000.0;
    return constraints;
  }

  // The outcome fields every kernel mode must agree on.
  static void ExpectSameOutcome(const LabelOutcome& a, const LabelOutcome& b) {
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.schedule.value, b.schedule.value);
    EXPECT_EQ(a.schedule.makespan_s, b.schedule.makespan_s);
    EXPECT_EQ(a.schedule.peak_mem_mb, b.schedule.peak_mem_mb);
    EXPECT_EQ(a.schedule.num_executions, b.schedule.num_executions);
  }

  // ExpectSameOutcome plus the full-mode execution sequence.
  static void ExpectSameSchedule(const LabelOutcome& a, const LabelOutcome& b,
                                 size_t item) {
    SCOPED_TRACE("item " + std::to_string(item));
    ExpectSameOutcome(a, b);
    ASSERT_EQ(a.schedule.executions.size(), b.schedule.executions.size());
    for (size_t k = 0; k < a.schedule.executions.size(); ++k) {
      EXPECT_EQ(a.schedule.executions[k].model_id,
                b.schedule.executions[k].model_id);
      EXPECT_EQ(a.schedule.executions[k].finish_s,
                b.schedule.executions[k].finish_s);
    }
  }

  // True when some item's execution sequence differs between the two runs:
  // the change between them reached the schedules at all.
  static bool AnyScheduleDiffers(const std::vector<LabelOutcome>& a,
                                 const std::vector<LabelOutcome>& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      const auto& x = a[i].schedule.executions;
      const auto& y = b[i].schedule.executions;
      if (x.size() != y.size()) return true;
      for (size_t k = 0; k < x.size(); ++k) {
        if (x[k].model_id != y[k].model_id) return true;
      }
    }
    return false;
  }

  static zoo::ModelZoo* zoo_;
  static data::Dataset* dataset_;
  static data::Oracle* oracle_;
};

zoo::ModelZoo* ExecutionPlaneTest::zoo_ = nullptr;
data::Dataset* ExecutionPlaneTest::dataset_ = nullptr;
data::Oracle* ExecutionPlaneTest::oracle_ = nullptr;

// --- batched prediction ----------------------------------------------------

TEST_F(ExecutionPlaneTest, AgentBatchedPredictionIsBitwiseIdentical) {
  for (nn::NetKind kind : {nn::NetKind::kMlp, nn::NetKind::kDueling}) {
    std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, kind, 7);
    // Real mid-schedule states of varying density, plus the all-zero state.
    std::vector<std::vector<float>> states;
    for (int item = 0; item < 8; ++item) {
      LabelingState state(zoo_->labels().total_labels(), zoo_->num_models());
      for (int m = 0; m < 4 * item; ++m) {
        state.Apply(m % zoo_->num_models(), oracle_->Output(item, m % 30));
      }
      states.push_back(state.Features());
    }
    std::vector<const std::vector<float>*> ptrs;
    for (const auto& s : states) ptrs.push_back(&s);

    const std::vector<std::vector<double>> batched =
        agent->PredictValuesBatch(ptrs);
    ASSERT_EQ(batched.size(), states.size());
    for (size_t i = 0; i < states.size(); ++i) {
      const std::vector<double> scalar = agent->PredictValues(states[i]);
      ASSERT_EQ(batched[i].size(), scalar.size());
      for (size_t j = 0; j < scalar.size(); ++j) {
        // Exact equality: the batched forward must be bit-for-bit the
        // scalar forward, or batched scheduling could diverge.
        EXPECT_EQ(batched[i][j], scalar[j])
            << "kind=" << static_cast<int>(kind) << " state " << i
            << " action " << j;
      }
    }
  }
}

TEST_F(ExecutionPlaneTest, BatchedServiceMatchesScalarServiceExactly) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 11);
  const std::vector<WorkItem> items = StoredItems(40);
  std::vector<LabelOutcome> scalar, batched;
  for (bool batch : {false, true}) {
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(ParallelConstraints())
                                  .WithBatchedPrediction(batch)
                                  .WithWorkers(2)
                                  .Build();
    (batch ? batched : scalar) = service.SubmitBatch(items);
  }
  ASSERT_EQ(scalar.size(), batched.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    ExpectSameOutcome(scalar[i], batched[i]);
    // Full mode: the exact execution sequences must match too.
    ASSERT_EQ(scalar[i].schedule.executions.size(),
              batched[i].schedule.executions.size());
    for (size_t k = 0; k < scalar[i].schedule.executions.size(); ++k) {
      EXPECT_EQ(scalar[i].schedule.executions[k].model_id,
                batched[i].schedule.executions[k].model_id);
      EXPECT_EQ(scalar[i].schedule.executions[k].finish_s,
                batched[i].schedule.executions[k].finish_s);
    }
  }
}

TEST_F(ExecutionPlaneTest, BatchedSessionsCoalesceAllPredictions) {
  std::atomic<long> scalar_calls{0}, batch_calls{0};
  CountingPredictor predictor(zoo_->num_models() + 1, &scalar_calls,
                              &batch_calls);
  LabelingService service = LabelingServiceBuilder(zoo_)
                                .WithOracle(oracle_)
                                .WithPredictor(&predictor)
                                .WithMode(ExecutionMode::kParallel)
                                .WithConstraints(ParallelConstraints())
                                .WithBatchedPrediction(true)
                                .WithWorkers(1)
                                .Build();
  service.SubmitBatch(StoredItems(24));
  EXPECT_EQ(scalar_calls.load(), 0)
      << "batched sessions must never fall back to scalar prediction";
  EXPECT_GT(batch_calls.load(), 0);
}

TEST_F(ExecutionPlaneTest, PlaneRefreshMatchesWithAndWithoutArenaAndScalar) {
  // Three ways to refresh the same item states: Prefetch through a caller
  // arena, Prefetch through the plane's own arena, and scalar Slot::Values,
  // each on a Q-form and on a profit-form plane. Q rows must be bitwise
  // identical across the three ways, profit rows bitwise SchedulingProfit
  // of the Q rows, and Slot::Profits the same on both forms. Every Prefetch
  // plane, whatever its form, must count the same forward rows and memo
  // hits round for round.
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 47);
  const int num_labels = zoo_->labels().total_labels();
  const int num_models = zoo_->num_models();
  // Items 2k and 2k+1 replay the same source, so each pair shares a state
  // and a batched refresh dedups it into one row.
  constexpr int kItems = 8;
  std::vector<LabelingState> states;
  for (int item = 0; item < kItems; ++item) {
    const int source = item / 2;
    LabelingState state(num_labels, num_models);
    for (int m = 0; m < 3 * source; ++m) {
      state.Apply(m, oracle_->Output(source, m));
    }
    states.push_back(state);
  }
  const std::vector<LabelingState> initial = states;

  // The three refresh ways over one row form.
  struct Ways {
    Ways(ModelValuePredictor* predictor, RowForm form)
        : with_arena(predictor, /*memoize_rows=*/true, form),
          own_arena(predictor, /*memoize_rows=*/true, form),
          scalar(predictor, /*memoize_rows=*/false, form) {
      with_arena.AttachArena(&arena);
    }
    util::Arena arena;
    DecisionPlane with_arena, own_arena, scalar;
    std::vector<DecisionPlane::Slot*> slots_a, slots_b, slots_c;
  };
  Ways q_ways(agent.get(), RowForm::kQ);
  Ways profit_ways(agent.get(), RowForm::kProfit);
  const auto new_slots = [&] {
    for (Ways* w : {&q_ways, &profit_ways}) {
      w->slots_a.clear();
      w->slots_b.clear();
      w->slots_c.clear();
      for (int i = 0; i < kItems; ++i) {
        w->slots_a.push_back(w->with_arena.NewSlot());
        w->slots_b.push_back(w->own_arena.NewSlot());
        w->slots_c.push_back(w->scalar.NewSlot());
      }
    }
  };
  const auto expect_same_counters = [](const DecisionPlane& a,
                                       const DecisionPlane& b,
                                       const char* round) {
    EXPECT_EQ(a.scalar_predictions(), b.scalar_predictions()) << round;
    EXPECT_EQ(a.batched_predictions(), b.batched_predictions()) << round;
    EXPECT_EQ(a.batched_rows(), b.batched_rows()) << round;
    EXPECT_EQ(a.memo_hits(), b.memo_hits()) << round;
  };
  const auto refresh_and_compare = [&](const char* round) {
    for (Ways* w : {&q_ways, &profit_ways}) {
      std::vector<DecisionPlane::SlotView> views_a, views_b;
      for (int i = 0; i < kItems; ++i) {
        views_a.push_back({w->slots_a[i], &states[i]});
        views_b.push_back({w->slots_b[i], &states[i]});
      }
      w->arena.Reset();
      w->with_arena.Prefetch(views_a);
      w->own_arena.Prefetch(views_b);
    }
    for (int i = 0; i < kItems; ++i) {
      const std::vector<double> q = q_ways.slots_c[i]->Values(states[i]);
      std::vector<double> profit(q.size());
      for (size_t j = 0; j < q.size(); ++j) profit[j] = SchedulingProfit(q[j]);
      EXPECT_EQ(q_ways.slots_a[i]->Values(states[i]), q)
          << round << " item " << i;
      EXPECT_EQ(q_ways.slots_b[i]->Values(states[i]), q)
          << round << " item " << i;
      for (Ways* w : {&q_ways, &profit_ways}) {
        for (DecisionPlane::Slot* slot :
             {w->slots_a[i], w->slots_b[i], w->slots_c[i]}) {
          if (w == &profit_ways) {
            EXPECT_EQ(slot->Values(states[i]), profit)
                << round << " item " << i;
          }
          EXPECT_EQ(slot->Profits(states[i]), profit)
              << round << " item " << i;
        }
      }
    }
    for (Ways* w : {&q_ways, &profit_ways}) {
      // Prefetch refreshed every slot: reading them ran no scalar forward.
      EXPECT_EQ(w->with_arena.scalar_predictions(), 0) << round;
      EXPECT_EQ(w->own_arena.scalar_predictions(), 0) << round;
      expect_same_counters(w->with_arena, w->own_arena, round);
    }
    // The row form changes what is stored, never how rows are computed.
    expect_same_counters(q_ways.with_arena, profit_ways.with_arena, round);
    expect_same_counters(q_ways.scalar, profit_ways.scalar, round);
  };

  // Round 1: cold planes; one forward row per distinct state (at most
  // kItems / 2 — the pairs always collide).
  std::set<std::vector<int>> distinct;
  for (const LabelingState& state : states) distinct.insert(state.SetIndices());
  ASSERT_LE(distinct.size(), static_cast<size_t>(kItems / 2));
  new_slots();
  refresh_and_compare("cold");
  EXPECT_EQ(q_ways.with_arena.batched_rows(),
            static_cast<long>(distinct.size()));
  EXPECT_EQ(q_ways.with_arena.memo_hits(), 0);

  // Round 2: odd items advance by one more model (new states); even items
  // stay fresh and are skipped.
  for (int i = 1; i < kItems; i += 2) {
    const int source = i / 2;
    const int m = 3 * source;
    states[i].Apply(m, oracle_->Output(source, m));
  }
  refresh_and_compare("advanced");

  // Round 3: fresh slots over the round-1 states — every row is a memo hit.
  states = initial;
  const long rows_before = q_ways.with_arena.batched_rows();
  const long hits_before = q_ways.with_arena.memo_hits();
  new_slots();
  refresh_and_compare("memo");
  EXPECT_EQ(q_ways.with_arena.batched_rows(), rows_before);
  EXPECT_EQ(q_ways.with_arena.memo_hits() - hits_before, kItems);
}

TEST_F(ExecutionPlaneTest, GreedyPickerRejectsProfitFormPlane) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 49);
  DecisionPlane plane(agent.get(), /*memoize_rows=*/false, RowForm::kProfit);
  DecisionPlane::Slot* slot = plane.NewSlot();
  EXPECT_DEATH(MakeGreedyPicker(slot), "RowForm::kQ");
}

// --- table-driven pickers --------------------------------------------------

// The per-model scan pickers that the table-driven ones replaced, kept as
// the parity reference. Every pick call re-derives SchedulingProfit, calls
// the virtual PlannedTime and looks the spec up, for every model not yet
// started. They read raw Q rows, so they run on a RowForm::kQ slot.
int ScanGreedyPick(DecisionPlane::Slot* slot, const PickContext& pick) {
  if (!pick.idle) return -1;
  const std::vector<double>& q = slot->Values(*pick.state);
  const int end_action = pick.exec->num_models();
  int best = -1;
  double best_q = q[static_cast<size_t>(end_action)];
  for (int m = 0; m < pick.exec->num_models(); ++m) {
    if ((*pick.started)[static_cast<size_t>(m)]) continue;
    if (best == -1 || q[static_cast<size_t>(m)] > best_q) {
      best = m;
      best_q = q[static_cast<size_t>(m)];
    }
  }
  if (best == -1 || q[static_cast<size_t>(end_action)] >= best_q) return -1;
  return best;
}

int ScanDeadlinePick(DecisionPlane::Slot* slot, const PickContext& pick) {
  if (!pick.idle) return -1;
  const std::vector<double>& q = slot->Values(*pick.state);
  int best = -1;
  double best_ratio = 0.0;
  for (int m = 0; m < pick.exec->num_models(); ++m) {
    if ((*pick.started)[static_cast<size_t>(m)]) continue;
    const double planned = pick.exec->PlannedTime(m);
    if (planned > pick.remaining_time()) continue;
    const double ratio = SchedulingProfit(q[static_cast<size_t>(m)]) / planned;
    if (best == -1 || ratio > best_ratio) {
      best = m;
      best_ratio = ratio;
    }
  }
  return best;
}

int ScanDeadlineMemoryPick(DecisionPlane::Slot* slot, const PickContext& pick) {
  const std::vector<double>& q = slot->Values(*pick.state);
  int best = -1;
  double best_score = 0.0;
  for (int m = 0; m < pick.exec->num_models(); ++m) {
    if ((*pick.started)[static_cast<size_t>(m)]) continue;
    const auto& spec = pick.exec->model(m);
    if (spec.mem_mb > pick.mem_free) continue;
    if (pick.now + pick.exec->PlannedTime(m) > pick.deadline) continue;
    const double profit = SchedulingProfit(q[static_cast<size_t>(m)]);
    const double score = pick.idle ? profit / (spec.time_s * spec.mem_mb)
                                   : profit / spec.mem_mb;
    if (best == -1 || score > best_score) {
      best = m;
      best_score = score;
    }
  }
  return best;
}

// Every model gets the same Q (END the lowest), so equal-cost models tie on
// every ratio and the argmax must keep breaking ties toward the lowest id.
class TiedPredictor : public ModelValuePredictor {
 public:
  explicit TiedPredictor(int num_actions)
      : q_(static_cast<size_t>(num_actions), 0.7) {
    q_.back() = -1.0;
  }
  std::vector<double> PredictValues(const std::vector<float>&) override {
    return q_;
  }
  int num_actions() const override { return static_cast<int>(q_.size()); }

 private:
  std::vector<double> q_;
};

TEST_F(ExecutionPlaneTest, TableDrivenPickersMatchPerModelScan) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 53);
  TiedPredictor tied(zoo_->num_models() + 1);
  ScheduleConstraints serial;
  serial.time_budget_s = 0.8;
  int executions = 0;
  for (ModelValuePredictor* predictor :
       {static_cast<ModelValuePredictor*>(agent.get()),
        static_cast<ModelValuePredictor*>(&tied)}) {
    for (const ExecutionMode mode :
         {ExecutionMode::kGreedy, ExecutionMode::kSerial,
          ExecutionMode::kParallel}) {
      const ScheduleConstraints constraints =
          mode == ExecutionMode::kGreedy     ? ScheduleConstraints()
          : mode == ExecutionMode::kSerial ? serial
                                           : ParallelConstraints();
      const auto scan = mode == ExecutionMode::kGreedy   ? ScanGreedyPick
                        : mode == ExecutionMode::kSerial ? ScanDeadlinePick
                                                         : ScanDeadlineMemoryPick;
      const auto slot_picker = [mode](DecisionPlane::Slot* slot) {
        return mode == ExecutionMode::kGreedy   ? MakeGreedyPicker(slot)
               : mode == ExecutionMode::kSerial ? MakeDeadlinePicker(slot)
                                                : MakeDeadlineMemoryPicker(slot);
      };
      // Oracle replay (planned times are per-item draws) and live scenes
      // (planned times are the spec means, so equal-time models tie on
      // Algorithm 1's ratio under the tied predictor).
      for (int k = 0; k < 48; ++k) {
        const int item = k / 2;
        const ReplayExecutionContext replay(oracle_, item);
        const LiveExecutionContext live(zoo_, &dataset_->item(item).scene);
        const ExecutionContext& exec =
            k % 2 == 0 ? static_cast<const ExecutionContext&>(replay) : live;
        DecisionPlane reference_plane(predictor);
        DecisionPlane::Slot* reference_slot = reference_plane.NewSlot();
        const ScheduleResult expected = RunScheduleKernel(
            exec, constraints, [&](const PickContext& pick) {
              return scan(reference_slot, pick);
            });
        executions += expected.num_executions;

        // The table-driven pickers on a shared slot of each row form
        // (greedy is Q-only), and on the private plane of the predictor
        // overloads.
        std::vector<ScheduleResult> results;
        for (const RowForm form : {RowForm::kQ, RowForm::kProfit}) {
          if (mode == ExecutionMode::kGreedy && form == RowForm::kProfit) {
            continue;
          }
          DecisionPlane plane(predictor, /*memoize_rows=*/false, form);
          results.push_back(RunScheduleKernel(exec, constraints,
                                              slot_picker(plane.NewSlot())));
        }
        results.push_back(RunScheduleKernel(
            exec, constraints,
            mode == ExecutionMode::kGreedy   ? MakeGreedyPicker(predictor)
            : mode == ExecutionMode::kSerial ? MakeDeadlinePicker(predictor)
                                             : MakeDeadlineMemoryPicker(predictor)));
        for (size_t r = 0; r < results.size(); ++r) {
          const ScheduleResult& got = results[r];
          SCOPED_TRACE(testing::Message()
                       << "mode " << static_cast<int>(mode) << " item "
                       << item << (k % 2 == 0 ? " replay" : " live")
                       << " variant " << r);
          EXPECT_EQ(got.value, expected.value);
          EXPECT_EQ(got.makespan_s, expected.makespan_s);
          ASSERT_EQ(got.executions.size(), expected.executions.size());
          for (size_t k = 0; k < got.executions.size(); ++k) {
            EXPECT_EQ(got.executions[k].model_id,
                      expected.executions[k].model_id);
            EXPECT_EQ(got.executions[k].start_s,
                      expected.executions[k].start_s);
            EXPECT_EQ(got.executions[k].finish_s,
                      expected.executions[k].finish_s);
          }
        }
      }
    }
  }
  EXPECT_GT(executions, 0) << "the reference schedules must run models";
}

// --- lean kernel mode ------------------------------------------------------

TEST_F(ExecutionPlaneTest, LeanKernelMatchesFullForPredictorSessions) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 13);
  const std::vector<WorkItem> items = StoredItems(32);
  std::vector<LabelOutcome> full, lean;
  for (KernelMode mode : {KernelMode::kFull, KernelMode::kLean}) {
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(ParallelConstraints())
                                  .WithKernelMode(mode)
                                  .WithWorkers(2)
                                  .Build();
    (mode == KernelMode::kLean ? lean : full) = service.SubmitBatch(items);
  }
  ASSERT_EQ(full.size(), lean.size());
  for (size_t i = 0; i < full.size(); ++i) {
    ExpectSameOutcome(full[i], lean[i]);
    // Lean skips materialization only.
    EXPECT_TRUE(lean[i].schedule.executions.empty());
    EXPECT_TRUE(lean[i].schedule.recalled_labels.empty());
    EXPECT_EQ(static_cast<int>(full[i].schedule.executions.size()),
              full[i].schedule.num_executions);
  }
}

TEST_F(ExecutionPlaneTest, LeanKernelMatchesFullForPolicySessions) {
  const std::vector<WorkItem> items = StoredItems(32);
  ScheduleConstraints constraints;
  constraints.time_budget_s = 0.8;
  std::vector<LabelOutcome> full, lean;
  for (KernelMode mode : {KernelMode::kFull, KernelMode::kLean}) {
    // The oracle-ordered policy exercises the lean-mode hook path: the
    // policies still receive every execution's fresh labels via OnExecuted.
    LabelingService service =
        LabelingServiceBuilder(zoo_)
            .WithOracle(oracle_)
            .WithMode(ExecutionMode::kSerial)
            .WithPolicyFactory(
                [] { return std::make_unique<sched::OptimalPolicy>(); })
            .WithConstraints(constraints)
            .WithKernelMode(mode)
            .WithWorkers(2)
            .Build();
    (mode == KernelMode::kLean ? lean : full) = service.SubmitBatch(items);
  }
  for (size_t i = 0; i < full.size(); ++i) ExpectSameOutcome(full[i], lean[i]);
}

TEST_F(ExecutionPlaneTest, DeadlineSweepLeanPathMatchesFullRecall) {
  std::vector<int> items;
  for (int i = 0; i < 24; ++i) items.push_back(i);
  const std::vector<double> deadlines = {0.25, 0.5, 1.0, 2.0};
  const auto factory = [] {
    return std::make_unique<sched::RandomPolicy>(19);
  };
  // The sweep runs on the lean kernel path internally.
  const eval::DeadlineSweep sweep = eval::ComputeDeadlineSweep(
      factory, *oracle_, items, deadlines, /*num_threads=*/2);
  // Full-path replica of the sweep's sessions.
  for (size_t d = 0; d < deadlines.size(); ++d) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithMode(ExecutionMode::kSerial)
                                  .WithPolicyFactory(factory)
                                  .WithConstraints(constraints)
                                  .WithKernelMode(KernelMode::kFull)
                                  .WithWorkers(2)
                                  .Build();
    const std::vector<LabelOutcome> outcomes =
        service.SubmitBatch(StoredItems(static_cast<int>(items.size())));
    double sum = 0.0;
    for (const LabelOutcome& outcome : outcomes) sum += outcome.recall;
    EXPECT_EQ(sweep.avg_recall[d], sum / static_cast<double>(items.size()))
        << "deadline " << deadlines[d];
  }
}

TEST_F(ExecutionPlaneTest, MemorySweepLeanPathMatchesFullRecall) {
  std::unique_ptr<rl::Agent> agent = MakeAgent(*zoo_, nn::NetKind::kMlp, 17);
  std::vector<int> items;
  for (int i = 0; i < 24; ++i) items.push_back(i);
  const std::vector<double> deadlines = {0.5, 1.0};
  const double mem_budget = 8000.0;
  // The sweep runs lean + batched internally.
  const eval::MemorySweep sweep =
      eval::ComputeMemorySweep(agent.get(), *oracle_, items, mem_budget,
                               deadlines, /*seed=*/3, /*num_threads=*/2);
  for (size_t d = 0; d < deadlines.size(); ++d) {
    ScheduleConstraints constraints;
    constraints.time_budget_s = deadlines[d];
    constraints.memory_budget_mb = mem_budget;
    LabelingService service = LabelingServiceBuilder(zoo_)
                                  .WithOracle(oracle_)
                                  .WithPredictor(agent.get())
                                  .WithMode(ExecutionMode::kParallel)
                                  .WithConstraints(constraints)
                                  .WithKernelMode(KernelMode::kFull)
                                  .WithWorkers(2)
                                  .Build();
    const std::vector<LabelOutcome> outcomes =
        service.SubmitBatch(StoredItems(static_cast<int>(items.size())));
    double sum = 0.0;
    for (const LabelOutcome& outcome : outcomes) sum += outcome.recall;
    EXPECT_EQ(sweep.avg_recall[d], sum / static_cast<double>(items.size()))
        << "deadline " << deadlines[d];
  }
}

TEST_F(ExecutionPlaneTest, PooledWorkerClonesTrackLiveWeights) {
  // Each SubmitBatch worker keeps its predictor clone and its Q-row memo
  // for the session's lifetime. Mutating the source predictor between
  // batches (a training step, a checkpoint reload) must still be picked up:
  // the second call equals a fresh session's outcomes bitwise, with
  // batched prediction on and off, for Algorithms 1 and 2.
  std::unique_ptr<rl::Agent> agent_template =
      MakeAgent(*zoo_, nn::NetKind::kMlp, 41);
  std::unique_ptr<rl::Agent> other = MakeAgent(*zoo_, nn::NetKind::kMlp, 43);
  const std::vector<WorkItem> items = StoredItems(32);
  for (const ExecutionMode mode :
       {ExecutionMode::kSerial, ExecutionMode::kParallel}) {
    for (const bool batched : {false, true}) {
      SCOPED_TRACE(std::string(mode == ExecutionMode::kSerial ? "serial"
                                                              : "parallel") +
                   (batched ? " batched" : " scalar"));
      ScheduleConstraints constraints = ParallelConstraints();
      if (mode == ExecutionMode::kSerial) {
        constraints.memory_budget_mb = ScheduleConstraints().memory_budget_mb;
      }
      auto build = [&](rl::Agent* predictor) {
        return LabelingServiceBuilder(zoo_)
            .WithOracle(oracle_)
            .WithPredictor(predictor)
            .WithMode(mode)
            .WithConstraints(constraints)
            .WithBatchedPrediction(batched)
            .WithWorkers(2)
            .Build();
      };
      std::unique_ptr<rl::Agent> agent = agent_template->Clone();
      LabelingService service = build(agent.get());
      // Clones and memos are created with agent's initial weights.
      const std::vector<LabelOutcome> before = service.SubmitBatch(items);
      agent->net()->CopyWeightsFrom(other->net());
      const std::vector<LabelOutcome> after = service.SubmitBatch(items);
      // Unchanged weights: the memo carries into the third call.
      const std::vector<LabelOutcome> again = service.SubmitBatch(items);
      LabelingService fresh = build(other.get());
      const std::vector<LabelOutcome> expected = fresh.SubmitBatch(items);
      EXPECT_TRUE(AnyScheduleDiffers(before, expected))
          << "the weight change must move some schedule";
      for (size_t i = 0; i < items.size(); ++i) {
        ExpectSameSchedule(expected[i], after[i], i);
        ExpectSameSchedule(expected[i], again[i], i);
      }
    }
  }
}

TEST_F(ExecutionPlaneTest, SharedPredictorRowsArePickedUpAcrossCalls) {
  // A predictor that cannot clone is shared by every worker and reports no
  // weight changes, so no memoized row may outlive a SubmitBatch call.
  const std::vector<WorkItem> items = StoredItems(32);
  const int num_actions = zoo_->num_models() + 1;
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "scalar");
    auto build = [&](ModelValuePredictor* predictor) {
      return LabelingServiceBuilder(zoo_)
          .WithOracle(oracle_)
          .WithPredictor(predictor)
          .WithMode(ExecutionMode::kParallel)
          .WithConstraints(ParallelConstraints())
          .WithBatchedPrediction(batched)
          .WithWorkers(2)
          .Build();
    };
    PhasedPredictor shared(num_actions, /*phase=*/0);
    LabelingService service = build(&shared);
    const std::vector<LabelOutcome> before = service.SubmitBatch(items);
    shared.set_phase(1);
    const std::vector<LabelOutcome> after = service.SubmitBatch(items);
    PhasedPredictor phase1(num_actions, /*phase=*/1);
    LabelingService fresh = build(&phase1);
    const std::vector<LabelOutcome> expected = fresh.SubmitBatch(items);
    EXPECT_TRUE(AnyScheduleDiffers(before, expected));
    for (size_t i = 0; i < items.size(); ++i) {
      ExpectSameSchedule(expected[i], after[i], i);
    }
  }
}

TEST_F(ExecutionPlaneTest, RebuiltClonesReplaceTheStepperPredictor) {
  // A clone that cannot sync is rebuilt by the pool at every call, and the
  // old one destroyed: each worker's stepper must move onto the new clone
  // (never touch the destroyed one) and drop the old clone's rows.
  const std::vector<WorkItem> items = StoredItems(32);
  const int num_actions = zoo_->num_models() + 1;
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "scalar");
    auto build = [&](ModelValuePredictor* predictor) {
      return LabelingServiceBuilder(zoo_)
          .WithOracle(oracle_)
          .WithPredictor(predictor)
          .WithMode(ExecutionMode::kParallel)
          .WithConstraints(ParallelConstraints())
          .WithBatchedPrediction(batched)
          .WithWorkers(2)
          .Build();
    };
    std::atomic<int> clones{0};
    PhasedPredictor source(num_actions, /*phase=*/0, /*clonable=*/true,
                           &clones);
    LabelingService service = build(&source);
    const std::vector<LabelOutcome> before = service.SubmitBatch(items);
    EXPECT_EQ(clones.load(), 2);
    source.set_phase(1);
    const std::vector<LabelOutcome> after = service.SubmitBatch(items);
    EXPECT_EQ(clones.load(), 4) << "each worker's clone is rebuilt per call";
    PhasedPredictor phase1(num_actions, /*phase=*/1, /*clonable=*/true);
    LabelingService fresh = build(&phase1);
    const std::vector<LabelOutcome> expected = fresh.SubmitBatch(items);
    EXPECT_TRUE(AnyScheduleDiffers(before, expected));
    for (size_t i = 0; i < items.size(); ++i) {
      ExpectSameSchedule(expected[i], after[i], i);
    }
  }
}

// --- builder validation ----------------------------------------------------

TEST_F(ExecutionPlaneTest, BuilderRejectsBatchedPredictionWithoutPredictor) {
  EXPECT_DEATH(LabelingServiceBuilder(zoo_)
                   .WithOracle(oracle_)
                   .WithMode(ExecutionMode::kSerial)
                   .WithPolicy("random")
                   .WithConstraints({/*time*/ 1.0})
                   .WithBatchedPrediction(true)
                   .Build(),
               "batched prediction");
}

}  // namespace
}  // namespace ams::core
