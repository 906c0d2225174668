#include "core/schedule_kernel.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "core/reward.h"
#include "util/check.h"
#include "util/rng.h"

namespace ams::core {

namespace {

// Initial capacity of the per-execution output and fresh-label buffers:
// twice the most outputs any default-zoo model emits on the dataset
// profiles (66). A larger execution grows a buffer once and it keeps that
// capacity, so pooled runs stay allocation-free without reserving the
// whole label space per run.
constexpr size_t kOutputsReserve = 128;

}  // namespace

void ScheduleConstraints::Validate() const {
  AMS_CHECK(!std::isnan(time_budget_s) && time_budget_s >= 0.0,
            "ScheduleConstraints: time budget must be a non-negative number");
  AMS_CHECK(!std::isnan(memory_budget_mb) && memory_budget_mb >= 0.0,
            "ScheduleConstraints: memory budget must be a non-negative number");
}

LiveExecutionContext::LiveExecutionContext(const zoo::ModelZoo* zoo,
                                           const zoo::LatentScene* scene)
    : zoo_(zoo), scene_(scene) {
  AMS_CHECK(zoo != nullptr && scene != nullptr);
  last_outputs_.reserve(kOutputsReserve);
}

double LiveExecutionContext::PlannedTime(int model) const {
  return zoo_->model(model).time_s;
}

double LiveExecutionContext::RealizedTime(int model) const {
  return zoo_->SampleExecutionTime(model, *scene_);
}

const std::vector<zoo::LabelOutput>& LiveExecutionContext::Execute(
    int model) const {
  zoo_->ExecuteInto(model, *scene_, &last_outputs_);
  return last_outputs_;
}

void LiveExecutionContext::set_scene(const zoo::LatentScene* scene) {
  AMS_CHECK(scene != nullptr);
  scene_ = scene;
}

ReplayExecutionContext::ReplayExecutionContext(const data::Oracle* oracle,
                                               int item)
    : oracle_(oracle), item_(item) {
  AMS_CHECK(oracle != nullptr);
  AMS_CHECK(item >= 0 && item < oracle->num_items());
}

double ReplayExecutionContext::PlannedTime(int model) const {
  return oracle_->ExecutionTime(item_, model);
}

double ReplayExecutionContext::RealizedTime(int model) const {
  return oracle_->ExecutionTime(item_, model);
}

const std::vector<zoo::LabelOutput>& ReplayExecutionContext::Execute(
    int model) const {
  return oracle_->Output(item_, model);
}

ScheduleKernel::ScheduleKernel(const ExecutionContext* exec,
                               const ScheduleConstraints& constraints,
                               ModelPicker picker, KernelHooks hooks,
                               KernelMode mode)
    : num_models_(exec->num_models()),
      mode_(mode),
      state_(exec->zoo().labels().total_labels(), exec->num_models()),
      started_(static_cast<size_t>(exec->num_models()), false),
      unstarted_(static_cast<size_t>(exec->num_models())),
      planned_time_(static_cast<size_t>(exec->num_models())),
      best_conf_(static_cast<size_t>(exec->zoo().labels().total_labels()),
                 0.0) {
  // Capacities up front so steady-state lean Steps never allocate. Full
  // mode allocates per record anyway; its fresh scratch grows to the
  // largest execution seen and keeps that capacity across Reset.
  running_.reserve(static_cast<size_t>(num_models_));
  if (mode_ == KernelMode::kLean) {
    scratch_record_.fresh.reserve(kOutputsReserve);
  } else {
    records_.reserve(static_cast<size_t>(num_models_));
  }
  Reset(exec, constraints, std::move(picker), std::move(hooks));
}

void ScheduleKernel::Reset(const ExecutionContext* exec,
                           const ScheduleConstraints& constraints,
                           ModelPicker picker, KernelHooks hooks) {
  AMS_CHECK(exec != nullptr);
  AMS_CHECK(exec->num_models() == num_models_ &&
                static_cast<size_t>(exec->zoo().labels().total_labels()) ==
                    best_conf_.size(),
            "ScheduleKernel::Reset: the zoo's shape changed");
  constraints.Validate();
  AMS_CHECK(picker != nullptr);
  exec_ = exec;
  models_ = exec->zoo().models().data();
  constraints_ = constraints;
  picker_ = std::move(picker);
  hooks_ = std::move(hooks);

  // Sparse clears: only what the previous item touched. The credited
  // labels are exactly the state's set labels (both are the valuable labels
  // of executed models), so the set-index list clears best_conf_ too.
  for (const int label : state_.SetIndices()) {
    best_conf_[static_cast<size_t>(label)] = 0.0;
  }
  state_.Reset();
  running_.clear();
  records_.clear();
  result_ = ScheduleResult();
  std::fill(started_.begin(), started_.end(), false);
  unstarted_.resize(static_cast<size_t>(num_models_));
  for (int m = 0; m < num_models_; ++m) {
    unstarted_[static_cast<size_t>(m)] = m;
    planned_time_[static_cast<size_t>(m)] = exec->PlannedTime(m);
  }
  mem_free_ = constraints.memory_budget_mb;
  mem_used_ = 0.0;
  now_ = 0.0;
  stopped_ = false;
  done_ = false;
  result_taken_ = false;
}

void ScheduleKernel::StartModels() {
  PickContext pick;
  pick.exec = exec_;
  pick.state = &state_;
  pick.started = &started_;
  pick.unstarted = &unstarted_;
  pick.planned_time = planned_time_.data();
  pick.models = models_;
  pick.now = now_;
  pick.deadline = constraints_.time_budget_s;
  while (!stopped_) {
    pick.mem_free = mem_free_;
    pick.idle = running_.empty();
    const int m = picker_(pick);
    if (m < 0) break;
    AMS_CHECK(m < num_models_ && !started_[static_cast<size_t>(m)],
              "picker returned an already-started model");
    started_[static_cast<size_t>(m)] = true;
    unstarted_.erase(
        std::lower_bound(unstarted_.begin(), unstarted_.end(), m));
    const double mem = models_[m].mem_mb;
    running_.push_back({m, now_, now_ + exec_->RealizedTime(m), mem});
    mem_free_ -= mem;
    mem_used_ += mem;
    result_.peak_mem_mb = std::max(result_.peak_mem_mb, mem_used_);
  }
}

bool ScheduleKernel::Step() {
  if (done_) return false;

  // (a) Start everything the picker wants at this instant.
  StartModels();
  if (running_.empty()) {
    done_ = true;
    return false;
  }

  // (b) Advance to the earliest finish event and apply its outputs.
  size_t next = 0;
  for (size_t i = 1; i < running_.size(); ++i) {
    if (running_[i].finish_s < running_[next].finish_s) next = i;
  }
  const Running done_run = running_[next];
  running_.erase(running_.begin() + static_cast<long>(next));
  now_ = done_run.finish_s;
  mem_free_ += done_run.mem_mb;
  mem_used_ -= done_run.mem_mb;

  const std::vector<zoo::LabelOutput>& outputs =
      exec_->Execute(done_run.model_id);

  // f(S, d): credit each valuable label with its best confidence so far
  // (0 = never credited; valuable confidences are > 0). The value adds per
  // label; the execution's gain sums the same improvements per model
  // (ValueAccumulator's order), and the two sums may differ in the last
  // bits, so each keeps its own accumulation.
  double gain = 0.0;
  for (const auto& out : outputs) {
    if (out.confidence < zoo::kValuableConfidence) continue;
    double& best = best_conf_[static_cast<size_t>(out.label_id)];
    if (out.confidence > best) {
      result_.value += out.confidence - best;
      gain += out.confidence - best;
      best = out.confidence;
    }
  }
  result_.makespan_s = std::max(result_.makespan_s, done_run.finish_s);
  ++result_.num_executions;

  // One record per event, rebuilt in place: no allocation once the fresh
  // buffer has grown. Full mode keeps a copy (its fresh list exactly sized,
  // and no allocation at all when the execution emitted nothing new).
  ExecutionRecord& record = scratch_record_;
  record.model_id = done_run.model_id;
  record.start_s = done_run.start_s;
  record.finish_s = done_run.finish_s;
  record.gain = gain;
  state_.ApplyInto(done_run.model_id, outputs, &record.fresh);
  if (mode_ == KernelMode::kFull) {
    record.reward = ModelReward(record.fresh, models_[done_run.model_id].theta);
    records_.push_back(record);
  }

  if (hooks_.on_executed && hooks_.on_executed(record, state_)) {
    stopped_ = true;
  }
  if (now_ >= constraints_.time_budget_s) stopped_ = true;

  if (running_.empty() && stopped_) done_ = true;
  return !done_;
}

ScheduleResult ScheduleKernel::TakeResult() {
  AMS_CHECK(done_, "TakeResult before the schedule completed");
  AMS_CHECK(!result_taken_, "TakeResult called twice");
  result_taken_ = true;
  if (mode_ == KernelMode::kFull) {
    result_.executions.assign(std::make_move_iterator(records_.begin()),
                              std::make_move_iterator(records_.end()));
    records_.clear();
    // The credited labels are the state's set labels, already ascending
    // (the order of the sorted-map export this replaces).
    const std::vector<int>& credited = state_.SetIndices();
    result_.recalled_labels.reserve(credited.size());
    for (const int label : credited) {
      result_.recalled_labels.push_back(
          {label, best_conf_[static_cast<size_t>(label)]});
    }
  }
  return std::move(result_);
}

ScheduleResult RunScheduleKernel(const ExecutionContext& exec,
                                 const ScheduleConstraints& constraints,
                                 const ModelPicker& picker,
                                 const KernelHooks& hooks, KernelMode mode) {
  ScheduleKernel kernel(&exec, constraints, picker, hooks, mode);
  while (kernel.Step()) {
  }
  return kernel.TakeResult();
}

namespace {

// Adapts the predictor-taking picker factories to the slot-based ones: each
// legacy call site gets a private single-slot DecisionPlane, so its cost
// profile stays one forward pass per event round, exactly as before.
struct PrivateSlot {
  PrivateSlot(ModelValuePredictor* predictor, RowForm form)
      : plane(predictor, /*memoize_rows=*/false, form),
        slot(plane.NewSlot()) {}
  DecisionPlane plane;
  DecisionPlane::Slot* slot;
};

int GreedyPick(DecisionPlane::Slot* slot, const PickContext& pick) {
  if (!pick.idle) return -1;
  const std::vector<double>& q = slot->Values(*pick.state);
  const double end_q = q[static_cast<size_t>(pick.exec->num_models())];
  int best = -1;
  double best_q = 0.0;
  for (const int m : *pick.unstarted) {
    if (best == -1 || q[static_cast<size_t>(m)] > best_q) {
      best = m;
      best_q = q[static_cast<size_t>(m)];
    }
  }
  // Stop when END outranks every remaining model.
  if (best == -1 || end_q >= best_q) return -1;
  return best;
}

int DeadlinePick(DecisionPlane::Slot* slot, const PickContext& pick) {
  if (!pick.idle) return -1;
  const double* profit = slot->Profits(*pick.state).data();
  const double remaining = pick.remaining_time();
  // Algorithm 1 lines 3-4: among models that still fit the budget, pick
  // the one maximizing Q / time.
  int best = -1;
  double best_ratio = 0.0;
  for (const int m : *pick.unstarted) {
    const double planned = pick.planned_time[m];
    if (planned > remaining) continue;
    const double ratio = profit[m] / planned;
    if (best == -1 || ratio > best_ratio) {
      best = m;
      best_ratio = ratio;
    }
  }
  return best;
}

int DeadlineMemoryPick(DecisionPlane::Slot* slot, const PickContext& pick) {
  const double* profit = slot->Profits(*pick.state).data();
  int best = -1;
  double best_score = 0.0;
  for (const int m : *pick.unstarted) {
    const zoo::ModelSpec& spec = pick.models[m];
    if (spec.mem_mb > pick.mem_free) continue;
    if (pick.now + pick.planned_time[m] > pick.deadline) continue;
    // Algorithm 2 line 4 (idle: anchor by Q / (time * mem)) or lines 7-12
    // (fill remaining memory by Q / mem). Fills are bounded by the global
    // deadline rather than the literal anchor window: taken literally the
    // filter degenerates to near-serial execution whenever the
    // value-density anchor is a short model.
    const double score = pick.idle ? profit[m] / (spec.time_s * spec.mem_mb)
                                   : profit[m] / spec.mem_mb;
    if (best == -1 || score > best_score) {
      best = m;
      best_score = score;
    }
  }
  return best;
}

}  // namespace

ModelPicker MakeGreedyPicker(ModelValuePredictor* predictor) {
  AMS_CHECK(predictor != nullptr);
  auto owned = std::make_shared<PrivateSlot>(predictor, RowForm::kQ);
  return [owned](const PickContext& pick) {
    return GreedyPick(owned->slot, pick);
  };
}

ModelPicker MakeGreedyPicker(DecisionPlane::Slot* slot) {
  AMS_CHECK(slot != nullptr);
  AMS_CHECK(slot->form() == RowForm::kQ,
            "greedy picking compares raw Q values: its slot must be on a "
            "RowForm::kQ plane");
  return [slot](const PickContext& pick) { return GreedyPick(slot, pick); };
}

ModelPicker MakeDeadlinePicker(ModelValuePredictor* predictor) {
  AMS_CHECK(predictor != nullptr);
  auto owned = std::make_shared<PrivateSlot>(predictor, RowForm::kProfit);
  return [owned](const PickContext& pick) {
    return DeadlinePick(owned->slot, pick);
  };
}

ModelPicker MakeDeadlinePicker(DecisionPlane::Slot* slot) {
  AMS_CHECK(slot != nullptr);
  return [slot](const PickContext& pick) { return DeadlinePick(slot, pick); };
}

ModelPicker MakeDeadlineMemoryPicker(ModelValuePredictor* predictor) {
  AMS_CHECK(predictor != nullptr);
  auto owned = std::make_shared<PrivateSlot>(predictor, RowForm::kProfit);
  return [owned](const PickContext& pick) {
    return DeadlineMemoryPick(owned->slot, pick);
  };
}

ModelPicker MakeDeadlineMemoryPicker(DecisionPlane::Slot* slot) {
  AMS_CHECK(slot != nullptr);
  return [slot](const PickContext& pick) {
    return DeadlineMemoryPick(slot, pick);
  };
}

ModelPicker MakeRandomPackingPicker(uint64_t seed) {
  struct PackState {
    util::Rng rng;
    std::vector<int> order;
    int shuffled_at = -1;
    explicit PackState(uint64_t s) : rng(s) {}
  };
  auto pack = std::make_shared<PackState>(seed);
  return [pack](const PickContext& pick) -> int {
    // One shuffle per event round (the state advances exactly once per
    // finish event), then pack feasible models in that order.
    if (pack->shuffled_at != pick.state->num_executed()) {
      const int n = pick.exec->num_models();
      pack->order.resize(static_cast<size_t>(n));
      for (int m = 0; m < n; ++m) pack->order[static_cast<size_t>(m)] = m;
      pack->rng.Shuffle(&pack->order);
      pack->shuffled_at = pick.state->num_executed();
    }
    for (int m : pack->order) {
      if ((*pick.started)[static_cast<size_t>(m)]) continue;
      if (pick.models[m].mem_mb > pick.mem_free) continue;
      if (pick.now + pick.planned_time[m] > pick.deadline) continue;
      return m;
    }
    return -1;
  };
}

}  // namespace ams::core
