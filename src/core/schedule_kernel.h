#ifndef AMS_CORE_SCHEDULE_KERNEL_H_
#define AMS_CORE_SCHEDULE_KERNEL_H_

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_state.h"
#include "core/predictor.h"
#include "data/oracle.h"
#include "zoo/latent_scene.h"
#include "zoo/model_zoo.h"

namespace ams::core {

/// Per-item resource constraints (Eq. 2's "constraints on S").
struct ScheduleConstraints {
  /// Deadline per item in seconds (Algorithm 1 / 2). Infinity = unlimited.
  double time_budget_s = std::numeric_limits<double>::infinity();
  /// GPU memory budget in MB for parallel execution (Algorithm 2 only).
  double memory_budget_mb = std::numeric_limits<double>::infinity();

  /// Crashes with a clear message on NaN or negative budgets (a negative or
  /// NaN budget would otherwise silently schedule nothing).
  void Validate() const;
};

/// One scheduled model execution.
struct ExecutionRecord {
  int model_id = -1;
  double start_s = 0.0;
  double finish_s = 0.0;
  /// O'(m, d): newly emitted valuable labels.
  std::vector<zoo::LabelOutput> fresh;
  /// Reward of Eq. (3) for this execution; 0 in lean kernel mode.
  double reward = 0.0;
  /// Marginal gain f(S ∪ {m}, d) − f(S, d) of this execution: the summed
  /// confidence improvements of its valuable outputs, in output order —
  /// exactly ValueAccumulator::AddModel's sum, so a running sum of gains in
  /// finish order is the item's value ledger.
  double gain = 0.0;
};

/// Outcome of scheduling one item.
struct ScheduleResult {
  /// Executions in finish order (serial schedules: also start order).
  /// Empty in lean kernel mode; use num_executions for the count.
  std::vector<ExecutionRecord> executions;
  /// Number of executions, maintained in both kernel modes.
  int num_executions = 0;
  /// Serial total time (Algorithm 1) or parallel makespan (Algorithm 2).
  double makespan_s = 0.0;
  /// f(S, d): sum over recalled labels of the best confidence obtained.
  double value = 0.0;
  /// Union of valuable labels with their best confidences. Empty in lean
  /// kernel mode (the map is never exported there).
  std::vector<zoo::LabelOutput> recalled_labels;
  /// Peak simultaneous memory use, for asserting the constraint held.
  double peak_mem_mb = 0.0;
};

/// Execution substrate of the scheduling kernel: where model outputs and
/// execution times come from. Two implementations cover the repo's two
/// information patterns — live inference on a scene (production) and replay
/// of stored oracle outputs (offline evaluation, §VI-A) — plus a memoizing
/// decorator for contexts that are replayed repeatedly.
class ExecutionContext {
 public:
  virtual ~ExecutionContext() = default;

  virtual const zoo::ModelZoo& zoo() const = 0;
  int num_models() const { return zoo().num_models(); }
  const zoo::ModelSpec& model(int m) const { return zoo().model(m); }

  /// Planning-time estimate used by feasibility checks ("does m still fit
  /// the budget"). Live scheduling only knows the spec's mean time; replay
  /// knows the realized draw.
  virtual double PlannedTime(int model) const = 0;

  /// Realized duration charged when the model actually runs.
  virtual double RealizedTime(int model) const = 0;

  /// Runs the model and returns its raw outputs by reference: replay serves
  /// the oracle's stored vectors directly (no copies), live contexts return
  /// an internal buffer that stays valid until the next Execute call.
  virtual const std::vector<zoo::LabelOutput>& Execute(int model) const = 0;
};

/// Live inference on one scene via ModelZoo::ExecuteInto. Never peeks at
/// outputs of models it did not select, matching a production deployment.
class LiveExecutionContext : public ExecutionContext {
 public:
  LiveExecutionContext(const zoo::ModelZoo* zoo, const zoo::LatentScene* scene);

  const zoo::ModelZoo& zoo() const override { return *zoo_; }
  double PlannedTime(int model) const override;
  double RealizedTime(int model) const override;
  const std::vector<zoo::LabelOutput>& Execute(int model) const override;

  /// Re-targets the context at another scene of the same zoo, keeping the
  /// output buffer's capacity (pooled item runs reuse one context).
  void set_scene(const zoo::LatentScene* scene);

 private:
  const zoo::ModelZoo* zoo_;
  const zoo::LatentScene* scene_;
  /// Holds the last Execute result so outputs can be served by reference
  /// (the kernel consumes them before the next execution). Refilled in
  /// place, so executions stop allocating once it has grown.
  mutable std::vector<zoo::LabelOutput> last_outputs_;
};

/// Replay of one stored item: outputs and times come from the oracle, so
/// planned and realized times coincide and Execute serves the oracle's
/// stored vectors by reference without any intermediate copy.
class ReplayExecutionContext : public ExecutionContext {
 public:
  ReplayExecutionContext(const data::Oracle* oracle, int item);

  const zoo::ModelZoo& zoo() const override { return oracle_->zoo(); }
  double PlannedTime(int model) const override;
  double RealizedTime(int model) const override;
  const std::vector<zoo::LabelOutput>& Execute(int model) const override;

  const data::Oracle& oracle() const { return *oracle_; }
  int item() const { return item_; }

 private:
  const data::Oracle* oracle_;
  int item_;
};

/// A scheduling decision point: everything a picker may inspect.
///
/// The per-model tables are owned by the kernel and filled once per item, so
/// a pick round scans plain arrays: no virtual PlannedTime call, no
/// range-checked spec lookup. The pickers built below loop over `unstarted`
/// alone; `started` serves pickers that need random access by model id
/// (sched::PolicyAdapter, random packing).
struct PickContext {
  const ExecutionContext* exec = nullptr;
  const LabelingState* state = nullptr;
  /// Models already started (a superset of state->model_executed(): models
  /// in flight count as started but not yet executed).
  const std::vector<bool>* started = nullptr;
  /// Ids of the models not yet started, in ascending order: iterating it
  /// visits candidates in the same order as a 0..num_models scan that skips
  /// `started`, so a strict-greater argmax still breaks ties toward the
  /// lowest id.
  const std::vector<int>* unstarted = nullptr;
  /// exec->PlannedTime(m) for every model m, taken at kernel construction.
  const double* planned_time = nullptr;
  /// exec->zoo().models().data(): specs indexed by model id.
  const zoo::ModelSpec* models = nullptr;
  double now = 0.0;
  /// Absolute deadline (infinity when unconstrained).
  double deadline = std::numeric_limits<double>::infinity();
  double mem_free = std::numeric_limits<double>::infinity();
  /// True when no model is currently running.
  bool idle = true;

  double remaining_time() const { return deadline - now; }
};

/// Returns the next model to start *now*, or -1 to start nothing (the kernel
/// then advances to the next finish event, or stops once nothing is
/// running). Serial strategies return a model only when `idle`.
using ModelPicker = std::function<int(const PickContext&)>;

/// Optional kernel hooks.
struct KernelHooks {
  /// Called after each finish event is applied to the labeling state.
  /// Returning true stops the kernel from starting further models; work
  /// already in flight still drains (its outputs count, exactly as in
  /// Algorithm 2's final window).
  ///
  /// The record passed here is the kernel's reused scratch, valid for the
  /// duration of the call: `model_id`, `start_s`, `finish_s`, `fresh` and
  /// `gain` are always set, `reward` is 0 in lean kernel mode.
  std::function<bool(const ExecutionRecord&, const LabelingState&)>
      on_executed;
};

/// How much the kernel materializes per run.
enum class KernelMode {
  /// Full ScheduleResult: per-execution records and the recalled-label
  /// union. The default.
  kFull,
  /// Lean: accumulates only makespan, value, execution count and peak
  /// memory — no per-execution records, no recalled-label map. The offline
  /// recall-only paths (deadline/memory sweeps) and the serving steppers
  /// run here.
  kLean,
};

/// The shared scheduling kernel in resumable form: construct it, then Step()
/// until false. Each Step (a) asks the picker for models to start at the
/// current instant, (b) advances to the earliest finish event, applies its
/// outputs and accounts value/reward, and (c) reports completion once
/// nothing runs and nothing new starts. Memory is charged at start and
/// released at finish; executions past the deadline are never started but
/// started work always drains.
///
/// Pick rounds are table-driven: the constructor reads every model's
/// PlannedTime once, and the kernel keeps the unstarted model ids in
/// ascending order, erasing an id when its model starts. Pickers that scan
/// PickContext::unstarted therefore see exactly the candidates, and the
/// order, of a full 0..num_models scan that skips started models.
///
/// Single-shot callers use the RunScheduleKernel wrapper below; co-scheduling
/// drivers (LabelingService workers batching Q-predictions across items)
/// interleave Step() calls of many kernels and refresh a shared
/// DecisionPlane between event rounds.
///
/// Pooling: a kernel is sized once for its zoo (dense per-label and
/// per-model tables) and re-targeted at the next item by Reset, which clears
/// only what the previous item touched — its credited labels, the labeling
/// state's set indices and executed models, the started/unstarted lists —
/// so per-item setup costs O(models + labels touched), not O(labels), and
/// allocates nothing. A reset kernel behaves bitwise like a freshly
/// constructed one.
class ScheduleKernel {
 public:
  ScheduleKernel(const ExecutionContext* exec,
                 const ScheduleConstraints& constraints, ModelPicker picker,
                 KernelHooks hooks = {}, KernelMode mode = KernelMode::kFull);

  /// Re-targets the kernel at a new item, as if freshly constructed with the
  /// same mode. Valid at any point — after TakeResult, or abandoning a run
  /// midway. `exec` must come from a zoo of the same shape (label and model
  /// counts; checked).
  void Reset(const ExecutionContext* exec,
             const ScheduleConstraints& constraints, ModelPicker picker,
             KernelHooks hooks = {});

  /// Advances past the next finish event. Returns false once the schedule is
  /// complete (and on every later call).
  bool Step();

  bool done() const { return done_; }
  /// True while the picker may still be consulted (not stopped, not done) —
  /// i.e. the next Step will open with a pick round.
  bool picking() const { return !done_ && !stopped_; }
  const LabelingState& state() const { return state_; }

  /// The accumulated result; call once done() (checked).
  ScheduleResult TakeResult();

 private:
  void StartModels();

  const ExecutionContext* exec_ = nullptr;
  const zoo::ModelSpec* models_ = nullptr;  // exec_->zoo().models().data()
  int num_models_;
  ScheduleConstraints constraints_;
  ModelPicker picker_;
  KernelHooks hooks_;
  KernelMode mode_;

  struct Running {
    int model_id;
    double start_s;
    double finish_s;
    double mem_mb;
  };

  LabelingState state_;
  ScheduleResult result_;
  std::vector<Running> running_;
  std::vector<bool> started_;
  // Pick tables (see PickContext): unstarted ids kept ascending (a started
  // id is erased in place, so the order never changes) and the per-item
  // planned times, filled at every Reset.
  std::vector<int> unstarted_;
  std::vector<double> planned_time_;
  double mem_free_ = 0.0;
  double mem_used_ = 0.0;
  double now_ = 0.0;
  bool stopped_ = false;
  bool done_ = false;
  bool result_taken_ = false;
  // The record of the latest finish event, rebuilt in place every event and
  // handed to the hook; full mode appends a copy to records_.
  ExecutionRecord scratch_record_;
  // Full mode: this item's records, moved into an exactly sized
  // ScheduleResult::executions by TakeResult. Its capacity survives Reset.
  std::vector<ExecutionRecord> records_;
  // Best-confidence union of valuable labels, for f(S, d): flat table
  // indexed by label id (0 = never credited; valuable confidences are
  // strictly positive). Its non-zero entries are exactly
  // state_.SetIndices(), which is how Reset and TakeResult visit them.
  std::vector<double> best_conf_;
};

/// Runs one schedule start to finish (the single-shot form of the kernel).
ScheduleResult RunScheduleKernel(const ExecutionContext& exec,
                                 const ScheduleConstraints& constraints,
                                 const ModelPicker& picker,
                                 const KernelHooks& hooks = {},
                                 KernelMode mode = KernelMode::kFull);

/// Q-value greedy picker (§V intro): when idle, starts the unexecuted model
/// with maximal predicted Q; stops once END has the highest value. The Slot
/// overloads draw rows through a shared DecisionPlane (so a co-scheduling
/// driver can batch them); the predictor overloads keep a private plane.
/// Greedy compares raw Q values, so its slot must sit on a RowForm::kQ plane
/// (checked).
ModelPicker MakeGreedyPicker(ModelValuePredictor* predictor);
ModelPicker MakeGreedyPicker(DecisionPlane::Slot* slot);

/// Algorithm 1 picker: when idle, starts the feasible model maximizing
/// SchedulingProfit(Q) / planned time. The deadline pickers read
/// Slot::Profits, so they run on either plane form; a RowForm::kProfit plane
/// (what the predictor overloads and LabelingService's serial and parallel
/// sessions build) stores the profits themselves and skips the per-slot
/// transform.
ModelPicker MakeDeadlinePicker(ModelValuePredictor* predictor);
ModelPicker MakeDeadlinePicker(DecisionPlane::Slot* slot);

/// Algorithm 2 picker: when idle, anchors the window with the feasible model
/// maximizing Q / (time * mem); otherwise fills remaining memory with the
/// feasible model maximizing Q / mem. Fills are bounded by the global
/// deadline rather than the literal anchor window (see DESIGN note in the
/// implementation: the literal filter degenerates to serial execution when
/// the value-density anchor is a short model).
ModelPicker MakeDeadlineMemoryPicker(ModelValuePredictor* predictor);
ModelPicker MakeDeadlineMemoryPicker(DecisionPlane::Slot* slot);

/// Random feasible packing baseline (§VI-G): reshuffles the model order at
/// every event round and packs feasible models in that order.
ModelPicker MakeRandomPackingPicker(uint64_t seed);

}  // namespace ams::core

#endif  // AMS_CORE_SCHEDULE_KERNEL_H_
