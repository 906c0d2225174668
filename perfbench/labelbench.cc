// labelbench — end-to-end and per-layer benchmark of the labeling service.
//
//   labelbench --workload hot_routed|cold_open|offline_batch --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// the generator's own clock reads. --trace 1 runs the per-layer pass: the
// same workload once more with every front-door call timed, a
// single-threaded harness that feeds the workload's inputs through the
// public pieces a worker uses (AdmissionQueue -> ItemStepper::Admit/Tick ->
// completion, or DecisionPlane::Prefetch + ScheduleKernel::Step for the
// batch engine) with a span around every call, standalone unit costs of
// kernel steps, Q-net forwards and model executions, and the ledger that
// checks those unit costs times their counts against the harness's wall
// time. Spans go to DIR/trace_<workload>.json at exit.
//
// Every input — corpus, arrival schedule, class and tenant draws — is made
// from --seed before the clock starts. Outputs are checked against a
// reference LabelingService::Submit pass; any mismatch or refused request
// counts as failed and makes the process exit 1. The last stdout line is
// the JSON result; README.md defines every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/decision_plane.h"
#include "core/labeling_service.h"
#include "core/schedule_kernel.h"
#include "core/value.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "nn/net.h"
#include "nn/simd.h"
#include "obs/trace.h"
#include "rl/agent.h"
#include "route/shard_router.h"
#include "serve/admission_queue.h"
#include "serve/server_runtime.h"
#include "serve/value_estimator.h"
#include "util/check.h"
#include "util/clock.h"
#include "zoo/model_zoo.h"

namespace {

using namespace ams;

double Now() { return util::Clock::Monotonic().NowSeconds(); }

// Read during static initialization, so set-up time counts from process
// start rather than from main().
const double g_process_start = Now();

// ---------------------------------------------------------------- config --

constexpr int kHidden = 256;
constexpr uint64_t kAgentSeed = 5;
constexpr int kWorkers = 3;
constexpr int kSetupRepeats = 3;
constexpr double kDeadlineS = 1.0;
constexpr double kMemoryMb = 8.0 * 1024.0;

// hot_routed: live scenes through a 3-shard router, closed loop.
constexpr int kHotPool = 400;
constexpr int kHotWarmScenes = 200;
constexpr int kHotRequests = 1 << 16;  // cycled; drawn once per seed
constexpr int kHotQueueCap = 256;      // per shard, kBlock
constexpr double kHotRebalanceS = 0.005;
constexpr int kHotWindow[3] = {12, 96, 2048};  // outstanding per level
constexpr double kHotLimitS = 0.250;

// cold_open: Poisson arrivals of distinct stored items into one runtime.
constexpr double kColdRate[3] = {8000.0, 20000.0, 40000.0};
constexpr int kColdRounds = 5;
constexpr double kColdStageShare = 0.03;  // of --seconds, per stage and round
constexpr double kColdLadderStep = 1.2;
constexpr int kColdLadderRungs = 8;
constexpr double kColdRungShare = 0.01;   // of --seconds, per rung attempt
constexpr int kColdAttempts = 2;          // per rung, best counts
constexpr double kColdLimitS = 0.050;
constexpr double kColdMaxLagS = 0.010;    // generator lag p99 beyond: invalid
constexpr double kColdWarmRate = 10000.0;
constexpr double kColdWarmS = 0.15;

// offline_batch: SubmitBatch calls of three sizes over stored items.
constexpr int kOfflineCorpus = 6000;
constexpr int kOfflineWarmItems = 768;
constexpr int kOfflineBatch[3] = {48, 384, 6000};
constexpr double kOfflineLimitS = 0.250;

const char* const kLevelName[3] = {"low", "mid", "high"};
// Every level runs once per round, so a burst of host contention lands in
// one round and the median over rounds shrugs it off.
constexpr int kRounds = 9;
constexpr double kLevelShare[3] = {0.2, 0.2, 0.6};  // of the measured time

// ----------------------------------------------------------------- stats --

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Cost of one Now() pair, subtracted from standalone per-call timings.
double ClockOverheadS() {
  constexpr int kReps = 20000;
  double last = 0.0;
  const double t0 = Now();
  for (int i = 0; i < kReps; ++i) last = Now();
  return (last - t0) / kReps;
}

// ---------------------------------------------------------------- report --

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  /// Printed with the result; a warning marks the measurement, not the
  /// outputs, so it leaves `correct` alone.
  std::vector<std::string> warnings;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Warn(const std::string& what) { warnings.push_back(what); }
  bool correct() const { return failed == 0; }
};

/// Running tally of output verification: every served outcome is compared
/// with the reference pass.
struct Verifier {
  long checked = 0;
  long mismatched = 0;
  long refused = 0;

  void Check(bool ok) {
    ++checked;
    if (!ok) ++mismatched;
  }
};

std::unique_ptr<rl::Agent> MakeAgent(const zoo::ModelZoo& zoo) {
  nn::MlpConfig config;
  config.input_dim = zoo.labels().total_labels();
  config.hidden_dims = {kHidden};
  config.output_dim = zoo.num_models() + 1;
  return std::make_unique<rl::Agent>(
      std::make_unique<nn::Mlp>(config, kAgentSeed), nn::NetKind::kMlp);
}

core::ScheduleConstraints Constraints(bool with_memory) {
  core::ScheduleConstraints c;
  c.time_budget_s = kDeadlineS;
  if (with_memory) c.memory_budget_mb = kMemoryMb;
  return c;
}

/// Spins until `due` on the monotonic clock. A timed sleep here overshoots
/// by up to milliseconds on small virtual machines, which would show up as
/// generator lag.
void WaitUntil(double due) {
  while (Now() < due) {
  }
}

// ------------------------------------------------------------ span trace --

enum SpanKind : uint8_t {
  kPush,
  kPop,
  kAdmit,
  kTick,
  kComplete,
  kPrepare,
  kPrefetch,
  kStepRound,
  kNumSpanKinds
};
const char* const kSpanName[kNumSpanKinds] = {
    "push", "pop", "admit", "tick", "complete", "prepare", "prefetch",
    "step_round"};

struct Span {
  double start;
  double dur;
  int32_t arg;
  uint8_t kind;
};

/// Spans of one harness pass, kept in memory. With `on` false every call is
/// a no-op apart from the caller's branch, which is the untraced pass.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 18);
  }
  bool on() const { return on_; }
  double Begin() const { return on_ ? Now() : 0.0; }
  void End(SpanKind kind, double start, int32_t arg = 0) {
    if (!on_) return;
    const double dur = Now() - start;
    spans_.push_back({start, dur, arg, kind});
    total_[kind] += dur;
    ++count_[kind];
  }
  double total(SpanKind kind) const { return total_[kind]; }
  long count(SpanKind kind) const { return count_[kind]; }
  double mean(SpanKind kind) const {
    return count_[kind] > 0 ? total_[kind] / count_[kind] : 0.0;
  }
  double covered() const {
    double sum = 0.0;
    for (int k = 0; k < kNumSpanKinds; ++k) sum += total_[k];
    return sum;
  }
  /// Chrome trace-event JSON (one lane), loadable in Perfetto.
  void Write(const std::string& path, double origin) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    std::fputs("{\"traceEvents\":[\n", out);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"n\":%d}}",
                   i == 0 ? "" : ",\n", kSpanName[s.kind],
                   (s.start - origin) * 1e6, s.dur * 1e6, s.arg);
    }
    std::fputs("\n]}\n", out);
    std::fclose(out);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  double total_[kNumSpanKinds] = {};
  long count_[kNumSpanKinds] = {};
};

// ----------------------------------------------- standalone unit costs --

/// Label states seen while replaying items, for standalone forwards.
struct StateSample {
  std::vector<std::vector<float>> features;
  std::vector<std::vector<int>> indices;
};

struct StepCost {
  double step_s = 0.0;
  double steps_per_item = 0.0;
  StateSample states;
};

/// Times ScheduleKernel::Step alone on replay contexts of `items`, with the
/// picker the session mode uses and Q rows refreshed (untimed) before each
/// step, so a step does no forward — exactly a stepper's per-item step.
StepCost MeasureKernelStep(const data::Oracle& oracle,
                           const std::vector<int>& items,
                           core::ExecutionMode mode, core::KernelMode kmode,
                           core::ModelValuePredictor* predictor,
                           double clock_overhead) {
  const core::ScheduleConstraints constraints =
      Constraints(mode == core::ExecutionMode::kParallel);
  core::DecisionPlane plane(predictor, /*memoize_rows=*/true);
  StepCost cost;
  double timed = 0.0;
  long steps = 0;
  std::vector<core::DecisionPlane::SlotView> views(1);
  for (const int item : items) {
    core::DecisionPlane::Slot* slot = plane.NewSlot();
    core::ReplayExecutionContext exec(&oracle, item);
    core::ValueAccumulator acc(&oracle, item);
    core::KernelHooks hooks;
    hooks.on_executed = [&acc](const core::ExecutionRecord& record,
                               const core::LabelingState&) {
      acc.AddModel(record.model_id);
      return false;
    };
    core::ScheduleKernel kernel(
        &exec, constraints,
        mode == core::ExecutionMode::kParallel
            ? core::MakeDeadlineMemoryPicker(slot)
            : core::MakeDeadlinePicker(slot),
        hooks, kmode);
    bool more = true;
    while (more) {
      if (kernel.picking()) {
        views[0] = {slot, &kernel.state()};
        plane.Prefetch(views);
        if (cost.states.features.size() < 512 && (steps % 3) == 0) {
          cost.states.features.push_back(kernel.state().Features());
          cost.states.indices.push_back(kernel.state().SetIndices());
        }
      }
      const double t0 = Now();
      more = kernel.Step();
      timed += Now() - t0;
      ++steps;
    }
    kernel.TakeResult();
    plane.ReleaseSlot(slot);
  }
  cost.step_s = std::max(0.0, timed / steps - clock_overhead);
  cost.steps_per_item = static_cast<double>(steps) / items.size();
  return cost;
}

/// Seconds per PredictValuesBatchTo call of `batch` rows on `predictor`.
double MeasureForward(core::ModelValuePredictor* predictor,
                      const StateSample& states, int batch) {
  const size_t n = states.features.size();
  std::vector<const std::vector<float>*> rows;
  std::vector<const std::vector<int>*> idx;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(&states.features[i]);
    idx.push_back(&states.indices[i]);
  }
  std::vector<double> out(static_cast<size_t>(batch) *
                          static_cast<size_t>(predictor->num_actions()));
  const int calls = std::max(50, 4000 / batch);
  size_t offset = 0;
  std::vector<const std::vector<float>*> call_rows(static_cast<size_t>(batch));
  std::vector<const std::vector<int>*> call_idx(static_cast<size_t>(batch));
  double timed = 0.0;
  for (int c = 0; c < calls; ++c) {
    for (int b = 0; b < batch; ++b) {
      call_rows[static_cast<size_t>(b)] = rows[(offset + b) % n];
      call_idx[static_cast<size_t>(b)] = idx[(offset + b) % n];
    }
    offset += static_cast<size_t>(batch);
    const double t0 = Now();
    predictor->PredictValuesBatchTo(call_rows.data(), call_idx.data(),
                                    static_cast<size_t>(batch), out.data());
    timed += Now() - t0;
  }
  return timed / calls;
}

/// Mean seconds of ModelZoo::Execute over the (scene, model) pairs a
/// full-mode reference pass executed.
double MeasureZooExecute(const zoo::ModelZoo& zoo,
                         const std::vector<const zoo::LatentScene*>& scenes,
                         const std::vector<std::vector<int>>& models,
                         double clock_overhead) {
  static volatile size_t sink = 0;  // keeps the outputs observable
  double timed = 0.0;
  long calls = 0;
  for (int pass = 0; pass < 100 && calls < 20000; ++pass) {
    for (size_t s = 0; s < scenes.size(); ++s) {
      for (const int m : models[s]) {
        const double t0 = Now();
        sink = sink + zoo.Execute(m, *scenes[s]).size();
        timed += Now() - t0;
        ++calls;
      }
    }
  }
  return calls > 0 ? std::max(0.0, timed / calls - clock_overhead) : 0.0;
}

// ------------------------------------------------- stepper harness pass --

/// What one single-threaded stepper pass measured.
struct HarnessPass {
  double wall_s = 0.0;
  long completed = 0;
  long ticks = 0;
  long steps = 0;  // kernel steps = items resident at each tick's entry
  long forwards = 0;
  long forward_rows = 0;
  long memo_hits = 0;
  double forward_s = 0.0;
  long executions = 0;
  std::map<int, long> rows_per_forward;  // forward batch size histogram
};

/// One request as the serving workloads present it to the harness.
struct HarnessRequest {
  core::WorkItem item;
  serve::PriorityClass cls = serve::PriorityClass::kStandard;
  int tenant = 0;
  int ref = 0;  // index into the reference outcomes
};

/// Feeds `requests` through one AdmissionQueue and `steppers` worker
/// steppers in turn — refill, admit, tick, complete — the public pieces a
/// ServerRuntime worker runs, on one thread. With `log.on()` every call is
/// wrapped in a span and the steppers publish TickStats.
HarnessPass RunStepperHarness(core::LabelingService* session,
                            const std::vector<HarnessRequest>& requests,
                            serve::WithinClassOrder order,
                            const std::function<bool(int, const core::LabelOutcome&)>& verify,
                            Verifier* verifier, SpanLog* log) {
  using Stepper = core::LabelingService::ItemStepper;
  constexpr int kResident = 32;
  constexpr int kQueueCap = 256;
  serve::AdmissionConfig config;
  config.capacity = kQueueCap;
  config.overload = serve::OverloadPolicy::kBlock;
  config.within_class_order = order;
  serve::AdmissionQueue queue(config);
  serve::ProfileValueEstimator estimator(session);
  const bool by_value = order != serve::WithinClassOrder::kEdf;

  obs::Tracer tracer;
  std::vector<std::unique_ptr<Stepper>> steppers;
  for (int w = 0; w < kWorkers; ++w) {
    steppers.push_back(session->NewItemStepper(w));
    if (log->on()) {
      steppers.back()->AttachTracer(
          &tracer, tracer.EnsureLane(0, static_cast<uint16_t>(w)),
          &util::Clock::Monotonic());
    }
  }
  std::vector<std::vector<std::pair<uint64_t, int>>> in_flight(kWorkers);
  std::vector<Stepper::Completion> done;
  std::vector<serve::QueuedRequest> refill;
  std::vector<serve::QueuedRequest> bounced;

  HarnessPass pass;
  const size_t total = requests.size();
  size_t sent = 0;
  const double t_start = Now();
  while (pass.completed < static_cast<long>(total)) {
    while (sent < total && queue.size() < static_cast<size_t>(kQueueCap)) {
      const double t0 = log->Begin();
      const HarnessRequest& r = requests[sent];
      serve::QueuedRequest q;
      q.item = r.item;
      q.priority_class = r.cls;
      q.tenant_id = r.tenant;
      q.sequence = sent;
      q.stream_id = r.item.item >= 0 ? static_cast<uint64_t>(r.item.item)
                                     : static_cast<uint64_t>(sent);
      if (by_value) q.value_density = estimator.ValueDensity(r.item);
      bounced.clear();
      queue.Enqueue(std::move(q), &bounced);
      log->End(kPush, t0);
      ++sent;
    }
    for (int w = 0; w < kWorkers; ++w) {
      Stepper& stepper = *steppers[static_cast<size_t>(w)];
      const int space = kResident - stepper.resident();
      if (space > 0 && queue.size() > 0) {
        refill.clear();
        const double t0 = log->Begin();
        const int popped = queue.TryPopBatch(space, &refill);
        log->End(kPop, t0, popped);
        for (serve::QueuedRequest& q : refill) {
          const double t1 = log->Begin();
          const uint64_t ticket = stepper.Admit(q.item, q.stream_id);
          in_flight[static_cast<size_t>(w)].emplace_back(
              ticket, static_cast<int>(q.sequence));
          log->End(kAdmit, t1);
        }
      }
      if (stepper.idle()) continue;
      pass.steps += stepper.resident();
      done.clear();
      const double t2 = log->Begin();
      stepper.Tick(&done);
      log->End(kTick, t2, static_cast<int32_t>(done.size()));
      ++pass.ticks;
      const Stepper::TickStats& stats = stepper.last_tick_stats();
      if (stats.forward_rows > 0) {
        ++pass.forwards;
        pass.forward_rows += stats.forward_rows;
        pass.forward_s += stats.forward_s;
        ++pass.rows_per_forward[stats.forward_rows];
      }
      pass.memo_hits += stats.memo_hits;
      for (Stepper::Completion& c : done) {
        const double t3 = log->Begin();
        auto& slab = in_flight[static_cast<size_t>(w)];
        size_t slot = 0;
        while (slot < slab.size() && slab[slot].first != c.ticket) ++slot;
        const int idx = slab[slot].second;
        slab[slot] = slab.back();
        slab.pop_back();
        verifier->Check(verify(requests[static_cast<size_t>(idx)].ref,
                               c.outcome));
        pass.executions += c.outcome.schedule.num_executions;
        ++pass.completed;
        log->End(kComplete, t3);
      }
    }
  }
  pass.wall_s = Now() - t_start;
  return pass;
}

// ------------------------------------------------------ result helpers --

/// Latency samples and throughput of one load level in one round.
struct LevelResult {
  std::vector<double> latency_s;
  double throughput = 0.0;  // completions per second over the level
};

/// One load level over all rounds: each figure is the median of the
/// per-round figures, so a stall of the host that wrecks one round does not
/// move it. `samples` counts the latency samples of all rounds.
struct LevelSummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double throughput = 0.0;
  size_t samples = 0;
};

LevelSummary Summarize(const std::vector<LevelResult>& rounds) {
  std::vector<double> p50, p90, p99, tput;
  LevelSummary out;
  for (const LevelResult& r : rounds) {
    p50.push_back(Percentile(r.latency_s, 50));
    p90.push_back(Percentile(r.latency_s, 90));
    p99.push_back(Percentile(r.latency_s, 99));
    tput.push_back(r.throughput);
    out.samples += r.latency_s.size();
  }
  out.p50_ms = Percentile(p50, 50) * 1e3;
  out.p90_ms = Percentile(p90, 50) * 1e3;
  out.p99_ms = Percentile(p99, 50) * 1e3;
  out.throughput = Percentile(tput, 50);
  return out;
}

/// Closed-loop workloads: the highest level throughput whose p99 meets the
/// limit (a closed loop's sustained rate at a load level is its
/// throughput).
double ClosedLoopSloRate(const LevelSummary (&levels)[3], double limit_s) {
  double best = 0.0;
  for (const LevelSummary& level : levels) {
    if (level.p99_ms <= limit_s * 1e3) best = std::max(best, level.throughput);
  }
  return best;
}

void PrintLevels(const LevelSummary (&levels)[3], const char* what) {
  for (int l = 0; l < 3; ++l) {
    std::printf("  %-5s %-18s n=%-7zu p50 %8.3f  p90 %8.3f  p99 %8.3f ms  "
                "%10.1f items/s\n",
                kLevelName[l], what, levels[l].samples, levels[l].p50_ms,
                levels[l].p90_ms, levels[l].p99_ms, levels[l].throughput);
  }
}

/// Per-layer metrics every workload reports; workloads that bypass a layer
/// leave its entries at zero.
struct LayerMetrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  LayerMetrics() {
    const char* names[][2] = {
        {"serve.enqueue_us.p50", "us"},   {"serve.enqueue_us.p99", "us"},
        {"serve.push_ns", "ns"},          {"serve.pop_ns", "ns"},
        {"serve.queue_wait_ms.p50", "ms"}, {"serve.queue_wait_ms.p99", "ms"},
        {"serve.service_ms.p50", "ms"},   {"serve.gen_lag_p99_ms", "ms"},
        {"route.enqueue_us", "us"},       {"route.migrated_share", "share"},
        {"route.shard_skew", "ratio"},    {"core.admit_us", "us"},
        {"core.tick_us", "us"},           {"core.ticks_per_item", "count"},
        {"core.kernel_step_ns", "ns"},    {"core.steps_per_item", "count"},
        {"core.forward_us", "us"},        {"core.forward_rows_per_item", "count"},
        {"core.rows_per_forward", "count"}, {"core.memo_hit_share", "share"},
        {"core.plane_overhead_share", "share"}, {"core.submit_batch_s", "s"},
        {"nn.forward_us_per_row.b1", "us"}, {"nn.forward_us_per_row.b2", "us"},
        {"nn.forward_us_per_row.b4", "us"}, {"nn.forward_us_per_row.b16", "us"},
        {"zoo.execute_us", "us"},         {"zoo.executions_per_item", "count"},
        {"data.corpus_s", "s"},           {"data.live_share", "share"},
        {"obs.overhead_share", "share"},  {"obs.unattributed_share", "share"},
        {"obs.ledger_ratio", "ratio"}};
    for (const auto& n : names) values.push_back({n[0], {0.0, n[1]}});
  }
  void Set(const std::string& name, double value) {
    for (auto& v : values) {
      if (v.first == name) {
        v.second.first = value;
        return;
      }
    }
    std::fprintf(stderr, "unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  void AddTo(Report* report) const {
    for (const auto& v : values) {
      report->Add(v.first, v.second.first, v.second.second);
    }
  }
};

/// What a traced threaded pass collects per request: the generator's
/// front-door Enqueue time and the runtime's own queue-wait and service
/// times.
struct ServeSamples {
  std::vector<double> enqueue_s;
  std::vector<double> queue_wait_s;
  std::vector<double> service_s;

  void Add(const serve::ServeResult& r) {
    queue_wait_s.push_back(r.queue_delay_s);
    service_s.push_back(r.service_s);
  }
  void SetLayerMetrics(LayerMetrics* layer) const {
    layer->Set("serve.enqueue_us.p50", Percentile(enqueue_s, 50) * 1e6);
    layer->Set("serve.enqueue_us.p99", Percentile(enqueue_s, 99) * 1e6);
    layer->Set("serve.queue_wait_ms.p50", Percentile(queue_wait_s, 50) * 1e3);
    layer->Set("serve.queue_wait_ms.p99", Percentile(queue_wait_s, 99) * 1e3);
    layer->Set("serve.service_ms.p50", Percentile(service_s, 50) * 1e3);
  }
};

/// Ledger: standalone unit costs times the harness's counts, against the
/// harness's wall time.
constexpr double kLedgerTolerance = 0.25;

struct LedgerTerm {
  std::string name;
  double unit_s;
  double count;
};

double CheckLedger(const std::vector<LedgerTerm>& terms, double wall_s) {
  double sum = 0.0;
  std::printf("  ledger (unit cost x count vs harness wall %.4f s):\n", wall_s);
  for (const LedgerTerm& t : terms) {
    const double total = t.unit_s * t.count;
    sum += total;
    std::printf("    %-26s %12.1f ns x %10.0f = %9.4f s  (%5.1f%%)\n",
                t.name.c_str(), t.unit_s * 1e9, t.count, total,
                100.0 * total / wall_s);
  }
  const double ratio = sum / wall_s;
  std::printf("    sum %.4f s = %.3f of wall; identity %s (tolerance +-%.0f%%)\n",
              sum, ratio,
              std::fabs(ratio - 1.0) <= kLedgerTolerance ? "holds" : "FAILS",
              kLedgerTolerance * 100.0);
  return ratio;
}

void SetForwardPerRow(core::ModelValuePredictor* predictor,
                      const StateSample& states, double clock_overhead,
                      LayerMetrics* layer) {
  for (const int b : {1, 2, 4, 16}) {
    const double per_call =
        std::max(0.0, MeasureForward(predictor, states, b) - clock_overhead);
    layer->Set("nn.forward_us_per_row.b" + std::to_string(b),
               per_call / b * 1e6);
  }
}

/// The serving workloads' traced part: the stepper harness traced and
/// untraced on the same requests, standalone unit costs, and the ledger.
/// `execute_s` is the standalone ModelZoo::Execute cost when the requests
/// are live scenes, 0 for stored items (they replay instead).
void TraceStepperWorkload(
    core::LabelingService* session, const std::vector<HarnessRequest>& requests,
    serve::WithinClassOrder order,
    const std::function<bool(int, const core::LabelOutcome&)>& verify,
    const data::Oracle& oracle, const std::vector<int>& step_items,
    const rl::Agent& agent, double execute_s, double clock_overhead,
    const std::string& trace_path, Verifier* verifier, LayerMetrics* layer) {
  SpanLog log(true), off(false);
  const HarnessPass traced =
      RunStepperHarness(session, requests, order, verify, verifier, &log);
  const HarnessPass untraced =
      RunStepperHarness(session, requests, order, verify, verifier, &off);
  std::unique_ptr<core::ModelValuePredictor> clone = agent.ClonePredictor();
  const StepCost steps =
      MeasureKernelStep(oracle, step_items, core::ExecutionMode::kParallel,
                        core::KernelMode::kLean, clone.get(), clock_overhead);

  const double n = static_cast<double>(traced.completed);
  const double forward_unit =
      traced.forwards > 0 ? traced.forward_s / traced.forwards : 0.0;
  layer->Set("serve.push_ns", log.mean(kPush) * 1e9);
  layer->Set("serve.pop_ns", log.total(kPop) / n * 1e9);
  layer->Set("core.admit_us", log.mean(kAdmit) * 1e6);
  layer->Set("core.tick_us", log.mean(kTick) * 1e6);
  layer->Set("core.ticks_per_item", traced.ticks / n);
  layer->Set("core.kernel_step_ns", steps.step_s * 1e9);
  layer->Set("core.steps_per_item", steps.steps_per_item);
  layer->Set("core.forward_us", forward_unit * 1e6);
  layer->Set("core.forward_rows_per_item", traced.forward_rows / n);
  layer->Set("core.rows_per_forward",
             traced.forwards > 0
                 ? static_cast<double>(traced.forward_rows) / traced.forwards
                 : 0.0);
  const double looked_up =
      static_cast<double>(traced.forward_rows + traced.memo_hits);
  layer->Set("core.memo_hit_share",
             looked_up > 0 ? traced.memo_hits / looked_up : 0.0);
  // nn cost at the batch sizes the harness actually issued.
  double nn_seen_s = 0.0;
  for (const auto& [rows, count] : traced.rows_per_forward) {
    nn_seen_s += MeasureForward(clone.get(), steps.states, rows) * count;
  }
  layer->Set("core.plane_overhead_share",
             traced.forward_s > 0 ? 1.0 - nn_seen_s / traced.forward_s : 0.0);
  SetForwardPerRow(clone.get(), steps.states, clock_overhead, layer);
  layer->Set("obs.overhead_share", 1.0 - untraced.wall_s / traced.wall_s);
  layer->Set("obs.unattributed_share", 1.0 - log.covered() / traced.wall_s);

  std::vector<LedgerTerm> terms = {
      {"serve push", log.mean(kPush), static_cast<double>(log.count(kPush))},
      {"serve pop", log.mean(kPop), static_cast<double>(log.count(kPop))},
      {"core admit", log.mean(kAdmit), static_cast<double>(log.count(kAdmit))},
      {"core forward (TickStats)", forward_unit,
       static_cast<double>(traced.forwards)},
      {"core kernel step", steps.step_s, static_cast<double>(traced.steps)},
      {"completion", log.mean(kComplete),
       static_cast<double>(log.count(kComplete))}};
  if (execute_s > 0.0) {
    layer->Set("zoo.execute_us", execute_s * 1e6);
    layer->Set("zoo.executions_per_item", traced.executions / n);
    terms.push_back(
        {"zoo execute", execute_s, static_cast<double>(traced.executions)});
  }
  layer->Set("obs.ledger_ratio", CheckLedger(terms, traced.wall_s));
  std::printf("  nn forward at the harness's batch sizes: %.4f s of %.4f s "
              "forward time\n", nn_seen_s, traced.forward_s);
  log.Write(trace_path, 0.0);
}

/// Sets a workload up `repeats` times and returns the median set-up time,
/// keeping the last world. `build` returns a world ready for its first
/// measured request. The first set-up is timed from process start, and each
/// world is freed before the next is built.
template <class World>
double SetUp(int repeats, std::unique_ptr<World>* world,
             const std::function<std::unique_ptr<World>()>& build) {
  std::vector<double> times;
  for (int rep = 0; rep < repeats; ++rep) {
    const double t0 = rep == 0 ? g_process_start : Now();
    world->reset();
    *world = build();
    times.push_back(Now() - t0);
  }
  return Percentile(times, 50);
}

void PrintMachine() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "machine: nproc=%ld hardware_concurrency=%u simd=%s compiler=\"%s\" "
      "build=%s\n",
      nproc, std::thread::hardware_concurrency(),
      nn::simd::TierName(nn::simd::ActiveTier()), AMS_BENCH_COMPILER,
      AMS_BENCH_BUILD_TYPE);
}

// ============================================================ hot_routed ==

struct HotRequest {
  int scene = 0;
  serve::PriorityClass cls = serve::PriorityClass::kStandard;
  int tenant = 0;
};

/// Everything hot_routed builds before its clock starts.
struct HotWorld {
  zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  std::unique_ptr<data::Dataset> pool;
  std::unique_ptr<data::Dataset> warm;
  std::unique_ptr<data::Oracle> oracle;  // ground truth for live recall
  std::unique_ptr<rl::Agent> agent;
  std::vector<core::LabelingService> sessions;
  std::unique_ptr<route::ShardRouter> router;
  std::vector<double> ref_value;
  std::vector<int> ref_exec;
  std::vector<HotRequest> requests;
  double corpus_s = 0.0;
};

core::LabelingService HotSession(HotWorld* w, core::KernelMode kmode) {
  return core::LabelingServiceBuilder(&w->zoo)
      .WithOracle(w->oracle.get())
      .WithPredictor(w->agent.get())
      .WithMode(core::ExecutionMode::kParallel)
      .WithConstraints(Constraints(true))
      .WithKernelMode(kmode)
      .WithWorkers(1)
      .Build();
}

std::unique_ptr<route::ShardRouter> MakeRouter(HotWorld* w) {
  route::RouterOptions options;
  options.serve.workers = 1;
  options.serve.queue_capacity = kHotQueueCap;
  options.serve.overload = serve::OverloadPolicy::kBlock;
  options.serve.within_class_order = serve::WithinClassOrder::kHybrid;
  options.rebalance_interval_s = kHotRebalanceS;
  std::vector<core::LabelingService*> ptrs;
  for (core::LabelingService& s : w->sessions) ptrs.push_back(&s);
  return std::make_unique<route::ShardRouter>(ptrs, options);
}

std::unique_ptr<HotWorld> BuildHot(uint64_t seed) {
  auto w = std::make_unique<HotWorld>();
  const data::DatasetProfile profile = data::DatasetProfile::MsCoco();
  const double t0 = Now();
  w->pool = std::make_unique<data::Dataset>(
      data::Dataset::Generate(profile, w->zoo.labels(), kHotPool, seed));
  w->warm = std::make_unique<data::Dataset>(data::Dataset::Generate(
      profile, w->zoo.labels(), kHotWarmScenes, seed ^ 0x5eed5eedull));
  w->oracle = std::make_unique<data::Oracle>(&w->zoo, w->pool.get());
  w->corpus_s = Now() - t0;
  w->agent = MakeAgent(w->zoo);

  // Reference outcomes: one Submit per pool scene on a session configured
  // like the shards.
  core::LabelingService reference = HotSession(w.get(), core::KernelMode::kLean);
  for (int i = 0; i < kHotPool; ++i) {
    const core::LabelOutcome o = reference.Submit(w->pool->item(i).scene);
    w->ref_value.push_back(o.schedule.value);
    w->ref_exec.push_back(o.schedule.num_executions);
  }

  // Request draws: scene uniform over the pool, class 60:30:10, tenant
  // uniform over 3.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::uniform_int_distribution<int> scene_of(0, kHotPool - 1);
  std::discrete_distribution<int> class_of({60.0, 30.0, 10.0});
  std::uniform_int_distribution<int> tenant_of(0, 2);
  w->requests.resize(kHotRequests);
  for (HotRequest& r : w->requests) {
    r.scene = scene_of(rng);
    r.cls = static_cast<serve::PriorityClass>(class_of(rng));
    r.tenant = tenant_of(rng);
  }

  for (int s = 0; s < kWorkers; ++s) {
    w->sessions.push_back(HotSession(w.get(), core::KernelMode::kLean));
  }
  w->router = MakeRouter(w.get());
  return w;
}

/// Closed loop against the router: at most `window` requests outstanding
/// (the client waits on its oldest), kBlock at the shard queues beneath.
/// Sends from `requests` starting at `*cursor`; `samples`, when non-null,
/// receives every request's timings.
LevelResult HotLevel(HotWorld* w, int window, double seconds, bool warm,
                     size_t* cursor, Verifier* verifier,
                     ServeSamples* samples) {
  struct Pending {
    std::future<serve::ServeResult> future;
    int scene;
  };
  std::deque<Pending> pending;
  LevelResult level;
  long completed = 0;
  const auto consume = [&](Pending& p) {
    const serve::ServeResult r = p.future.get();
    if (!r.ok()) {
      ++verifier->refused;
      return;
    }
    ++completed;
    if (warm) return;
    level.latency_s.push_back(r.latency_s);
    if (samples != nullptr) samples->Add(r);
    verifier->Check(r.outcome.schedule.value ==
                        w->ref_value[static_cast<size_t>(p.scene)] &&
                    r.outcome.schedule.num_executions ==
                        w->ref_exec[static_cast<size_t>(p.scene)]);
  };
  const double t0 = Now();
  const double stop = t0 + seconds;
  while (Now() < stop) {
    const HotRequest r =
        warm ? HotRequest{static_cast<int>(*cursor % kHotWarmScenes),
                          serve::PriorityClass::kStandard, 0}
             : w->requests[*cursor % w->requests.size()];
    ++*cursor;
    const data::Dataset& source = warm ? *w->warm : *w->pool;
    route::ShardRouter::RequestOptions options;
    options.priority_class = r.cls;
    options.tenant_id = r.tenant;
    const double s0 = samples != nullptr ? Now() : 0.0;
    std::future<serve::ServeResult> f = w->router->Enqueue(
        core::WorkItem::Live(&source.item(r.scene).scene), options);
    if (samples != nullptr) samples->enqueue_s.push_back(Now() - s0);
    pending.push_back({std::move(f), r.scene});
    while (static_cast<int>(pending.size()) >= window) {
      consume(pending.front());
      pending.pop_front();
    }
  }
  while (!pending.empty()) {
    consume(pending.front());
    pending.pop_front();
  }
  level.throughput = completed / (Now() - t0);
  return level;
}

void RunHot(uint64_t seed, double seconds, bool trace, const std::string& out_dir,
            Report* report) {
  Verifier verifier;
  std::unique_ptr<HotWorld> w;
  const double setup_s =
      SetUp<HotWorld>(trace ? 1 : kSetupRepeats, &w, [&] {
        std::unique_ptr<HotWorld> built = BuildHot(seed);
        size_t warm_cursor = 0;
        HotLevel(built.get(), kHotWindow[2], 0.3, /*warm=*/true, &warm_cursor,
                 &verifier, nullptr);
        return built;
      });
  double mean_value = 0.0, mean_recall = 0.0;
  for (const HotRequest& r : w->requests) {
    mean_value += w->ref_value[static_cast<size_t>(r.scene)];
    const double truth = w->oracle->TrueTotalValue(r.scene);
    mean_recall += truth > 0 ? w->ref_value[static_cast<size_t>(r.scene)] / truth
                             : 1.0;
  }
  mean_value /= w->requests.size();
  mean_recall /= w->requests.size();
  uint64_t checksum = 0;
  for (int i = 0; i < kHotPool; ++i) {
    checksum = checksum * 1000003u +
               static_cast<uint64_t>(std::llround(w->ref_value[i] * 1e9)) +
               static_cast<uint64_t>(w->ref_exec[i]);
  }
  std::printf("hot_routed: %d live scenes, %d requests drawn, reference "
              "checksum %016llx\n",
              kHotPool, kHotRequests, static_cast<unsigned long long>(checksum));

  size_t cursor = 0;
  if (!trace) {
    std::vector<LevelResult> rounds[3];
    for (int r = 0; r < kRounds; ++r) {
      for (int l = 0; l < 3; ++l) {
        rounds[l].push_back(HotLevel(w.get(), kHotWindow[l],
                                     seconds * kLevelShare[l] / kRounds, false,
                                     &cursor, &verifier, nullptr));
      }
    }
    LevelSummary levels[3];
    for (int l = 0; l < 3; ++l) levels[l] = Summarize(rounds[l]);
    PrintLevels(levels, "closed-loop window");
    report->Add("setup_s", setup_s, "s");
    report->Add("items_per_s", levels[2].throughput, "1/s");
    report->Add("slo_rate", ClosedLoopSloRate(levels, kHotLimitS), "1/s");
    report->Add("mean_value", mean_value, "1");
    report->Add("mean_recall", mean_recall, "1");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    LayerMetrics layer;
    const double clock_overhead = ClockOverheadS();
    layer.Set("data.corpus_s", w->corpus_s);
    layer.Set("data.live_share", 1.0);
    // Threaded pass at the saturating level, every router Enqueue timed.
    ServeSamples samples;
    long routed0 = 0, migrated0 = 0;
    std::vector<long> completed0;
    for (int s = 0; s < kWorkers; ++s) {
      routed0 += w->router->routed(s);
      migrated0 += w->router->shard(s).metrics().migrated_out.load();
      completed0.push_back(w->router->shard(s).metrics().completed.load());
    }
    HotLevel(w.get(), kHotWindow[2], seconds * 0.4, false, &cursor, &verifier,
             &samples);
    long routed = 0, migrated = 0;
    double max_done = 0.0, sum_done = 0.0;
    for (int s = 0; s < kWorkers; ++s) {
      routed += w->router->routed(s);
      migrated += w->router->shard(s).metrics().migrated_out.load();
      const double done = static_cast<double>(
          w->router->shard(s).metrics().completed.load() - completed0[s]);
      max_done = std::max(max_done, done);
      sum_done += done;
    }
    // The generator reaches ServerRuntime::Enqueue through the router, so
    // one timing serves both layers: percentiles for serve, mean for route.
    samples.SetLayerMetrics(&layer);
    layer.Set("route.enqueue_us", Mean(samples.enqueue_s) * 1e6);
    layer.Set("route.migrated_share",
              static_cast<double>(migrated - migrated0) / (routed - routed0));
    layer.Set("route.shard_skew", max_done / (sum_done / kWorkers));
    w->router.reset();  // steppers below reuse the shard sessions' clones

    // Single-threaded harness, traced then untraced, on the same requests.
    std::vector<HarnessRequest> harness_requests;
    for (int i = 0; i < 30000; ++i) {
      const HotRequest& r = w->requests[static_cast<size_t>(i)];
      harness_requests.push_back(
          {core::WorkItem::Live(&w->pool->item(r.scene).scene), r.cls,
           r.tenant, r.scene});
    }
    const auto verify = [&](int ref, const core::LabelOutcome& o) {
      return o.schedule.value == w->ref_value[static_cast<size_t>(ref)] &&
             o.schedule.num_executions == w->ref_exec[static_cast<size_t>(ref)];
    };
    // ModelZoo::Execute on the (scene, model) pairs a full-mode reference
    // pass executes.
    core::LabelingService full = HotSession(w.get(), core::KernelMode::kFull);
    std::vector<const zoo::LatentScene*> scenes;
    std::vector<std::vector<int>> models;
    std::vector<int> items;
    for (int i = 0; i < kHotPool; ++i) {
      items.push_back(i);
      scenes.push_back(&w->pool->item(i).scene);
      const core::LabelOutcome o = full.Submit(w->pool->item(i).scene);
      models.emplace_back();
      for (const core::ExecutionRecord& e : o.schedule.executions) {
        models.back().push_back(e.model_id);
      }
    }
    const double execute_s =
        MeasureZooExecute(w->zoo, scenes, models, clock_overhead);
    TraceStepperWorkload(&w->sessions[0], harness_requests,
                         serve::WithinClassOrder::kHybrid, verify, *w->oracle,
                         items, *w->agent, execute_s, clock_overhead,
                         out_dir + "/trace_hot_routed.json", &verifier,
                         &layer);
    layer.AddTo(report);
  }
  report->attempted += verifier.checked + verifier.refused;
  report->failed += verifier.mismatched + verifier.refused;
}

// ============================================================= cold_open ==

struct ColdWorld {
  zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  std::unique_ptr<data::Dataset> corpus;
  std::unique_ptr<data::Oracle> oracle;
  std::unique_ptr<rl::Agent> agent;
  std::unique_ptr<core::LabelingService> session;
  std::unique_ptr<serve::ServerRuntime> runtime;
  std::vector<double> ref_recall;
  std::vector<double> ref_value;
  std::vector<int> ref_exec;
  int warm_items = 0;  // items [0, warm_items) are warm-up only
  double corpus_s = 0.0;
};

/// One open-loop stage: precomputed Poisson offsets, items taken in order.
struct ColdStage {
  double rate = 0.0;
  std::vector<double> offsets;
};

/// A rate ladder: rungs of rising rate, each with its attempts.
using Ladder = std::vector<std::vector<ColdStage>>;

ColdStage MakeStage(double rate, double seconds, std::mt19937_64* rng) {
  ColdStage stage;
  stage.rate = rate;
  std::exponential_distribution<double> gap(rate);
  double t = 0.0;
  while (true) {
    t += gap(*rng);
    if (t >= seconds) break;
    stage.offsets.push_back(t);
  }
  return stage;
}

core::LabelingService ColdSession(ColdWorld* w) {
  return core::LabelingServiceBuilder(&w->zoo)
      .WithOracle(w->oracle.get())
      .WithPredictor(w->agent.get())
      .WithMode(core::ExecutionMode::kParallel)
      .WithConstraints(Constraints(true))
      .WithKernelMode(core::KernelMode::kLean)
      .WithWorkers(kWorkers)
      .Build();
}

std::unique_ptr<ColdWorld> BuildCold(uint64_t seed, int measured_items) {
  auto w = std::make_unique<ColdWorld>();
  w->warm_items = static_cast<int>(kColdWarmRate * kColdWarmS * 1.5) + 64;
  const double t0 = Now();
  w->corpus = std::make_unique<data::Dataset>(data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), w->zoo.labels(),
      w->warm_items + measured_items, seed));
  w->oracle = std::make_unique<data::Oracle>(&w->zoo, w->corpus.get());
  w->corpus_s = Now() - t0;
  w->agent = MakeAgent(w->zoo);
  core::LabelingService reference = ColdSession(w.get());
  for (int i = 0; i < w->corpus->size(); ++i) {
    const core::LabelOutcome o = reference.Submit(core::WorkItem::Stored(i));
    w->ref_recall.push_back(o.recall);
    w->ref_value.push_back(o.schedule.value);
    w->ref_exec.push_back(o.schedule.num_executions);
  }
  w->session = std::make_unique<core::LabelingService>(ColdSession(w.get()));
  return w;
}

/// Replaces the runtime with a fresh one. Its steppers start with empty
/// Q-row memos, so a round that replays the measured items on it sees no
/// item twice.
void ResetRuntime(ColdWorld* w) {
  w->runtime.reset();
  serve::ServeOptions options;
  options.workers = kWorkers;
  options.queue_capacity = 1 << 20;  // open loop: the generator never blocks
  options.overload = serve::OverloadPolicy::kBlock;
  w->runtime = std::make_unique<serve::ServerRuntime>(w->session.get(), options);
}

struct StageResult {
  LevelResult level;
  std::vector<double> lag_s;
  long backlog_at_end = 0;  // sent minus completed when sending stopped
};

/// Replays one stage's arrival schedule against the runtime, from items
/// [*cursor, ...), then drains. Latency counts from each request's due time.
StageResult RunStage(ColdWorld* w, const ColdStage& stage, int* cursor,
                     bool warm, Verifier* verifier, ServeSamples* samples) {
  const size_t n = stage.offsets.size();
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(n);
  std::vector<double> lateness(n);
  std::vector<int> items(n);
  const long completed0 = w->runtime->metrics().completed.load();
  const double t0 = Now() + 1e-3;
  for (size_t i = 0; i < n; ++i) {
    const double due = t0 + stage.offsets[i];
    WaitUntil(due);
    const double sent = Now();
    items[i] = (*cursor)++;
    futures.push_back(w->runtime->Enqueue(core::WorkItem::Stored(items[i])));
    if (samples != nullptr) samples->enqueue_s.push_back(Now() - sent);
    lateness[i] = sent - due;
  }
  StageResult out;
  out.backlog_at_end = static_cast<long>(n) -
                       (w->runtime->metrics().completed.load() - completed0);
  w->runtime->Drain();
  const double elapsed = Now() - t0;
  long completed = 0;
  for (size_t i = 0; i < n; ++i) {
    const serve::ServeResult r = futures[i].get();
    if (!r.ok()) {
      ++verifier->refused;
      continue;
    }
    ++completed;
    if (warm) continue;
    out.level.latency_s.push_back(lateness[i] + r.latency_s);
    if (samples != nullptr) samples->Add(r);
    const size_t item = static_cast<size_t>(items[i]);
    verifier->Check(r.outcome.recall == w->ref_recall[item] &&
                    r.outcome.schedule.num_executions == w->ref_exec[item]);
  }
  out.level.throughput = completed / elapsed;
  out.lag_s = std::move(lateness);
  return out;
}

/// How close a stage ran to the latency limit: the larger of p99 / limit
/// and the backlog left when sending stopped / the backlog the limit allows
/// at `rate`. At most 1 means the stage met the limit without a growing
/// backlog.
double LoadScore(const StageResult& s, double rate) {
  return std::max(Percentile(s.level.latency_s, 99) / kColdLimitS,
                  s.backlog_at_end / (rate * kColdLimitS));
}

/// Fresh runtime, warmed on the warm-up items [0, warm_items).
void FreshWarmRuntime(ColdWorld* w, const ColdStage& warm, Verifier* verifier) {
  ResetRuntime(w);
  int cursor = 0;
  RunStage(w, warm, &cursor, /*warm=*/true, verifier, nullptr);
}

/// One pass up the rate ladder above the fixed rates, anchored at the high
/// fixed rate when its p99 (`high_p99_s`) met the limit. A rung's load
/// score is the larger of p99 / limit and the backlog left when sending
/// stops / the backlog the limit allows at that rate; it passes at a score
/// of at most 1 and takes the best of its attempts, so a stall of the host
/// does not end the pass. Returns where the score crosses 1, interpolated
/// between the last passing rung and the first failing one.
double LadderPass(ColdWorld* w, const Ladder& ladder, const ColdStage& warm,
                  double high_p99_s, Verifier* verifier) {
  double last_rate = 0.0, last_score = 0.0;
  if (high_p99_s <= kColdLimitS) {
    last_rate = kColdRate[2];
    last_score = high_p99_s / kColdLimitS;
  }
  std::string trail;
  for (const auto& attempts : ladder) {
    const double rate = attempts[0].rate;
    double score = std::numeric_limits<double>::infinity();
    for (const ColdStage& attempt : attempts) {
      FreshWarmRuntime(w, warm, verifier);
      int cursor = w->warm_items;
      const StageResult st =
          RunStage(w, attempt, &cursor, false, verifier, nullptr);
      score = std::min(score, LoadScore(st, rate));
      if (score <= 1.0) break;
    }
    char step[48];
    std::snprintf(step, sizeof(step), " %.0f:%.2f", rate, score);
    trail += step;
    if (score > 1.0) {
      const double slo = last_rate + (rate - last_rate) * (1.0 - last_score) /
                                         (score - last_score);
      std::printf("  ladder (rate:score)%s -> %.0f/s\n", trail.c_str(), slo);
      return slo;
    }
    last_rate = rate;
    last_score = score;
  }
  std::printf("  ladder (rate:score)%s: every rung met the limit; %.0f/s is "
              "a lower bound\n", trail.c_str(), last_rate);
  return last_rate;
}

void RunCold(uint64_t seed, double seconds, bool trace,
             const std::string& out_dir, Report* report) {
  Verifier verifier;
  // Every arrival schedule is drawn before set-up. Each round and each
  // ladder attempt runs on a fresh runtime and replays the measured items
  // from the start, so the corpus holds one distinct item per request of
  // the longest of them.
  std::mt19937_64 rng(seed * 0x2545F4914F6CDD1Dull + 7);
  std::vector<std::vector<ColdStage>> rounds;  // [round][level]
  std::vector<Ladder> ladders;                 // one pass per round
  const ColdStage warm_stage = MakeStage(kColdWarmRate, kColdWarmS, &rng);
  if (trace) {
    rounds.push_back({MakeStage(kColdRate[2], seconds * 0.04, &rng)});
  } else {
    for (int r = 0; r < kColdRounds; ++r) {
      rounds.emplace_back();
      for (int l = 0; l < 3; ++l) {
        rounds.back().push_back(
            MakeStage(kColdRate[l], seconds * kColdStageShare, &rng));
      }
    }
    for (int r = 0; r < kColdRounds; ++r) {
      ladders.emplace_back();
      double rate = kColdRate[2];
      for (int k = 0; k < kColdLadderRungs; ++k) {
        rate *= kColdLadderStep;
        ladders.back().emplace_back();
        for (int a = 0; a < kColdAttempts; ++a) {
          ladders.back().back().push_back(
              MakeStage(rate, seconds * kColdRungShare, &rng));
        }
      }
    }
  }
  size_t measured = trace ? 6000 : 0;  // the traced harness's items
  for (const auto& stages : rounds) {
    size_t n = 0;
    for (const ColdStage& st : stages) n += st.offsets.size();
    measured = std::max(measured, n);
  }
  for (const Ladder& ladder : ladders) {
    for (const auto& attempts : ladder) {
      for (const ColdStage& st : attempts) {
        measured = std::max(measured, st.offsets.size());
      }
    }
  }

  std::unique_ptr<ColdWorld> w;
  const double setup_s =
      SetUp<ColdWorld>(trace ? 1 : kSetupRepeats, &w, [&] {
        std::unique_ptr<ColdWorld> built =
            BuildCold(seed, static_cast<int>(measured));
        AMS_CHECK(static_cast<int>(warm_stage.offsets.size()) <=
                  built->warm_items);
        FreshWarmRuntime(built.get(), warm_stage, &verifier);
        return built;
      });
  double mean_value = 0.0, mean_recall = 0.0;
  for (int i = w->warm_items; i < w->corpus->size(); ++i) {
    mean_value += w->ref_value[static_cast<size_t>(i)];
    mean_recall += w->ref_recall[static_cast<size_t>(i)];
  }
  const int n_items = w->corpus->size() - w->warm_items;
  mean_value /= n_items;
  mean_recall /= n_items;
  std::printf("cold_open: %d distinct stored items (+%d warm-up)\n", n_items,
              w->warm_items);

  if (!trace) {
    std::vector<LevelResult> per_level[3];
    std::vector<double> lag_p99;  // per round
    std::vector<double> slo;      // per round
    for (size_t r = 0; r < rounds.size(); ++r) {
      if (r > 0) FreshWarmRuntime(w.get(), warm_stage, &verifier);
      int cursor = w->warm_items;
      std::vector<double> lag;
      for (int l = 0; l < 3; ++l) {
        StageResult st = RunStage(w.get(), rounds[r][static_cast<size_t>(l)],
                                  &cursor, false, &verifier, nullptr);
        lag.insert(lag.end(), st.lag_s.begin(), st.lag_s.end());
        per_level[l].push_back(std::move(st.level));
      }
      lag_p99.push_back(Percentile(lag, 99));
      const double high_p99 = Percentile(per_level[2].back().latency_s, 99);
      slo.push_back(
          LadderPass(w.get(), ladders[r], warm_stage, high_p99, &verifier));
    }
    LevelSummary levels[3];
    double completed = 0.0, busy = 0.0;
    for (int l = 0; l < 3; ++l) {
      levels[l] = Summarize(per_level[l]);
      for (const LevelResult& lr : per_level[l]) {
        completed += lr.latency_s.size();
        busy += lr.latency_s.size() / lr.throughput;
      }
    }
    PrintLevels(levels, "Poisson rate");

    const double lag_median = Percentile(lag_p99, 50);
    std::printf("  generator lag p99 %.3f ms (median over rounds)\n",
                lag_median * 1e3);
    if (lag_median > kColdMaxLagS) {
      report->Warn("generator fell behind its schedule (lag p99 " +
                      std::to_string(lag_median * 1e3) + " ms); run invalid");
    }
    report->Add("setup_s", setup_s, "s");
    report->Add("items_per_s", completed / busy, "1/s");
    report->Add("slo_rate", Percentile(slo, 50), "1/s");
    report->Add("mean_value", mean_value, "1");
    report->Add("mean_recall", mean_recall, "1");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    LayerMetrics layer;
    const double clock_overhead = ClockOverheadS();
    layer.Set("data.corpus_s", w->corpus_s);
    ServeSamples samples;
    int cursor = w->warm_items;
    const StageResult st = RunStage(w.get(), rounds[0][0], &cursor, false,
                                    &verifier, &samples);
    samples.SetLayerMetrics(&layer);
    layer.Set("serve.gen_lag_p99_ms", Percentile(st.lag_s, 99) * 1e3);
    w->runtime.reset();  // the harness's steppers reuse the session's clones

    std::vector<HarnessRequest> harness_requests;
    for (int i = 0; i < 6000; ++i) {
      const int item = w->warm_items + i;
      harness_requests.push_back({core::WorkItem::Stored(item),
                                 serve::PriorityClass::kStandard, 0, item});
    }
    const auto verify = [&](int ref, const core::LabelOutcome& o) {
      return o.recall == w->ref_recall[static_cast<size_t>(ref)] &&
             o.schedule.num_executions == w->ref_exec[static_cast<size_t>(ref)];
    };
    std::vector<int> items;
    for (int i = 0; i < 2000; ++i) items.push_back(w->warm_items + i);
    TraceStepperWorkload(w->session.get(), harness_requests,
                         serve::WithinClassOrder::kEdf, verify, *w->oracle,
                         items, *w->agent, /*execute_s=*/0.0, clock_overhead,
                         out_dir + "/trace_cold_open.json", &verifier, &layer);
    layer.AddTo(report);
  }
  report->attempted += verifier.checked + verifier.refused;
  report->failed += verifier.mismatched + verifier.refused;
}

// ========================================================= offline_batch ==

struct OfflineWorld {
  zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
  std::unique_ptr<data::Dataset> corpus;
  std::unique_ptr<data::Oracle> oracle;
  std::unique_ptr<rl::Agent> agent;
  std::unique_ptr<core::LabelingService> session;
  std::vector<double> ref_recall;
  std::vector<double> ref_value;
  std::vector<int> ref_exec;
  double corpus_s = 0.0;
};

/// Algorithm 1 (serial, deadline only) with the LabelingServiceBuilder
/// defaults photo_album/ams_label use — full kernel mode — plus batched prediction, which is
/// what routes SubmitBatch workers through the co-scheduled engine.
core::LabelingService OfflineSession(OfflineWorld* w, int workers) {
  return core::LabelingServiceBuilder(&w->zoo)
      .WithOracle(w->oracle.get())
      .WithPredictor(w->agent.get())
      .WithMode(core::ExecutionMode::kSerial)
      .WithConstraints(Constraints(false))
      .WithBatchedPrediction(true)
      .WithWorkers(workers)
      .Build();
}

std::unique_ptr<OfflineWorld> BuildOffline(uint64_t seed) {
  auto w = std::make_unique<OfflineWorld>();
  const double t0 = Now();
  w->corpus = std::make_unique<data::Dataset>(data::Dataset::Generate(
      data::DatasetProfile::MsCoco(), w->zoo.labels(),
      kOfflineCorpus + kOfflineWarmItems, seed));
  w->oracle = std::make_unique<data::Oracle>(&w->zoo, w->corpus.get());
  w->corpus_s = Now() - t0;
  w->agent = MakeAgent(w->zoo);
  core::LabelingService reference = OfflineSession(w.get(), 1);
  for (int i = 0; i < w->corpus->size(); ++i) {
    const core::LabelOutcome o = reference.Submit(core::WorkItem::Stored(i));
    w->ref_recall.push_back(o.recall);
    w->ref_value.push_back(o.schedule.value);
    w->ref_exec.push_back(o.schedule.num_executions);
  }
  w->session =
      std::make_unique<core::LabelingService>(OfflineSession(w.get(), kWorkers));
  return w;
}

/// Repeated SubmitBatch calls of `batch` items for `seconds`, cycling
/// through the measured corpus [0, kOfflineCorpus). Every item's latency is
/// its call's duration.
LevelResult OfflineLevel(OfflineWorld* w, int batch, double seconds,
                         size_t* cursor, Verifier* verifier,
                         std::vector<double>* call_s) {
  LevelResult level;
  std::vector<core::WorkItem> items(static_cast<size_t>(batch));
  // Throughput is the median over calls of items per call-second: a call
  // waits for its slowest worker block, so one stalled vCPU slows the whole
  // call, and the median keeps those calls from moving the figure.
  std::vector<double> call_rate;
  const double stop = Now() + seconds;
  do {
    for (core::WorkItem& item : items) {
      item = core::WorkItem::Stored(static_cast<int>(*cursor % kOfflineCorpus));
      ++*cursor;
    }
    const double t0 = Now();
    const std::vector<core::LabelOutcome> outcomes =
        w->session->SubmitBatch(items);
    const double dt = Now() - t0;
    call_rate.push_back(batch / dt);
    if (call_s != nullptr) call_s->push_back(dt);
    for (size_t i = 0; i < items.size(); ++i) {
      const size_t item = static_cast<size_t>(items[i].item);
      verifier->Check(outcomes[i].recall == w->ref_recall[item] &&
                      outcomes[i].schedule.num_executions ==
                          w->ref_exec[item]);
      level.latency_s.push_back(dt);
    }
  } while (Now() < stop);
  level.throughput = Percentile(call_rate, 50);
  return level;
}

/// What the co-scheduled engine does per SubmitBatch worker block, on one
/// thread from public pieces: waves of 16 items, one DecisionPlane (no row
/// memo) refreshed by Prefetch before each event round, then one
/// ScheduleKernel::Step per live item.
struct WavePass {
  double wall_s = 0.0;
  long completed = 0;
  long rounds = 0;
  long steps = 0;
  long forwards = 0;
  long forward_rows = 0;
  double forward_s = 0.0;
  std::map<int, long> rows_per_forward;
};

WavePass RunWaveHarness(OfflineWorld* w, int first, int count,
                       core::ModelValuePredictor* predictor,
                       Verifier* verifier, SpanLog* log) {
  constexpr int kWave = 16;
  const core::ScheduleConstraints constraints = Constraints(false);
  core::DecisionPlane plane(predictor);
  util::Arena arena;
  plane.AttachArena(&arena);
  std::vector<core::DecisionPlane::SlotView> views;
  WavePass pass;
  const double t_start = Now();
  for (int begin = 0; begin < count; begin += kWave) {
    const int wave = std::min(kWave, count - begin);
    struct Run {
      std::unique_ptr<core::ReplayExecutionContext> exec;
      std::unique_ptr<core::ValueAccumulator> acc;
      std::unique_ptr<core::ScheduleKernel> kernel;
      core::DecisionPlane::Slot* slot = nullptr;
      int item = 0;
    };
    std::vector<Run> runs(static_cast<size_t>(wave));
    for (int i = 0; i < wave; ++i) {
      const double t0 = log->Begin();
      Run& r = runs[static_cast<size_t>(i)];
      r.item = first + begin + i;
      r.slot = plane.NewSlot();
      r.exec = std::make_unique<core::ReplayExecutionContext>(w->oracle.get(),
                                                              r.item);
      r.acc = std::make_unique<core::ValueAccumulator>(w->oracle.get(), r.item);
      core::KernelHooks hooks;
      core::ValueAccumulator* acc = r.acc.get();
      hooks.on_executed = [acc](const core::ExecutionRecord& record,
                                const core::LabelingState&) {
        acc->AddModel(record.model_id);
        return false;
      };
      r.kernel = std::make_unique<core::ScheduleKernel>(
          r.exec.get(), constraints, core::MakeDeadlinePicker(r.slot), hooks,
          core::KernelMode::kFull);
      log->End(kPrepare, t0);
    }
    for (bool any_live = true; any_live;) {
      views.clear();
      for (const Run& r : runs) {
        if (r.kernel != nullptr && r.kernel->picking()) {
          views.push_back({r.slot, &r.kernel->state()});
        }
      }
      const long rows_before = plane.batched_rows();
      const double t0 = log->Begin();
      const double f0 = Now();
      arena.Reset();
      plane.Prefetch(views);
      const double f1 = Now();
      log->End(kPrefetch, t0, static_cast<int32_t>(views.size()));
      const int rows = static_cast<int>(plane.batched_rows() - rows_before);
      if (rows > 0) {
        ++pass.forwards;
        pass.forward_rows += rows;
        pass.forward_s += f1 - f0;
        ++pass.rows_per_forward[rows];
      }
      ++pass.rounds;
      any_live = false;
      const double t1 = log->Begin();
      for (Run& r : runs) {
        if (r.kernel == nullptr) continue;
        ++pass.steps;
        if (r.kernel->Step()) {
          any_live = true;
          continue;
        }
        const core::ScheduleResult result = r.kernel->TakeResult();
        const size_t item = static_cast<size_t>(r.item);
        verifier->Check(r.acc->Recall() == w->ref_recall[item] &&
                        result.num_executions == w->ref_exec[item]);
        r.kernel.reset();
        plane.ReleaseSlot(r.slot);
        ++pass.completed;
      }
      log->End(kStepRound, t1);
    }
  }
  pass.wall_s = Now() - t_start;
  return pass;
}

void RunOffline(uint64_t seed, double seconds, bool trace,
                const std::string& out_dir, Report* report) {
  Verifier verifier;
  std::unique_ptr<OfflineWorld> w;
  const double setup_s =
      SetUp<OfflineWorld>(trace ? 1 : kSetupRepeats, &w, [&] {
        std::unique_ptr<OfflineWorld> built = BuildOffline(seed);
        // Warm-up on the items past the measured corpus.
        std::vector<core::WorkItem> warm;
        for (int i = 0; i < kOfflineWarmItems; ++i) {
          warm.push_back(core::WorkItem::Stored(kOfflineCorpus + i));
        }
        built->session->SubmitBatch(warm);
        return built;
      });
  double mean_value = 0.0, mean_recall = 0.0;
  for (int i = 0; i < kOfflineCorpus; ++i) {
    mean_value += w->ref_value[static_cast<size_t>(i)];
    mean_recall += w->ref_recall[static_cast<size_t>(i)];
  }
  mean_value /= kOfflineCorpus;
  mean_recall /= kOfflineCorpus;
  std::printf("offline_batch: %d stored items (+%d warm-up), %d workers\n",
              kOfflineCorpus, kOfflineWarmItems, kWorkers);

  size_t cursor = 0;
  if (!trace) {
    std::vector<LevelResult> rounds[3];
    for (int r = 0; r < kRounds; ++r) {
      for (int l = 0; l < 3; ++l) {
        rounds[l].push_back(OfflineLevel(w.get(), kOfflineBatch[l],
                                         seconds * kLevelShare[l] / kRounds,
                                         &cursor, &verifier, nullptr));
      }
    }
    LevelSummary levels[3];
    for (int l = 0; l < 3; ++l) levels[l] = Summarize(rounds[l]);
    PrintLevels(levels, "SubmitBatch size");
    report->Add("setup_s", setup_s, "s");
    report->Add("items_per_s", levels[2].throughput, "1/s");
    report->Add("slo_rate", ClosedLoopSloRate(levels, kOfflineLimitS), "1/s");
    report->Add("mean_value", mean_value, "1");
    report->Add("mean_recall", mean_recall, "1");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    LayerMetrics layer;
    const double clock_overhead = ClockOverheadS();
    layer.Set("data.corpus_s", w->corpus_s);
    std::vector<double> calls;
    OfflineLevel(w.get(), kOfflineBatch[2], seconds * 0.4, &cursor, &verifier,
                 &calls);
    layer.Set("core.submit_batch_s", Percentile(calls, 50));

    std::unique_ptr<core::ModelValuePredictor> clone = w->agent->ClonePredictor();
    SpanLog log(true), off(false);
    const WavePass traced =
        RunWaveHarness(w.get(), 0, kOfflineCorpus, clone.get(), &verifier, &log);
    const WavePass untraced =
        RunWaveHarness(w.get(), 0, kOfflineCorpus, clone.get(), &verifier, &off);
    std::vector<int> items;
    for (int i = 0; i < 2000; ++i) items.push_back(i);
    const StepCost steps = MeasureKernelStep(
        *w->oracle, items, core::ExecutionMode::kSerial,
        core::KernelMode::kFull, clone.get(), clock_overhead);
    const double n = static_cast<double>(traced.completed);
    layer.Set("core.tick_us",
              (log.total(kPrefetch) + log.total(kStepRound)) / traced.rounds *
                  1e6);
    layer.Set("core.ticks_per_item", traced.rounds / n);
    layer.Set("core.kernel_step_ns", steps.step_s * 1e9);
    layer.Set("core.steps_per_item", steps.steps_per_item);
    layer.Set("core.forward_us",
              traced.forwards > 0 ? traced.forward_s / traced.forwards * 1e6
                                  : 0.0);
    layer.Set("core.forward_rows_per_item", traced.forward_rows / n);
    layer.Set("core.rows_per_forward",
              traced.forwards > 0
                  ? static_cast<double>(traced.forward_rows) / traced.forwards
                  : 0.0);
    layer.Set("core.memo_hit_share", 0.0);  // per-call plane: no row memo
    double nn_seen_s = 0.0;
    for (const auto& [rows, count] : traced.rows_per_forward) {
      nn_seen_s += MeasureForward(clone.get(), steps.states, rows) * count;
    }
    layer.Set("core.plane_overhead_share",
              traced.forward_s > 0 ? 1.0 - nn_seen_s / traced.forward_s : 0.0);
    SetForwardPerRow(clone.get(), steps.states, clock_overhead, &layer);
    layer.Set("obs.overhead_share", 1.0 - untraced.wall_s / traced.wall_s);
    layer.Set("obs.unattributed_share", 1.0 - log.covered() / traced.wall_s);
    const double ratio = CheckLedger(
        {{"core prepare", log.mean(kPrepare),
          static_cast<double>(log.count(kPrepare))},
         {"core prefetch (plane+nn)", log.mean(kPrefetch),
          static_cast<double>(log.count(kPrefetch))},
         {"core kernel step", steps.step_s, static_cast<double>(traced.steps)}},
        traced.wall_s);
    layer.Set("obs.ledger_ratio", ratio);
    std::printf("  nn forward at the harness's batch sizes: %.4f s of %.4f s "
                "forward time\n", nn_seen_s, traced.forward_s);
    log.Write(out_dir + "/trace_offline_batch.json", 0.0);
    layer.AddTo(report);
  }
  report->attempted += verifier.checked + verifier.refused;
  report->failed += verifier.mismatched + verifier.refused;
}

// ================================================================== main ==

void PrintResult(const Report& report) {
  std::printf("%-30s %16s  %s\n", "metric", "value", "unit");
  for (const Report::Metric& m : report.metrics) {
    std::printf("%-30s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %ld, failed %ld, failed_share %.6f\n",
              report.attempted, report.failed,
              report.attempted > 0
                  ? static_cast<double>(report.failed) / report.attempted
                  : 0.0);
  for (const std::string& w : report.warnings) {
    std::printf("warning: %s\n", w.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: labelbench --workload hot_routed|cold_open|"
               "offline_batch --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      Usage();
    }
  }
  if (argc % 2 != 1 || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    Usage();
  }
  if (std::strcmp(AMS_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "labelbench: refusing to report numbers from a %s "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 AMS_BENCH_BUILD_TYPE);
    return 3;
  }
  PrintMachine();
  Report report;
  const uint64_t s = static_cast<uint64_t>(seed);
  if (workload == "hot_routed") {
    RunHot(s, seconds, trace == 1, out_dir, &report);
  } else if (workload == "cold_open") {
    RunCold(s, seconds, trace == 1, out_dir, &report);
  } else if (workload == "offline_batch") {
    RunOffline(s, seconds, trace == 1, out_dir, &report);
  } else {
    Usage();
  }
  PrintResult(report);
  return report.correct() ? 0 : 1;
}
