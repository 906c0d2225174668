#ifndef AMS_CORE_DECISION_PLANE_H_
#define AMS_CORE_DECISION_PLANE_H_

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/labeling_state.h"
#include "core/predictor.h"
#include "util/arena.h"

namespace ams::core {

/// What a DecisionPlane's rows hold, fixed when the plane is built.
enum class RowForm {
  /// Raw predicted Q values, one per action. The default; greedy picking
  /// reads these.
  kQ,
  /// SchedulingProfit(Q) of every entry: the numerators of Algorithms 1
  /// and 2's cost ratios. The transform runs once per computed row, before
  /// the row is memoized or handed to slots, so a pick round reads finished
  /// profits and a memo hit costs no libm call.
  kProfit,
};

/// The decision plane of the scheduling substrate: every picker Q-query goes
/// through a DecisionPlane slot instead of hitting the predictor directly.
///
/// A slot caches one item's Q vector keyed by the item's state version (the
/// labeling state changes exactly at finish events), so a pick round costs at
/// most one forward pass regardless of how many models it starts. On top of
/// that, a driver co-scheduling many items (LabelingService::SubmitBatch
/// workers, the serve:: runtime's steppers) calls Prefetch() between event
/// rounds to coalesce all stale slots into ONE batched forward pass — one
/// prediction per round instead of one per item. Slots left stale still fall
/// back to the scalar path, so Prefetch is an optimization, never a
/// correctness requirement.
///
/// Every row a plane computes — scalar, batched or memoized — is stored in
/// the plane's RowForm. Slot::Values returns the stored row; Slot::Profits
/// returns profits on either form (the stored row on a kProfit plane, a
/// per-slot copy transformed once per refresh on a kQ plane), so the
/// deadline pickers run on any plane and a kProfit plane just skips work.
///
/// Not thread-safe: one plane per worker, like the predictor it wraps.
class DecisionPlane {
 public:
  /// `memoize_rows` opts into the Q-row memo (see row_memo_ below):
  /// computed rows are kept keyed by state signature and later queries for
  /// the same state skip the forward pass entirely. Worth it only for
  /// long-lived planes (the item steppers behind SubmitBatch workers and
  /// the serve runtime, where steady state becomes mostly memo hits); a
  /// plane that lives for a handful of items pays the insert cost without
  /// profiting. `form` fixes what every row holds (see RowForm).
  explicit DecisionPlane(ModelValuePredictor* predictor,
                         bool memoize_rows = false,
                         RowForm form = RowForm::kQ);
  // Slots and the default arena pointer refer back into the plane.
  DecisionPlane(const DecisionPlane&) = delete;
  DecisionPlane& operator=(const DecisionPlane&) = delete;

  /// One item's cached view of the predictor.
  class Slot {
   public:
    /// The row for `state` in the plane's form (Q values, or profits on a
    /// kProfit plane); served from cache when fresh, recomputed with a
    /// scalar forward pass otherwise.
    const std::vector<double>& Values(const LabelingState& state);

    /// SchedulingProfit of every entry of the Q row for `state`, bitwise
    /// equal on both plane forms. A kProfit plane returns the stored row; a
    /// kQ plane transforms a per-slot copy at most once per refresh.
    const std::vector<double>& Profits(const LabelingState& state);

    RowForm form() const { return plane_->form_; }

    /// True when the cache already matches `state` (no forward pass
    /// needed). Keyed on the number of set labels, not executions: the
    /// Q-net's input is the label bit-vector alone, so an execution that
    /// emitted nothing fresh cannot change any predicted value — a large
    /// fraction of per-event recomputes skip entirely.
    bool Fresh(const LabelingState& state) const {
      return labels_at_ == state.num_labels_set();
    }

   private:
    friend class DecisionPlane;
    explicit Slot(DecisionPlane* plane) : plane_(plane) {}

    /// Stores a refreshed row. Every refresh path ends here, so the Profits
    /// copy can never outlive the row it was computed from.
    void Assign(const double* row, size_t size, int labels_at) {
      row_.assign(row, row + size);
      labels_at_ = labels_at;
      profits_fresh_ = false;
    }

    DecisionPlane* plane_;
    std::vector<double> row_;  // in the plane's RowForm
    int labels_at_ = -1;  // num_labels_set() the cache was computed at
    /// kQ planes only: SchedulingProfit of row_, valid while profits_fresh_.
    std::vector<double> profits_;
    bool profits_fresh_ = false;
  };

  /// A (slot, state) pair eligible for batched refresh.
  using SlotView = std::pair<Slot*, const LabelingState*>;

  /// Creates a slot owned by the plane (pointer stays valid for the plane's
  /// lifetime). Released slots are recycled, so a long-lived driver admitting
  /// an unbounded stream of items (serve::ServerRuntime) keeps a bounded
  /// resident slot set instead of growing the plane forever.
  Slot* NewSlot();

  /// Returns a slot to the plane's free list once its item completed. The
  /// pointer must have come from NewSlot() and must not be used afterwards.
  void ReleaseSlot(Slot* slot);

  /// Refreshes every stale slot among `views` with one batched forward pass
  /// (fresh slots are skipped; an all-fresh call costs nothing). Rows are
  /// bitwise identical to the scalar path. The batched pass hands the
  /// predictor each state's sparse set-index list and writes into arena
  /// scratch, so neither side rescans or allocates per round once warm.
  void Prefetch(const std::vector<SlotView>& views);

  /// Routes Prefetch scratch (stale list, dedup tables, the flat Q buffer)
  /// through a caller-owned bump arena. The owner resets the arena once per
  /// tick/round, so scratch never mallocs in steady state regardless of
  /// round size. Pass nullptr to go back to the plane's own arena, which
  /// Prefetch resets itself. An attached arena must outlive the plane or be
  /// detached first; arena storage is only valid within one Prefetch call.
  void AttachArena(util::Arena* arena) {
    arena_ = arena != nullptr ? arena : &own_arena_;
  }

  ModelValuePredictor* predictor() const { return predictor_; }

  /// Drops every memoized row. A row is valid only for the weights that
  /// computed it, so owners call this whenever the predictor's weights may
  /// have changed.
  void ClearMemo() { row_memo_.clear(); }

  /// Re-points the plane at `predictor` (e.g. a rebuilt clone) and drops the
  /// memo. No slot may be in use: slots cache rows of the old predictor.
  void Rebind(ModelValuePredictor* predictor);

  /// Forward passes issued so far, for tests and perf accounting.
  long scalar_predictions() const { return scalar_predictions_; }
  long batched_predictions() const { return batched_predictions_; }
  long batched_rows() const { return batched_rows_; }
  /// Q rows served from the plane-lifetime row memo without any forward.
  long memo_hits() const { return memo_hits_; }

 private:
  /// FNV-1a over a state's sorted set-index list — the state's identity
  /// (the binary features are fully determined by the set indices).
  struct IndexListHash {
    size_t operator()(const std::vector<int>& indices) const {
      size_t h = 1469598103934665603ull;
      for (const int i : indices) {
        h ^= static_cast<size_t>(i) + 0x9E3779B9u;
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  /// Serves `slot` from the plane-lifetime row memo; false on miss.
  bool ServeFromMemo(Slot* slot, const LabelingState& state);
  /// Memoizes a computed row (first-come bounded; see kRowMemoCap).
  void MemoizeRow(const std::vector<int>& indices, const double* row,
                  size_t stride);

  /// Bound on memoized rows. ~31 doubles + key per entry keeps the memo in
  /// the tens of MB at the cap; beyond it new states simply stay unmemoized
  /// (first-come: the common early states are exactly the hot ones).
  static constexpr size_t kRowMemoCap = 32768;

  ModelValuePredictor* predictor_;
  std::deque<Slot> slots_;  // deque: slot pointers must stay stable
  std::vector<Slot*> free_slots_;  // recycled by ReleaseSlot
  /// Q-row memo keyed by state signature: items pass through shared sparse
  /// label-states (every item starts all-zero, common label combinations
  /// recur across items), so a long-lived plane serves most decision
  /// points without any forward pass at steady state. Sound while the
  /// predictor's weights stay put (the same assumption every slot cache
  /// makes; owners ClearMemo when they may have moved), and rows are
  /// bitwise identical however they were computed.
  std::unordered_map<std::vector<int>, std::vector<double>, IndexListHash>
      row_memo_;
  bool memoize_rows_ = false;
  RowForm form_ = RowForm::kQ;
  /// Prefetch scratch when no caller arena is attached (small: it grows to
  /// the largest round's footprint and then stays put).
  util::Arena own_arena_{1 << 12};
  util::Arena* arena_ = &own_arena_;  // see AttachArena
  long scalar_predictions_ = 0;
  long batched_predictions_ = 0;
  long batched_rows_ = 0;
  long memo_hits_ = 0;
};

}  // namespace ams::core

#endif  // AMS_CORE_DECISION_PLANE_H_
