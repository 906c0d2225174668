#include "core/decision_plane.h"

#include <algorithm>

#include "util/check.h"

namespace ams::core {

namespace {

// Rewrites `count` freshly computed Q entries into `form` in place.
void ToForm(RowForm form, double* values, size_t count) {
  if (form != RowForm::kProfit) return;
  for (size_t i = 0; i < count; ++i) values[i] = SchedulingProfit(values[i]);
}

}  // namespace

DecisionPlane::DecisionPlane(ModelValuePredictor* predictor, bool memoize_rows,
                             RowForm form)
    : predictor_(predictor), memoize_rows_(memoize_rows), form_(form) {
  AMS_CHECK(predictor != nullptr);
}

void DecisionPlane::Rebind(ModelValuePredictor* predictor) {
  AMS_CHECK(predictor != nullptr);
  AMS_CHECK(free_slots_.size() == slots_.size(),
            "rebinding a plane with slots in use");
  predictor_ = predictor;
  ClearMemo();
}

bool DecisionPlane::ServeFromMemo(Slot* slot, const LabelingState& state) {
  if (!memoize_rows_) return false;
  const auto it = row_memo_.find(state.SetIndices());
  if (it == row_memo_.end()) return false;
  slot->Assign(it->second.data(), it->second.size(), state.num_labels_set());
  ++memo_hits_;
  return true;
}

void DecisionPlane::MemoizeRow(const std::vector<int>& indices,
                               const double* row, size_t stride) {
  if (!memoize_rows_ || row_memo_.size() >= kRowMemoCap) return;
  std::vector<double>& entry = row_memo_[indices];
  if (entry.empty()) entry.assign(row, row + stride);
}

const std::vector<double>& DecisionPlane::Slot::Values(
    const LabelingState& state) {
  if (!Fresh(state) && !plane_->ServeFromMemo(this, state)) {
    std::vector<double> q = plane_->predictor_->PredictValues(state.Features());
    ToForm(plane_->form_, q.data(), q.size());
    Assign(q.data(), q.size(), state.num_labels_set());
    ++plane_->scalar_predictions_;
    plane_->MemoizeRow(state.SetIndices(), row_.data(), row_.size());
  }
  return row_;
}

const std::vector<double>& DecisionPlane::Slot::Profits(
    const LabelingState& state) {
  const std::vector<double>& row = Values(state);
  if (plane_->form_ == RowForm::kProfit) return row;
  if (!profits_fresh_) {
    profits_ = row;
    ToForm(RowForm::kProfit, profits_.data(), profits_.size());
    profits_fresh_ = true;
  }
  return profits_;
}

DecisionPlane::Slot* DecisionPlane::NewSlot() {
  if (!free_slots_.empty()) {
    Slot* slot = free_slots_.back();
    free_slots_.pop_back();
    slot->labels_at_ = -1;  // stale until its first query
    return slot;
  }
  slots_.emplace_back(Slot(this));
  return &slots_.back();
}

void DecisionPlane::ReleaseSlot(Slot* slot) {
  AMS_CHECK(slot != nullptr && slot->plane_ == this,
            "slot released to a foreign plane");
  free_slots_.push_back(slot);
}

void DecisionPlane::Prefetch(const std::vector<SlotView>& views) {
  // A caller-attached arena is reset by its owner once per round; the
  // plane's own arena is reset here.
  if (arena_ == &own_arena_) own_arena_.Reset();
  // Parallel arrays instead of a SlotView array: std::pair is not
  // trivially copyable, which Arena::AllocArray requires.
  Slot** stale_slots = arena_->AllocArray<Slot*>(views.size());
  const LabelingState** stale_states =
      arena_->AllocArray<const LabelingState*>(views.size());
  size_t n_stale = 0;
  for (const SlotView& view : views) {
    AMS_CHECK(view.first != nullptr && view.second != nullptr);
    if (view.first->Fresh(*view.second)) continue;
    // States seen before — by any item, any time in the plane's life — are
    // served straight from the row memo without a forward pass.
    if (ServeFromMemo(view.first, *view.second)) continue;
    stale_slots[n_stale] = view.first;
    stale_states[n_stale] = view.second;
    ++n_stale;
  }
  if (n_stale == 0) return;

  // Deduplicate identical states across items: co-scheduled items share
  // feature vectors often (every item starts all-zero, and sparse label
  // states collide), and the predictor is a pure function of the features,
  // so duplicates ride along on one forward row. This cross-item sharing is
  // exactly what per-item caches cannot see. States are compared through
  // their sorted set-index lists — tens of ints instead of the full
  // 1000+-entry feature vector — which fully determine the binary features.
  const std::vector<float>** features =
      arena_->AllocArray<const std::vector<float>*>(n_stale);
  const std::vector<int>** indices =
      arena_->AllocArray<const std::vector<int>*>(n_stale);
  size_t* row_of = arena_->AllocArray<size_t>(n_stale);
  size_t n_rows = 0;
  for (size_t i = 0; i < n_stale; ++i) {
    const std::vector<int>& idx = stale_states[i]->SetIndices();
    size_t row = n_rows;
    for (size_t u = 0; u < n_rows; ++u) {
      if (indices[u]->size() == idx.size() &&
          std::equal(idx.begin(), idx.end(), indices[u]->begin())) {
        row = u;
        break;
      }
    }
    if (row == n_rows) {
      features[n_rows] = &stale_states[i]->Features();
      indices[n_rows] = &idx;
      ++n_rows;
    }
    row_of[i] = row;
  }

  const size_t stride = static_cast<size_t>(predictor_->num_actions());
  double* flat_q = arena_->AllocArray<double>(n_rows * stride);
  predictor_->PredictValuesBatchTo(features, indices, n_rows, flat_q);
  // One transform per deduplicated row, ahead of the memo and the scatter.
  ToForm(form_, flat_q, n_rows * stride);
  ++batched_predictions_;
  batched_rows_ += static_cast<long>(n_rows);
  for (size_t u = 0; u < n_rows; ++u) {
    MemoizeRow(*indices[u], flat_q + u * stride, stride);
  }
  for (size_t i = 0; i < n_stale; ++i) {
    stale_slots[i]->Assign(flat_q + row_of[i] * stride, stride,
                           stale_states[i]->num_labels_set());
  }
}

}  // namespace ams::core
