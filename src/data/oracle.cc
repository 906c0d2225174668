#include "data/oracle.h"

#include <algorithm>

#include "util/check.h"

namespace ams::data {

Oracle::Oracle(const zoo::ModelZoo* zoo, const Dataset* dataset)
    : zoo_(zoo), dataset_(dataset) {
  AMS_CHECK(zoo != nullptr && dataset != nullptr);
  const int n = dataset->size();
  const int m = zoo->num_models();
  outputs_.resize(static_cast<size_t>(n));
  valuable_.resize(static_cast<size_t>(n));
  solo_value_.assign(static_cast<size_t>(n),
                     std::vector<double>(static_cast<size_t>(m), 0.0));
  exec_time_.assign(static_cast<size_t>(n),
                    std::vector<double>(static_cast<size_t>(m), 0.0));
  true_total_value_.assign(static_cast<size_t>(n), 0.0);
  label_profit_.resize(static_cast<size_t>(n));

  // Every stored vector is built exactly sized from one reused execution
  // buffer: the oracle lives as long as its session, so growth slack would
  // stay resident for every item and model.
  std::vector<zoo::LabelOutput> scratch;
  for (int i = 0; i < n; ++i) {
    const zoo::LatentScene& scene = dataset->item(i).scene;
    auto& per_model = outputs_[static_cast<size_t>(i)];
    auto& per_model_valuable = valuable_[static_cast<size_t>(i)];
    per_model.resize(static_cast<size_t>(m));
    per_model_valuable.resize(static_cast<size_t>(m));
    std::vector<std::pair<int, double>>& profits =
        label_profit_[static_cast<size_t>(i)];
    for (int j = 0; j < m; ++j) {
      zoo->ExecuteInto(j, scene, &scratch);
      per_model[static_cast<size_t>(j)].assign(scratch.begin(), scratch.end());
      exec_time_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          zoo->SampleExecutionTime(j, scene);
      std::vector<zoo::LabelOutput>& valuable =
          per_model_valuable[static_cast<size_t>(j)];
      valuable.reserve(static_cast<size_t>(
          std::count_if(scratch.begin(), scratch.end(), [](const auto& out) {
            return out.confidence >= zoo::kValuableConfidence;
          })));
      double solo = 0.0;
      for (const auto& out : scratch) {
        if (out.confidence < zoo::kValuableConfidence) continue;
        valuable.push_back(out);
        solo += out.confidence;
        auto it = std::find_if(profits.begin(), profits.end(),
                               [&](const auto& p) {
                                 return p.first == out.label_id;
                               });
        if (it == profits.end()) {
          profits.emplace_back(out.label_id, out.confidence);
        } else {
          it->second = std::max(it->second, out.confidence);
        }
      }
      solo_value_[static_cast<size_t>(i)][static_cast<size_t>(j)] = solo;
    }
    std::sort(profits.begin(), profits.end());
    profits.shrink_to_fit();
    double total = 0.0;
    for (const auto& p : profits) total += p.second;
    true_total_value_[static_cast<size_t>(i)] = total;
  }
}

const std::vector<zoo::LabelOutput>& Oracle::Output(int item, int model) const {
  return outputs_[static_cast<size_t>(item)][static_cast<size_t>(model)];
}

const std::vector<zoo::LabelOutput>& Oracle::ValuableOutput(int item,
                                                            int model) const {
  return valuable_[static_cast<size_t>(item)][static_cast<size_t>(model)];
}

bool Oracle::ModelValuable(int item, int model) const {
  return !ValuableOutput(item, model).empty();
}

double Oracle::ModelSoloValue(int item, int model) const {
  return solo_value_[static_cast<size_t>(item)][static_cast<size_t>(model)];
}

double Oracle::TrueTotalValue(int item) const {
  return true_total_value_[static_cast<size_t>(item)];
}

double Oracle::LabelProfit(int item, int label) const {
  const auto& profits = label_profit_[static_cast<size_t>(item)];
  auto it = std::lower_bound(
      profits.begin(), profits.end(), std::make_pair(label, 0.0),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it != profits.end() && it->first == label) return it->second;
  return 0.0;
}

int Oracle::NumValuableModels(int item) const {
  int count = 0;
  for (int j = 0; j < num_models(); ++j) {
    if (ModelValuable(item, j)) ++count;
  }
  return count;
}

double Oracle::ExecutionTime(int item, int model) const {
  return exec_time_[static_cast<size_t>(item)][static_cast<size_t>(model)];
}

double Oracle::ValuableTime(int item) const {
  double total = 0.0;
  for (int j = 0; j < num_models(); ++j) {
    if (ModelValuable(item, j)) total += ExecutionTime(item, j);
  }
  return total;
}

double Oracle::TotalTime(int item) const {
  double total = 0.0;
  for (int j = 0; j < num_models(); ++j) total += ExecutionTime(item, j);
  return total;
}

}  // namespace ams::data
