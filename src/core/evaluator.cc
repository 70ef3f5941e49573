#include "core/evaluator.h"

#include "util/check.h"
#include "util/rng.h"

namespace gaia::core {

EvaluationReport Evaluator::FromPredictions(
    const std::string& method, const data::ForecastDataset& dataset,
    const std::vector<int32_t>& nodes,
    const std::vector<std::vector<double>>& predictions) {
  GAIA_CHECK_EQ(nodes.size(), predictions.size());
  const auto horizon = static_cast<int>(dataset.horizon());
  const double floor = dataset.mape_floor();

  std::vector<ts::MetricsAccumulator> monthly(
      static_cast<size_t>(horizon), ts::MetricsAccumulator(floor));
  ts::MetricsAccumulator overall(floor);
  ts::MetricsAccumulator new_shop(floor);
  ts::MetricsAccumulator old_shop(floor);

  for (size_t i = 0; i < nodes.size(); ++i) {
    const int32_t v = nodes[i];
    GAIA_CHECK_EQ(static_cast<int>(predictions[i].size()), horizon);
    const bool is_new = dataset.series_length(v) < kNewShopThreshold;
    for (int h = 0; h < horizon; ++h) {
      const double pred = predictions[i][static_cast<size_t>(h)];
      const double actual = dataset.ActualGmv(v, h);
      monthly[static_cast<size_t>(h)].Add(pred, actual);
      overall.Add(pred, actual);
      (is_new ? new_shop : old_shop).Add(pred, actual);
    }
  }

  EvaluationReport report;
  report.method = method;
  report.per_month.reserve(static_cast<size_t>(horizon));
  for (const auto& acc : monthly) report.per_month.push_back(acc.Finalize());
  report.overall = overall.Finalize();
  report.new_shop = new_shop.Finalize();
  report.old_shop = old_shop.Finalize();
  return report;
}

EvaluationReport Evaluator::Evaluate(ForecastModel* model,
                                     const data::ForecastDataset& dataset,
                                     const std::vector<int32_t>& nodes) {
  GAIA_CHECK(model != nullptr);
  autograd::InferenceScope no_tape;
  Rng rng(0);
  std::vector<Var> preds =
      model->PredictNodes(dataset, nodes, /*training=*/false, &rng);
  std::vector<std::vector<double>> denorm(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Tensor& p = preds[i]->value;
    denorm[i].resize(static_cast<size_t>(p.size()));
    for (int64_t h = 0; h < p.size(); ++h) {
      denorm[i][static_cast<size_t>(h)] =
          dataset.Denormalize(nodes[i], p.data()[h]);
    }
  }
  return FromPredictions(model->name(), dataset, nodes, denorm);
}

}  // namespace gaia::core
