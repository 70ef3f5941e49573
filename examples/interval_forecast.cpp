// Interval forecasts: p10/p50/p90 bands around the served Gaia forecast,
// calibrated split-conformally on the server's own answers for the
// validation shops — one half-width per (shop-age group, forecast month),
// so the new shops of Fig. 3 keep their own coverage. Useful for the
// inventory / marketing-resource decisions that motivate GMV forecasting.
//
//   $ ./build/examples/interval_forecast

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/gaia_model.h"
#include "core/trainer.h"
#include "data/market_simulator.h"
#include "serving/model_server.h"
#include "util/check.h"
#include "util/table_printer.h"

int main() {
  using namespace gaia;

  data::MarketConfig cfg;
  cfg.num_shops = 300;
  cfg.seed = 42;
  auto market = data::MarketSimulator(cfg).Generate();
  GAIA_CHECK(market.ok());
  auto created =
      data::ForecastDataset::Create(market.value(), data::DatasetOptions{});
  GAIA_CHECK(created.ok());
  auto dataset =
      std::make_shared<data::ForecastDataset>(std::move(created).value());
  const data::ForecastDataset& ds = *dataset;

  core::GaiaConfig model_cfg;
  model_cfg.channels = 16;
  auto model = core::GaiaModel::Create(model_cfg, ds.history_len(),
                                       ds.horizon(), ds.temporal_dim(),
                                       ds.static_dim());
  GAIA_CHECK(model.ok());
  std::shared_ptr<core::GaiaModel> gaia = std::move(model).value();
  core::TrainConfig train_cfg;
  train_cfg.max_epochs = 60;
  core::Trainer(train_cfg).Fit(gaia.get(), ds);

  // Calibrate on the validation shops, through the same Serve path that
  // answers requests.
  constexpr double kCoverage = 0.8;
  serving::ModelServer server(gaia, dataset, serving::ServerConfig{});
  auto bands = server.CalibrateQuantileBands(ds.val_nodes(), kCoverage);
  GAIA_CHECK(bands.ok()) << bands.status().ToString();
  server.EnableQuantileBands(bands.value());

  // Held-out coverage of the served p10–p90 band on the test shops.
  int covered[2] = {0, 0};
  int total[2] = {0, 0};
  std::vector<serving::ModelServer::Prediction> answers;
  for (int32_t shop : ds.test_nodes()) {
    answers.push_back(server.Predict(shop));
    const auto& answer = answers.back();
    const int group =
        serving::QuantileBandTable::Group(ds.series_length(shop));
    for (int h = 0; h < ds.horizon(); ++h) {
      const double actual = ds.ActualGmv(shop, h);
      covered[group] += answer.p10[static_cast<size_t>(h)] <= actual &&
                        actual <= answer.p90[static_cast<size_t>(h)];
      ++total[group];
    }
  }
  std::cout << "p10-p90 coverage on the test months (target "
            << TablePrinter::FormatDouble(100.0 * kCoverage, 0) << "%):\n";
  const char* names[2] = {"new shops (T < 10)", "old shops"};
  for (int g = 0; g < 2; ++g) {
    std::cout << "  " << names[g] << ": "
              << TablePrinter::FormatDouble(
                     100.0 * covered[g] / std::max(total[g], 1), 1)
              << "% of " << total[g] << " months\n";
  }
  std::cout << "  all shops: "
            << TablePrinter::FormatDouble(100.0 * (covered[0] + covered[1]) /
                                              (total[0] + total[1]),
                                          1)
            << "% of " << total[0] + total[1] << " months\n\n";

  // Show the bands for a few shops.
  TablePrinter table({"Shop", "Series len", "Month", "Actual GMV", "p10",
                      "p50", "p90"});
  for (size_t i = 0; i < 3 && i < answers.size(); ++i) {
    const auto& answer = answers[i];
    for (int h = 0; h < ds.horizon(); ++h) {
      const auto m = static_cast<size_t>(h);
      table.AddRow({std::to_string(answer.shop),
                    std::to_string(ds.series_length(answer.shop)),
                    "+" + std::to_string(h + 1),
                    TablePrinter::FormatCount(ds.ActualGmv(answer.shop, h)),
                    TablePrinter::FormatCount(answer.p10[m]),
                    TablePrinter::FormatCount(answer.p50[m]),
                    TablePrinter::FormatCount(answer.p90[m])});
    }
    if (i + 1 < 3) table.AddSeparator();
  }
  table.Print(std::cout);
  return 0;
}
