// Cross-module integration tests: simulator -> dataset -> model -> trainer
// -> evaluator -> serving, plus the ego-subgraph exactness property.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "baselines/zoo.h"
#include "core/evaluator.h"
#include "core/gaia_model.h"
#include "core/trainer.h"
#include "data/market_io.h"
#include "data/market_simulator.h"
#include "graph/eseller_graph.h"
#include "serving/model_server.h"

namespace gaia {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::MarketConfig cfg;
    cfg.num_shops = 70;
    cfg.history_months = 14;
    cfg.seed = 13;
    auto market = data::MarketSimulator(cfg).Generate();
    ASSERT_TRUE(market.ok());
    market_ = std::make_unique<data::MarketData>(std::move(market).value());
    auto ds = data::ForecastDataset::Create(*market_, data::DatasetOptions{});
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_shared<data::ForecastDataset>(std::move(ds).value());
  }

  std::shared_ptr<core::GaiaModel> MakeGaia(int64_t layers = 2) const {
    core::GaiaConfig cfg;
    cfg.channels = 8;
    cfg.tel_groups = 2;
    cfg.num_layers = layers;
    auto model = core::GaiaModel::Create(
        cfg, dataset_->history_len(), dataset_->horizon(),
        dataset_->temporal_dim(), dataset_->static_dim());
    EXPECT_TRUE(model.ok());
    return std::shared_ptr<core::GaiaModel>(std::move(model).value());
  }

  std::unique_ptr<data::MarketData> market_;
  std::shared_ptr<data::ForecastDataset> dataset_;
};

TEST_F(IntegrationTest, EgoForwardIsExactWithFullFanoutAndEnoughHops) {
  // Message passing reaches exactly L hops, so the serving path's unsampled
  // L-hop ego subgraph must reproduce the full-graph prediction bit for bit,
  // for every shop.
  auto model = MakeGaia(/*layers=*/2);
  Rng rng(1);
  std::vector<int32_t> nodes(static_cast<size_t>(dataset_->num_nodes()));
  std::iota(nodes.begin(), nodes.end(), 0);
  auto full = model->PredictNodes(*dataset_, nodes, false, &rng);
  ASSERT_EQ(full.size(), nodes.size());
  for (int32_t v : nodes) {
    const graph::EgoSubgraph ego = graph::ExtractEgoSubgraph(
        dataset_->graph(), v, /*num_hops=*/2, /*max_fanout=*/0, &rng);
    auto pred = model->PredictEgo(*dataset_, ego);
    ASSERT_TRUE(pred.ok()) << pred.status().ToString();
    const Tensor& expected = full[static_cast<size_t>(v)]->value;
    ASSERT_EQ(pred.value().shape(), expected.shape()) << "node " << v;
    EXPECT_EQ(std::memcmp(pred.value().data(), expected.data(),
                          sizeof(float) *
                              static_cast<size_t>(expected.size())),
              0)
        << "node " << v;
  }
}

TEST_F(IntegrationTest, UndersizedEgoDeviatesFromFullGraph) {
  // With 1 hop for a 2-layer model the receptive field is truncated; for at
  // least one well-connected node the prediction must differ.
  auto model = MakeGaia(/*layers=*/2);
  Rng rng(2);
  bool any_different = false;
  for (int32_t v = 0; v < 30; ++v) {
    if (dataset_->graph().InDegree(v) == 0) continue;
    auto full = model->PredictNodes(*dataset_, {v}, false, &rng);
    const graph::EgoSubgraph ego = graph::ExtractEgoSubgraph(
        dataset_->graph(), v, /*num_hops=*/1, /*max_fanout=*/0, &rng);
    auto pred = model->PredictEgo(*dataset_, ego);
    ASSERT_TRUE(pred.ok()) << pred.status().ToString();
    if (!AllClose(full[0]->value, pred.value(), 1e-6f)) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST_F(IntegrationTest, FullPipelineDeterminism) {
  // Two independent end-to-end runs produce identical metrics.
  auto run_once = [&] {
    auto model = MakeGaia(1);
    core::TrainConfig tc;
    tc.max_epochs = 6;
    tc.eval_every = 3;
    core::Trainer(tc).Fit(model.get(), *dataset_);
    return core::Evaluator::Evaluate(model.get(), *dataset_,
                                     dataset_->test_nodes());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_DOUBLE_EQ(a.overall.mae, b.overall.mae);
  EXPECT_DOUBLE_EQ(a.overall.rmse, b.overall.rmse);
  EXPECT_DOUBLE_EQ(a.overall.mape, b.overall.mape);
}

TEST_F(IntegrationTest, CsvRoundTripPreservesModelPredictions) {
  // Market -> CSV -> market -> dataset must leave predictions unchanged.
  const std::string dir = "/tmp/gaia_integration_market";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  ASSERT_TRUE(data::SaveMarketCsv(*market_, dir).ok());
  auto loaded = data::LoadMarketCsv(dir);
  ASSERT_TRUE(loaded.ok());
  auto ds2 = data::ForecastDataset::Create(loaded.value(),
                                           data::DatasetOptions{});
  ASSERT_TRUE(ds2.ok());
  auto model = MakeGaia(1);
  Rng rng(3);
  auto before = model->PredictNodes(*dataset_, {1, 2}, false, &rng);
  auto after = model->PredictNodes(ds2.value(), {1, 2}, false, &rng);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(AllClose(before[i]->value, after[i]->value, 1e-5f));
  }
}

TEST_F(IntegrationTest, TrainedModelSurvivesCheckpointAndServing) {
  auto model = MakeGaia(2);
  core::TrainConfig tc;
  tc.max_epochs = 6;
  tc.eval_every = 3;
  core::Trainer(tc).Fit(model.get(), *dataset_);
  const std::string path = "/tmp/gaia_integration_ckpt.bin";
  ASSERT_TRUE(model->Save(path).ok());

  auto fresh = MakeGaia(2);
  ASSERT_TRUE(fresh->Load(path).ok());
  serving::ServerConfig server_cfg;
  server_cfg.max_fanout = 1000;  // deterministic full neighbourhoods
  server_cfg.ego_hops = 2;
  serving::ModelServer server(fresh, dataset_, server_cfg);
  Rng rng(4);
  const int32_t shop = dataset_->test_nodes().front();
  auto served = server.Predict(shop);
  auto direct = model->PredictNodes(*dataset_, {shop}, false, &rng);
  for (int h = 0; h < dataset_->horizon(); ++h) {
    EXPECT_NEAR(served.gmv[static_cast<size_t>(h)],
                dataset_->Denormalize(shop, direct[0]->value.at(h)),
                1e-2);
  }
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, ExtraBaselinesIntegrateWithTrainer) {
  for (const std::string& name : baselines::ExtraModelNames()) {
    auto model = baselines::CreateModel(name, *dataset_, 6, 3);
    ASSERT_TRUE(model.ok()) << name;
    core::TrainConfig tc;
    tc.max_epochs = 6;
    tc.eval_every = 3;
    core::TrainResult result =
        core::Trainer(tc).Fit(model.value().get(), *dataset_);
    EXPECT_LT(result.final_train_loss, result.train_loss_history.front())
        << name;
    auto report = core::Evaluator::Evaluate(model.value().get(), *dataset_,
                                            dataset_->test_nodes());
    EXPECT_GT(report.overall.count, 0);
  }
}

}  // namespace
}  // namespace gaia
