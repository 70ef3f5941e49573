// Tests for the extension features beyond the paper's core: GRU cell,
// Holt-Winters smoothing and weakly connected components.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "autograd/grad_check.h"
#include "graph/eseller_graph.h"
#include "nn/layers.h"
#include "ts/holt_winters.h"

namespace gaia {
namespace {

namespace ag = autograd;
using ag::Var;

// ---------------------------------------------------------------------------
// GruCell
// ---------------------------------------------------------------------------

TEST(GruCellTest, StateShapeAndBoundedActivations) {
  Rng rng(1);
  nn::GruCell cell(3, 5, &rng);
  Var h = cell.InitialState();
  EXPECT_EQ(h->value.dim(0), 5);
  Var x = ag::Constant(Tensor::Randn({3}, &rng));
  for (int step = 0; step < 6; ++step) h = cell.Forward(x, h);
  // GRU state is a convex combination of tanh candidates: bounded by 1.
  EXPECT_LE(h->value.Max(), 1.0f);
  EXPECT_GE(h->value.Min(), -1.0f);
  EXPECT_TRUE(h->value.AllFinite());
}

TEST(GruCellTest, ZeroUpdateGateKeepsState) {
  // With z ~ 1 (large positive z-gate bias), h' ~ h. Instead of forcing
  // internals, verify the recurrence is state-dependent: different states
  // give different next states.
  Rng rng(2);
  nn::GruCell cell(2, 4, &rng);
  Var x = ag::Constant(Tensor::Randn({2}, &rng));
  Var h1 = ag::Constant(Tensor::Full({4}, 0.5f));
  Var h2 = ag::Constant(Tensor::Full({4}, -0.5f));
  EXPECT_FALSE(AllClose(cell.Forward(x, h1)->value,
                        cell.Forward(x, h2)->value, 1e-6f));
}

TEST(GruCellTest, GradCheckThroughTwoSteps) {
  Rng rng(3);
  auto cell = std::make_shared<nn::GruCell>(2, 3, &rng);
  auto build = [&](const std::vector<Var>&) {
    Var x = ag::Constant(Tensor::Full({2}, 0.4f));
    Var h = cell->InitialState();
    h = cell->Forward(x, h);
    h = cell->Forward(x, h);
    return ag::SumAll(h);
  };
  auto result = ag::CheckGradients(build, cell->Parameters());
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---------------------------------------------------------------------------
// Holt-Winters
// ---------------------------------------------------------------------------

TEST(HoltWintersTest, ConfigValidation) {
  ts::HoltWintersConfig cfg;
  cfg.alpha = 0.0;
  EXPECT_FALSE(ts::HoltWinters::Fit({1, 2, 3}, cfg).ok());
  cfg = ts::HoltWintersConfig{};
  cfg.beta = 1.0;
  EXPECT_FALSE(ts::HoltWinters::Fit({1, 2, 3}, cfg).ok());
  cfg = ts::HoltWintersConfig{};
  cfg.season_length = -1;
  EXPECT_FALSE(ts::HoltWinters::Fit({1, 2, 3}, cfg).ok());
  EXPECT_FALSE(ts::HoltWinters::Fit({}, ts::HoltWintersConfig{}).ok());
}

TEST(HoltWintersTest, ExtrapolatesLinearTrend) {
  std::vector<double> series;
  for (int t = 0; t < 30; ++t) series.push_back(10.0 + 2.0 * t);
  ts::HoltWintersConfig cfg;
  cfg.season_length = 0;  // Holt's linear method
  cfg.alpha = 0.8;
  cfg.beta = 0.5;
  auto fit = ts::HoltWinters::Fit(series, cfg);
  ASSERT_TRUE(fit.ok());
  auto forecast = fit.value().Forecast(3);
  for (int h = 0; h < 3; ++h) {
    EXPECT_NEAR(forecast[static_cast<size_t>(h)], 10.0 + 2.0 * (30 + h), 1.0);
  }
}

TEST(HoltWintersTest, RecoversSeasonalPattern) {
  // Period-4 additive seasonality on a flat level.
  std::vector<double> series;
  const double pattern[4] = {10.0, -5.0, 3.0, -8.0};
  for (int t = 0; t < 40; ++t) series.push_back(100.0 + pattern[t % 4]);
  ts::HoltWintersConfig cfg;
  cfg.season_length = 4;
  auto fit = ts::HoltWinters::Fit(series, cfg);
  ASSERT_TRUE(fit.ok());
  auto forecast = fit.value().Forecast(4);
  for (int h = 0; h < 4; ++h) {
    EXPECT_NEAR(forecast[static_cast<size_t>(h)],
                100.0 + pattern[(40 + h) % 4], 1.5)
        << "h=" << h;
  }
}

TEST(HoltWintersTest, ShortSeriesFallsBackToTrendOnly) {
  std::vector<double> series = {5, 6, 7, 8, 9};  // < 2 seasons of 12
  auto fit = ts::HoltWinters::Fit(series, ts::HoltWintersConfig{});
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit.value().seasonal().empty());
  EXPECT_GT(fit.value().Forecast(2)[0], 8.0);
}

TEST(HoltWintersTest, ForecastsAreNonNegative) {
  std::vector<double> series = {5, 4, 3, 2, 1};  // strong downtrend
  ts::HoltWintersConfig cfg;
  cfg.season_length = 0;
  cfg.beta = 0.8;
  auto fit = ts::HoltWinters::Fit(series, cfg);
  ASSERT_TRUE(fit.ok());
  for (double v : fit.value().Forecast(10)) EXPECT_GE(v, 0.0);
}

TEST(HoltWintersTest, AutoGridPicksLowInSampleError) {
  Rng rng(4);
  std::vector<double> series;
  for (int t = 0; t < 48; ++t) {
    series.push_back(50.0 + 10.0 * std::sin(2.0 * M_PI * t / 12.0) +
                     rng.Normal(0.0, 0.5));
  }
  auto best = ts::AutoHoltWinters(series, 12);
  ASSERT_TRUE(best.ok());
  // Any fixed config must not beat the grid winner.
  ts::HoltWintersConfig fixed;
  auto fixed_fit = ts::HoltWinters::Fit(series, fixed);
  ASSERT_TRUE(fixed_fit.ok());
  EXPECT_LE(best.value().in_sample_mse(),
            fixed_fit.value().in_sample_mse() + 1e-9);
}

// ---------------------------------------------------------------------------
// Weakly connected components
// ---------------------------------------------------------------------------

TEST(ConnectedComponentsTest, CountsAndLabels) {
  // Two components: {0,1,2} chained, {3,4} paired; 5 isolated.
  graph::GraphBuilder builder(6);
  builder.AddSameOwner(0, 1).AddSupplyChain(1, 2).AddSameOwner(3, 4);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().NumWeaklyConnectedComponents(), 3);
  auto component = g.value().WeaklyConnectedComponents();
  EXPECT_EQ(component[0], component[1]);
  EXPECT_EQ(component[1], component[2]);
  EXPECT_EQ(component[3], component[4]);
  EXPECT_NE(component[0], component[3]);
  EXPECT_NE(component[0], component[5]);
  EXPECT_NE(component[3], component[5]);
}

TEST(ConnectedComponentsTest, EmptyAndFullyConnected) {
  auto empty = graph::EsellerGraph::Create(0, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().NumWeaklyConnectedComponents(), 0);
  graph::GraphBuilder builder(4);
  for (int32_t a = 0; a < 4; ++a) {
    for (int32_t b = a + 1; b < 4; ++b) builder.AddSameOwner(a, b);
  }
  auto full = builder.Build();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().NumWeaklyConnectedComponents(), 1);
}

}  // namespace
}  // namespace gaia
