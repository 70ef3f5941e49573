// Scenario / chaos test layer: adversarial market regimes and the online
// drift score they move end to end.
//
// Four families live here:
//  * RegimeScriptTest    — the spec grammar and its seeded determinism;
//  * RegimeMarketTest    — statistical invariants of shocked markets
//                          (bitwise no-op when off, bitwise reproducible
//                          when on, shock magnitudes within tolerance);
//  * DriftScenarioTest   — a scripted regime onset makes the
//                          MonthlyScheduler's drift score spike while every
//                          cycle keeps serving, and a rolled-back cycle
//                          never enters the drift baseline window;
//  * QuantileBandTest    — calibrated p10/p50/p90 bands on (degraded)
//                          serving answers, identical across shard counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/evaluator.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/market_simulator.h"
#include "data/regime.h"
#include "serving/checkpoint_store.h"
#include "serving/model_server.h"
#include "serving/monthly_scheduler.h"
#include "serving/sharded_server.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace gaia {
namespace {

std::string TempPath(const std::string& stem) {
  return "/tmp/gaia_scenario_" + stem + "_" + std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// RegimeScript: spec grammar
// ---------------------------------------------------------------------------

TEST(RegimeScriptTest, SpecRoundTripsThroughParse) {
  const std::string spec =
      "seed:123;demand_shock:month=8,magnitude=-0.5;"
      "supplier_failure:month=6,fraction=0.25,magnitude=0.80000000000000004;"
      "festival_shift:delta=1;coldstart_flood:month=10,fraction=0.2";
  auto script = data::RegimeScript::Parse(spec);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script.value().seed(), 123u);
  ASSERT_EQ(script.value().events().size(), 4u);
  // ToString is the canonical form; parsing it again is a fixed point.
  const std::string canonical = script.value().ToString();
  auto reparsed = data::RegimeScript::Parse(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().ToString(), canonical);
  // Field-level spot checks survive the round trip.
  const auto& events = reparsed.value().events();
  EXPECT_EQ(events[0].kind, data::RegimeEventKind::kDemandShock);
  EXPECT_EQ(events[0].month, 8);
  EXPECT_DOUBLE_EQ(events[0].magnitude, -0.5);
  EXPECT_EQ(events[1].kind, data::RegimeEventKind::kSupplierFailure);
  EXPECT_DOUBLE_EQ(events[1].fraction, 0.25);
  EXPECT_EQ(events[2].delta, 1);
  EXPECT_EQ(events[3].month, 10);
}

TEST(RegimeScriptTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(data::RegimeScript::Parse("earthquake:month=3").ok());
  EXPECT_FALSE(data::RegimeScript::Parse("demand_shock:depth=3").ok());
  EXPECT_FALSE(data::RegimeScript::Parse("demand_shock:month=abc").ok());
  EXPECT_FALSE(
      data::RegimeScript::Parse("demand_shock:magnitude=nope").ok());
  EXPECT_FALSE(data::RegimeScript::Parse("seed:notanumber").ok());
  // Range checks: a demand wipe-out and out-of-[0,1] fractions are invalid.
  EXPECT_FALSE(
      data::RegimeScript::Parse("demand_shock:magnitude=-1.5").ok());
  EXPECT_FALSE(
      data::RegimeScript::Parse("supplier_failure:fraction=1.5").ok());
  EXPECT_FALSE(
      data::RegimeScript::Parse("supplier_failure:magnitude=2").ok());
  EXPECT_FALSE(
      data::RegimeScript::Parse("coldstart_flood:fraction=-0.1").ok());
  // The empty spec is the empty script, not an error.
  auto empty = data::RegimeScript::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(RegimeScriptTest, RandomScriptIsSeedDeterministic) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    data::RegimeScript a = data::RegimeScript::Random(seed, 15);
    data::RegimeScript b = data::RegimeScript::Random(seed, 15);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
    EXPECT_EQ(a.seed(), seed);
    EXPECT_GE(a.events().size(), 1u);
    EXPECT_LE(a.events().size(), 3u);
    // The spec replays through Parse — the chaos CI leg depends on this.
    auto reparsed = data::RegimeScript::Parse(a.ToString());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(reparsed.value().ToString(), a.ToString());
  }
  EXPECT_NE(data::RegimeScript::Random(1, 15).ToString(),
            data::RegimeScript::Random(2, 15).ToString());
}

// ---------------------------------------------------------------------------
// Regime-shocked markets: statistical invariants
// ---------------------------------------------------------------------------

class RegimeMarketTest : public ::testing::Test {
 protected:
  data::MarketConfig BaseConfig() const {
    data::MarketConfig cfg;
    cfg.num_shops = 80;
    cfg.history_months = 12;
    cfg.seed = 29;
    return cfg;
  }
  data::MarketData Generate(const data::RegimeScript& regime) const {
    auto market = data::MarketSimulator(BaseConfig(), regime).Generate();
    EXPECT_TRUE(market.ok()) << market.status().ToString();
    return std::move(market).value();
  }
  data::RegimeScript MustParse(const std::string& spec) const {
    auto script = data::RegimeScript::Parse(spec);
    EXPECT_TRUE(script.ok()) << script.status().ToString();
    return std::move(script).value();
  }
};

void ExpectShopsBitwiseEqual(const std::vector<data::Shop>& a,
                             const std::vector<data::Shop>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v].birth_month, b[v].birth_month) << "shop " << v;
    EXPECT_EQ(a[v].age_months, b[v].age_months) << "shop " << v;
    ASSERT_EQ(a[v].gmv.size(), b[v].gmv.size());
    for (size_t m = 0; m < a[v].gmv.size(); ++m) {
      // Bitwise: EXPECT_EQ on doubles, not EXPECT_NEAR.
      EXPECT_EQ(a[v].gmv[m], b[v].gmv[m]) << "shop " << v << " month " << m;
      EXPECT_EQ(a[v].orders[m], b[v].orders[m]);
      EXPECT_EQ(a[v].customers[m], b[v].customers[m]);
    }
  }
}

TEST_F(RegimeMarketTest, EmptyRegimeIsBitwiseNoOp) {
  auto plain = data::MarketSimulator(BaseConfig()).Generate();
  ASSERT_TRUE(plain.ok());
  data::MarketData shocked = Generate(data::RegimeScript());
  ExpectShopsBitwiseEqual(plain.value().shops, shocked.shops);
  EXPECT_EQ(plain.value().graph.num_edges(), shocked.graph.num_edges());
  EXPECT_EQ(plain.value().supply_links.size(), shocked.supply_links.size());
}

TEST_F(RegimeMarketTest, SeededRegimeIsBitwiseReproducible) {
  const auto script = MustParse(
      "seed:9;demand_shock:month=5,magnitude=0.4;"
      "supplier_failure:month=3,fraction=0.3,magnitude=0.7;"
      "coldstart_flood:month=8,fraction=0.2");
  data::MarketData a = Generate(script);
  data::MarketData b = Generate(script);
  ExpectShopsBitwiseEqual(a.shops, b.shops);
}

TEST_F(RegimeMarketTest, DemandShockScalesVolumeFromShockMonth) {
  const int shock_month = 6;
  const double magnitude = -0.5;
  data::MarketData base = Generate(data::RegimeScript());
  data::MarketData shocked =
      Generate(MustParse("seed:1;demand_shock:month=6,magnitude=-0.5"));
  ASSERT_EQ(base.shops.size(), shocked.shops.size());
  for (size_t v = 0; v < base.shops.size(); ++v) {
    const auto& b = base.shops[v];
    const auto& s = shocked.shops[v];
    for (size_t m = 0; m < b.gmv.size(); ++m) {
      if (static_cast<int>(m) < shock_month) {
        EXPECT_EQ(s.gmv[m], b.gmv[m]) << "pre-shock month " << m;
      } else {
        // The step is exactly multiplicative: (1 + magnitude) per month.
        EXPECT_NEAR(s.gmv[m], b.gmv[m] * (1.0 + magnitude),
                    1e-9 * (1.0 + std::abs(b.gmv[m])))
            << "shop " << v << " month " << m;
      }
    }
  }
}

TEST_F(RegimeMarketTest, SupplierFailureCascadesOneHopDownstream) {
  const int month = 4;
  data::MarketData base = Generate(data::RegimeScript());
  data::MarketData shocked = Generate(
      MustParse("seed:3;supplier_failure:month=4,fraction=0.5,magnitude=0.8"));
  size_t suppliers = 0;
  for (const auto& shop : base.shops) suppliers += shop.is_supplier ? 1 : 0;
  const auto expected_failed =
      static_cast<size_t>(std::ceil(0.5 * static_cast<double>(suppliers)));

  size_t failed = 0, cascaded = 0;
  for (size_t v = 0; v < base.shops.size(); ++v) {
    const auto& b = base.shops[v];
    const auto& s = shocked.shops[v];
    // Classify the shop by its post-month scale factor.
    double ratio = 1.0;
    for (size_t m = static_cast<size_t>(month); m < b.gmv.size(); ++m) {
      if (b.gmv[m] > 0.0) {
        ratio = s.gmv[m] / b.gmv[m];
        break;
      }
    }
    if (std::abs(ratio - 0.2) < 1e-9) {
      ++failed;
      EXPECT_TRUE(b.is_supplier) << "only suppliers take the full hit";
    } else if (std::abs(ratio - 0.6) < 1e-9) {
      ++cascaded;  // one hop downstream at half strength: 1 - 0.8/2
    } else {
      EXPECT_NEAR(ratio, 1.0, 1e-9) << "shop " << v
                                    << " saw an unexpected factor " << ratio;
    }
    // Pre-failure months are untouched for everyone.
    for (int m = 0; m < month; ++m) {
      EXPECT_EQ(s.gmv[static_cast<size_t>(m)],
                b.gmv[static_cast<size_t>(m)]);
    }
  }
  EXPECT_EQ(failed, expected_failed);
  EXPECT_GT(cascaded, 0u) << "the failure must propagate along supply links";
}

TEST_F(RegimeMarketTest, FestivalShiftMovesTheSpikeCalendarMonth) {
  data::MarketData base = Generate(data::RegimeScript());
  data::MarketData shifted = Generate(MustParse("festival_shift:delta=1"));
  EXPECT_EQ(base.config.festival_calendar_month, 10);
  EXPECT_EQ(shifted.config.festival_calendar_month, 11);
  // Same RNG stream, different spike month. For *retailers* the festival is
  // a purely additive per-month term: months whose calendar is neither the
  // old nor the new festival are bitwise identical, the old festival month
  // deflates, the new one inflates. (Suppliers aggregate downstream demand
  // over their lead window, so the shift legitimately moves their other
  // months too — they are excluded from the bitwise check.)
  double base_old = 0.0, shifted_old = 0.0;
  double base_new = 0.0, shifted_new = 0.0;
  for (size_t v = 0; v < base.shops.size(); ++v) {
    const auto& b = base.shops[v];
    const auto& s = shifted.shops[v];
    if (b.is_supplier) continue;
    for (size_t m = 0; m < b.gmv.size(); ++m) {
      const int cal = base.CalendarMonth(static_cast<int>(m));
      if (cal == 10) {
        base_old += b.gmv[m];
        shifted_old += s.gmv[m];
      } else if (cal == 11) {
        base_new += b.gmv[m];
        shifted_new += s.gmv[m];
      } else {
        EXPECT_EQ(s.gmv[m], b.gmv[m]) << "non-festival month " << m;
      }
    }
  }
  EXPECT_LT(shifted_old, base_old);
  EXPECT_GT(shifted_new, base_new);
}

TEST_F(RegimeMarketTest, ColdstartFloodRebirthsSeededShopFraction) {
  const int flood_month = 8;
  data::MarketData base = Generate(data::RegimeScript());
  data::MarketData shocked =
      Generate(MustParse("seed:4;coldstart_flood:month=8,fraction=0.25"));
  size_t flooded = 0;
  for (size_t v = 0; v < base.shops.size(); ++v) {
    const auto& b = base.shops[v];
    const auto& s = shocked.shops[v];
    if (s.birth_month == b.birth_month) {
      // Untouched shop (not picked, or already younger than the flood).
      for (size_t m = 0; m < b.gmv.size(); ++m) {
        EXPECT_EQ(s.gmv[m], b.gmv[m]);
      }
      continue;
    }
    ++flooded;
    EXPECT_LT(b.birth_month, flood_month) << "only older shops re-birth";
    EXPECT_EQ(s.birth_month, flood_month);
    EXPECT_EQ(s.age_months, base.config.history_months - flood_month);
    for (int m = 0; m < flood_month; ++m) {
      EXPECT_EQ(s.gmv[static_cast<size_t>(m)], 0.0);
      EXPECT_EQ(s.orders[static_cast<size_t>(m)], 0.0);
      EXPECT_EQ(s.customers[static_cast<size_t>(m)], 0.0);
    }
    // Post-flood history is untouched.
    for (size_t m = static_cast<size_t>(flood_month); m < b.gmv.size();
         ++m) {
      EXPECT_EQ(s.gmv[m], b.gmv[m]);
    }
  }
  EXPECT_GT(flooded, 0u);
  EXPECT_LE(flooded, static_cast<size_t>(
                         std::floor(0.25 * base.shops.size())));
  // The shocked market still makes a valid dataset (cold-start shops have
  // >= 1 observed month by construction).
  auto ds = data::ForecastDataset::Create(shocked, data::DatasetOptions{});
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
}

TEST_F(RegimeMarketTest, AppendingAnEventKeepsEarlierVictimsStable) {
  // Per-event RNG streams are split in event order, so extending a script
  // never changes which shops an earlier event hit.
  data::MarketData only_flood =
      Generate(MustParse("seed:6;coldstart_flood:month=6,fraction=0.2"));
  data::MarketData flood_then_shock = Generate(MustParse(
      "seed:6;coldstart_flood:month=6,fraction=0.2;"
      "demand_shock:month=0,magnitude=1.0"));
  ASSERT_EQ(only_flood.shops.size(), flood_then_shock.shops.size());
  for (size_t v = 0; v < only_flood.shops.size(); ++v) {
    EXPECT_EQ(only_flood.shops[v].birth_month,
              flood_then_shock.shops[v].birth_month)
        << "appending demand_shock changed flood victim set at shop " << v;
  }
}

// ---------------------------------------------------------------------------
// Online drift score under a scripted regime onset
// ---------------------------------------------------------------------------

class DriftScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Global().Reset(); }
  void TearDown() override { util::FaultInjector::Global().Reset(); }

  /// Scheduler config for the chaos scenario: small market, short
  /// retrains, checkpoint store, and a demand-collapse regime that arrives
  /// at `onset` (clean baseline cycles before it).
  serving::MonthlyScheduler::Config ChaosConfig(const std::string& dir,
                                                int onset) const {
    serving::MonthlyScheduler::Config cfg;
    cfg.market.num_shops = 120;
    cfg.market.history_months = 12;
    cfg.market.seed = 17;
    // Flatten the calendar so clean-cycle MAE is stable: with the festival
    // spike and seasonality on, the forecast window sweeping across the
    // spike dominates cycle-to-cycle MAE and would drown the regime signal.
    cfg.market.festival_boost = 0.0;
    cfg.market.seasonal_amplitude = 0.0;
    cfg.offline.model.channels = 8;
    cfg.offline.model.tel_groups = 2;
    cfg.offline.model.num_layers = 1;
    cfg.offline.train.max_epochs = 4;
    cfg.offline.train.eval_every = 4;
    cfg.server.checkpoint_retry.sleep = false;
    cfg.num_cycles = 4;
    cfg.checkpoint_dir = dir;
    auto regime = data::RegimeScript::Parse(
        "seed:5;demand_shock:month=0,magnitude=4.0");
    EXPECT_TRUE(regime.ok());
    cfg.regime = regime.value();
    cfg.regime_from_cycle = onset;
    return cfg;
  }

  std::vector<serving::MonthlyScheduler::CycleReport> Run(
      const serving::MonthlyScheduler::Config& cfg) {
    auto reports = serving::MonthlyScheduler(cfg).Run();
    EXPECT_TRUE(reports.ok()) << reports.status().ToString();
    return std::move(reports).value();
  }
};

TEST_F(DriftScenarioTest, RegimeOnsetRaisesDriftScore) {
  const std::string dir = TempPath("chaos");
  std::system(("rm -rf " + dir).c_str());
  auto reports = Run(ChaosConfig(dir, /*onset=*/2));
  ASSERT_EQ(reports.size(), 4u);

  // Clean baseline cycles: healthy, and no drift worth paging on before the
  // regime arrives.
  for (int c : {0, 1}) {
    const auto& report = reports[static_cast<size_t>(c)];
    EXPECT_TRUE(report.healthy) << "cycle " << c;
    EXPECT_LE(report.drift_score, 0.5) << "cycle " << c;
  }

  // Onset cycle: the 5x demand collapse blows the drift score far past the
  // clean cycles' trailing-window baseline.
  const auto& r2 = reports[2];
  EXPECT_GT(r2.drift_score, 0.5) << "demand shock must register as drift";
  EXPECT_TRUE(r2.healthy) << r2.error.ToString();
  for (const auto& report : reports) {
    EXPECT_TRUE(report.served) << "cycle " << report.cycle;
  }

  // The whole chaos run replays bitwise from the same config (the regime
  // seed is baked into the spec, every other draw is seeded too).
  const std::string dir2 = TempPath("chaos_replay");
  std::system(("rm -rf " + dir2).c_str());
  auto replay = Run(ChaosConfig(dir2, 2));
  ASSERT_EQ(replay.size(), reports.size());
  for (size_t c = 0; c < reports.size(); ++c) {
    EXPECT_EQ(replay[c].online.overall.mae, reports[c].online.overall.mae)
        << "cycle " << c;
    EXPECT_EQ(replay[c].drift_score, reports[c].drift_score);
  }

  std::system(("rm -rf " + dir + " " + dir2).c_str());
}

TEST_F(DriftScenarioTest, RolledBackCycleNeverEntersDriftWindow) {
  // Cycle 1's checkpoint publish corrupts (skip=1 spends cycle 0's write
  // first); the cycle serves cycle 0's weights and rolls back. Its MAE
  // reflects stale weights — the regression this pins is that it must NOT
  // poison the drift baseline of the cycles after it.
  auto& faults = util::FaultInjector::Global();
  ASSERT_TRUE(
      faults.ArmFromString("checkpoint.write:corrupt:1.0:1:1").ok());

  const std::string dir = TempPath("rollback");
  std::system(("rm -rf " + dir).c_str());
  serving::MonthlyScheduler::Config cfg;
  cfg.market.num_shops = 40;
  cfg.market.history_months = 12;
  cfg.market.seed = 17;
  cfg.offline.model.channels = 8;
  cfg.offline.model.tel_groups = 2;
  cfg.offline.model.num_layers = 1;
  cfg.offline.train.max_epochs = 2;
  cfg.offline.train.eval_every = 2;
  cfg.server.checkpoint_retry.sleep = false;
  cfg.num_cycles = 4;
  cfg.checkpoint_dir = dir;
  auto reports = serving::MonthlyScheduler(cfg).Run();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports.value().size(), 4u);
  const auto& r = reports.value();

  EXPECT_EQ(faults.fired_count("checkpoint.write"), 1);
  EXPECT_TRUE(r[0].healthy);
  EXPECT_TRUE(r[1].rolled_back) << r[1].error.ToString();
  EXPECT_FALSE(r[1].healthy);
  EXPECT_TRUE(r[1].served);
  EXPECT_TRUE(r[2].healthy);

  // Exact window sequence: the rolled-back cycle is scored (against mae0)
  // but skipped by the window, so cycle 2's baseline is still mae0 alone
  // and cycle 3's is mean(mae0, mae2) — mae1 appears nowhere.
  EXPECT_DOUBLE_EQ(r[1].drift_baseline_mae, r[0].online.overall.mae);
  EXPECT_DOUBLE_EQ(r[2].drift_baseline_mae, r[0].online.overall.mae);
  EXPECT_DOUBLE_EQ(
      r[3].drift_baseline_mae,
      (r[0].online.overall.mae + r[2].online.overall.mae) / 2.0);

  std::system(("rm -rf " + dir).c_str());
}

// ---------------------------------------------------------------------------
// Quantile bands: calibrated uncertainty on (degraded) serving answers
// ---------------------------------------------------------------------------

class QuantileBandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::Global().Reset();
    data::MarketConfig cfg;
    cfg.num_shops = 50;
    cfg.history_months = 12;
    cfg.seed = 11;
    auto market = data::MarketSimulator(cfg).Generate();
    ASSERT_TRUE(market.ok());
    auto ds = data::ForecastDataset::Create(market.value(),
                                            data::DatasetOptions{});
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_shared<data::ForecastDataset>(std::move(ds).value());

    core::GaiaConfig model_cfg;
    model_cfg.channels = 8;
    model_cfg.tel_groups = 2;
    model_cfg.num_layers = 1;
    auto model = core::GaiaModel::Create(
        model_cfg, dataset_->history_len(), dataset_->horizon(),
        dataset_->temporal_dim(), dataset_->static_dim());
    ASSERT_TRUE(model.ok());
    model_ = std::shared_ptr<core::GaiaModel>(std::move(model).value());
  }
  void TearDown() override { util::FaultInjector::Global().Reset(); }

  /// A synthetic table with one normalized half-width for every (group,
  /// month): bands become a pure function of the dataset's per-shop scale,
  /// which the assertions can pin exactly without a trained model.
  serving::QuantileBandTable FlatTable(double half_width) const {
    serving::QuantileBandTable table;
    for (auto& row : table.half_width) {
      row.assign(static_cast<size_t>(dataset_->horizon()), half_width);
    }
    return table;
  }

  std::shared_ptr<data::ForecastDataset> dataset_;
  std::shared_ptr<core::GaiaModel> model_;
};

TEST_F(QuantileBandTest, CalibratedBandsCoverHeldOutTargets) {
  // The 300-shop market with a larger val split, so every (group, month)
  // cell has dozens of calibration shops: at seed 42 val holds 56 new / 34
  // old shops and test 57 new / 33 old.
  data::MarketConfig market_cfg;
  market_cfg.num_shops = 300;
  market_cfg.seed = 42;
  auto market = data::MarketSimulator(market_cfg).Generate();
  ASSERT_TRUE(market.ok());
  data::DatasetOptions options;
  options.train_fraction = 0.4;
  options.val_fraction = 0.3;
  auto created = data::ForecastDataset::Create(market.value(), options);
  ASSERT_TRUE(created.ok());
  auto dataset =
      std::make_shared<data::ForecastDataset>(std::move(created).value());
  core::GaiaConfig model_cfg;
  model_cfg.channels = 8;
  model_cfg.tel_groups = 2;
  model_cfg.num_layers = 1;
  auto model = core::GaiaModel::Create(
      model_cfg, dataset->history_len(), dataset->horizon(),
      dataset->temporal_dim(), dataset->static_dim());
  ASSERT_TRUE(model.ok());
  std::shared_ptr<core::GaiaModel> gaia = std::move(model).value();
  core::TrainConfig tc;
  tc.max_epochs = 20;
  tc.eval_every = 20;
  tc.patience = 100;
  core::Trainer(tc).Fit(gaia.get(), *dataset);

  constexpr double kCoverage = 0.8;
  serving::ModelServer server(gaia, dataset, serving::ServerConfig{});
  auto table = server.CalibrateQuantileBands(dataset->val_nodes(), kCoverage);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().coverage, kCoverage);
  server.EnableQuantileBands(table.value());

  const auto group_of = [&](int32_t shop) {
    return static_cast<size_t>(
        serving::QuantileBandTable::Group(dataset->series_length(shop)));
  };
  const auto horizon = static_cast<size_t>(dataset->horizon());
  // covered[group][month] / shops[group] over a split's served answers.
  struct Counts {
    std::array<std::vector<int>, 2> covered;
    int shops[2] = {0, 0};
  };
  const auto count_covered = [&](const std::vector<int32_t>& nodes) {
    Counts counts;
    for (auto& row : counts.covered) row.assign(horizon, 0);
    for (int32_t shop : nodes) {
      auto answer = server.Predict(shop);
      EXPECT_EQ(answer.served_by, serving::ModelServer::ServePath::kModel);
      const size_t g = group_of(shop);
      ++counts.shops[g];
      for (size_t h = 0; h < horizon; ++h) {
        const double actual = dataset->ActualGmv(shop, static_cast<int>(h));
        counts.covered[g][h] +=
            answer.p10[h] <= actual && actual <= answer.p90[h];
      }
    }
    return counts;
  };
  const auto rank = [&](int n) {
    return static_cast<int>(std::ceil((n + 1) * kCoverage - 1e-9));
  };

  // In sample, each cell's half-width is the k-th smallest served residual,
  // so the banded answers cover exactly k of the n calibration shops (one
  // either way: the k-th sits on the band edge, and GMV-unit rounding may
  // put it on either side).
  const Counts cal = count_covered(dataset->val_nodes());
  for (size_t g = 0; g < 2; ++g) {
    for (size_t h = 0; h < horizon; ++h) {
      EXPECT_NEAR(cal.covered[g][h], rank(cal.shops[g]), 1)
          << "group " << g << " month " << h;
    }
  }

  // Held out, per group. With n exchangeable calibration shops a cell's
  // coverage given the calibration draw is Beta(k, n + 1 - k), mean
  // p = k / (n + 1) >= 0.8; over m test shops the empirical coverage has
  // variance p(1 - p) / m + (1 - 1/m) Var[Beta]. A group's coverage
  // averages its months, and the SD of an average is at most the per-month
  // SD however the months correlate (they share shops). The tolerance is 3
  // of those SDs: 0.22 for the new shops and 0.29 for the old at this seed.
  const Counts test = count_covered(dataset->test_nodes());
  for (size_t g = 0; g < 2; ++g) {
    const int n = cal.shops[g];
    const int m = test.shops[g];
    ASSERT_GE(m, 30) << "group " << g;
    const double k = rank(n);
    const double p = k / (n + 1);
    const double beta_var =
        k * (n + 1 - k) / ((n + 1.0) * (n + 1.0) * (n + 2.0));
    const double sd =
        std::sqrt(p * (1 - p) / m + (1 - 1.0 / m) * beta_var);
    int covered = 0;
    for (int c : test.covered[g]) covered += c;
    const double coverage = static_cast<double>(covered) / (m * horizon);
    EXPECT_NEAR(coverage, p, 3 * sd) << "group " << g << ": " << covered
                                      << " of " << m * horizon << " months";
  }

  // Degenerate inputs are rejected, not mis-calibrated.
  EXPECT_FALSE(server.CalibrateQuantileBands({}, kCoverage).ok());
  EXPECT_FALSE(
      server.CalibrateQuantileBands(dataset->val_nodes(), 1.5).ok());
  EXPECT_FALSE(server.CalibrateQuantileBands(
                         {0, static_cast<int32_t>(dataset->num_nodes())},
                         kCoverage)
                   .ok());
  // Three new shops cannot carry a 0.8 band: k = ceil(4 * 0.8) = 4 > 3.
  std::vector<int32_t> few_new;
  int new_shops = 0;
  for (int32_t shop : dataset->val_nodes()) {
    if (group_of(shop) != serving::QuantileBandTable::kNewShops) {
      few_new.push_back(shop);
    } else if (new_shops < 3) {
      few_new.push_back(shop);
      ++new_shops;
    }
  }
  auto too_small = server.CalibrateQuantileBands(few_new, kCoverage);
  ASSERT_FALSE(too_small.ok());
  EXPECT_NE(too_small.status().ToString().find("new-shop band for month +1"),
            std::string::npos)
      << too_small.status().ToString();
  // Fallback residuals never enter a table.
  ASSERT_TRUE(util::FaultInjector::Global()
                  .ArmFromString("serving.forward:nan:1.0")
                  .ok());
  auto degraded =
      server.CalibrateQuantileBands(dataset->val_nodes(), kCoverage);
  util::FaultInjector::Global().Reset();
  EXPECT_FALSE(degraded.ok());
}

TEST_F(QuantileBandTest, CoverageNineTenthsNeedsNineShopsPerCell) {
  // k = ceil((n + 1) * coverage) <= n holds iff n >= coverage / (1 -
  // coverage): at 0.9 a (group, month) cell calibrates from 9 shops (k = 9)
  // and is refused at 8 (k = 9 > 8), naming its group and month.
  constexpr double kCoverage = 0.9;
  serving::ModelServer server(model_, dataset_, serving::ServerConfig{});
  std::array<std::vector<int32_t>, 2> by_group;
  for (int32_t shop = 0; shop < dataset_->num_nodes(); ++shop) {
    by_group[static_cast<size_t>(serving::QuantileBandTable::Group(
                 dataset_->series_length(shop)))]
        .push_back(shop);
  }
  for (auto& group : by_group) {
    ASSERT_GE(group.size(), 9u);
    group.resize(9);
  }
  const auto calibrate = [&](size_t new_shops, size_t old_shops) {
    std::vector<int32_t> nodes(by_group[0].begin(),
                               by_group[0].begin() + new_shops);
    nodes.insert(nodes.end(), by_group[1].begin(),
                 by_group[1].begin() + old_shops);
    return server.CalibrateQuantileBands(nodes, kCoverage);
  };
  auto nine = calibrate(9, 9);
  ASSERT_TRUE(nine.ok()) << nine.status().ToString();
  EXPECT_EQ(nine.value().coverage, kCoverage);
  for (const auto& [new_shops, old_shops, message] :
       {std::tuple{size_t{8}, size_t{9}, "new-shop band for month +1"},
        std::tuple{size_t{9}, size_t{8}, "old-shop band for month +1"}}) {
    auto refused = calibrate(new_shops, old_shops);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().ToString().find(message), std::string::npos)
        << refused.status().ToString();
    EXPECT_NE(refused.status().ToString().find("needs 9"), std::string::npos)
        << refused.status().ToString();
  }
}

TEST_F(QuantileBandTest, ServerWrapsPointForecastInBands) {
  serving::ModelServer plain(model_, dataset_, serving::ServerConfig{});
  serving::ModelServer banded(model_, dataset_, serving::ServerConfig{});
  banded.EnableQuantileBands(FlatTable(/*half_width=*/0.2));

  for (int32_t shop : {0, 7, 23}) {
    auto without = plain.Predict(shop);
    auto with = banded.Predict(shop);
    // Bands never perturb the point forecast.
    ASSERT_EQ(with.gmv.size(), without.gmv.size());
    for (size_t h = 0; h < with.gmv.size(); ++h) {
      EXPECT_EQ(with.gmv[h], without.gmv[h]);
    }
    EXPECT_TRUE(without.p50.empty());
    ASSERT_EQ(with.p50.size(), with.gmv.size());
    ASSERT_EQ(with.p10.size(), with.gmv.size());
    ASSERT_EQ(with.p90.size(), with.gmv.size());
    const double width = dataset_->Denormalize(shop, 0.2);
    for (size_t h = 0; h < with.gmv.size(); ++h) {
      EXPECT_EQ(with.p50[h], with.gmv[h]);
      EXPECT_LE(with.p10[h], with.p50[h]);
      EXPECT_GE(with.p90[h], with.p50[h]);
      // Exact width: the half-width, denormalized; p10 floors at zero.
      EXPECT_DOUBLE_EQ(with.p90[h], with.gmv[h] + width);
      EXPECT_DOUBLE_EQ(with.p10[h], std::max(with.gmv[h] - width, 0.0));
    }
  }
}

TEST_F(QuantileBandTest, DegradedAnswersCarryInflatedBands) {
  auto& faults = util::FaultInjector::Global();
  serving::ModelServer healthy(model_, dataset_, serving::ServerConfig{});
  healthy.EnableQuantileBands(FlatTable(0.2));
  auto model_answer = healthy.Predict(5);
  ASSERT_EQ(model_answer.served_by,
            serving::ModelServer::ServePath::kModel);

  ASSERT_TRUE(faults.ArmFromString("serving.forward:nan:1.0").ok());
  serving::ModelServer degraded(model_, dataset_, serving::ServerConfig{});
  degraded.EnableQuantileBands(FlatTable(0.2));
  auto fallback_answer = degraded.Predict(5);
  ASSERT_EQ(fallback_answer.served_by,
            serving::ModelServer::ServePath::kFallback);
  faults.Reset();

  // A fallback answer is honest about being a fallback: same table,
  // width inflated by exactly degraded_inflation (1.5 by default).
  ASSERT_EQ(fallback_answer.p90.size(), model_answer.p90.size());
  for (size_t h = 0; h < model_answer.p90.size(); ++h) {
    const double model_width = model_answer.p90[h] - model_answer.p50[h];
    const double fallback_width =
        fallback_answer.p90[h] - fallback_answer.p50[h];
    // The widths are computed as (p50 + width) - p50 around different p50s,
    // so compare with a tight relative tolerance rather than bitwise.
    EXPECT_NEAR(fallback_width, 1.5 * model_width, 1e-9 * model_width);
  }
}

TEST_F(QuantileBandTest, ShardedBandsMatchUnshardedBitwise) {
  serving::QuantileBandTable table = FlatTable(0.255);
  serving::ModelServer reference(model_, dataset_, serving::ServerConfig{});
  reference.EnableQuantileBands(table);

  serving::ShardedServerConfig sharded_cfg;
  sharded_cfg.num_shards = 2;
  serving::ShardedServer sharded(model_, dataset_, sharded_cfg);
  sharded.EnableQuantileBands(table);

  std::vector<int32_t> shops;
  for (int32_t v = 0; v < 20; ++v) shops.push_back(v);
  auto expected = reference.PredictBatch(shops);
  auto actual = sharded.PredictBatch(shops);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < shops.size(); ++i) {
    ASSERT_EQ(actual[i].p10.size(), expected[i].p10.size()) << "shop " << i;
    for (size_t h = 0; h < expected[i].p10.size(); ++h) {
      EXPECT_EQ(actual[i].p10[h], expected[i].p10[h]);
      EXPECT_EQ(actual[i].p50[h], expected[i].p50[h]);
      EXPECT_EQ(actual[i].p90[h], expected[i].p90[h]);
    }
  }
}

}  // namespace
}  // namespace gaia
