#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "autograd/grad_check.h"
#include "core/cau.h"
#include "core/ffl.h"
#include "core/ita_gcn.h"
#include "core/tel.h"

namespace gaia::core {
namespace {

namespace ag = autograd;
using ag::Var;

constexpr int64_t kT = 8;
constexpr int64_t kC = 4;
constexpr int64_t kDt = 3;
constexpr int64_t kDs = 5;

// ---------------------------------------------------------------------------
// FFL
// ---------------------------------------------------------------------------

class FflTest : public ::testing::Test {
 protected:
  FflTest() : rng_(1), ffl_(kT, kDt, kDs, kC, &rng_) {}

  Var RandomInput(int64_t rows, int64_t cols) {
    return ag::Constant(Tensor::Randn({rows, cols}, &rng_));
  }

  Rng rng_;
  FeatureFusionLayer ffl_;
};

TEST_F(FflTest, OutputShape) {
  Var z = ag::Constant(Tensor::Randn({kT}, &rng_));
  Var out = ffl_.Forward(z, RandomInput(kT, kDt),
                         ag::Constant(Tensor::Randn({kDs}, &rng_)));
  EXPECT_EQ(out->value.dim(0), kT);
  EXPECT_EQ(out->value.dim(1), kC);
  EXPECT_TRUE(out->value.AllFinite());
}

TEST_F(FflTest, ParameterInventoryMatchesPaper) {
  // w^I, b^I, W^T, {b^T_t}, W^S, b^S, W^F, {b^F_t} -> 8 parameters.
  EXPECT_EQ(ffl_.Parameters().size(), 8u);
  const int64_t expected = kC + kC                 // w^I, b^I
                           + kDt * kC + kT * kC    // W^T, per-t bias
                           + kDs * kC + kC         // W^S, b^S
                           + 3 * kC * kC + kT * kC;  // W^F, per-t bias
  EXPECT_EQ(ffl_.ParameterCount(), expected);
}

TEST_F(FflTest, PerTimestepBiasGivesPositionSensitivity) {
  // Constant inputs at every timestep: without per-timestep biases all rows
  // would be identical; the b_t parameters break that symmetry after a
  // perturbation.
  Var z = ag::Constant(Tensor::Ones({kT}));
  Var f_t = ag::Constant(Tensor::Ones({kT, kDt}));
  Var f_s = ag::Constant(Tensor::Ones({kDs}));
  Var out0 = ffl_.Forward(z, f_t, f_s);
  for (int64_t j = 0; j < kC; ++j) {
    EXPECT_FLOAT_EQ(out0->value.at(0, j), out0->value.at(kT - 1, j));
  }
  // Perturb one timestep of the fusion bias.
  ffl_.Parameters()[7]->value.at(2, 0) += 1.0f;  // b^F_t at t=2
  Var out1 = ffl_.Forward(z, f_t, f_s);
  EXPECT_NE(out1->value.at(2, 0), out1->value.at(0, 0));
}

TEST_F(FflTest, GradientsFlowToAllParameters) {
  Rng data_rng(2);
  Tensor z = Tensor::Randn({kT}, &data_rng);
  Tensor ft = Tensor::Randn({kT, kDt}, &data_rng);
  Tensor fs = Tensor::Randn({kDs}, &data_rng);
  auto build = [&](const std::vector<Var>&) {
    return ag::SumAll(ffl_.Forward(ag::Constant(z), ag::Constant(ft),
                                   ag::Constant(fs)));
  };
  auto result = ag::CheckGradients(build, ffl_.Parameters());
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---------------------------------------------------------------------------
// TEL
// ---------------------------------------------------------------------------

TEST(TelTest, OutputShapePreserved) {
  Rng rng(3);
  TemporalEmbeddingLayer tel(kC, 2, &rng);
  Var s = ag::Constant(Tensor::Randn({kT, kC}, &rng));
  Var e = tel.Forward(s);
  EXPECT_EQ(e->value.dim(0), kT);
  EXPECT_EQ(e->value.dim(1), kC);
}

TEST(TelTest, OutputIsNonNegative) {
  // E = ReLU(S^C) ⊙ Sigmoid(S^D) >= 0 elementwise.
  Rng rng(4);
  TemporalEmbeddingLayer tel(kC, 2, &rng);
  Var s = ag::Constant(Tensor::Randn({kT, kC}, &rng, 2.0f));
  EXPECT_GE(tel.Forward(s)->value.Min(), 0.0f);
}

TEST(TelTest, KernelGroupStructure) {
  Rng rng(5);
  TemporalEmbeddingLayer grouped(12, 3, &rng);         // widths 2, 4, 8
  EXPECT_EQ(grouped.num_groups(), 3);
  // 3 capture + 3 denoise convs, each with weight+bias.
  EXPECT_EQ(grouped.Parameters().size(), 12u);
  TemporalEmbeddingLayer single(12, 3, &rng, /*single_kernel=*/true);
  EXPECT_EQ(single.num_groups(), 1);
  EXPECT_EQ(single.Parameters().size(), 4u);
}

TEST(TelTest, RejectsIndivisibleChannelsViaCheck) {
  Rng rng(6);
  EXPECT_DEATH(TemporalEmbeddingLayer(7, 2, &rng), "GAIA_CHECK failed");
}

TEST(TelTest, GradCheck) {
  Rng rng(7);
  auto tel = std::make_shared<TemporalEmbeddingLayer>(4, 2, &rng);
  Tensor s = Tensor::Randn({6, 4}, &rng);
  auto build = [&](const std::vector<Var>&) {
    Var e = tel->Forward(ag::Constant(s));
    return ag::SumAll(ag::Mul(e, e));
  };
  auto result = ag::CheckGradients(build, tel->Parameters());
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---------------------------------------------------------------------------
// CAU
// ---------------------------------------------------------------------------

class CauTest : public ::testing::Test {
 protected:
  CauTest() : rng_(8), cau_(kC, &rng_) {}
  Rng rng_;
  ConvAttentionUnit cau_;
};

TEST_F(CauTest, OutputShape) {
  Var h_u = ag::Constant(Tensor::Randn({kT, kC}, &rng_));
  Var h_v = ag::Constant(Tensor::Randn({kT, kC}, &rng_));
  Var out = cau_.Forward(h_u, h_v);
  EXPECT_EQ(out->value.dim(0), kT);
  EXPECT_EQ(out->value.dim(1), kC);
}

TEST_F(CauTest, AttentionIsCausalRowStochastic) {
  Var h_u = ag::Constant(Tensor::Randn({kT, kC}, &rng_));
  Var h_v = ag::Constant(Tensor::Randn({kT, kC}, &rng_));
  Tensor attention;
  cau_.Forward(h_u, h_v, &attention);
  ASSERT_EQ(attention.dim(0), kT);
  for (int64_t i = 0; i < kT; ++i) {
    double row_sum = 0.0;
    for (int64_t j = 0; j < kT; ++j) {
      if (j > i) {
        EXPECT_EQ(attention.at(i, j), 0.0f);
      }
      row_sum += attention.at(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-5);
  }
}

TEST_F(CauTest, NoFutureLeakageEndToEnd) {
  // The causality invariant from DESIGN.md: perturbing H_v at future
  // timestamps must not change CAU outputs at earlier timestamps.
  Tensor h_u = Tensor::Randn({kT, kC}, &rng_);
  Tensor h_v = Tensor::Randn({kT, kC}, &rng_);
  Var base = cau_.Forward(ag::Constant(h_u), ag::Constant(h_v));
  Tensor h_v_pert = h_v;
  for (int64_t c = 0; c < kC; ++c) h_v_pert.at(kT - 1, c) += 5.0f;
  Var pert = cau_.Forward(ag::Constant(h_u), ag::Constant(h_v_pert));
  // V projection is width-1 causal and Q/K are causal convs, so rows
  // 0..T-2 are bit-identical.
  for (int64_t t = 0; t + 1 < kT; ++t) {
    for (int64_t c = 0; c < kC; ++c) {
      EXPECT_FLOAT_EQ(base->value.at(t, c), pert->value.at(t, c));
    }
  }
}

TEST_F(CauTest, NonFiniteFutureKeyNeverReachesEarlierRows) {
  // Under the causal mask row i attends keys 0..i only, so a NaN key at
  // timestamp j cannot reach rows < j: they stay finite and bitwise equal
  // to the clean run. (A mask that adds -1e9 to a NaN logit keeps it NaN,
  // and one NaN logit turns its whole softmax row into NaN.)
  constexpr int64_t kPoisoned = 5;
  Tensor q = Tensor::Randn({kT, kC}, &rng_);
  Tensor k = Tensor::Randn({kT, kC}, &rng_);
  Tensor v = Tensor::Randn({kT, kC}, &rng_);
  Var clean = cau_.Attend(ag::Constant(q), ag::Constant(k), ag::Constant(v));
  for (int64_t c = 0; c < kC; ++c) k.at(kPoisoned, c) = std::nanf("");
  Var poisoned =
      cau_.Attend(ag::Constant(q), ag::Constant(k), ag::Constant(v));
  for (int64_t t = 0; t < kPoisoned; ++t) {
    for (int64_t c = 0; c < kC; ++c) {
      const float got = poisoned->value.at(t, c);
      const float want = clean->value.at(t, c);
      EXPECT_TRUE(std::isfinite(got)) << "row " << t << " channel " << c;
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "row " << t << " channel " << c << ": " << got << " vs " << want;
    }
  }
}

TEST_F(CauTest, SelfAttentionSharesProjections) {
  // Forward(h, h) must equal Attend over a single Project(h).
  Var h = ag::Constant(Tensor::Randn({kT, kC}, &rng_));
  auto proj = cau_.Project(h);
  Var direct = cau_.Attend(proj.q, proj.k, proj.v);
  Var composed = cau_.Forward(h, h);
  EXPECT_TRUE(AllClose(direct->value, composed->value, 1e-6f));
}

TEST_F(CauTest, DenseUnmaskedVariantAttendsToFuture) {
  Rng rng(9);
  ConvAttentionUnit ablated(kC, &rng, /*dense_projections=*/true,
                            /*causal=*/false);
  Var h_u = ag::Constant(Tensor::Randn({kT, kC}, &rng));
  Var h_v = ag::Constant(Tensor::Randn({kT, kC}, &rng));
  Tensor attention;
  ablated.Forward(h_u, h_v, &attention);
  double future_mass = 0.0;
  for (int64_t i = 0; i < kT; ++i) {
    for (int64_t j = i + 1; j < kT; ++j) future_mass += attention.at(i, j);
  }
  EXPECT_GT(future_mass, 0.0);
}

TEST_F(CauTest, MultiHeadOutputShapeAndCausality) {
  Rng rng(21);
  ConvAttentionUnit multi(kC, &rng, false, true, /*num_heads=*/2);
  EXPECT_EQ(multi.num_heads(), 2);
  Var h_u = ag::Constant(Tensor::Randn({kT, kC}, &rng));
  Var h_v = ag::Constant(Tensor::Randn({kT, kC}, &rng));
  Tensor attention;
  Var out = multi.Forward(h_u, h_v, &attention);
  EXPECT_EQ(out->value.dim(0), kT);
  EXPECT_EQ(out->value.dim(1), kC);
  // Head-averaged attention is still causal and row-stochastic.
  for (int64_t i = 0; i < kT; ++i) {
    double row_sum = 0.0;
    for (int64_t j = 0; j < kT; ++j) {
      if (j > i) {
        EXPECT_EQ(attention.at(i, j), 0.0f);
      }
      row_sum += attention.at(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-5);
  }
}

TEST_F(CauTest, MultiHeadRejectsIndivisibleChannels) {
  Rng rng(22);
  EXPECT_DEATH(ConvAttentionUnit(kC, &rng, false, true, /*num_heads=*/3),
               "GAIA_CHECK failed");
}

TEST_F(CauTest, MultiHeadGradCheck) {
  Rng rng(23);
  auto cau = std::make_shared<ConvAttentionUnit>(4, &rng, false, true, 2);
  Tensor h_u = Tensor::Randn({5, 4}, &rng);
  Tensor h_v = Tensor::Randn({5, 4}, &rng);
  auto build = [&](const std::vector<Var>&) {
    Var out = cau->Forward(ag::Constant(h_u), ag::Constant(h_v));
    return ag::SumAll(ag::Mul(out, out));
  };
  auto result = ag::CheckGradients(build, cau->Parameters());
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_F(CauTest, GradCheck) {
  Rng rng(10);
  auto cau = std::make_shared<ConvAttentionUnit>(3, &rng);
  Tensor h_u = Tensor::Randn({5, 3}, &rng);
  Tensor h_v = Tensor::Randn({5, 3}, &rng);
  auto build = [&](const std::vector<Var>&) {
    Var out = cau->Forward(ag::Constant(h_u), ag::Constant(h_v));
    return ag::SumAll(ag::Mul(out, out));
  };
  auto result = ag::CheckGradients(build, cau->Parameters());
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---------------------------------------------------------------------------
// ITA-GCN layer
// ---------------------------------------------------------------------------

class ItaGcnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 0 <- {1, 2}; 1 <- 2; 3 isolated.
    graph::GraphBuilder builder(4);
    builder.AddDirected(1, 0, graph::EdgeType::kSupplyChain);
    builder.AddDirected(2, 0, graph::EdgeType::kSameOwner);
    builder.AddDirected(2, 1, graph::EdgeType::kSupplyChain);
    auto g = builder.Build();
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<graph::EsellerGraph>(std::move(g).value());
    Rng rng(11);
    for (int i = 0; i < 4; ++i) {
      h_.push_back(ag::Constant(Tensor::Randn({kT, kC}, &rng)));
    }
  }
  std::unique_ptr<graph::EsellerGraph> graph_;
  std::vector<Var> h_;
};

TEST_F(ItaGcnTest, OutputShapes) {
  Rng rng(12);
  ItaGcnLayer layer(kC, kT, &rng);
  auto out = layer.Forward(*graph_, h_);
  ASSERT_EQ(out.size(), 4u);
  for (const Var& o : out) {
    EXPECT_EQ(o->value.dim(0), kT);
    EXPECT_EQ(o->value.dim(1), kC);
    EXPECT_TRUE(o->value.AllFinite());
  }
}

TEST_F(ItaGcnTest, IsolatedNodeGetsOnlySelfTerm) {
  Rng rng(13);
  ItaGcnLayer layer(kC, kT, &rng);
  ItaProbe probe;
  layer.Forward(*graph_, h_, &probe);
  // Node 3 contributes no alpha record and no inter edges.
  for (const auto& rec : probe.alphas) EXPECT_NE(rec.u, 3);
  for (const auto& rec : probe.inter) EXPECT_NE(rec.u, 3);
  // But it does get an intra record.
  bool has_intra = false;
  for (const auto& rec : probe.intra) has_intra |= rec.u == 3;
  EXPECT_TRUE(has_intra);
}

TEST_F(ItaGcnTest, AlphaIsDistributionOverNeighbors) {
  Rng rng(14);
  ItaGcnLayer layer(kC, kT, &rng);
  ItaProbe probe;
  layer.Forward(*graph_, h_, &probe);
  for (const auto& rec : probe.alphas) {
    double sum = 0.0;
    for (int64_t i = 0; i < rec.alpha.size(); ++i) {
      EXPECT_GE(rec.alpha.at(i), 0.0f);
      sum += rec.alpha.at(i);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_EQ(rec.alpha.size(),
              static_cast<int64_t>(rec.neighbors.size()));
  }
}

TEST_F(ItaGcnTest, NeighborInfluencePropagates) {
  Rng rng(15);
  ItaGcnLayer layer(kC, kT, &rng);
  auto base = layer.Forward(*graph_, h_);
  // Perturb node 2 (a neighbour of 0 and 1, not of 3).
  std::vector<Var> h2 = h_;
  Tensor perturbed = h_[2]->value;
  perturbed.Scale(3.0f);
  h2[2] = ag::Constant(perturbed);
  auto out = layer.Forward(*graph_, h2);
  EXPECT_FALSE(AllClose(base[0]->value, out[0]->value, 1e-6f));
  EXPECT_FALSE(AllClose(base[1]->value, out[1]->value, 1e-6f));
  EXPECT_TRUE(AllClose(base[3]->value, out[3]->value, 1e-6f));
}

TEST_F(ItaGcnTest, UniformAlphaInAblatedMode) {
  Rng rng(16);
  ItaGcnLayer layer(kC, kT, &rng, /*use_ita=*/false);
  ItaProbe probe;
  layer.Forward(*graph_, h_, &probe);
  for (const auto& rec : probe.alphas) {
    const float expected = 1.0f / static_cast<float>(rec.neighbors.size());
    for (int64_t i = 0; i < rec.alpha.size(); ++i) {
      EXPECT_FLOAT_EQ(rec.alpha.at(i), expected);
    }
  }
}

TEST_F(ItaGcnTest, EdgeTypeBiasInfluencesAlpha) {
  // Node 0 has one supply-chain and one same-owner in-neighbour. Biasing
  // one relation type must shift the aggregation weights.
  Rng rng(19);
  ItaGcnLayer layer(kC, kT, &rng);
  ItaProbe before;
  layer.Forward(*graph_, h_, &before);
  const NeighborAlphaRecord* rec0 = nullptr;
  for (const auto& rec : before.alphas) {
    if (rec.u == 0) rec0 = &rec;
  }
  ASSERT_NE(rec0, nullptr);
  const float alpha0_before = rec0->alpha.at(0);

  // Strongly favour supply-chain edges.
  for (auto& [name, param] : layer.NamedParameters()) {
    if (name == "edge_type_bias") {
      param->value.at(static_cast<int64_t>(graph::EdgeType::kSupplyChain)) =
          5.0f;
    }
  }
  ItaProbe after;
  layer.Forward(*graph_, h_, &after);
  const NeighborAlphaRecord* rec1 = nullptr;
  for (const auto& rec : after.alphas) {
    if (rec.u == 0) rec1 = &rec;
  }
  ASSERT_NE(rec1, nullptr);
  // Identify which slot is the supply-chain neighbour (node 1).
  int64_t supply_slot = rec1->neighbors[0] == 1 ? 0 : 1;
  EXPECT_GT(rec1->alpha.at(supply_slot), 0.9f);
  EXPECT_NE(rec1->alpha.at(0), alpha0_before);
}

TEST_F(ItaGcnTest, GradCheckThroughGraphLayer) {
  Rng rng(17);
  auto layer = std::make_shared<ItaGcnLayer>(3, 4, &rng);
  graph::GraphBuilder builder(2);
  builder.AddSupplyChain(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  Rng data_rng(18);
  Tensor h0 = Tensor::Randn({4, 3}, &data_rng);
  Tensor h1 = Tensor::Randn({4, 3}, &data_rng);
  auto build = [&](const std::vector<Var>&) {
    auto out = layer->Forward(g.value(),
                              {ag::Constant(h0), ag::Constant(h1)});
    return ag::SumAll(ag::Mul(out[0], out[0]));
  };
  auto result = ag::CheckGradients(build, layer->Parameters());
  EXPECT_TRUE(result.ok) << result.detail;
}

}  // namespace
}  // namespace gaia::core
