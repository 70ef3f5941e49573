#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/compiler.h"

namespace gaia::autograd {

bool RecordsTape(const std::vector<Var>& parents) {
  if (InferenceScope::Active()) return false;
  for (const Var& p : parents) {
    GAIA_CHECK(p != nullptr);
    if (p->requires_grad) return true;
  }
  return false;
}

Var MakeOp(Tensor value, std::vector<Var> parents,
           std::function<void(AutogradNode&)> backward_fn) {
  Var node = std::make_shared<AutogradNode>(std::move(value));
  if (RecordsTape(parents)) {
    node->requires_grad = true;
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return node;
}

namespace {

/// Accumulates into a parent only when it participates in the tape.
void AddGrad(const Var& parent, const Tensor& delta) {
  if (parent->requires_grad) parent->AccumulateGrad(delta);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  return MakeOp(a->value + b->value, {a, b}, [](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad);
    AddGrad(n.parents[1], n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(a->value - b->value, {a, b}, [](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad);
    AddGrad(n.parents[1], n.grad * -1.0f);
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(a->value * b->value, {a, b}, [](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad * n.parents[1]->value);
    AddGrad(n.parents[1], n.grad * n.parents[0]->value);
  });
}

Var Div(const Var& a, const Var& b) {
  return MakeOp(a->value / b->value, {a, b}, [](AutogradNode& n) {
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      n.parents[0]->AccumulateGrad(n.grad / bv);
    }
    if (n.parents[1]->requires_grad) {
      // d(a/b)/db = -a / b^2 = -y / b
      n.parents[1]->AccumulateGrad((n.grad * n.value) / bv * -1.0f);
    }
  });
}

Var Neg(const Var& a) { return ScalarMul(a, -1.0f); }

Var ScalarMul(const Var& a, float s) {
  return MakeOp(a->value * s, {a}, [s](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad * s);
  });
}

Var AddN(const std::vector<Var>& parts) {
  GAIA_CHECK(!parts.empty());
  Tensor sum = parts[0]->value;
  for (size_t i = 1; i < parts.size(); ++i) sum.Accumulate(parts[i]->value);
  return MakeOp(std::move(sum), parts, [](AutogradNode& n) {
    for (const Var& p : n.parents) AddGrad(p, n.grad);
  });
}

Var ScaleByScalar(const Var& a, const Var& scalar) {
  GAIA_CHECK_EQ(scalar->value.size(), 1);
  const float s = scalar->value.data()[0];
  return MakeOp(a->value * s, {a, scalar}, [](AutogradNode& n) {
    const float sv = n.parents[1]->value.data()[0];
    AddGrad(n.parents[0], n.grad * sv);
    if (n.parents[1]->requires_grad) {
      double acc = 0.0;
      const Tensor& av = n.parents[0]->value;
      for (int64_t i = 0; i < av.size(); ++i) {
        acc += static_cast<double>(n.grad.data()[i]) * av.data()[i];
      }
      Tensor ds({1});
      ds.at(0) = static_cast<float>(acc);
      n.parents[1]->AccumulateGrad(ds);
    }
  });
}

Var MatMul(const Var& a, const Var& b) {
  return MakeOp(gaia::MatMul(a->value, b->value), {a, b}, [](AutogradNode& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      AddGrad(n.parents[0], gaia::MatMul(n.grad, gaia::Transpose(bv)));
    }
    if (n.parents[1]->requires_grad) {
      AddGrad(n.parents[1], gaia::MatMul(gaia::Transpose(av), n.grad));
    }
  });
}

Var Transpose(const Var& a) {
  return MakeOp(gaia::Transpose(a->value), {a}, [](AutogradNode& n) {
    AddGrad(n.parents[0], gaia::Transpose(n.grad));
  });
}

Var Dot(const Var& a, const Var& b) {
  Tensor out({1});
  out.at(0) = gaia::Dot(a->value, b->value);
  return MakeOp(std::move(out), {a, b}, [](AutogradNode& n) {
    const float g = n.grad.data()[0];
    AddGrad(n.parents[0], n.parents[1]->value * g);
    AddGrad(n.parents[1], n.parents[0]->value * g);
  });
}

Var Relu(const Var& a) {
  return MakeOp(gaia::Relu(a->value), {a}, [](AutogradNode& n) {
    Tensor dx = n.grad;
    const Tensor& x = n.parents[0]->value;
    for (int64_t i = 0; i < dx.size(); ++i) {
      if (x.data()[i] <= 0.0f) dx.data()[i] = 0.0f;
    }
    AddGrad(n.parents[0], dx);
  });
}

Var Sigmoid(const Var& a) {
  return MakeOp(gaia::Sigmoid(a->value), {a}, [](AutogradNode& n) {
    Tensor dx = n.grad;
    for (int64_t i = 0; i < dx.size(); ++i) {
      const float y = n.value.data()[i];
      dx.data()[i] *= y * (1.0f - y);
    }
    AddGrad(n.parents[0], dx);
  });
}

Var Tanh(const Var& a) {
  return MakeOp(gaia::Tanh(a->value), {a}, [](AutogradNode& n) {
    Tensor dx = n.grad;
    for (int64_t i = 0; i < dx.size(); ++i) {
      const float y = n.value.data()[i];
      dx.data()[i] *= 1.0f - y * y;
    }
    AddGrad(n.parents[0], dx);
  });
}

Var Exp(const Var& a) {
  return MakeOp(gaia::Exp(a->value), {a}, [](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad * n.value);
  });
}

Var Log(const Var& a) {
  return MakeOp(gaia::Log(a->value), {a}, [](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad / n.parents[0]->value);
  });
}

Var Sqrt(const Var& a) {
  return MakeOp(gaia::Sqrt(a->value), {a}, [](AutogradNode& n) {
    // d sqrt(x)/dx = 1 / (2 sqrt(x)) = 1 / (2 y)
    AddGrad(n.parents[0], n.grad / (n.value * 2.0f));
  });
}

Var SoftmaxRows(const Var& logits) {
  return MakeOp(gaia::SoftmaxRows(logits->value), {logits}, [](AutogradNode& n) {
    AddGrad(n.parents[0], gaia::SoftmaxRowsBackward(n.value, n.grad));
  });
}

Var Softmax1D(const Var& logits) {
  GAIA_CHECK_EQ(logits->value.ndim(), 1);
  const int64_t len = logits->value.dim(0);
  Var as_row = Reshape(logits, {1, len});
  return Reshape(SoftmaxRows(as_row), {len});
}

Var Reshape(const Var& a, std::vector<int64_t> shape) {
  Tensor value = a->value.Reshape(shape);
  return MakeOp(std::move(value), {a}, [](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad.Reshape(n.parents[0]->value.shape()));
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p->value);
  return MakeOp(gaia::ConcatCols(values), parts, [](AutogradNode& n) {
    int64_t offset = 0;
    for (const Var& p : n.parents) {
      const int64_t cols = p->value.dim(1);
      AddGrad(p, gaia::SliceCols(n.grad, offset, cols));
      offset += cols;
    }
  });
}

Var ConcatRows(const std::vector<Var>& parts) {
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p->value);
  return MakeOp(gaia::ConcatRows(values), parts, [](AutogradNode& n) {
    int64_t offset = 0;
    for (const Var& p : n.parents) {
      const int64_t rows = p->value.dim(0);
      AddGrad(p, gaia::SliceRows(n.grad, offset, rows));
      offset += rows;
    }
  });
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  return MakeOp(gaia::SliceCols(a->value, start, len), {a},
                [start, len](AutogradNode& n) {
                  const Var& p = n.parents[0];
                  if (!p->requires_grad) return;
                  Tensor scatter(p->value.shape());
                  const int64_t cols = scatter.dim(1);
                  for (int64_t i = 0; i < n.grad.dim(0); ++i) {
                    const float* src = n.grad.data() + i * len;
                    std::copy(src, src + len,
                              scatter.data() + i * cols + start);
                  }
                  p->AccumulateGrad(scatter);
                });
}

Var SliceRows(const Var& a, int64_t start, int64_t len) {
  return MakeOp(gaia::SliceRows(a->value, start, len), {a},
                [start](AutogradNode& n) {
                  const Var& p = n.parents[0];
                  if (!p->requires_grad) return;
                  Tensor scatter(p->value.shape());
                  std::copy(n.grad.data(), n.grad.data() + n.grad.size(),
                            scatter.data() + start * scatter.dim(1));
                  p->AccumulateGrad(scatter);
                });
}

Var SelectRow(const Var& a, int64_t i) {
  GAIA_CHECK_EQ(a->value.ndim(), 2);
  const int64_t cols = a->value.dim(1);
  Tensor row({cols});
  for (int64_t j = 0; j < cols; ++j) row.at(j) = a->value.at(i, j);
  return MakeOp(std::move(row), {a}, [i](AutogradNode& n) {
    const Var& p = n.parents[0];
    if (!p->requires_grad) return;
    Tensor scatter(p->value.shape());
    for (int64_t j = 0; j < n.grad.dim(0); ++j) scatter.at(i, j) = n.grad.at(j);
    p->AccumulateGrad(scatter);
  });
}

Var StackScalars(const std::vector<Var>& scalars) {
  GAIA_CHECK(!scalars.empty());
  Tensor value({static_cast<int64_t>(scalars.size())});
  for (size_t i = 0; i < scalars.size(); ++i) {
    GAIA_CHECK_EQ(scalars[i]->value.size(), 1);
    value.at(static_cast<int64_t>(i)) = scalars[i]->value.data()[0];
  }
  return MakeOp(std::move(value), scalars, [](AutogradNode& n) {
    for (size_t i = 0; i < n.parents.size(); ++i) {
      Tensor g({1});
      g.at(0) = n.grad.at(static_cast<int64_t>(i));
      AddGrad(n.parents[i], g);
    }
  });
}

Var SelectScalar(const Var& a, int64_t i) {
  GAIA_CHECK_EQ(a->value.ndim(), 1);
  Tensor value({1});
  value.at(0) = a->value.at(i);
  return MakeOp(std::move(value), {a}, [i](AutogradNode& n) {
    const Var& p = n.parents[0];
    if (!p->requires_grad) return;
    Tensor scatter(p->value.shape());
    scatter.at(i) = n.grad.at(0);
    p->AccumulateGrad(scatter);
  });
}

Var SelectSpan(const Var& a, int64_t start, int64_t len) {
  GAIA_CHECK_EQ(a->value.ndim(), 1);
  GAIA_CHECK_GE(start, 0);
  GAIA_CHECK_LE(start + len, a->value.dim(0));
  Tensor value({len});
  for (int64_t i = 0; i < len; ++i) value.at(i) = a->value.at(start + i);
  return MakeOp(std::move(value), {a}, [start, len](AutogradNode& n) {
    const Var& p = n.parents[0];
    if (!p->requires_grad) return;
    Tensor scatter(p->value.shape());
    for (int64_t i = 0; i < len; ++i) scatter.at(start + i) = n.grad.at(i);
    p->AccumulateGrad(scatter);
  });
}

Var AddRowVector(const Var& a, const Var& v) {
  return MakeOp(gaia::AddRowVector(a->value, v->value), {a, v},
                [](AutogradNode& n) {
                  AddGrad(n.parents[0], n.grad);
                  AddGrad(n.parents[1], gaia::SumAxis0(n.grad));
                });
}

Var AddRowsTiled(const Var& a, const Var& b) {
  GAIA_CHECK_EQ(a->value.ndim(), 2);
  GAIA_CHECK_EQ(b->value.ndim(), 2);
  const int64_t period = b->value.dim(0), cols = b->value.dim(1);
  GAIA_CHECK_EQ(a->value.dim(1), cols);
  GAIA_CHECK_EQ(a->value.dim(0) % period, 0);
  const int64_t block = period * cols;
  const int64_t blocks = a->value.dim(0) / period;
  Tensor out = a->value;
  for (int64_t n = 0; n < blocks; ++n) {
    float* GAIA_RESTRICT po = out.data() + n * block;
    const float* GAIA_RESTRICT pb = b->value.data();
    for (int64_t i = 0; i < block; ++i) po[i] += pb[i];
  }
  return MakeOp(std::move(out), {a, b}, [blocks, block](AutogradNode& n) {
    AddGrad(n.parents[0], n.grad);
    const Var& b = n.parents[1];
    if (!b->requires_grad) return;
    Tensor db(b->value.shape());
    for (int64_t blk = 0; blk < blocks; ++blk) {
      const float* GAIA_RESTRICT pg = n.grad.data() + blk * block;
      float* GAIA_RESTRICT pd = db.data();
      for (int64_t i = 0; i < block; ++i) pd[i] += pg[i];
    }
    b->AccumulateGrad(db);
  });
}

Var GatherRowBlocks(const Var& a, const std::vector<int32_t>& blocks,
                    int64_t block_rows) {
  GAIA_CHECK_EQ(a->value.ndim(), 2);
  const int64_t block = block_rows * a->value.dim(1);
  const int64_t num_blocks = a->value.dim(0) / block_rows;
  GAIA_CHECK_EQ(num_blocks * block_rows, a->value.dim(0));
  Tensor out({static_cast<int64_t>(blocks.size()) * block_rows,
              a->value.dim(1)});
  for (size_t i = 0; i < blocks.size(); ++i) {
    GAIA_CHECK(blocks[i] >= 0 && blocks[i] < num_blocks);
    const float* src = a->value.data() + blocks[i] * block;
    std::copy(src, src + block, out.data() + static_cast<int64_t>(i) * block);
  }
  return MakeOp(std::move(out), {a}, [blocks, block](AutogradNode& n) {
    const Var& p = n.parents[0];
    if (!p->requires_grad) return;
    Tensor scatter(p->value.shape());
    for (size_t i = 0; i < blocks.size(); ++i) {
      const float* GAIA_RESTRICT g =
          n.grad.data() + static_cast<int64_t>(i) * block;
      float* GAIA_RESTRICT d = scatter.data() + blocks[i] * block;
      for (int64_t x = 0; x < block; ++x) d[x] += g[x];
    }
    p->AccumulateGrad(scatter);
  });
}

Var RepeatRows(const Var& a, int64_t times) {
  GAIA_CHECK_EQ(a->value.ndim(), 2);
  GAIA_CHECK_GE(times, 1);
  const int64_t rows = a->value.dim(0), cols = a->value.dim(1);
  Tensor out({rows * times, cols});
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = a->value.data() + r * cols;
    for (int64_t t = 0; t < times; ++t) {
      std::copy(src, src + cols, out.data() + (r * times + t) * cols);
    }
  }
  return MakeOp(std::move(out), {a}, [rows, cols, times](AutogradNode& n) {
    const Var& p = n.parents[0];
    if (!p->requires_grad) return;
    Tensor da(p->value.shape());
    for (int64_t r = 0; r < rows; ++r) {
      float* GAIA_RESTRICT pd = da.data() + r * cols;
      for (int64_t t = 0; t < times; ++t) {
        const float* GAIA_RESTRICT pg = n.grad.data() + (r * times + t) * cols;
        for (int64_t c = 0; c < cols; ++c) pd[c] += pg[c];
      }
    }
    p->AccumulateGrad(da);
  });
}

Var Conv1d(const Var& input, const Var& weight, const Var& bias, PadMode mode,
           int64_t dilation, int64_t num_seqs) {
  static const Tensor kNoBias;
  const Tensor& bias_value = bias ? bias->value : kNoBias;
  // Validate through the Result-returning checker so every shape rule lives
  // in one place; a mismatch here is a model-construction bug, so abort with
  // the checker's message rather than threading Status through Var.
  Result<Tensor> out = gaia::Conv1dChecked(input->value, weight->value,
                                           bias_value, mode, dilation,
                                           num_seqs);
  GAIA_CHECK(out.ok()) << out.status().ToString();
  std::vector<Var> parents = {input, weight};
  if (bias) parents.push_back(bias);
  const bool has_bias = bias != nullptr;
  return MakeOp(std::move(out).value(), std::move(parents),
                [mode, dilation, num_seqs, has_bias](AutogradNode& n) {
                  const Var& in = n.parents[0];
                  const Var& w = n.parents[1];
                  if (in->requires_grad) {
                    in->AccumulateGrad(Conv1dBackwardInput(
                        n.grad, w->value, in->value.dim(0), mode, dilation,
                        num_seqs));
                  }
                  if (w->requires_grad) {
                    w->AccumulateGrad(Conv1dBackwardWeight(
                        n.grad, in->value, w->value.dim(1), mode, dilation,
                        num_seqs));
                  }
                  if (has_bias && n.parents[2]->requires_grad) {
                    n.parents[2]->AccumulateGrad(Conv1dBackwardBias(n.grad));
                  }
                });
}

Var LayerNormRows(const Var& a, const Var& gamma, const Var& beta, float eps) {
  GAIA_CHECK_EQ(a->value.ndim(), 2);
  const int64_t rows = a->value.dim(0), cols = a->value.dim(1);
  GAIA_CHECK_EQ(gamma->value.dim(0), cols);
  GAIA_CHECK_EQ(beta->value.dim(0), cols);
  // Save normalized activations and inverse stddev for the backward pass.
  auto x_hat = std::make_shared<Tensor>(Tensor({rows, cols}));
  auto inv_std = std::make_shared<Tensor>(Tensor({rows}));
  Tensor out({rows, cols});
  for (int64_t i = 0; i < rows; ++i) {
    double mean = 0.0;
    for (int64_t j = 0; j < cols; ++j) mean += a->value.at(i, j);
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const double d = a->value.at(i, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    inv_std->at(i) = istd;
    for (int64_t j = 0; j < cols; ++j) {
      const float xh =
          (a->value.at(i, j) - static_cast<float>(mean)) * istd;
      x_hat->at(i, j) = xh;
      out.at(i, j) = gamma->value.at(j) * xh + beta->value.at(j);
    }
  }
  return MakeOp(std::move(out), {a, gamma, beta},
                [x_hat, inv_std](AutogradNode& n) {
                  const Var& a_in = n.parents[0];
                  const Var& g_in = n.parents[1];
                  const Var& b_in = n.parents[2];
                  const int64_t rows = n.grad.dim(0), cols = n.grad.dim(1);
                  if (g_in->requires_grad) {
                    Tensor dgamma({cols});
                    for (int64_t i = 0; i < rows; ++i) {
                      for (int64_t j = 0; j < cols; ++j) {
                        dgamma.at(j) += n.grad.at(i, j) * x_hat->at(i, j);
                      }
                    }
                    g_in->AccumulateGrad(dgamma);
                  }
                  if (b_in->requires_grad) {
                    b_in->AccumulateGrad(gaia::SumAxis0(n.grad));
                  }
                  if (a_in->requires_grad) {
                    Tensor dx({rows, cols});
                    for (int64_t i = 0; i < rows; ++i) {
                      double mean_dxh = 0.0, mean_dxh_xh = 0.0;
                      for (int64_t j = 0; j < cols; ++j) {
                        const double dxh =
                            static_cast<double>(n.grad.at(i, j)) *
                            g_in->value.at(j);
                        mean_dxh += dxh;
                        mean_dxh_xh += dxh * x_hat->at(i, j);
                      }
                      mean_dxh /= static_cast<double>(cols);
                      mean_dxh_xh /= static_cast<double>(cols);
                      for (int64_t j = 0; j < cols; ++j) {
                        const double dxh =
                            static_cast<double>(n.grad.at(i, j)) *
                            g_in->value.at(j);
                        dx.at(i, j) = static_cast<float>(
                            inv_std->at(i) *
                            (dxh - mean_dxh - x_hat->at(i, j) * mean_dxh_xh));
                      }
                    }
                    a_in->AccumulateGrad(dx);
                  }
                });
}

Var SumAll(const Var& a) {
  Tensor out({1});
  out.at(0) = static_cast<float>(a->value.Sum());
  return MakeOp(std::move(out), {a}, [](AutogradNode& n) {
    const float g = n.grad.data()[0];
    AddGrad(n.parents[0], Tensor::Full(n.parents[0]->value.shape(), g));
  });
}

Var MeanAll(const Var& a) {
  GAIA_CHECK_GT(a->value.size(), 0);
  return ScalarMul(SumAll(a), 1.0f / static_cast<float>(a->value.size()));
}

Var MseLoss(const Var& pred, const Tensor& target) {
  GAIA_CHECK(pred->value.SameShape(target));
  const int64_t n_elems = pred->value.size();
  Tensor out({1});
  double acc = 0.0;
  for (int64_t i = 0; i < n_elems; ++i) {
    const double d = pred->value.data()[i] - target.data()[i];
    acc += d * d;
  }
  out.at(0) = static_cast<float>(acc / static_cast<double>(n_elems));
  return MakeOp(std::move(out), {pred}, [target, n_elems](AutogradNode& n) {
    const float g = n.grad.data()[0] * 2.0f / static_cast<float>(n_elems);
    Tensor dpred = (n.parents[0]->value - target) * g;
    AddGrad(n.parents[0], dpred);
  });
}

Var MaeLoss(const Var& pred, const Tensor& target) {
  GAIA_CHECK(pred->value.SameShape(target));
  const int64_t n_elems = pred->value.size();
  Tensor out({1});
  double acc = 0.0;
  for (int64_t i = 0; i < n_elems; ++i) {
    acc += std::fabs(pred->value.data()[i] - target.data()[i]);
  }
  out.at(0) = static_cast<float>(acc / static_cast<double>(n_elems));
  return MakeOp(std::move(out), {pred}, [target, n_elems](AutogradNode& n) {
    const float g = n.grad.data()[0] / static_cast<float>(n_elems);
    Tensor dpred(n.parents[0]->value.shape());
    for (int64_t i = 0; i < n_elems; ++i) {
      const float d = n.parents[0]->value.data()[i] - target.data()[i];
      dpred.data()[i] = d > 0.0f ? g : (d < 0.0f ? -g : 0.0f);
    }
    AddGrad(n.parents[0], dpred);
  });
}

}  // namespace gaia::autograd
