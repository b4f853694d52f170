#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "nn/adam.h"
#include "nn/autograd.h"
#include "nn/copynet.h"
#include "nn/copynet_decoder.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/vocab.h"
#include "util/rng.h"

namespace cnpb::nn {
namespace {

// Checks every gradient of `params` against central finite differences of
// the scalar loss built by `forward`. `forward` must rebuild the graph from
// the CURRENT parameter values on each call.
void CheckGradients(const std::vector<Var>& params,
                    const std::function<Var()>& forward, float tolerance = 2e-2f) {
  for (const Var& p : params) {
    p->EnsureGrad();
    p->grad.Fill(0.0f);
  }
  Var loss = forward();
  Backward(loss);
  const float eps = 1e-3f;
  for (const Var& p : params) {
    ASSERT_TRUE(p->grad_ready);
    for (size_t i = 0; i < p->value.size(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float up = forward()->value[0];
      p->value[i] = saved - eps;
      const float down = forward()->value[0];
      p->value[i] = saved;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->grad[i], numeric,
                  tolerance * std::max(1.0f, std::fabs(numeric)))
          << "param index " << i;
    }
  }
}

Var RandomParam(int rows, int cols, uint64_t seed) {
  util::Rng rng(seed);
  return MakeVar(Tensor::RandomUniform(rows, cols, 0.5f, rng), true);
}

Tensor RandomCoef(int rows, int cols, uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::RandomUniform(rows, cols, 1.0f, rng);
}

TEST(TensorTest, ShapeAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  t.Fill(1.0f);
  EXPECT_EQ(t.at(1, 2), 1.0f);
}

TEST(AutogradTest, AddMulGradients) {
  Var a = RandomParam(4, 1, 1);
  Var b = RandomParam(4, 1, 2);
  Var c = MakeVar(RandomCoef(4, 1, 3), false);
  CheckGradients({a, b}, [&]() { return Dot(Mul(Add(a, b), a), c); });
}

TEST(AutogradTest, SubScalarMulGradients) {
  Var a = RandomParam(5, 1, 4);
  Var b = RandomParam(5, 1, 5);
  Var ones = MakeVar([] {
    Tensor t(5);
    t.Fill(1.0f);
    return t;
  }());
  CheckGradients({a, b},
                 [&]() { return Dot(ScalarMul(Sub(a, b), 2.5f), ones); });
}

TEST(AutogradTest, TanhSigmoidGradients) {
  Var a = RandomParam(6, 1, 6);
  Var ones = MakeVar([] {
    Tensor t(6);
    t.Fill(1.0f);
    return t;
  }());
  CheckGradients({a}, [&]() { return Dot(Tanh(a), ones); });
  CheckGradients({a}, [&]() { return Dot(Sigmoid(a), ones); });
  CheckGradients({a}, [&]() { return Dot(OneMinus(a), ones); });
}

TEST(AutogradTest, MatVecGradients) {
  Var w = RandomParam(3, 4, 7);
  Var x = RandomParam(4, 1, 8);
  Var coef = MakeVar(RandomCoef(3, 1, 9));
  CheckGradients({w, x}, [&]() { return Dot(MatVec(w, x), coef); });
}

TEST(AutogradTest, SoftmaxGradients) {
  Var a = RandomParam(5, 1, 10);
  Var coef = MakeVar(RandomCoef(5, 1, 11));
  CheckGradients({a}, [&]() { return Dot(Softmax(a), coef); });
}

TEST(AutogradTest, SoftmaxSumsToOne) {
  Var a = RandomParam(7, 1, 12);
  Var s = Softmax(a);
  float total = 0;
  for (size_t i = 0; i < s->value.size(); ++i) {
    total += s->value[i];
    EXPECT_GT(s->value[i], 0.0f);
  }
  EXPECT_NEAR(total, 1.0f, 1e-5);
}

TEST(AutogradTest, GatherOpsGradients) {
  Var a = RandomParam(6, 1, 13);
  CheckGradients({a}, [&]() { return NegLog(Sigmoid(Gather(a, 2))); });
  CheckGradients({a}, [&]() {
    return NegLog(Sigmoid(GatherSum(a, {0, 3, 3, 5})));
  });
}

TEST(AutogradTest, ConcatGradients) {
  Var a = RandomParam(3, 1, 14);
  Var b = RandomParam(2, 1, 15);
  Var coef = MakeVar(RandomCoef(5, 1, 16));
  CheckGradients({a, b}, [&]() { return Dot(Concat(a, b), coef); });
}

TEST(AutogradTest, RowScattersIntoTable) {
  Var table = RandomParam(4, 3, 17);
  Var coef = MakeVar(RandomCoef(3, 1, 18));
  CheckGradients({table}, [&]() { return Dot(Row(table, 2), coef); });
  // Untouched rows receive zero gradient.
  Var loss = Dot(Row(table, 2), coef);
  table->grad.Fill(0.0f);
  Backward(loss);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(table->grad.at(0, c), 0.0f);
    EXPECT_NE(table->grad.at(2, c), 0.0f);
  }
}

TEST(AutogradTest, StackAndMatTVecGradients) {
  Var r0 = RandomParam(3, 1, 19);
  Var r1 = RandomParam(3, 1, 20);
  Var attn = RandomParam(2, 1, 21);
  Var coef = MakeVar(RandomCoef(3, 1, 22));
  CheckGradients({r0, r1, attn}, [&]() {
    Var h = StackRows({r0, r1});
    return Dot(MatTVec(h, Softmax(attn)), coef);
  });
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // loss = dot(a, a): gradient is 2a — checks repeated-parent accumulation.
  Var a = RandomParam(4, 1, 23);
  Var loss = Dot(a, a);
  Backward(loss);
  for (size_t i = 0; i < a->value.size(); ++i) {
    EXPECT_NEAR(a->grad[i], 2 * a->value[i], 1e-4);
  }
}

// Same-bits checks: Backward promises every gradient element exactly its
// terms, added in the order of its walk from the loss.
void ExpectSameBits(const std::vector<float>& want,
                    const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(want[i]), std::bit_cast<uint32_t>(got[i]))
        << what << "[" << i << "]: want " << want[i] << " got " << got[i];
  }
}

TEST(AutogradTest, LeafWeightTermsKeepTapeOrderAroundOtherTerms) {
  // w gets three MatVec terms, which wait for the deferred pass, and one
  // Row term, which does not. Backward runs the loss's parents last-first,
  // so w's row must be ((c3 x3 + c2 x2) + row) + c1 x1, term for term.
  const int n = 7;
  Var w = RandomParam(1, n, 61);
  Var x1 = MakeVar(RandomCoef(n, 1, 62));
  Var x2 = MakeVar(RandomCoef(n, 1, 63));
  Var x3 = MakeVar(RandomCoef(n, 1, 64));
  Var c1 = MakeVar(RandomCoef(1, 1, 65));
  Var c2 = MakeVar(RandomCoef(1, 1, 66));
  Var c3 = MakeVar(RandomCoef(1, 1, 67));
  Var row_coef = MakeVar(RandomCoef(n, 1, 68));
  const Var a = Dot(MatVec(w, x1), c1);
  const Var b = Dot(Row(w, 0), row_coef);
  const Var c = Dot(MatVec(w, x2), c2);
  const Var d = Dot(MatVec(w, x3), c3);
  Backward(Add(Add(Add(a, b), c), d));
  std::vector<float> want(n), got(n), row_last(n);
  for (int j = 0; j < n; ++j) {
    float acc = 0.0f;
    acc += c3->value[0] * x3->value[j];
    acc += c2->value[0] * x2->value[j];
    acc += row_coef->value[j];
    acc += c1->value[0] * x1->value[j];
    want[j] = acc;
    got[j] = w->grad[j];
    // The same terms with the Row term last, as a pass that deferred the
    // MatVec terms past it would add them.
    float late = 0.0f;
    late += c3->value[0] * x3->value[j];
    late += c2->value[0] * x2->value[j];
    late += c1->value[0] * x1->value[j];
    row_last[j] = late + row_coef->value[j];
  }
  ExpectSameBits(want, got, "w.grad");
  EXPECT_NE(want, row_last) << "the data no longer tells the orders apart";
}

TEST(AutogradTest, TapeKeepsItsLeavesAlive) {
  // The constant is a temporary: only the tape holds it until Backward.
  Var a = RandomParam(5, 1, 69);
  const Tensor coef = RandomCoef(5, 1, 70);
  Var ones = MakeVar([] {
    Tensor t(5);
    t.Fill(1.0f);
    return t;
  }());
  const Var loss = Dot(Mul(a, MakeVar(coef)), ones);
  Backward(loss);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a->grad[i], coef[i] * 1.0f);
}

// ---- kernels ---------------------------------------------------------------
// Each kernel against the scalar loop its header comment gives, bit for bit,
// at shapes that leave every vector tail non-empty (n % 4 != 0, fewer than 4
// rows, a single row), with zero and negative-zero gradients.

std::vector<float> RandomFloats(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) {
    v = static_cast<float>(2.0 * rng.UniformDouble() - 1.0);
  }
  return out;
}

// Random values where every third is +0 or -0: the values a gradient row
// skip must leave alone, and the signed zeros it must keep.
std::vector<float> FloatsWithZeros(size_t n, uint64_t seed) {
  std::vector<float> out = RandomFloats(n, seed);
  for (size_t i = 0; i < n; i += 3) out[i] = (i / 3) % 2 == 0 ? 0.0f : -0.0f;
  return out;
}

struct Shape {
  int m;
  int n;
};
const Shape kShapes[] = {{1, 1}, {1, 6},  {2, 5},   {3, 4},   {4, 3},
                         {5, 7}, {8, 9},  {9, 17},  {13, 32}, {16, 33},
                         {64, 96}};

TEST(KernelsTest, MatVecMatchesScalarLoop) {
  for (const Shape& s : kShapes) {
    const std::vector<float> w = RandomFloats(s.m * s.n, 71);
    const std::vector<float> x = FloatsWithZeros(s.n, 72);
    std::vector<float> want(s.m), got(s.m);
    for (int i = 0; i < s.m; ++i) {
      float acc = 0.0f;
      for (int j = 0; j < s.n; ++j) acc += w[i * s.n + j] * x[j];
      want[i] = acc;
    }
    kernels::MatVec(w.data(), s.m, s.n, x.data(), got.data());
    ExpectSameBits(want, got, "MatVec");
  }
}

TEST(KernelsTest, MatVecTMatchesScalarLoop) {
  for (const Shape& s : kShapes) {
    const int stride = (s.m + 3) & ~3;
    const std::vector<float> w = RandomFloats(s.n * stride, 73);
    const std::vector<float> x = FloatsWithZeros(s.n, 74);
    std::vector<float> want(stride), got(stride);
    for (int o = 0; o < stride; ++o) {
      float acc = 0.0f;
      for (int j = 0; j < s.n; ++j) acc += w[j * stride + o] * x[j];
      want[o] = acc;
    }
    kernels::MatVecT(w.data(), s.n, stride, x.data(), got.data());
    ExpectSameBits(want, got, "MatVecT");
  }
}

TEST(KernelsTest, AddMatTVecMatchesScalarLoop) {
  for (const Shape& s : kShapes) {
    const std::vector<float> w = RandomFloats(s.m * s.n, 75);
    const std::vector<float> g = FloatsWithZeros(s.m, 76);
    // Starting from -0 exposes a zero row that is added instead of skipped.
    std::vector<float> want(s.n, -0.0f), got(s.n, -0.0f);
    for (int i = 0; i < s.m; ++i) {
      if (g[i] == 0.0f) continue;
      for (int j = 0; j < s.n; ++j) want[j] += g[i] * w[i * s.n + j];
    }
    kernels::AddMatTVec(w.data(), s.m, s.n, g.data(), got.data());
    ExpectSameBits(want, got, "AddMatTVec");
  }
}

TEST(KernelsTest, AddOuterProductsMatchesScalarLoop) {
  for (const Shape& s : kShapes) {
    for (int pairs : {1, 2, 5}) {
      std::vector<std::vector<float>> gs, xs;
      std::vector<const float*> g, x;
      for (int k = 0; k < pairs; ++k) {
        gs.push_back(FloatsWithZeros(s.m, 77 + k));
        xs.push_back(RandomFloats(s.n, 87 + k));
      }
      for (int k = 0; k < pairs; ++k) {
        g.push_back(gs[k].data());
        x.push_back(xs[k].data());
      }
      std::vector<float> want = FloatsWithZeros(s.m * s.n, 97);
      std::vector<float> got = want;
      for (int k = 0; k < pairs; ++k) {
        for (int i = 0; i < s.m; ++i) {
          if (g[k][i] == 0.0f) continue;
          for (int j = 0; j < s.n; ++j) {
            want[i * s.n + j] += g[k][i] * x[k][j];
          }
        }
      }
      kernels::AddOuterProducts(got.data(), s.m, s.n, g.data(), x.data(),
                                pairs);
      ExpectSameBits(want, got, "AddOuterProducts");
    }
  }
}

TEST(KernelsTest, SoftmaxAndItsGradientMatchScalarLoops) {
  for (int n : {1, 2, 3, 4, 5, 9, 16, 33}) {
    const std::vector<float> x = RandomFloats(n, 101);
    std::vector<float> want(n), got(n);
    float max_val = x[0];
    for (int i = 1; i < n; ++i) max_val = std::max(max_val, x[i]);
    float total = 0.0f;
    for (int i = 0; i < n; ++i) {
      want[i] = std::exp(x[i] - max_val);
      total += want[i];
    }
    for (int i = 0; i < n; ++i) want[i] /= total;
    kernels::Softmax(x.data(), n, got.data());
    ExpectSameBits(want, got, "Softmax");

    const std::vector<float> g = FloatsWithZeros(n, 102);
    std::vector<float> grad_want = FloatsWithZeros(n, 103);
    std::vector<float> grad_got = grad_want;
    float dot = 0.0f;
    for (int i = 0; i < n; ++i) dot += g[i] * want[i];
    for (int i = 0; i < n; ++i) grad_want[i] += want[i] * (g[i] - dot);
    kernels::AddSoftmaxGrad(want.data(), g.data(), n, grad_got.data());
    ExpectSameBits(grad_want, grad_got, "AddSoftmaxGrad");
  }
}

TEST(KernelsTest, ElementwiseMatchScalarLoops) {
  for (int n : {1, 3, 4, 7, 64}) {
    const std::vector<float> a = FloatsWithZeros(n, 111);
    const std::vector<float> b = RandomFloats(n, 112);
    const std::vector<float> d = FloatsWithZeros(n, 113);
    const float c = 0.37f;
    // One case per kernel: the kernel's result, and the scalar loop's.
    auto check = [&](const char* what, auto kernel, auto scalar) {
      std::vector<float> got = d, want = d;
      kernel(got.data());
      for (int i = 0; i < n; ++i) want[i] = scalar(i, want[i]);
      ExpectSameBits(want, got, what);
    };
    check("Add", [&](float* o) { kernels::Add(a.data(), b.data(), n, o); },
          [&](int i, float) { return a[i] + b[i]; });
    check("Sub", [&](float* o) { kernels::Sub(a.data(), b.data(), n, o); },
          [&](int i, float) { return a[i] - b[i]; });
    check("Mul", [&](float* o) { kernels::Mul(a.data(), b.data(), n, o); },
          [&](int i, float) { return a[i] * b[i]; });
    check("Scale", [&](float* o) { kernels::Scale(a.data(), c, n, o); },
          [&](int i, float) { return a[i] * c; });
    check("OneMinus", [&](float* o) { kernels::OneMinus(a.data(), n, o); },
          [&](int i, float) { return 1.0f - a[i]; });
    check("AddTo", [&](float* o) { kernels::AddTo(a.data(), n, o); },
          [&](int i, float o) { return o + a[i]; });
    check("SubFrom", [&](float* o) { kernels::SubFrom(a.data(), n, o); },
          [&](int i, float o) { return o - a[i]; });
    check("AddProduct",
          [&](float* o) { kernels::AddProduct(a.data(), b.data(), n, o); },
          [&](int i, float o) { return o + a[i] * b[i]; });
    check("AddScaled",
          [&](float* o) { kernels::AddScaled(a.data(), c, n, o); },
          [&](int i, float o) { return o + a[i] * c; });
    check("AddTanhGrad",
          [&](float* o) { kernels::AddTanhGrad(a.data(), b.data(), n, o); },
          [&](int i, float o) { return o + a[i] * (1.0f - b[i] * b[i]); });
    check("AddSigmoidGrad",
          [&](float* o) { kernels::AddSigmoidGrad(a.data(), b.data(), n, o); },
          [&](int i, float o) { return o + a[i] * b[i] * (1.0f - b[i]); });
  }
}

TEST(KernelsTest, AdamUpdateMatchesScalarLoop) {
  for (int n : {1, 3, 4, 7, 64}) {
    const kernels::AdamStep step{0.8f, 0.9f, 0.999f, 1e-2f, 1e-8f, 0.19f,
                                 0.002f};
    const std::vector<float> grad = FloatsWithZeros(n, 121);
    std::vector<float> m = RandomFloats(n, 122), v = RandomFloats(n, 123);
    for (float& vi : v) vi = std::fabs(vi);
    std::vector<float> value = RandomFloats(n, 124);
    std::vector<float> m_want = m, v_want = v, value_want = value;
    for (int i = 0; i < n; ++i) {
      const float g = grad[i] * step.scale;
      m_want[i] = step.beta1 * m_want[i] + (1.0f - step.beta1) * g;
      v_want[i] = step.beta2 * v_want[i] + (1.0f - step.beta2) * g * g;
      const float m_hat = m_want[i] / step.bias1;
      const float v_hat = v_want[i] / step.bias2;
      value_want[i] -= step.lr * m_hat / (std::sqrt(v_hat) + step.eps);
    }
    kernels::AdamUpdate(step, grad.data(), n, m.data(), v.data(),
                        value.data());
    ExpectSameBits(m_want, m, "m");
    ExpectSameBits(v_want, v, "v");
    ExpectSameBits(value_want, value, "value");
  }
}

TEST(LayersTest, LinearGradients) {
  util::Rng rng(31);
  Linear linear(4, 3, rng);
  Var x = RandomParam(4, 1, 32);
  Var coef = MakeVar(RandomCoef(3, 1, 33));
  std::vector<Var> params;
  linear.CollectParams(&params);
  params.push_back(x);
  CheckGradients(params, [&]() { return Dot(linear(x), coef); });
}

TEST(LayersTest, GruCellGradientsAndShape) {
  util::Rng rng(34);
  GruCell gru(3, 5, rng);
  Var x = RandomParam(3, 1, 35);
  Var h = RandomParam(5, 1, 36);
  Var coef = MakeVar(RandomCoef(5, 1, 37));
  std::vector<Var> params;
  gru.CollectParams(&params);
  params.push_back(x);
  params.push_back(h);
  CheckGradients(params, [&]() { return Dot(gru.Step(x, h), coef); });
  EXPECT_EQ(gru.Step(x, h)->value.rows(), 5);
  EXPECT_EQ(gru.InitialState()->value.rows(), 5);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimise ||x - t||^2.
  util::Rng rng(41);
  Var x = MakeVar(Tensor::RandomUniform(4, 1, 1.0f, rng), true);
  Tensor target(4);
  for (int i = 0; i < 4; ++i) target[i] = static_cast<float>(i) - 1.5f;
  Adam::Config config;
  config.lr = 0.05f;
  Adam adam({x}, config);
  for (int step = 0; step < 400; ++step) {
    Var t = MakeVar(target);
    Var diff = Sub(x, t);
    Backward(Dot(diff, diff));
    adam.Step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x->value[i], target[i], 1e-2);
  EXPECT_EQ(adam.NumParams(), 4u);
}

TEST(VocabTest, ReservedAndRoundTrip) {
  Vocab vocab;
  EXPECT_EQ(vocab.size(), 3);
  const int id = vocab.Add("演员");
  EXPECT_EQ(vocab.Add("演员"), id);
  EXPECT_EQ(vocab.Id("演员"), id);
  EXPECT_EQ(vocab.Id("未知词"), Vocab::kUnk);
  EXPECT_EQ(vocab.Word(id), "演员");
  EXPECT_EQ(vocab.Encode({"演员", "x"}),
            (std::vector<int>{id, Vocab::kUnk}));
}

// ---- CopyNet ---------------------------------------------------------------

class CopyNetTest : public ::testing::Test {
 protected:
  // Task: the target is always the token following the marker 是 in the
  // source. Some targets are in the output vocab (generate path), some are
  // not (copy path).
  void BuildData(bool oov_targets) {
    util::Rng rng(55);
    const std::vector<std::string> in_vocab_targets = {"演员", "歌手", "作家"};
    const std::vector<std::string> oov_only_targets = {"雕塑家", "飞行员"};
    for (const char* w : {"他", "她", "是", "著名", "的"}) {
      input_vocab_.Add(w);
    }
    for (const std::string& w : in_vocab_targets) {
      input_vocab_.Add(w);
      output_vocab_.Add(w);
    }
    for (const std::string& w : oov_only_targets) input_vocab_.Add(w);

    for (int i = 0; i < 240; ++i) {
      CopyNet::Example example;
      std::string target;
      if (oov_targets && i % 3 == 0) {
        target = oov_only_targets[rng.Uniform(oov_only_targets.size())];
      } else {
        target = in_vocab_targets[rng.Uniform(in_vocab_targets.size())];
      }
      example.source_words = {rng.Bernoulli(0.5) ? "他" : "她", "是", "著名",
                              "的", target};
      example.source_ids = input_vocab_.Encode(example.source_words);
      example.target_words = {target};
      examples_.push_back(std::move(example));
    }
  }

  float TrainModel(CopyNet* model, int epochs = 12) {
    Adam::Config adam_config;
    adam_config.lr = 0.02f;
    Adam adam(model->Params(), adam_config);
    float last_loss = 0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      float epoch_loss = 0;
      int batches = 0;
      std::vector<const CopyNet::Example*> batch;
      for (const auto& example : examples_) {
        batch.push_back(&example);
        if (batch.size() == 16) {
          epoch_loss += model->AccumulateBatch(batch);
          adam.Step();
          batch.clear();
          ++batches;
        }
      }
      last_loss = epoch_loss / batches;
    }
    return last_loss;
  }

  enum class Subset { kAll, kOovOnly, kInVocabOnly };

  double Accuracy(const CopyNet& model, Subset subset) {
    const CopyNetDecoder decoder(model);
    size_t correct = 0, total = 0;
    for (const auto& example : examples_) {
      const bool oov = !output_vocab_.Contains(example.target_words[0]);
      if (subset == Subset::kOovOnly && !oov) continue;
      if (subset == Subset::kInVocabOnly && oov) continue;
      ++total;
      if (decoder.Decode(example.source_ids, example.source_words) ==
          example.target_words[0]) {
        ++correct;
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(correct) / total;
  }

  Vocab input_vocab_;
  Vocab output_vocab_;
  std::vector<CopyNet::Example> examples_;
};

TEST_F(CopyNetTest, LossDecreasesAndLearnsInVocabTargets) {
  BuildData(/*oov_targets=*/false);
  CopyNet::Config config;
  config.embed_dim = 12;
  config.hidden_dim = 20;
  CopyNet model(&input_vocab_, &output_vocab_, config);
  std::vector<const CopyNet::Example*> first = {&examples_[0]};
  const float initial = model.AccumulateBatch(first);
  const float final_loss = TrainModel(&model);
  EXPECT_LT(final_loss, initial * 0.5f);
  EXPECT_GT(Accuracy(model, Subset::kAll), 0.9);
}

TEST_F(CopyNetTest, CopyMechanismHandlesOovTargets) {
  BuildData(/*oov_targets=*/true);
  CopyNet::Config config;
  config.embed_dim = 12;
  config.hidden_dim = 20;
  CopyNet model(&input_vocab_, &output_vocab_, config);
  TrainModel(&model);
  EXPECT_GT(Accuracy(model, Subset::kOovOnly), 0.8);
}

TEST_F(CopyNetTest, AblationWithoutCopyFailsOnOov) {
  BuildData(/*oov_targets=*/true);
  CopyNet::Config config;
  config.embed_dim = 12;
  config.hidden_dim = 20;
  config.use_copy = false;
  CopyNet model(&input_vocab_, &output_vocab_, config);
  TrainModel(&model);
  // Without copying the OOV targets are unreachable.
  EXPECT_EQ(Accuracy(model, Subset::kOovOnly), 0.0);
  EXPECT_GT(Accuracy(model, Subset::kAll), 0.55);
}

TEST(CopyNetEdgeTest, EmptySourceGeneratesNothing) {
  Vocab in, out;
  CopyNet::Config config;
  config.embed_dim = 4;
  config.hidden_dim = 6;
  CopyNet model(&in, &out, config);
  EXPECT_EQ(CopyNetDecoder(model).Decode({}, {}), "");
}

}  // namespace
}  // namespace cnpb::nn
