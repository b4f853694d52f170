#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/adam.h"
#include "nn/autograd.h"
#include "nn/copynet.h"
#include "nn/copynet_decoder.h"
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
