#include "nn/copynet.h"

#include "util/logging.h"

namespace cnpb::nn {

CopyNet::CopyNet(const Vocab* input_vocab, const Vocab* output_vocab,
                 const Config& config)
    : input_vocab_(input_vocab),
      output_vocab_(output_vocab),
      config_(config) {
  CNPB_CHECK(input_vocab != nullptr && output_vocab != nullptr);
  util::Rng rng(config.seed);
  input_embed_ = Embedding(input_vocab->size(), config.embed_dim, rng);
  output_embed_ = Embedding(output_vocab->size(), config.embed_dim, rng);
  encoder_ = GruCell(config.embed_dim, config.hidden_dim, rng);
  decoder_ = GruCell(config.embed_dim + config.hidden_dim, config.hidden_dim,
                     rng);
  attn_ = Linear(config.hidden_dim, config.hidden_dim, rng);
  out_ = Linear(2 * config.hidden_dim, output_vocab->size(), rng);
  copy_gate_ = Linear(2 * config.hidden_dim, 1, rng);
}

std::vector<Var> CopyNet::Params() const {
  std::vector<Var> params;
  input_embed_.CollectParams(&params);
  output_embed_.CollectParams(&params);
  encoder_.CollectParams(&params);
  decoder_.CollectParams(&params);
  attn_.CollectParams(&params);
  out_.CollectParams(&params);
  copy_gate_.CollectParams(&params);
  return params;
}

Var CopyNet::Encode(const std::vector<int>& ids,
                    std::vector<Var>* states) const {
  Var h = encoder_.InitialState();
  states->clear();
  states->reserve(ids.size());
  for (int id : ids) {
    h = encoder_.Step(input_embed_.Lookup(id), h);
    states->push_back(h);
  }
  return h;
}

Var CopyNet::ZeroContext() const {
  return MakeVar(Tensor::Zeros(config_.hidden_dim), /*requires_grad=*/false);
}

CopyNet::StepOutput CopyNet::DecodeStep(const Var& h_matrix,
                                        const Var& prev_state,
                                        const Var& prev_context,
                                        int prev_word_id) const {
  StepOutput out;
  const Var input = Concat(output_embed_.Lookup(prev_word_id), prev_context);
  out.state = decoder_.Step(input, prev_state);
  const Var query = attn_(out.state);
  const Var scores = MatVec(h_matrix, query);  // [T]
  out.attention = Softmax(scores);
  out.context = MatTVec(h_matrix, out.attention);
  const Var feat = Concat(out.state, out.context);
  out.p_gen = Sigmoid(copy_gate_(feat));
  out.p_vocab = Softmax(out_(feat));
  return out;
}

float CopyNet::AccumulateBatch(const std::vector<const Example*>& batch) {
  // Each example's per-token losses, in step order. They are summed below
  // in batch order, so the mean does not depend on which example finished
  // first.
  std::vector<std::vector<double>> token_losses(batch.size());
  BackwardBatch(batch.size(), [&](size_t i) {
    return ExampleLoss(*batch[i], &token_losses[i]);
  });
  double total_loss = 0.0;
  size_t total_tokens = 0;
  for (const std::vector<double>& losses : token_losses) {
    for (const double loss : losses) total_loss += loss;
    total_tokens += losses.size();
  }
  return total_tokens == 0
             ? 0.0f
             : static_cast<float>(total_loss / static_cast<double>(total_tokens));
}

Var CopyNet::ExampleLoss(const Example& example,
                         std::vector<double>* token_losses) const {
  if (example.source_ids.empty() || example.target_words.empty()) return Var();
  std::vector<Var> states;
  Var enc_final = Encode(example.source_ids, &states);
  const Var h_matrix = StackRows(states);

  Var state = enc_final;
  Var context = ZeroContext();
  int prev_id = Vocab::kPad;  // BOS
  std::vector<Var> step_losses;

  // Teacher-forced steps over target words plus the closing <eos>.
  std::vector<std::string> targets = example.target_words;
  targets.emplace_back("<eos>");
  for (const std::string& target : targets) {
    const StepOutput step = DecodeStep(h_matrix, state, context, prev_id);

    const int vocab_id = output_vocab_->Find(target);
    std::vector<int> copy_positions;
    if (config_.use_copy) {
      for (size_t j = 0; j < example.source_words.size(); ++j) {
        if (example.source_words[j] == target) {
          copy_positions.push_back(static_cast<int>(j));
        }
      }
    }
    if (vocab_id < 0 && copy_positions.empty()) {
      // Target unreachable (OOV without copy support): maximal surprise;
      // contributes a constant so the ablation's loss reflects the miss.
      state = step.state;
      context = step.context;
      prev_id = Vocab::kUnk;
      token_losses->push_back(27.6);  // -log(1e-12)
      continue;
    }

    Var prob;
    if (vocab_id >= 0) {
      prob = Mul(step.p_gen, Gather(step.p_vocab, vocab_id));
      if (!copy_positions.empty()) {
        prob = Add(prob, Mul(OneMinus(step.p_gen),
                             GatherSum(step.attention, copy_positions)));
      }
    } else {
      prob = Mul(OneMinus(step.p_gen),
                 GatherSum(step.attention, copy_positions));
    }
    step_losses.push_back(NegLog(prob));
    token_losses->push_back(step_losses.back()->value[0]);

    state = step.state;
    context = step.context;
    prev_id = vocab_id >= 0 ? vocab_id : Vocab::kUnk;
  }
  if (step_losses.empty()) return Var();
  Var loss = step_losses[0];
  for (size_t i = 1; i < step_losses.size(); ++i) {
    loss = Add(loss, step_losses[i]);
  }
  return loss;
}

}  // namespace cnpb::nn
