#ifndef CNPROBASE_NN_COPYNET_H_
#define CNPROBASE_NN_COPYNET_H_

#include <string>
#include <vector>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/vocab.h"
#include "util/rng.h"

namespace cnpb::nn {

// Encoder-decoder with attention and a copy mechanism, the model family the
// paper uses for hypernym generation from abstracts (CopyNet, Gu et al.
// 2016). At each decode step the output distribution is a gated mixture of
//   generate-mode: softmax over a small output vocabulary, and
//   copy-mode:     the attention distribution over source positions,
// so out-of-vocabulary hypernyms remain reachable by pointing at the source
// — the OOV problem the paper cites as the reason for choosing CopyNet.
//
// Architecture (dims are config):
//   encoder: input embedding + GRU over source tokens -> states h_1..h_T
//   decoder: GRU over [emb(y_prev); context_prev]
//   attention: bilinear, e_j = h_j · (W_a s_t); a = softmax(e)
//   p_gen = sigmoid(w_g [s_t; c_t]);  P = p_gen*P_vocab + (1-p_gen)*copy
//
// Training runs on the autograd tape. Inference runs on CopyNetDecoder
// (nn/copynet_decoder.h), a frozen copy of the weights that decodes the
// first word only: the hypernym. Its argmax is over P summed per word: each
// output-vocab id, plus one slot per distinct source word outside the output
// vocabulary. Exact ties go to the lowest output-vocab id, then to the OOV
// word with the earliest first source position. <pad> and <unk> are never
// chosen; <eos> or an empty word means no hypernym.
class CopyNet {
 public:
  struct Config {
    int embed_dim = 32;
    int hidden_dim = 64;
    bool use_copy = true;  // false = plain attentional seq2seq (ablation)
    uint64_t seed = 1234;
  };

  struct Example {
    std::vector<int> source_ids;            // input-vocab ids
    std::vector<std::string> source_words;  // surface forms, same length
    std::vector<std::string> target_words;  // without the implicit <eos>
  };

  // Vocabularies must outlive the model.
  CopyNet(const Vocab* input_vocab, const Vocab* output_vocab,
          const Config& config);

  // Accumulates gradients over the batch and returns the mean per-token
  // loss. The caller owns the optimizer step. The examples run in parallel
  // (nn::BackwardBatch); the gradients and the loss are bit-identical at
  // any thread count.
  float AccumulateBatch(const std::vector<const Example*>& batch);

  std::vector<Var> Params() const;
  const Config& config() const { return config_; }

  // The tape forward that training differentiates through. Inference runs
  // on CopyNetDecoder, which reproduces these values bit for bit; tests
  // compare the two.
  // Runs the encoder; fills per-token states and returns the final state.
  Var Encode(const std::vector<int>& ids, std::vector<Var>* states) const;

  struct StepOutput {
    Var state;      // decoder state s_t
    Var context;    // attention context c_t [hidden]
    Var attention;  // a over source positions [T]
    Var p_gen;      // [1]
    Var p_vocab;    // [Vout]
  };
  StepOutput DecodeStep(const Var& h_matrix, const Var& prev_state,
                        const Var& prev_context, int prev_word_id) const;
  Var ZeroContext() const;

 private:
  friend class CopyNetDecoder;  // copies the trained weights

  // Records one example's teacher-forced graph on the bound tape and
  // returns its summed loss, or a null Var when no step has one to
  // backpropagate. Appends each target token's loss to `token_losses`.
  Var ExampleLoss(const Example& example,
                  std::vector<double>* token_losses) const;

  const Vocab* input_vocab_;
  const Vocab* output_vocab_;
  Config config_;
  Embedding input_embed_;
  Embedding output_embed_;
  GruCell encoder_;
  GruCell decoder_;
  Linear attn_;       // hidden -> hidden
  Linear out_;        // 2*hidden -> |Vout|
  Linear copy_gate_;  // 2*hidden -> 1
};

}  // namespace cnpb::nn

#endif  // CNPROBASE_NN_COPYNET_H_
