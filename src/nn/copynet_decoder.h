#ifndef CNPROBASE_NN_COPYNET_DECODER_H_
#define CNPROBASE_NN_COPYNET_DECODER_H_

#include <string>
#include <vector>

#include "nn/copynet.h"
#include "nn/vocab.h"

namespace cnpb::nn {

// Frozen, tape-free inference for a trained CopyNet: one greedy decode step
// over flat float buffers. It copies the model's weights at construction, so
// later training does not reach it; rebuild it after every weight change.
//
// Every value it computes is bit-identical to the tape's (CopyNet::Encode +
// DecodeStep): each Linear is re-laid as [in][out] so an affine runs as a
// 4-lane vector loop across outputs, but every output still sums its terms
// in the tape's order (from 0.0f, input index ascending, bias last), and the
// GRU and attention repeat autograd.cc's per-element formulas. Both sides
// take MatVecT, the softmax and the sigmoid from one place (nn/kernels.h),
// and the library is built with -ffp-contract=off so neither side is
// contracted to FMA.
//
// Read-only after construction: Decode may run on concurrent threads.
class CopyNetDecoder {
 public:
  // The model's vocabularies must outlive the decoder.
  explicit CopyNetDecoder(const CopyNet& model);

  // The first decode step's distributions, as DecodeStep computes them.
  struct Step {
    float p_gen = 0.0f;
    std::vector<float> p_vocab;    // [|Vout|]
    std::vector<float> attention;  // [T]
  };
  // `source_ids` must be non-empty input-vocab ids.
  Step Forward(const std::vector<int>& source_ids) const;

  // The hypernym the first step picks, or "" for none: an empty source, or
  // the argmax is <eos> or an empty word. Ties break in the order copynet.h
  // documents. `source_words` are the surface forms of `source_ids`.
  std::string Decode(const std::vector<int>& source_ids,
                     const std::vector<std::string>& source_words) const;

 private:
  // One or more Linears sharing an input, re-laid as [in][stride] with their
  // outputs side by side; stride is the total output rounded up to 4, and
  // the padding columns hold zeros.
  struct Affine {
    int in = 0;
    int stride = 0;
    std::vector<float> weight;  // [in][stride]
    std::vector<float> bias;    // [stride]
  };
  static Affine Fuse(const std::vector<const Linear*>& parts);
  // y[0, stride) = W x + b.
  static void Apply(const Affine& affine, const float* x, float* y);

  // One GRU step h' from the input-side gate pre-activations gx = [Wz x;
  // Wr x; Wn x] (biases included) and h. `work` holds uzr.stride +
  // un.stride + 2 * hidden_ floats.
  void GruStep(const Affine& uzr, const Affine& un, const float* gx,
               const float* h, float* h_out, float* work) const;

  const Vocab* output_vocab_;
  bool use_copy_;
  int embed_dim_;
  int hidden_;
  std::vector<float> input_embed_;  // [|Vin|][embed_dim_]
  Affine enc_x_;                    // [Wz; Wr; Wn] over the token embedding
  Affine enc_uzr_;                  // [Uz; Ur] over h
  Affine enc_un_;                   // Un over r*h
  // The first step's decoder input is always [emb(<pad>); 0], so its
  // input-side gate pre-activations are computed once.
  std::vector<float> dec_gx_;
  Affine dec_uzr_;
  Affine dec_un_;
  Affine attn_;
  Affine out_;
  Affine copy_gate_;
};

}  // namespace cnpb::nn

#endif  // CNPROBASE_NN_COPYNET_DECODER_H_
