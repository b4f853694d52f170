#include "nn/copynet_decoder.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "util/logging.h"

namespace cnpb::nn {

namespace {

int RoundUp4(int n) { return (n + 3) & ~3; }

}  // namespace

CopyNetDecoder::Affine CopyNetDecoder::Fuse(
    const std::vector<const Linear*>& parts) {
  Affine affine;
  affine.in = parts[0]->weight()->value.cols();
  int total = 0;
  for (const Linear* part : parts) {
    CNPB_CHECK(part->weight()->value.cols() == affine.in);
    total += part->weight()->value.rows();
  }
  affine.stride = RoundUp4(total);
  affine.weight.assign(static_cast<size_t>(affine.in) * affine.stride, 0.0f);
  affine.bias.assign(affine.stride, 0.0f);
  int offset = 0;
  for (const Linear* part : parts) {
    const Tensor& w = part->weight()->value;
    const Tensor& b = part->bias()->value;
    for (int i = 0; i < w.rows(); ++i) {
      for (int j = 0; j < affine.in; ++j) {
        affine.weight[static_cast<size_t>(j) * affine.stride + offset + i] =
            w.at(i, j);
      }
      affine.bias[offset + i] = b[i];
    }
    offset += w.rows();
  }
  return affine;
}

void CopyNetDecoder::Apply(const Affine& affine, const float* x, float* y) {
  kernels::MatVecT(affine.weight.data(), affine.in, affine.stride, x, y);
  kernels::AddTo(affine.bias.data(), affine.stride, y);
}

CopyNetDecoder::CopyNetDecoder(const CopyNet& model)
    : output_vocab_(model.output_vocab_),
      use_copy_(model.config_.use_copy),
      embed_dim_(model.config_.embed_dim),
      hidden_(model.config_.hidden_dim) {
  const Tensor& table = model.input_embed_.table_->value;
  input_embed_.assign(table.data(), table.data() + table.size());

  const GruCell& enc = model.encoder_;
  enc_x_ = Fuse({&enc.wz_, &enc.wr_, &enc.wn_});
  enc_uzr_ = Fuse({&enc.uz_, &enc.ur_});
  enc_un_ = Fuse({&enc.un_});

  const GruCell& dec = model.decoder_;
  const Affine dec_x = Fuse({&dec.wz_, &dec.wr_, &dec.wn_});
  std::vector<float> dec_input(embed_dim_ + hidden_, 0.0f);
  const Tensor& out_table = model.output_embed_.table_->value;
  std::copy_n(out_table.data() + static_cast<size_t>(Vocab::kPad) * embed_dim_,
              embed_dim_, dec_input.begin());
  dec_gx_.resize(dec_x.stride);
  Apply(dec_x, dec_input.data(), dec_gx_.data());
  dec_uzr_ = Fuse({&dec.uz_, &dec.ur_});
  dec_un_ = Fuse({&dec.un_});

  attn_ = Fuse({&model.attn_});
  out_ = Fuse({&model.out_});
  copy_gate_ = Fuse({&model.copy_gate_});
}

void CopyNetDecoder::GruStep(const Affine& uzr, const Affine& un,
                             const float* gx, const float* h, float* h_out,
                             float* work) const {
  const int n = hidden_;
  float* gh = work;                  // [uzr.stride]
  float* un_out = gh + uzr.stride;   // [un.stride]
  float* z = un_out + un.stride;     // [n]
  float* rh = z + n;                 // [n]
  Apply(uzr, h, gh);
  for (int i = 0; i < n; ++i) {
    z[i] = kernels::Sigmoid(gx[i] + gh[i]);
    rh[i] = kernels::Sigmoid(gx[n + i] + gh[n + i]) * h[i];
  }
  Apply(un, rh, un_out);
  for (int i = 0; i < n; ++i) {
    const float cand = std::tanh(gx[2 * n + i] + un_out[i]);
    h_out[i] = (1.0f - z[i]) * cand + z[i] * h[i];
  }
}

CopyNetDecoder::Step CopyNetDecoder::Forward(
    const std::vector<int>& source_ids) const {
  CNPB_CHECK(!source_ids.empty());
  const int t_len = static_cast<int>(source_ids.size());
  const int t_stride = RoundUp4(t_len);
  const int n = hidden_;
  const int vocab = output_vocab_->size();
  const int input_vocab = static_cast<int>(input_embed_.size()) / embed_dim_;

  // One scratch buffer per call keeps Forward reentrant.
  const int work_size = std::max(enc_uzr_.stride + enc_un_.stride,
                                 dec_uzr_.stride + dec_un_.stride) +
                        2 * n;
  std::vector<float> scratch(
      static_cast<size_t>(t_len + 1) * n +              // h_0..h_T
      static_cast<size_t>(n) * t_stride +               // [h][T] states
      enc_x_.stride + work_size + attn_.stride +        // gx, work, query
      t_stride + 2 * n + copy_gate_.stride + out_.stride);
  float* states = scratch.data();  // row 0 is the zero state, row t+1 is h_t
  float* states_t = states + static_cast<size_t>(t_len + 1) * n;
  float* gx = states_t + static_cast<size_t>(n) * t_stride;
  float* work = gx + enc_x_.stride;
  float* query = work + work_size;
  float* scores = query + attn_.stride;
  float* feat = scores + t_stride;  // [s; context]
  float* gate = feat + 2 * n;
  float* logits = gate + copy_gate_.stride;

  for (int t = 0; t < t_len; ++t) {
    const int id = source_ids[t];
    CNPB_CHECK(id >= 0 && id < input_vocab);
    Apply(enc_x_, input_embed_.data() + static_cast<size_t>(id) * embed_dim_,
          gx);
    float* h = states + static_cast<size_t>(t + 1) * n;
    GruStep(enc_uzr_, enc_un_, gx, h - n, h, work);
    for (int j = 0; j < n; ++j) {
      states_t[static_cast<size_t>(j) * t_stride + t] = h[j];
    }
  }

  float* s = feat;
  float* context = feat + n;
  GruStep(dec_uzr_, dec_un_, dec_gx_.data(),
          states + static_cast<size_t>(t_len) * n, s, work);
  Apply(attn_, s, query);
  kernels::MatVecT(states_t, n, t_stride, query, scores);

  Step step;
  step.attention.resize(t_len);
  kernels::Softmax(scores, t_len, step.attention.data());
  // MatTVec: zero attention weights are skipped, as on the tape.
  for (int t = 0; t < t_len; ++t) {
    const float w = step.attention[t];
    if (w == 0.0f) continue;
    const float* h = states + static_cast<size_t>(t + 1) * n;
    for (int j = 0; j < n; ++j) context[j] += w * h[j];
  }

  Apply(copy_gate_, feat, gate);
  step.p_gen = kernels::Sigmoid(gate[0]);
  Apply(out_, feat, logits);
  step.p_vocab.resize(vocab);
  kernels::Softmax(logits, vocab, step.p_vocab.data());
  return step;
}

std::string CopyNetDecoder::Decode(
    const std::vector<int>& source_ids,
    const std::vector<std::string>& source_words) const {
  if (source_ids.empty()) return {};
  CNPB_CHECK(source_ids.size() == source_words.size());
  const Step step = Forward(source_ids);
  const int vocab = output_vocab_->size();
  const int t_len = static_cast<int>(source_ids.size());

  // Score slots: output-vocab ids, then one per distinct OOV source word in
  // order of first position. A slot is live once a vocab term is positive or
  // a copy term reaches it.
  std::vector<int> slot_of(use_copy_ ? t_len : 0);
  std::vector<int> oov_first;  // first source position of each OOV slot
  for (int j = 0; j < static_cast<int>(slot_of.size()); ++j) {
    int slot = output_vocab_->Find(source_words[j]);
    if (slot < 0) {
      size_t k = 0;
      while (k < oov_first.size() &&
             source_words[oov_first[k]] != source_words[j]) {
        ++k;
      }
      if (k == oov_first.size()) oov_first.push_back(j);
      slot = vocab + static_cast<int>(k);
    }
    slot_of[j] = slot;
  }
  std::vector<float> score(vocab + oov_first.size(), 0.0f);
  std::vector<char> live(score.size(), 0);
  for (int v = 0; v < vocab; ++v) {
    const float p = step.p_gen * step.p_vocab[v];
    if (p > 0.0f) {
      score[v] = p;
      live[v] = 1;
    }
  }
  const float copy_weight = 1.0f - step.p_gen;
  for (int j = 0; j < static_cast<int>(slot_of.size()); ++j) {
    score[slot_of[j]] += copy_weight * step.attention[j];
    live[slot_of[j]] = 1;
  }

  // Highest score; ties go to the lower slot, i.e. the lower vocab id, then
  // the earlier first source position. <pad> and <unk> are never emitted.
  int best = -1;
  float best_score = -1.0f;
  for (int slot = 0; slot < static_cast<int>(score.size()); ++slot) {
    if (!live[slot] || slot == Vocab::kPad || slot == Vocab::kUnk) continue;
    if (score[slot] > best_score) {
      best_score = score[slot];
      best = slot;
    }
  }
  if (best < 0 || best == Vocab::kEos) return {};
  return best < vocab ? output_vocab_->Word(best)
                      : source_words[oov_first[best - vocab]];
}

}  // namespace cnpb::nn
