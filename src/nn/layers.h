#ifndef CNPROBASE_NN_LAYERS_H_
#define CNPROBASE_NN_LAYERS_H_

#include <vector>

#include "nn/autograd.h"
#include "util/rng.h"

namespace cnpb::nn {

// Affine map y = Wx + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in_dim, int out_dim, util::Rng& rng);

  Var operator()(const Var& x) const;
  void CollectParams(std::vector<Var>* params) const;

  const Var& weight() const { return w_; }
  const Var& bias() const { return b_; }

 private:
  Var w_;
  Var b_;
};

// Embedding table [vocab, dim]; lookup returns the row as a Var.
class Embedding {
 public:
  Embedding() = default;
  Embedding(int vocab, int dim, util::Rng& rng);

  Var Lookup(int id) const;
  void CollectParams(std::vector<Var>* params) const;
  int vocab() const { return table_->value.rows(); }
  int dim() const { return table_->value.cols(); }

 private:
  friend class CopyNetDecoder;

  Var table_;
};

// Gated recurrent unit cell:
//   z = sigmoid(Wz x + Uz h + bz)
//   r = sigmoid(Wr x + Ur h + br)
//   n = tanh(Wn x + Un (r*h) + bn)
//   h' = (1-z)*n + z*h
class GruCell {
 public:
  GruCell() = default;
  GruCell(int input_dim, int hidden_dim, util::Rng& rng);

  Var Step(const Var& x, const Var& h) const;
  Var InitialState() const;  // zero vector, no grad
  void CollectParams(std::vector<Var>* params) const;
  int hidden_dim() const { return hidden_dim_; }

 private:
  friend class CopyNetDecoder;

  int hidden_dim_ = 0;
  Linear wz_, uz_, wr_, ur_, wn_, un_;
};

}  // namespace cnpb::nn

#endif  // CNPROBASE_NN_LAYERS_H_
