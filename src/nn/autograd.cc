#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "nn/kernels.h"

namespace cnpb::nn {

namespace {

enum class OpKind : uint8_t {
  kAdd,
  kSub,
  kMul,
  kScalarMul,
  kTanh,
  kSigmoid,
  kOneMinus,
  kMatVec,
  kDot,
  kConcat,
  kSoftmax,
  kNegLog,
  kGather,
  kGatherSum,
  kRow,
  kStackRows,
  kMatTVec,
};

struct OpRecord {
  Node* node;
  OpKind kind;
  bool visited;      // reached by Backward's walk
  int first_parent;  // into Tape::parents_
  int num_parents;
  int index;    // Gather, Row: the index; GatherSum: first of its indices
  int count;    // GatherSum: number of indices
  float scalar;  // ScalarMul: the factor
};

size_t RoundUp4(size_t n) { return (n + 3) & ~size_t{3}; }

// Bump allocation from blocks that are kept across Reset, so the arena
// stops allocating once it has held the largest example.
class Arena {
 public:
  float* Allocate(size_t n) {
    n = RoundUp4(n);  // keeps every buffer 16-byte aligned
    if (block_ < blocks_.size() && used_ + n <= blocks_[block_].size) {
      float* out = blocks_[block_].data.get() + used_;
      used_ += n;
      return out;
    }
    // The current block is full: move to the next, growing or adding it
    // when it cannot hold `n`.
    if (block_ < blocks_.size()) ++block_;
    if (block_ == blocks_.size()) blocks_.emplace_back();
    Block& block = blocks_[block_];
    if (block.size < n) {
      block.size = std::max(n, kBlockFloats);
      block.data = std::make_unique<float[]>(block.size);
    }
    used_ = n;
    return block.data.get();
  }

  void Reset() {
    block_ = 0;
    used_ = 0;
  }

 private:
  static constexpr size_t kBlockFloats = size_t{1} << 16;
  struct Block {
    std::unique_ptr<float[]> data;
    size_t size = 0;
  };
  std::vector<Block> blocks_;
  size_t block_ = 0;  // the block being filled
  size_t used_ = 0;   // floats taken from it
};

}  // namespace

// One thread's recorded graph. See autograd.h for the lifetime rules.
class Tape {
 public:
  static Tape& ThisThread() {
    thread_local Tape tape;
    return tape;
  }

  // Records an op over `parents` (Vars, or pointers to them) whose value
  // is `rows` x `cols`, left uninitialised for the op to fill, and returns
  // its result.
  template <typename Parents>
  Var Record(OpKind kind, int rows, int cols, const Parents& parents) {
    bool requires_grad = false;
    for (const auto& p : parents) requires_grad |= Ref(p)->requires_grad;
    Node* node = NewNode(kind, rows, cols, requires_grad);
    for (const auto& p : parents) AddParent(Ref(p));
    records_.back().num_parents = static_cast<int>(parents.size());
    return Var(node);
  }
  Var Record(OpKind kind, int rows, int cols,
             std::initializer_list<const Var*> parents) {
    return Record<std::initializer_list<const Var*>>(kind, rows, cols,
                                                     parents);
  }

  // The record of the op Record last made.
  OpRecord& last() { return records_.back(); }

  // Stores GatherSum's indices; returns the first one's position.
  int StoreIndices(const std::vector<int>& indices) {
    const int first = static_cast<int>(indices_.size());
    indices_.insert(indices_.end(), indices.begin(), indices.end());
    return first;
  }
  const int* indices(int first) const { return indices_.data() + first; }

  // `n` floats that live until the tape is cleared.
  float* Scratch(size_t n) { return arena_.Allocate(n); }

  void Backward(Node* loss);

  void Clear() {
    records_.clear();
    parents_.clear();
    indices_.clear();
    leaves_.clear();
    arena_.Reset();
    num_nodes_ = 0;
  }

 private:
  static constexpr size_t kNodesPerBlock = 1024;

  // A leaf weight's MatVec gradient terms, held back so that they can be
  // added in one tiled pass: grad += g[k] x[k]^T for k in tape order.
  struct DeferredWeight {
    Node* weight = nullptr;
    std::vector<const float*> g;
    std::vector<const float*> x;
  };

  Node* NewNode(OpKind kind, int rows, int cols, bool requires_grad) {
    if (num_nodes_ == node_blocks_.size() * kNodesPerBlock) {
      node_blocks_.push_back(std::make_unique<Node[]>(kNodesPerBlock));
    }
    Node* node = &node_blocks_[num_nodes_ / kNodesPerBlock]
                              [num_nodes_ % kNodesPerBlock];
    ++num_nodes_;
    const size_t size = static_cast<size_t>(rows) * cols;
    float* memory =
        arena_.Allocate(requires_grad ? 2 * RoundUp4(size) : size);
    node->value = Tensor::View(memory, rows, cols);
    node->grad = requires_grad
                     ? Tensor::View(memory + RoundUp4(size), rows, cols)
                     : Tensor();
    node->requires_grad = requires_grad;
    node->grad_ready = false;
    node->op = static_cast<int>(records_.size());
    records_.push_back({node, kind, false, static_cast<int>(parents_.size()),
                        0, 0, 0, 0.0f});
    return node;
  }

  static const Var& Ref(const Var& var) { return var; }
  static const Var& Ref(const Var* var) { return *var; }

  void AddParent(const Var& parent) {
    parents_.push_back(parent.get());
    if (parent.leaf_ != nullptr) leaves_.push_back(parent.leaf_);
  }

  // `p`'s gradient, ready to add into. A leaf's deferred terms come first,
  // so that each of its elements still gets its terms in tape order.
  float* GradOf(Node* p) {
    p->EnsureGrad();
    if (p->deferred >= 0) Flush(deferred_[p->deferred]);
    return p->grad.data();
  }

  void Defer(Node* weight, const float* g, const float* x) {
    weight->EnsureGrad();
    if (weight->deferred < 0) {
      weight->deferred = static_cast<int>(num_deferred_++);
      if (deferred_.size() < num_deferred_) deferred_.emplace_back();
      deferred_[weight->deferred].weight = weight;
    }
    DeferredWeight& d = deferred_[weight->deferred];
    d.g.push_back(g);
    d.x.push_back(x);
  }

  void Flush(DeferredWeight& d) {
    if (d.g.empty()) return;
    Tensor& grad = d.weight->grad;
    kernels::AddOuterProducts(grad.data(), grad.rows(), grad.cols(),
                              d.g.data(), d.x.data(),
                              static_cast<int>(d.g.size()));
    d.g.clear();
    d.x.clear();
  }

  void RunBackward(const OpRecord& op);

  std::vector<OpRecord> records_;
  std::vector<Node*> parents_;
  std::vector<int> indices_;
  std::vector<std::shared_ptr<Node>> leaves_;  // kept alive until Clear
  std::vector<std::unique_ptr<Node[]>> node_blocks_;
  size_t num_nodes_ = 0;
  Arena arena_;
  // Backward's scratch, kept for its capacity.
  std::vector<std::pair<int, int>> stack_;  // (op, next parent)
  std::vector<int> order_;
  std::vector<DeferredWeight> deferred_;
  size_t num_deferred_ = 0;
};

void Tape::Backward(Node* loss) {
  CNPB_CHECK(loss->value.size() == 1) << "Backward needs a scalar loss";
  // Topological order by iterative DFS from the loss, parents in recorded
  // order. Leaves have no parents and no backward, so the walk skips them;
  // that leaves the ops' relative order as a walk over every node has it.
  order_.clear();
  stack_.clear();
  if (loss->op >= 0) {
    records_[loss->op].visited = true;
    stack_.emplace_back(loss->op, 0);
  }
  while (!stack_.empty()) {
    const int op = stack_.back().first;
    const OpRecord& record = records_[op];
    const int next = stack_.back().second;
    if (next < record.num_parents) {
      ++stack_.back().second;
      Node* parent = parents_[record.first_parent + next];
      if (parent->requires_grad && parent->op >= 0 &&
          !records_[parent->op].visited) {
        records_[parent->op].visited = true;
        stack_.emplace_back(parent->op, 0);
      }
    } else {
      order_.push_back(op);
      stack_.pop_back();
    }
  }
  loss->EnsureGrad();
  loss->grad[0] = 1.0f;
  // order_ is parents-before-children; run it from the back.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const OpRecord& record = records_[*it];
    if (record.node->grad_ready) RunBackward(record);
  }
  for (size_t k = 0; k < num_deferred_; ++k) {
    Flush(deferred_[k]);
    deferred_[k].weight->deferred = -1;
  }
  num_deferred_ = 0;
  Clear();
}

void Tape::RunBackward(const OpRecord& op) {
  Node* const node = op.node;
  Node* const* parents = parents_.data() + op.first_parent;
  Node* const a = parents[0];
  Node* const b = op.num_parents > 1 ? parents[1] : nullptr;
  const float* g = node->grad.data();
  const int n = static_cast<int>(node->value.size());
  switch (op.kind) {
    case OpKind::kAdd:
      for (Node* p : {a, b}) {
        if (p->requires_grad) kernels::AddTo(g, n, GradOf(p));
      }
      break;
    case OpKind::kSub:
      if (a->requires_grad) kernels::AddTo(g, n, GradOf(a));
      if (b->requires_grad) kernels::SubFrom(g, n, GradOf(b));
      break;
    case OpKind::kMul:
      if (a->requires_grad) {
        kernels::AddProduct(g, b->value.data(), n, GradOf(a));
      }
      if (b->requires_grad) {
        kernels::AddProduct(g, a->value.data(), n, GradOf(b));
      }
      break;
    case OpKind::kScalarMul:
      if (a->requires_grad) kernels::AddScaled(g, op.scalar, n, GradOf(a));
      break;
    case OpKind::kTanh:
      if (a->requires_grad) {
        kernels::AddTanhGrad(g, node->value.data(), n, GradOf(a));
      }
      break;
    case OpKind::kSigmoid:
      if (a->requires_grad) {
        kernels::AddSigmoidGrad(g, node->value.data(), n, GradOf(a));
      }
      break;
    case OpKind::kOneMinus:
      if (a->requires_grad) kernels::SubFrom(g, n, GradOf(a));
      break;
    case OpKind::kMatVec: {
      const int m = a->value.rows();
      const int cols = a->value.cols();
      const float* x = b->value.data();
      if (a->requires_grad) {
        // A leaf weight's terms wait for one tiled pass at the end of
        // Backward; any other weight takes them now.
        if (a->op < 0) {
          Defer(a, g, x);
        } else {
          kernels::AddOuterProducts(GradOf(a), m, cols, &g, &x, 1);
        }
      }
      if (b->requires_grad) {
        kernels::AddMatTVec(a->value.data(), m, cols, g, GradOf(b));
      }
      break;
    }
    case OpKind::kDot: {
      const int len = static_cast<int>(a->value.size());
      if (a->requires_grad) {
        kernels::AddScaled(b->value.data(), g[0], len, GradOf(a));
      }
      if (b->requires_grad) {
        kernels::AddScaled(a->value.data(), g[0], len, GradOf(b));
      }
      break;
    }
    case OpKind::kConcat: {
      const int na = a->value.rows();
      if (a->requires_grad) kernels::AddTo(g, na, GradOf(a));
      if (b->requires_grad) kernels::AddTo(g + na, b->value.rows(), GradOf(b));
      break;
    }
    case OpKind::kSoftmax:
      if (a->requires_grad) {
        kernels::AddSoftmaxGrad(node->value.data(), g, n, GradOf(a));
      }
      break;
    case OpKind::kNegLog:
      if (a->requires_grad) {
        const float x = std::max(a->value[0], 1e-12f);
        GradOf(a)[0] += g[0] * (-1.0f / x);
      }
      break;
    case OpKind::kGather:
      if (a->requires_grad) GradOf(a)[op.index] += g[0];
      break;
    case OpKind::kGatherSum:
      if (a->requires_grad) {
        float* grad = GradOf(a);
        const int* index = indices(op.index);
        for (int k = 0; k < op.count; ++k) grad[index[k]] += g[0];
      }
      break;
    case OpKind::kRow:
      if (a->requires_grad) {
        kernels::AddTo(g, n,
                       GradOf(a) + static_cast<size_t>(op.index) * n);
      }
      break;
    case OpKind::kStackRows: {
      const int h = node->value.cols();
      for (int i = 0; i < op.num_parents; ++i) {
        if (!parents[i]->requires_grad) continue;
        kernels::AddTo(g + static_cast<size_t>(i) * h, h, GradOf(parents[i]));
      }
      break;
    }
    case OpKind::kMatTVec: {
      const int t = a->value.rows();
      const int dim = a->value.cols();
      const float* weights = b->value.data();
      if (a->requires_grad) {
        kernels::AddOuterProducts(GradOf(a), t, dim, &weights, &g, 1);
      }
      if (b->requires_grad) {
        float* dots = Scratch(t);
        kernels::MatVec(a->value.data(), t, dim, g, dots);
        kernels::AddTo(dots, t, GradOf(b));
      }
      break;
    }
  }
}

Var MakeVar(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Var(std::move(node));
}

void Backward(const Var& loss) { Tape::ThisThread().Backward(loss.get()); }

void ClearTape() { Tape::ThisThread().Clear(); }

namespace {

Tape& ThisTape() { return Tape::ThisThread(); }

void CheckSameShape(const Var& a, const Var& b) {
  CNPB_CHECK(a->value.SameShape(b->value));
}

int Size(const Var& v) { return static_cast<int>(v->value.size()); }

// Records an op whose value has `a`'s shape.
Var RecordLike(OpKind kind, const Var& a,
               std::initializer_list<const Var*> parents) {
  return ThisTape().Record(kind, a->value.rows(), a->value.cols(), parents);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  CheckSameShape(a, b);
  Var out = RecordLike(OpKind::kAdd, a, {&a, &b});
  kernels::Add(a->value.data(), b->value.data(), Size(a), out->value.data());
  return out;
}

Var Sub(const Var& a, const Var& b) {
  CheckSameShape(a, b);
  Var out = RecordLike(OpKind::kSub, a, {&a, &b});
  kernels::Sub(a->value.data(), b->value.data(), Size(a), out->value.data());
  return out;
}

Var Mul(const Var& a, const Var& b) {
  CheckSameShape(a, b);
  Var out = RecordLike(OpKind::kMul, a, {&a, &b});
  kernels::Mul(a->value.data(), b->value.data(), Size(a), out->value.data());
  return out;
}

Var ScalarMul(const Var& a, float c) {
  Var out = RecordLike(OpKind::kScalarMul, a, {&a});
  ThisTape().last().scalar = c;
  kernels::Scale(a->value.data(), c, Size(a), out->value.data());
  return out;
}

Var Tanh(const Var& a) {
  Var out = RecordLike(OpKind::kTanh, a, {&a});
  for (int i = 0; i < Size(a); ++i) out->value[i] = std::tanh(a->value[i]);
  return out;
}

Var Sigmoid(const Var& a) {
  Var out = RecordLike(OpKind::kSigmoid, a, {&a});
  for (int i = 0; i < Size(a); ++i) {
    out->value[i] = kernels::Sigmoid(a->value[i]);
  }
  return out;
}

Var OneMinus(const Var& a) {
  Var out = RecordLike(OpKind::kOneMinus, a, {&a});
  kernels::OneMinus(a->value.data(), Size(a), out->value.data());
  return out;
}

Var MatVec(const Var& w, const Var& x) {
  const int m = w->value.rows();
  const int n = w->value.cols();
  CNPB_CHECK(x->value.rows() == n && x->value.cols() == 1);
  Var out = ThisTape().Record(OpKind::kMatVec, m, 1, {&w, &x});
  kernels::MatVec(w->value.data(), m, n, x->value.data(), out->value.data());
  return out;
}

Var Dot(const Var& a, const Var& b) {
  CheckSameShape(a, b);
  float acc = 0.0f;
  for (size_t i = 0; i < a->value.size(); ++i) acc += a->value[i] * b->value[i];
  Var out = ThisTape().Record(OpKind::kDot, 1, 1, {&a, &b});
  out->value[0] = acc;
  return out;
}

Var Concat(const Var& a, const Var& b) {
  CNPB_CHECK(a->value.cols() == 1 && b->value.cols() == 1);
  const int na = a->value.rows();
  const int nb = b->value.rows();
  Var out = ThisTape().Record(OpKind::kConcat, na + nb, 1, {&a, &b});
  std::copy_n(a->value.data(), na, out->value.data());
  std::copy_n(b->value.data(), nb, out->value.data() + na);
  return out;
}

Var Softmax(const Var& a) {
  Var out = RecordLike(OpKind::kSoftmax, a, {&a});
  kernels::Softmax(a->value.data(), Size(a), out->value.data());
  return out;
}

Var NegLog(const Var& a) {
  CNPB_CHECK(a->value.size() == 1);
  Var out = ThisTape().Record(OpKind::kNegLog, 1, 1, {&a});
  out->value[0] = -std::log(std::max(a->value[0], 1e-12f));
  return out;
}

Var Gather(const Var& a, int index) {
  CNPB_CHECK(index >= 0 && static_cast<size_t>(index) < a->value.size());
  Tape& tape = ThisTape();
  Var out = tape.Record(OpKind::kGather, 1, 1, {&a});
  tape.last().index = index;
  out->value[0] = a->value[index];
  return out;
}

Var GatherSum(const Var& a, const std::vector<int>& indices) {
  float acc = 0.0f;
  for (int index : indices) {
    CNPB_CHECK(index >= 0 && static_cast<size_t>(index) < a->value.size());
    acc += a->value[index];
  }
  Tape& tape = ThisTape();
  Var out = tape.Record(OpKind::kGatherSum, 1, 1, {&a});
  tape.last().index = tape.StoreIndices(indices);
  tape.last().count = static_cast<int>(indices.size());
  out->value[0] = acc;
  return out;
}

Var Row(const Var& table, int index) {
  const int d = table->value.cols();
  CNPB_CHECK(index >= 0 && index < table->value.rows());
  Tape& tape = ThisTape();
  Var out = tape.Record(OpKind::kRow, d, 1, {&table});
  tape.last().index = index;
  std::copy_n(table->value.data() + static_cast<size_t>(index) * d, d,
              out->value.data());
  return out;
}

Var StackRows(const std::vector<Var>& rows) {
  CNPB_CHECK(!rows.empty());
  const int h = rows[0]->value.rows();
  const int t = static_cast<int>(rows.size());
  for (const Var& row : rows) {
    CNPB_CHECK(row->value.rows() == h && row->value.cols() == 1);
  }
  Var out = ThisTape().Record(OpKind::kStackRows, t, h, rows);
  for (int i = 0; i < t; ++i) {
    std::copy_n(rows[i]->value.data(), h,
                out->value.data() + static_cast<size_t>(i) * h);
  }
  return out;
}

Var MatTVec(const Var& h, const Var& a) {
  const int t = h->value.rows();
  const int dim = h->value.cols();
  CNPB_CHECK(a->value.rows() == t && a->value.cols() == 1);
  Var out = ThisTape().Record(OpKind::kMatTVec, dim, 1, {&h, &a});
  out->value.Fill(0.0f);
  kernels::AddMatTVec(h->value.data(), t, dim, a->value.data(),
                      out->value.data());
  return out;
}

}  // namespace cnpb::nn
