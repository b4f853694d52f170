#include "nn/autograd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <mutex>

#include "nn/kernels.h"
#include "util/parallel.h"

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

// One addition into a gradient: the kernel call an op's backward makes,
// with the gradient from `offset` on as `dst`. A term for an op's gradient
// is added at once; a term for a leaf's waits in its tape's log until
// Replay.
enum class TermKind : uint8_t {
  kOuter,        // AddOuterProducts(dst, rows, cols, &a, &b, 1)
  kAddTo,        // AddTo(a, n, dst)
  kSubFrom,      // SubFrom(a, n, dst)
  kAddProduct,   // AddProduct(a, b, n, dst)
  kAddScaled,    // AddScaled(a, c, n, dst)
  kTanhGrad,     // AddTanhGrad(a, b, n, dst)
  kSigmoidGrad,  // AddSigmoidGrad(a, b, n, dst)
  kSoftmaxGrad,  // AddSoftmaxGrad(a, b, n, dst)
  kMatTVec,      // AddMatTVec(a, m, n, b, dst)
  kSeed,         // dst[0] = 1: the loss's own gradient
};

struct Term {
  TermKind kind;
  const float* a = nullptr;
  const float* b = nullptr;
  float c = 0.0f;
  int n = 0;
  int m = 0;
  size_t offset = 0;
};

// Adds `term` into a gradient of `rows` x `cols` floats at `grad`.
void Apply(const Term& t, int rows, int cols, float* grad) {
  float* dst = grad + t.offset;
  switch (t.kind) {
    case TermKind::kOuter:
      kernels::AddOuterProducts(dst, rows, cols, &t.a, &t.b, 1);
      break;
    case TermKind::kAddTo:
      kernels::AddTo(t.a, t.n, dst);
      break;
    case TermKind::kSubFrom:
      kernels::SubFrom(t.a, t.n, dst);
      break;
    case TermKind::kAddProduct:
      kernels::AddProduct(t.a, t.b, t.n, dst);
      break;
    case TermKind::kAddScaled:
      kernels::AddScaled(t.a, t.c, t.n, dst);
      break;
    case TermKind::kTanhGrad:
      kernels::AddTanhGrad(t.a, t.b, t.n, dst);
      break;
    case TermKind::kSigmoidGrad:
      kernels::AddSigmoidGrad(t.a, t.b, t.n, dst);
      break;
    case TermKind::kSoftmaxGrad:
      kernels::AddSoftmaxGrad(t.a, t.b, t.n, dst);
      break;
    case TermKind::kMatTVec:
      kernels::AddMatTVec(t.a, t.m, t.n, t.b, dst);
      break;
    case TermKind::kSeed:
      dst[0] = 1.0f;
      break;
  }
}

// Small indices for pointers, in the order they were first inserted: open
// addressing over a power-of-two table that keeps its capacity across
// Clear, so that a training run stops allocating here once it has seen its
// largest set.
class PointerIndex {
 public:
  // `key`'s index, or -1 when it has none.
  int Find(const void* key) const {
    if (size_ == 0) return -1;
    for (size_t h = Hash(key);; h = (h + 1) & (table_.size() - 1)) {
      if (table_[h].key == key) return table_[h].index;
      if (table_[h].key == nullptr) return -1;
    }
  }

  // `key`'s index, and whether this call gave it one: the next, size()
  // before the call.
  std::pair<int, bool> Insert(const void* key) {
    if (2 * (size_ + 1) > table_.size()) Grow();
    for (size_t h = Hash(key);; h = (h + 1) & (table_.size() - 1)) {
      Entry& entry = table_[h];
      if (entry.key == key) return {entry.index, false};
      if (entry.key == nullptr) {
        entry = {key, static_cast<int>(size_++)};
        return {entry.index, true};
      }
    }
  }

  size_t size() const { return size_; }

  void Clear() {
    if (size_ != 0) std::fill(table_.begin(), table_.end(), Entry{});
    size_ = 0;
  }

 private:
  struct Entry {
    const void* key = nullptr;
    int index = -1;
  };

  size_t Hash(const void* key) const {
    // Fibonacci hashing: the top bits of the product index the table.
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(key) * uint64_t{0x9E3779B97F4A7C15}) >>
        (64 - bits_));
  }

  void Grow() {
    std::vector<Entry> old(std::max<size_t>(64, 2 * table_.size()));
    old.swap(table_);
    bits_ = std::countr_zero(table_.size());
    for (const Entry& entry : old) {
      if (entry.key == nullptr) continue;
      size_t h = Hash(entry.key);
      while (table_[h].key != nullptr) h = (h + 1) & (table_.size() - 1);
      table_[h] = entry;
    }
  }

  std::vector<Entry> table_;
  int bits_ = 0;
  size_t size_ = 0;
};

}  // namespace

// A recorded graph. See autograd.h for the lifetime rules.
class Tape {
 public:
  // The tape ops record into on this thread.
  static Tape& Current() {
    if (Tape* bound = Bound()) return *bound;
    thread_local Tape own;
    return own;
  }

  // Makes ops on this thread record into `tape` while it lives.
  class Binding {
   public:
    explicit Binding(Tape* tape) : previous_(Bound()) { Bound() = tape; }
    ~Binding() { Bound() = previous_; }
    Binding(const Binding&) = delete;
    Binding& operator=(const Binding&) = delete;

   private:
    Tape* previous_;
  };

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

  // Backward's first phase: runs the graph from `loss`, adding every term
  // meant for an op of this tape and logging every term meant for a leaf.
  // It reads the leaves but writes none of them, so several tapes run it
  // at once.
  void RecordBackward(const Var& loss);

  // The leaves this tape's ops read, each once, with the terms logged for
  // them.
  size_t num_leaves() const { return leaf_index_.size(); }
  Node* leaf(size_t k) const { return leaves_[k].node.get(); }
  const std::vector<Term>& log(size_t k) const { return leaves_[k].log; }

  void Clear() {
    records_.clear();
    parents_.clear();
    indices_.clear();
    arena_.Reset();
    num_nodes_ = 0;
    for (size_t k = 0; k < leaf_index_.size(); ++k) {
      leaves_[k].node.reset();
      leaves_[k].log.clear();
    }
    leaf_index_.Clear();
  }

 private:
  static constexpr size_t kNodesPerBlock = 1024;

  // A leaf an op read, held until Clear, and the terms Backward logged for
  // it, in the order it made them.
  struct HeldLeaf {
    std::shared_ptr<Node> node;
    std::vector<Term> log;
  };

  static Tape*& Bound() {
    thread_local Tape* bound = nullptr;
    return bound;
  }

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
    if (parent.leaf_ != nullptr) Hold(parent.leaf_);
  }

  // Holds `leaf` until Clear. The reference is taken once per tape, not
  // once per read: the tapes of a batch read the same parameters, and
  // every copy of a shared_ptr writes its shared count.
  void Hold(const std::shared_ptr<Node>& leaf) {
    const auto [k, inserted] = leaf_index_.Insert(leaf.get());
    if (!inserted) return;
    if (leaves_.size() == static_cast<size_t>(k)) leaves_.emplace_back();
    leaves_[k].node = leaf;
  }

  // Adds `term` into `p`'s gradient now, when `p` is an op of this tape, or
  // logs it for the replay, when `p` is a leaf.
  void AddTerm(Node* p, const Term& term) {
    if (p->op >= 0) {
      p->EnsureGrad();
      Apply(term, p->grad.rows(), p->grad.cols(), p->grad.data());
      return;
    }
    leaves_[leaf_index_.Find(p)].log.push_back(term);
  }

  void RunBackward(const OpRecord& op);

  std::vector<OpRecord> records_;
  std::vector<Node*> parents_;
  std::vector<int> indices_;
  std::vector<std::unique_ptr<Node[]>> node_blocks_;
  size_t num_nodes_ = 0;
  Arena arena_;
  // leaves_[0, leaf_index_.size()), the rest kept for their capacity.
  std::vector<HeldLeaf> leaves_;
  PointerIndex leaf_index_;
  // Backward's scratch, kept for its capacity.
  std::vector<std::pair<int, int>> stack_;  // (op, next parent)
  std::vector<int> order_;
};

void Tape::RecordBackward(const Var& loss) {
  Node* const root = loss.get();
  CNPB_CHECK(root->value.size() == 1) << "Backward needs a scalar loss";
  // Topological order by iterative DFS from the loss, parents in recorded
  // order. Leaves have no parents and no backward, so the walk skips them;
  // that leaves the ops' relative order as a walk over every node has it.
  order_.clear();
  stack_.clear();
  if (root->op >= 0) {
    records_[root->op].visited = true;
    stack_.emplace_back(root->op, 0);
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
  if (loss.leaf_ != nullptr) Hold(loss.leaf_);
  AddTerm(root, {.kind = TermKind::kSeed});
  // order_ is parents-before-children; run it from the back.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const OpRecord& record = records_[*it];
    if (record.node->grad_ready) RunBackward(record);
  }
}

namespace {

// Backward's second phase over tapes[0, count): every leaf's logs from
// tape 0, then tape 1, and so on, each in the order it was made. Leaves
// have disjoint gradients, so Apply runs for several leaves at once.
class Replay {
 public:
  // Groups the tapes' logs by leaf; leaves without terms are left out.
  void Plan(const Tape* tapes, size_t count) {
    index_.Clear();
    leaves_.clear();
    first_.clear();
    logs_.clear();
    // Counting sort: each leaf's number of logs, then its first slot, then
    // the logs filled in tape order.
    for (size_t t = 0; t < count; ++t) {
      for (size_t k = 0; k < tapes[t].num_leaves(); ++k) {
        if (tapes[t].log(k).empty()) continue;
        const auto [i, inserted] = index_.Insert(tapes[t].leaf(k));
        if (inserted) {
          leaves_.push_back(tapes[t].leaf(k));
          first_.push_back(0);
        }
        ++first_[i];
      }
    }
    size_t total = 0;
    for (size_t& first : first_) total += std::exchange(first, total);
    first_.push_back(total);
    logs_.resize(total);
    fill_.assign(first_.begin(), first_.end() - 1);
    for (size_t t = 0; t < count; ++t) {
      for (size_t k = 0; k < tapes[t].num_leaves(); ++k) {
        if (tapes[t].log(k).empty()) continue;
        logs_[fill_[index_.Find(tapes[t].leaf(k))]++] = &tapes[t].log(k);
      }
    }
  }

  // Leaves with terms to add.
  size_t size() const { return leaves_.size(); }

  // Adds leaf i's terms into its gradient, in order. A run of outer
  // products goes through the tiled kernel in one call, which adds each
  // pair in turn, as one call per pair would; any other term ends the run.
  void Apply(size_t i) const {
    Node* const leaf = leaves_[i];
    leaf->EnsureGrad();
    float* const grad = leaf->grad.data();
    const int rows = leaf->grad.rows();
    const int cols = leaf->grad.cols();
    thread_local std::vector<const float*> g;
    thread_local std::vector<const float*> x;
    const auto flush = [&]() {
      if (g.empty()) return;
      kernels::AddOuterProducts(grad, rows, cols, g.data(), x.data(),
                                static_cast<int>(g.size()));
      g.clear();
      x.clear();
    };
    for (size_t l = first_[i]; l < first_[i + 1]; ++l) {
      for (const Term& term : *logs_[l]) {
        if (term.kind == TermKind::kOuter) {
          g.push_back(term.a);
          x.push_back(term.b);
        } else {
          flush();
          nn::Apply(term, rows, cols, grad);
        }
      }
    }
    flush();
  }

 private:
  PointerIndex index_;
  std::vector<Node*> leaves_;
  // Leaf i's logs are logs_[first_[i], first_[i + 1]).
  std::vector<size_t> first_;
  std::vector<const std::vector<Term>*> logs_;
  std::vector<size_t> fill_;
};

// A batch on up to `lanes` lanes of one pool dispatch. It runs in waves: up
// to one example per tape, recorded at once, then the replay of their
// terms, leaves at once. The next wave reuses the tapes, so it starts when
// the replay is done. Each lane claims the next item of the current phase
// until the batch is done.
class BatchRun {
 public:
  BatchRun(size_t n, size_t lanes, Tape* tapes, Replay* replay,
           const std::function<Var(size_t)>& example)
      : n_(n), lanes_(lanes), tapes_(tapes), replay_(replay),
        example_(example) {
    StartWave(0);
  }

  void Lane() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (next_ < items_) {
        const size_t item = next_++;
        const bool replaying = replaying_;
        lock.unlock();
        if (replaying) {
          replay_->Apply(item);
        } else {
          Tape& tape = tapes_[item];
          Tape::Binding binding(&tape);
          const Var loss = example_(wave_ + item);
          if (loss.get() != nullptr) tape.RecordBackward(loss);
        }
        lock.lock();
        if (++done_ == items_) {
          NextPhase();
          cv_.notify_all();
        }
      } else if (wave_ >= n_) {
        return;
      } else {
        cv_.wait(lock);
      }
    }
  }

 private:
  void StartWave(size_t wave) {
    wave_ = wave;
    wave_size_ = wave < n_ ? std::min(lanes_, n_ - wave) : 0;
    replaying_ = false;
    items_ = wave_size_;
    next_ = 0;
    done_ = 0;
  }

  // Under mu_, once every item of the phase is done; the other lanes wait.
  void NextPhase() {
    if (!replaying_) {
      replay_->Plan(tapes_, wave_size_);
      replaying_ = true;
      items_ = replay_->size();
      next_ = 0;
      done_ = 0;
      if (items_ > 0) return;
    }
    for (size_t t = 0; t < wave_size_; ++t) tapes_[t].Clear();
    StartWave(wave_ + wave_size_);
  }

  const size_t n_;
  const size_t lanes_;
  Tape* const tapes_;
  Replay* const replay_;
  const std::function<Var(size_t)>& example_;

  std::mutex mu_;
  std::condition_variable cv_;
  size_t wave_ = 0;        // the wave's first example; n_ once done
  size_t wave_size_ = 0;   // its examples, one per tape
  bool replaying_ = false;
  size_t items_ = 0;       // the phase's items: examples, or leaves
  size_t next_ = 0;        // the next to claim
  size_t done_ = 0;        // finished
};

// The calling thread's BackwardBatch tapes: one per example in flight, at
// most one per lane, kept across batches for their capacity.
std::vector<Tape>& BatchTapes() {
  thread_local std::vector<Tape> tapes;
  return tapes;
}

}  // namespace

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
        if (p->requires_grad) {
          AddTerm(p, {.kind = TermKind::kAddTo, .a = g, .n = n});
        }
      }
      break;
    case OpKind::kSub:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kAddTo, .a = g, .n = n});
      }
      if (b->requires_grad) {
        AddTerm(b, {.kind = TermKind::kSubFrom, .a = g, .n = n});
      }
      break;
    case OpKind::kMul:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kAddProduct,
                    .a = g,
                    .b = b->value.data(),
                    .n = n});
      }
      if (b->requires_grad) {
        AddTerm(b, {.kind = TermKind::kAddProduct,
                    .a = g,
                    .b = a->value.data(),
                    .n = n});
      }
      break;
    case OpKind::kScalarMul:
      if (a->requires_grad) {
        AddTerm(a,
                {.kind = TermKind::kAddScaled, .a = g, .c = op.scalar, .n = n});
      }
      break;
    case OpKind::kTanh:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kTanhGrad,
                    .a = g,
                    .b = node->value.data(),
                    .n = n});
      }
      break;
    case OpKind::kSigmoid:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kSigmoidGrad,
                    .a = g,
                    .b = node->value.data(),
                    .n = n});
      }
      break;
    case OpKind::kOneMinus:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kSubFrom, .a = g, .n = n});
      }
      break;
    case OpKind::kMatVec:
      // grad_w += g x^T; for a leaf weight, the logged pairs of a batch go
      // through the tiled kernel together at Replay.
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kOuter, .a = g, .b = b->value.data()});
      }
      if (b->requires_grad) {
        AddTerm(b, {.kind = TermKind::kMatTVec,
                    .a = a->value.data(),
                    .b = g,
                    .n = a->value.cols(),
                    .m = a->value.rows()});
      }
      break;
    case OpKind::kDot: {
      const int len = static_cast<int>(a->value.size());
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kAddScaled,
                    .a = b->value.data(),
                    .c = g[0],
                    .n = len});
      }
      if (b->requires_grad) {
        AddTerm(b, {.kind = TermKind::kAddScaled,
                    .a = a->value.data(),
                    .c = g[0],
                    .n = len});
      }
      break;
    }
    case OpKind::kConcat: {
      const int na = a->value.rows();
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kAddTo, .a = g, .n = na});
      }
      if (b->requires_grad) {
        AddTerm(b,
                {.kind = TermKind::kAddTo, .a = g + na, .n = b->value.rows()});
      }
      break;
    }
    case OpKind::kSoftmax:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kSoftmaxGrad,
                    .a = node->value.data(),
                    .b = g,
                    .n = n});
      }
      break;
    case OpKind::kNegLog:
      // grad += g * (-1 / x), as AddScaled forms it.
      if (a->requires_grad) {
        const float x = std::max(a->value[0], 1e-12f);
        AddTerm(a,
                {.kind = TermKind::kAddScaled, .a = g, .c = -1.0f / x, .n = 1});
      }
      break;
    case OpKind::kGather:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kAddTo,
                    .a = g,
                    .n = 1,
                    .offset = static_cast<size_t>(op.index)});
      }
      break;
    case OpKind::kGatherSum:
      if (a->requires_grad) {
        const int* index = indices(op.index);
        for (int k = 0; k < op.count; ++k) {
          AddTerm(a, {.kind = TermKind::kAddTo,
                      .a = g,
                      .n = 1,
                      .offset = static_cast<size_t>(index[k])});
        }
      }
      break;
    case OpKind::kRow:
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kAddTo,
                    .a = g,
                    .n = n,
                    .offset = static_cast<size_t>(op.index) * n});
      }
      break;
    case OpKind::kStackRows: {
      const int h = node->value.cols();
      for (int i = 0; i < op.num_parents; ++i) {
        if (!parents[i]->requires_grad) continue;
        AddTerm(parents[i], {.kind = TermKind::kAddTo,
                             .a = g + static_cast<size_t>(i) * h,
                             .n = h});
      }
      break;
    }
    case OpKind::kMatTVec: {
      const int t = a->value.rows();
      const int dim = a->value.cols();
      if (a->requires_grad) {
        AddTerm(a, {.kind = TermKind::kOuter, .a = b->value.data(), .b = g});
      }
      if (b->requires_grad) {
        float* dots = Scratch(t);
        kernels::MatVec(a->value.data(), t, dim, g, dots);
        AddTerm(b, {.kind = TermKind::kAddTo, .a = dots, .n = t});
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

void Backward(const Var& loss) {
  Tape& tape = Tape::Current();
  tape.RecordBackward(loss);
  thread_local Replay replay;
  replay.Plan(&tape, 1);
  for (size_t i = 0; i < replay.size(); ++i) replay.Apply(i);
  tape.Clear();
}

void BackwardBatch(size_t n, const std::function<Var(size_t)>& example) {
  // Nested in a pool worker, the batch runs on the calling thread alone, as
  // the pool would run it.
  size_t lanes = static_cast<size_t>(util::DefaultThreads());
  if (lanes > 1 && util::ThreadPool::Global().OnWorkerThread()) lanes = 1;
  lanes = std::min(lanes, n);
  std::vector<Tape>& tapes = BatchTapes();
  thread_local Replay replay;
  if (tapes.size() < lanes) tapes.resize(lanes);
  BatchRun run(n, lanes, tapes.data(), &replay, example);
  util::ParallelFor(lanes, [&run](size_t) { run.Lane(); });
}

void ReleaseBatchTapes() { std::vector<Tape>().swap(BatchTapes()); }

namespace {

Tape& ThisTape() { return Tape::Current(); }

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
