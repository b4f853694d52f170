#ifndef CNPROBASE_NN_AUTOGRAD_H_
#define CNPROBASE_NN_AUTOGRAD_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nn/tensor.h"

namespace cnpb::nn {

// Reverse-mode autodiff over a graph recorded per training example.
//
// Leaves (parameters and constants) are heap Nodes owned by their Vars.
// Every op result lives on a tape: the op record goes in a vector, with its
// parents' nodes, and its value and gradient in a bump arena. Ops record
// into the tape bound to the calling thread (BackwardBatch binds one per
// example), else into the thread's own tape.
//
// Backward runs the recorded graph in two phases. The first adds each op's
// terms into the gradients of the ops it read, which live on the same tape,
// and logs every term meant for a leaf. The second replays the logs: each
// leaf's terms are added in the order they were logged. Then the tape is
// cleared; the arena and the record vectors keep their capacity, so a
// training run allocates nothing per example once the largest example has
// been seen. The tape holds a reference to every leaf an op reads, so a
// leaf lives at least until the tape is cleared.
//
// An op Var is a plain pointer into the tape, valid until that tape's next
// Backward or clear.
struct Node {
  Tensor value;
  Tensor grad;              // same shape as value once grad_ready
  bool requires_grad = false;
  bool grad_ready = false;  // grad allocated & zeroed
  // The index of the op that made this node on its tape; -1 for a leaf.
  int op = -1;

  void EnsureGrad() {
    if (grad_ready) return;
    if (grad.SameShape(value)) {
      grad.Fill(0.0f);  // an op's gradient, already placed in the arena
    } else {
      grad = Tensor::Zeros(value.rows(), value.cols());
    }
    grad_ready = true;
  }
};

class Tape;

// A handle to a node: an owning one for a leaf, a borrowed one for an op.
class Var {
 public:
  Var() = default;
  explicit Var(std::shared_ptr<Node> leaf)
      : leaf_(std::move(leaf)), node_(leaf_.get()) {}

  Node* operator->() const { return node_; }
  Node* get() const { return node_; }

 private:
  friend class Tape;
  explicit Var(Node* op) : node_(op) {}

  std::shared_ptr<Node> leaf_;  // null for an op
  Node* node_ = nullptr;
};

// Creates a leaf. Parameters pass requires_grad = true; constants false.
Var MakeVar(Tensor value, bool requires_grad = false);

// Runs backpropagation from `loss` (must be a scalar, shape [1]) and clears
// the tape. Gradients accumulate into every reachable node with
// requires_grad, each element receiving its terms in the order of a
// depth-first post-order walk from the loss (the order the gradient tests
// and the golden training runs pin).
void Backward(const Var& loss);

// Backward over a batch: runs example(i) for every i in [0, n), several at
// once over util::ThreadPool::Global(), each with a tape of its own bound to
// the thread that runs it, and backpropagates from the loss it returns (a
// null Var: nothing to backpropagate). Every leaf gets exactly the terms,
// in exactly the order, that Backward(example(i)) for i = 0, 1, ... would
// add, so the gradients are bit-identical at any thread count. `example`
// must read only its own inputs and the leaves' values, and write only to
// state of its own index. Nested inside a pool worker, it runs serially.
// The tapes stay with the calling thread, so that the next batch reuses
// their capacity, until ReleaseBatchTapes.
void BackwardBatch(size_t n, const std::function<Var(size_t)>& example);

// Frees the calling thread's BackwardBatch tapes. A training run calls it
// once it is done: a tape per lane otherwise holds its largest example's
// memory for the life of the thread.
void ReleaseBatchTapes();

// ---- ops -----------------------------------------------------------------
// All ops propagate requires_grad and record themselves on the tape.

Var Add(const Var& a, const Var& b);             // same shape
Var Sub(const Var& a, const Var& b);             // same shape
Var Mul(const Var& a, const Var& b);             // elementwise, same shape
Var ScalarMul(const Var& a, float c);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var OneMinus(const Var& a);                      // 1 - a
Var MatVec(const Var& w, const Var& x);          // [m,n] x [n] -> [m]
Var Dot(const Var& a, const Var& b);             // [n]·[n] -> [1]
Var Concat(const Var& a, const Var& b);          // [n]+[m] -> [n+m]
Var Softmax(const Var& a);                       // [n] -> [n]
Var NegLog(const Var& a);                        // scalar -> scalar, -log(a)
Var Gather(const Var& a, int index);             // [n] -> [1]
// Sum of a[j] over the given indices (the copy-mass op): [n] -> [1].
Var GatherSum(const Var& a, const std::vector<int>& indices);
// Row `index` of matrix [V,d] -> [d]; backward scatter-adds (embeddings).
Var Row(const Var& table, int index);
// Stacks T vectors [h] into [T,h]; backward scatters rows.
Var StackRows(const std::vector<Var>& rows);
// H^T a with H [T,h], a [T] -> [h] (attention context).
Var MatTVec(const Var& h, const Var& a);

}  // namespace cnpb::nn

#endif  // CNPROBASE_NN_AUTOGRAD_H_
