#ifndef CNPROBASE_NN_KERNELS_H_
#define CNPROBASE_NN_KERNELS_H_

#include <cmath>

namespace cnpb::nn::kernels {

// Float loops shared by the autograd tape (autograd.cc) and the frozen
// decoder (copynet_decoder.cc). Each kernel's comment gives the plain scalar
// loop it stands for, and every output element gets exactly that loop's
// IEEE operations in that loop's order; the kernels only run several such
// chains at once, in 4-lane vectors whose lanes are independent elements.
// So the tape and the decoder agree bit for bit with each other and with
// the scalar loops (nn_test compares each kernel with its loop). The
// library is built with -ffp-contract=off, so no a*b+c becomes an FMA.
//
// Pointers may not alias unless a comment says so.

// y[i] = sum_j w[i*n + j] * x[j] for i in [0, m): each row summed from
// 0.0f in ascending j.
void MatVec(const float* w, int m, int n, const float* x, float* y);

// y[o] = sum_j w[j*stride + o] * x[j] for o in [0, stride), stride a
// multiple of 4: each output summed from 0.0f in ascending j, as MatVec
// sums a row of the untransposed matrix.
void MatVecT(const float* w, int in, int stride, const float* x, float* y);

// xg[j] += g[i] * w[i*n + j] for i = 0, 1, ..., m-1 in turn, skipping the
// rows with g[i] == 0: MatVec's gradient with respect to x, and MatTVec's
// forward.
void AddMatTVec(const float* w, int m, int n, const float* g, float* xg);

// grad[i*n + j] += g[k][i] * x[k][j] for k = 0, 1, ..., pairs-1 in turn,
// skipping each (k, i) with g[k][i] == 0: the sum of rank-1 updates that
// MatVec's weight gradient makes, one per (g, x) pair. The skip keeps a
// signed zero in grad as the scalar loop leaves it.
void AddOuterProducts(float* grad, int m, int n, const float* const* g,
                      const float* const* x, int pairs);

// out[i] = exp(x[i] - max) / total, where max is the largest x and total
// sums the exps from 0.0f in ascending i.
void Softmax(const float* x, int n, float* out);

// dst[i] += y[i] * (g[i] - dot), where dot sums g[j] * y[j] from 0.0f in
// ascending j: Softmax's backward, y its output and g its gradient.
void AddSoftmaxGrad(const float* y, const float* g, int n, float* dst);

// Elementwise, over [0, n).
void Add(const float* a, const float* b, int n, float* out);  // a + b
void Sub(const float* a, const float* b, int n, float* out);  // a - b
void Mul(const float* a, const float* b, int n, float* out);  // a * b
void Scale(const float* a, float c, int n, float* out);       // a * c
void OneMinus(const float* a, int n, float* out);             // 1 - a
void AddTo(const float* a, int n, float* dst);                // dst += a
void SubFrom(const float* a, int n, float* dst);              // dst -= a
void AddProduct(const float* a, const float* b, int n,
                float* dst);                                  // dst += a * b
void AddScaled(const float* a, float c, int n, float* dst);   // dst += a * c
// dst += g * (1 - y * y): tanh's backward, y its output.
void AddTanhGrad(const float* g, const float* y, int n, float* dst);
// dst += g * y * (1 - y): the logistic sigmoid's backward, y its output.
void AddSigmoidGrad(const float* g, const float* y, int n, float* dst);

// One Adam update of n parameters, elementwise:
//   g = grad * scale
//   m = beta1 * m + (1 - beta1) * g
//   v = beta2 * v + (1 - beta2) * g * g
//   value -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
struct AdamStep {
  float scale, beta1, beta2, lr, eps, bias1, bias2;
};
void AdamUpdate(const AdamStep& step, const float* grad, int n, float* m,
                float* v, float* value);

// The logistic sigmoid, as both the tape and the decoder compute it.
inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace cnpb::nn::kernels

#endif  // CNPROBASE_NN_KERNELS_H_
