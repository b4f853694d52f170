#include "nn/kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace cnpb::nn::kernels {

namespace {

typedef float V4 __attribute__((vector_size(16)));
typedef int V4i __attribute__((vector_size(16)));

V4 Load(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store(float* p, V4 v) { std::memcpy(p, &v, sizeof(v)); }

V4 Splat(float x) { return V4{x, x, x, x}; }

V4 Sqrt(V4 v) {
#if defined(__SSE__)
  return __builtin_ia32_sqrtps(v);
#else
  return V4{std::sqrt(v[0]), std::sqrt(v[1]), std::sqrt(v[2]),
            std::sqrt(v[3])};
#endif
}
float Sqrt(float x) { return std::sqrt(x); }

// Four rows' columns [0, 4), transposed: c[t] holds column t of rows r,
// r + n, r + 2n and r + 3n.
void Transpose4(const float* r, int n, V4 c[4]) {
  const V4 a0 = Load(r);
  const V4 a1 = Load(r + n);
  const V4 a2 = Load(r + 2 * static_cast<size_t>(n));
  const V4 a3 = Load(r + 3 * static_cast<size_t>(n));
  const V4 t0 = __builtin_shuffle(a0, a1, V4i{0, 4, 1, 5});
  const V4 t1 = __builtin_shuffle(a0, a1, V4i{2, 6, 3, 7});
  const V4 t2 = __builtin_shuffle(a2, a3, V4i{0, 4, 1, 5});
  const V4 t3 = __builtin_shuffle(a2, a3, V4i{2, 6, 3, 7});
  c[0] = __builtin_shuffle(t0, t2, V4i{0, 1, 4, 5});
  c[1] = __builtin_shuffle(t0, t2, V4i{2, 3, 6, 7});
  c[2] = __builtin_shuffle(t1, t3, V4i{0, 1, 4, 5});
  c[3] = __builtin_shuffle(t1, t3, V4i{2, 3, 6, 7});
}

// MatVec over 4*G rows: lane r of acc[g] is row 4g + r's running sum, so
// the G accumulators are G independent add chains.
template <int G>
void MatVecRows(const float* w, int n, const float* x, float* y) {
  V4 acc[G] = {};
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const V4 x0 = Splat(x[j]);
    const V4 x1 = Splat(x[j + 1]);
    const V4 x2 = Splat(x[j + 2]);
    const V4 x3 = Splat(x[j + 3]);
    for (int g = 0; g < G; ++g) {
      V4 c[4];
      Transpose4(w + static_cast<size_t>(4 * g) * n + j, n, c);
      acc[g] += c[0] * x0;
      acc[g] += c[1] * x1;
      acc[g] += c[2] * x2;
      acc[g] += c[3] * x3;
    }
  }
  for (; j < n; ++j) {
    const V4 xj = Splat(x[j]);
    for (int g = 0; g < G; ++g) {
      const float* r = w + static_cast<size_t>(4 * g) * n + j;
      acc[g] += V4{r[0], r[n], r[2 * n], r[3 * n]} * xj;
    }
  }
  for (int g = 0; g < G; ++g) Store(y + 4 * g, acc[g]);
}

// AddMatTVec over columns [0, 4*C) of w and xg.
template <int C>
void AddMatTVecColumns(const float* w, int m, int n, const float* g,
                       float* xg) {
  V4 acc[C];
  for (int c = 0; c < C; ++c) acc[c] = Load(xg + 4 * c);
  for (int i = 0; i < m; ++i) {
    if (g[i] == 0.0f) continue;
    const V4 s = Splat(g[i]);
    const float* row = w + static_cast<size_t>(i) * n;
    for (int c = 0; c < C; ++c) acc[c] += s * Load(row + 4 * c);
  }
  for (int c = 0; c < C; ++c) Store(xg + 4 * c, acc[c]);
}

// AddOuterProducts over rows [i, i+R) and columns [j, j+4*C), held in
// registers across all the pairs.
template <int R, int C>
void OuterTile(float* grad, int n, const float* const* g,
               const float* const* x, int pairs, int i, int j) {
  V4 acc[R][C];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      acc[r][c] = Load(grad + static_cast<size_t>(i + r) * n + j + 4 * c);
    }
  }
  for (int k = 0; k < pairs; ++k) {
    const float* gk = g[k] + i;
    V4 xv[C];
    for (int c = 0; c < C; ++c) xv[c] = Load(x[k] + j + 4 * c);
    for (int r = 0; r < R; ++r) {
      if (gk[r] == 0.0f) continue;
      const V4 s = Splat(gk[r]);
      for (int c = 0; c < C; ++c) acc[r][c] += s * xv[c];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      Store(grad + static_cast<size_t>(i + r) * n + j + 4 * c, acc[r][c]);
    }
  }
}

template <int R>
void OuterRows(float* grad, int n, const float* const* g,
               const float* const* x, int pairs, int i) {
  int j = 0;
  for (; j + 8 <= n; j += 8) OuterTile<R, 2>(grad, n, g, x, pairs, i, j);
  for (; j + 4 <= n; j += 4) OuterTile<R, 1>(grad, n, g, x, pairs, i, j);
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float& out = grad[static_cast<size_t>(i + r) * n + j];
      float acc = out;
      for (int k = 0; k < pairs; ++k) {
        const float s = g[k][i + r];
        if (s == 0.0f) continue;
        acc += s * x[k][j];
      }
      out = acc;
    }
  }
}

// out[i] = f(a[i], b[i]); `out` may be `a` or `b`. `f` takes and returns
// either floats or V4s, with the same operations on each.
template <typename F>
void Zip(const float* a, const float* b, int n, float* out, F f) {
  int i = 0;
  for (; i + 4 <= n; i += 4) Store(out + i, f(Load(a + i), Load(b + i)));
  for (; i < n; ++i) out[i] = f(a[i], b[i]);
}

// dst[i] = f(dst[i], a[i], b[i]).
template <typename F>
void Accumulate(const float* a, const float* b, int n, float* dst, F f) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    Store(dst + i, f(Load(dst + i), Load(a + i), Load(b + i)));
  }
  for (; i < n; ++i) dst[i] = f(dst[i], a[i], b[i]);
}

}  // namespace

void MatVec(const float* w, int m, int n, const float* x, float* y) {
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    MatVecRows<2>(w + static_cast<size_t>(i) * n, n, x, y + i);
  }
  for (; i + 4 <= m; i += 4) {
    MatVecRows<1>(w + static_cast<size_t>(i) * n, n, x, y + i);
  }
  for (; i < m; ++i) {
    const float* row = w + static_cast<size_t>(i) * n;
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

void MatVecT(const float* w, int in, int stride, const float* x, float* y) {
  int o = 0;
  for (; o + 16 <= stride; o += 16) {
    V4 a0 = {}, a1 = {}, a2 = {}, a3 = {};
    const float* col = w + o;
    for (int j = 0; j < in; ++j, col += stride) {
      const V4 xj = Splat(x[j]);
      a0 += Load(col) * xj;
      a1 += Load(col + 4) * xj;
      a2 += Load(col + 8) * xj;
      a3 += Load(col + 12) * xj;
    }
    Store(y + o, a0);
    Store(y + o + 4, a1);
    Store(y + o + 8, a2);
    Store(y + o + 12, a3);
  }
  for (; o < stride; o += 4) {
    V4 a = {};
    const float* col = w + o;
    for (int j = 0; j < in; ++j, col += stride) a += Load(col) * Splat(x[j]);
    Store(y + o, a);
  }
}

void AddMatTVec(const float* w, int m, int n, const float* g, float* xg) {
  int j = 0;
  for (; j + 16 <= n; j += 16) AddMatTVecColumns<4>(w + j, m, n, g, xg + j);
  for (; j + 4 <= n; j += 4) AddMatTVecColumns<1>(w + j, m, n, g, xg + j);
  for (; j < n; ++j) {
    float acc = xg[j];
    for (int i = 0; i < m; ++i) {
      if (g[i] == 0.0f) continue;
      acc += g[i] * w[static_cast<size_t>(i) * n + j];
    }
    xg[j] = acc;
  }
}

void AddOuterProducts(float* grad, int m, int n, const float* const* g,
                      const float* const* x, int pairs) {
  int i = 0;
  for (; i + 4 <= m; i += 4) OuterRows<4>(grad, n, g, x, pairs, i);
  for (; i < m; ++i) OuterRows<1>(grad, n, g, x, pairs, i);
}

void Softmax(const float* x, int n, float* out) {
  float max_val = x[0];
  for (int i = 1; i < n; ++i) max_val = std::max(max_val, x[i]);
  float total = 0.0f;
  for (int i = 0; i < n; ++i) {
    out[i] = std::exp(x[i] - max_val);
    total += out[i];
  }
  for (int i = 0; i < n; ++i) out[i] /= total;
}

void AddSoftmaxGrad(const float* y, const float* g, int n, float* dst) {
  float dot = 0.0f;
  for (int i = 0; i < n; ++i) dot += g[i] * y[i];
  Accumulate(y, g, n, dst,
             [dot](auto d, auto yi, auto gi) { return d + yi * (gi - dot); });
}

void Add(const float* a, const float* b, int n, float* out) {
  Zip(a, b, n, out, [](auto u, auto v) { return u + v; });
}

void Sub(const float* a, const float* b, int n, float* out) {
  Zip(a, b, n, out, [](auto u, auto v) { return u - v; });
}

void Mul(const float* a, const float* b, int n, float* out) {
  Zip(a, b, n, out, [](auto u, auto v) { return u * v; });
}

void Scale(const float* a, float c, int n, float* out) {
  Zip(a, a, n, out, [c](auto u, auto) { return u * c; });
}

void OneMinus(const float* a, int n, float* out) {
  Zip(a, a, n, out, [](auto u, auto) { return 1.0f - u; });
}

void AddTo(const float* a, int n, float* dst) {
  Zip(dst, a, n, dst, [](auto d, auto u) { return d + u; });
}

void SubFrom(const float* a, int n, float* dst) {
  Zip(dst, a, n, dst, [](auto d, auto u) { return d - u; });
}

void AddProduct(const float* a, const float* b, int n, float* dst) {
  Accumulate(a, b, n, dst, [](auto d, auto u, auto v) { return d + u * v; });
}

void AddScaled(const float* a, float c, int n, float* dst) {
  Zip(dst, a, n, dst, [c](auto d, auto u) { return d + u * c; });
}

void AddTanhGrad(const float* g, const float* y, int n, float* dst) {
  Accumulate(g, y, n, dst, [](auto d, auto gi, auto yi) {
    return d + gi * (1.0f - yi * yi);
  });
}

void AddSigmoidGrad(const float* g, const float* y, int n, float* dst) {
  Accumulate(g, y, n, dst, [](auto d, auto gi, auto yi) {
    return d + gi * yi * (1.0f - yi);
  });
}

void AdamUpdate(const AdamStep& step, const float* grad, int n, float* m,
                float* v, float* value) {
  const float one_minus_beta1 = 1.0f - step.beta1;
  const float one_minus_beta2 = 1.0f - step.beta2;
  auto update = [&](auto g, auto& mi, auto& vi, auto& p) {
    g = g * step.scale;
    mi = step.beta1 * mi + one_minus_beta1 * g;
    vi = step.beta2 * vi + one_minus_beta2 * g * g;
    p = p - step.lr * (mi / step.bias1) / (Sqrt(vi / step.bias2) + step.eps);
  };
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    V4 mi = Load(m + i), vi = Load(v + i), p = Load(value + i);
    update(Load(grad + i), mi, vi, p);
    Store(m + i, mi);
    Store(v + i, vi);
    Store(value + i, p);
  }
  for (; i < n; ++i) update(grad[i], m[i], v[i], value[i]);
}

}  // namespace cnpb::nn::kernels
