#include "nn/adam.h"

#include <cmath>

#include "nn/kernels.h"

namespace cnpb::nn {

Adam::Adam(std::vector<Var> params, const Config& config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
  }
}

void Adam::Step() {
  ++t_;
  // Global-norm clipping across all accumulated gradients.
  float scale = 1.0f;
  if (config_.clip > 0.0f) {
    double norm_sq = 0.0;
    for (const Var& p : params_) {
      if (!p->grad_ready) continue;
      for (size_t i = 0; i < p->grad.size(); ++i) {
        norm_sq += static_cast<double>(p->grad[i]) * p->grad[i];
      }
    }
    const float norm = static_cast<float>(std::sqrt(norm_sq));
    if (norm > config_.clip) scale = config_.clip / norm;
  }
  const kernels::AdamStep step{
      scale,
      config_.beta1,
      config_.beta2,
      config_.lr,
      config_.eps,
      1.0f - std::pow(config_.beta1, static_cast<float>(t_)),
      1.0f - std::pow(config_.beta2, static_cast<float>(t_))};
  for (size_t k = 0; k < params_.size(); ++k) {
    Var& p = params_[k];
    if (!p->grad_ready) continue;
    kernels::AdamUpdate(step, p->grad.data(), static_cast<int>(p->value.size()),
                        m_[k].data(), v_[k].data(), p->value.data());
  }
  ZeroGrad();
}

void Adam::ZeroGrad() {
  for (Var& p : params_) {
    if (p->grad_ready) p->grad.Fill(0.0f);
  }
}

size_t Adam::NumParams() const {
  size_t n = 0;
  for (const Var& p : params_) n += p->value.size();
  return n;
}

}  // namespace cnpb::nn
