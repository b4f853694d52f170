#ifndef CNPROBASE_NN_TENSOR_H_
#define CNPROBASE_NN_TENSOR_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace cnpb::nn {

// Dense float tensor, row-major, rank 1 or 2. Sized for the small CopyNet
// model (hidden dims of tens, vocab of thousands). A tensor owns its floats,
// unless it is a View over memory someone else keeps alive (the autograd
// tape's arena); a copy of either owns its copy of the floats.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(int n) : Tensor(n, 1) {}
  Tensor(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        storage_(static_cast<size_t>(rows) * cols, 0.0f),
        data_(storage_.data()) {
    CNPB_CHECK(rows >= 0 && cols >= 0);
  }

  // `rows` x `cols` floats at `data`, which must outlive the view.
  static Tensor View(float* data, int rows, int cols) {
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.data_ = data;
    return t;
  }

  Tensor(const Tensor& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        storage_(other.data_, other.data_ + other.size()),
        data_(storage_.data()) {}
  Tensor(Tensor&& other) noexcept
      : rows_(other.rows_),
        cols_(other.cols_),
        storage_(std::move(other.storage_)),
        data_(other.data_) {
    other.Reset();
  }
  Tensor& operator=(const Tensor& other) {
    if (this != &other) {
      storage_.assign(other.data_, other.data_ + other.size());
      data_ = storage_.data();
      rows_ = other.rows_;
      cols_ = other.cols_;
    }
    return *this;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      storage_ = std::move(other.storage_);
      data_ = other.data_;
      rows_ = other.rows_;
      cols_ = other.cols_;
      other.Reset();
    }
    return *this;
  }

  static Tensor Zeros(int rows, int cols = 1) { return Tensor(rows, cols); }

  // Uniform(-scale, scale) initialisation.
  static Tensor RandomUniform(int rows, int cols, float scale,
                              util::Rng& rng) {
    Tensor t(rows, cols);
    for (float& v : t.storage_) {
      v = scale * (2.0f * static_cast<float>(rng.UniformDouble()) - 1.0f);
    }
    return t;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return static_cast<size_t>(rows_) * cols_; }
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& at(int r, int c = 0) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  float at(int r, int c = 0) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  void Fill(float v) { std::fill(data_, data_ + size(), v); }

 private:
  void Reset() {
    rows_ = 0;
    cols_ = 0;
    data_ = nullptr;
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> storage_;  // empty for a view
  float* data_ = nullptr;       // storage_.data() or the viewed memory
};

}  // namespace cnpb::nn

#endif  // CNPROBASE_NN_TENSOR_H_
