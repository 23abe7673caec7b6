#include "le/tensor/matrix.hpp"

#include <stdexcept>

#include "le/tensor/ops.hpp"

namespace le::tensor {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  if (rows * cols != data_.size()) {
    throw std::invalid_argument("Matrix::reshape: element count must be preserved");
  }
  rows_ = rows;
  cols_ = cols;
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill_value) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill_value);
}

Matrix Matrix::transposed() const {
  Matrix out;
  transpose(*this, out);
  return out;
}

Matrix identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

}  // namespace le::tensor
