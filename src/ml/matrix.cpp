#include "ml/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bat::ml {

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  BAT_EXPECTS(!rows.empty());
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    BAT_EXPECTS(rows[r].size() == m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::with_permuted_column(
    std::size_t c, const std::vector<std::size_t>& perm) const {
  BAT_EXPECTS(c < cols_);
  BAT_EXPECTS(perm.size() == rows_);
  Matrix out = *this;
  for (std::size_t r = 0; r < rows_; ++r) {
    out(r, c) = (*this)(perm[r], c);
  }
  return out;
}

BinnedMatrix BinnedMatrix::build(const Matrix& x) {
  BAT_EXPECTS(x.rows() <= std::numeric_limits<std::uint32_t>::max());
  BinnedMatrix b;
  b.rows_ = x.rows();
  b.values_.resize(x.cols());
  b.codes_.resize(x.rows() * x.cols());
  std::vector<double> column(x.rows());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      column[r] = x(r, f);
      BAT_EXPECTS(std::isfinite(column[r]));
    }
    auto& values = b.values_[f];
    values = column;
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    b.max_bins_ = std::max(b.max_bins_, values.size());
    auto* codes = b.codes_.data() + f * b.rows_;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      codes[r] = static_cast<std::uint32_t>(
          std::lower_bound(values.begin(), values.end(), column[r]) -
          values.begin());
    }
  }
  return b;
}

TrainTestSplit train_test_split(const Matrix& x, std::span<const double> y,
                                double test_fraction, std::uint64_t seed) {
  BAT_EXPECTS(x.rows() == y.size());
  BAT_EXPECTS(test_fraction > 0.0 && test_fraction < 1.0);
  BAT_EXPECTS(x.rows() >= 2);

  std::vector<std::size_t> order(x.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  common::Rng rng(seed);
  rng.shuffle(order);

  auto n_test = static_cast<std::size_t>(
      static_cast<double>(x.rows()) * test_fraction);
  n_test = std::max<std::size_t>(1, std::min(n_test, x.rows() - 1));
  const std::size_t n_train = x.rows() - n_test;

  TrainTestSplit split;
  split.x_train = Matrix(n_train, x.cols());
  split.x_test = Matrix(n_test, x.cols());
  split.y_train.reserve(n_train);
  split.y_test.reserve(n_test);
  for (std::size_t i = 0; i < n_train; ++i) {
    const std::size_t src = order[i];
    for (std::size_t c = 0; c < x.cols(); ++c) {
      split.x_train(i, c) = x(src, c);
    }
    split.y_train.push_back(y[src]);
  }
  for (std::size_t i = 0; i < n_test; ++i) {
    const std::size_t src = order[n_train + i];
    for (std::size_t c = 0; c < x.cols(); ++c) {
      split.x_test(i, c) = x(src, c);
    }
    split.y_test.push_back(y[src]);
  }
  return split;
}

}  // namespace bat::ml
