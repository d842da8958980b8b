// Gradient-boosted regression trees — the paper's CatBoost substitute.
//
// Squared-loss boosting with shrinkage and row subsampling. The paper
// trains a CatBoost regressor on (configuration -> runtime) datasets and
// reports R^2 >= 0.992 for all benchmarks except Convolution
// (0.9268-0.9361); the test suite asserts our GBDT reproduces that band.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/tree.hpp"

namespace bat::ml {

struct GbdtParams {
  std::size_t num_trees = 300;
  double learning_rate = 0.08;
  double subsample = 0.85;  // row fraction per tree
  TreeParams tree;
  std::uint64_t seed = 0xB0057ULL;
};

class GbdtRegressor {
 public:
  explicit GbdtRegressor(GbdtParams params = {}) : params_(params) {}

  /// Fits on a log-transformed copy of y when `log_target` is set — run
  /// times span orders of magnitude, and CatBoost-style fits behave far
  /// better on log(time). Every feature in x must be finite (NaN or
  /// +-inf throws ContractViolation); x is binned once per fit.
  void fit(const Matrix& x, std::span<const double> y, bool log_target = true);

  [[nodiscard]] double predict(std::span<const double> features) const;

  /// Scores every row of x into `out` (out.size() == x.rows()) on the
  /// calling thread. Rows go through the ensemble in blocks of
  /// RegressionTree::kBlockRows, tree by tree (tree-major), and each row
  /// sums learning_rate * leaf in tree order from the base prediction,
  /// so out[i] is bit-identical to predict(x.row(i)). A NaN feature goes
  /// right at every split it meets, as in predict().
  void predict_rows(const Matrix& x, std::span<double> out) const;
  /// predict_rows fanned out over the shared thread pool.
  [[nodiscard]] std::vector<double> predict_all(const Matrix& x) const;

  [[nodiscard]] bool trained() const noexcept { return !trees_.empty(); }
  [[nodiscard]] const GbdtParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t num_trees() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] std::span<const RegressionTree> trees() const noexcept {
    return trees_;
  }

 private:
  void score(const Matrix& x, std::size_t begin, std::size_t end,
             std::span<double> out) const;

  GbdtParams params_;
  std::vector<RegressionTree> trees_;
  double base_prediction_ = 0.0;
  bool log_target_ = true;
};

/// Coefficient of determination of predictions vs truth.
[[nodiscard]] double r2_score(std::span<const double> truth,
                              std::span<const double> predicted);

/// Root mean squared error.
[[nodiscard]] double rmse(std::span<const double> truth,
                          std::span<const double> predicted);

}  // namespace bat::ml
