#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"

namespace bat::ml {

void GbdtRegressor::fit(const Matrix& x, std::span<const double> y,
                        bool log_target) {
  BAT_EXPECTS(x.rows() == y.size());
  BAT_EXPECTS(x.rows() >= 2);
  trees_.clear();
  log_target_ = log_target;

  std::vector<double> target(y.begin(), y.end());
  if (log_target_) {
    for (double& v : target) {
      BAT_EXPECTS(v > 0.0);
      v = std::log(v);
    }
  }

  double sum = 0.0;
  for (const double v : target) sum += v;
  base_prediction_ = sum / static_cast<double>(target.size());

  std::vector<double> residual(target.size());
  std::vector<double> current(target.size(), base_prediction_);
  common::Rng rng(params_.seed);

  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(x.rows()) * params_.subsample));

  const auto binned = BinnedMatrix::build(x);
  trees_.reserve(params_.num_trees);
  for (std::size_t t = 0; t < params_.num_trees; ++t) {
    for (std::size_t i = 0; i < target.size(); ++i) {
      residual[i] = target[i] - current[i];
    }
    const auto rows = params_.subsample >= 1.0
                          ? [&] {
                              std::vector<std::size_t> all(x.rows());
                              for (std::size_t i = 0; i < all.size(); ++i)
                                all[i] = i;
                              return all;
                            }()
                          : rng.sample_indices(x.rows(), sample_size);
    RegressionTree tree;
    tree.fit(binned, residual, rows, params_.tree);

    // Update running predictions over ALL rows. Serial: scoring a few
    // thousand rows costs less than a thread-pool handoff.
    for (std::size_t lo = 0; lo < x.rows(); lo += RegressionTree::kBlockRows) {
      const auto n = std::min(RegressionTree::kBlockRows, x.rows() - lo);
      tree.accumulate(x, lo, params_.learning_rate,
                      std::span(current).subspan(lo, n));
    }
    trees_.push_back(std::move(tree));
  }
}

double GbdtRegressor::predict(std::span<const double> features) const {
  BAT_EXPECTS(trained());
  double acc = base_prediction_;
  for (const auto& tree : trees_) {
    acc += params_.learning_rate * tree.predict(features);
  }
  return log_target_ ? std::exp(acc) : acc;
}

void GbdtRegressor::score(const Matrix& x, std::size_t begin,
                          std::size_t end, std::span<double> out) const {
  for (std::size_t lo = begin; lo < end; lo += RegressionTree::kBlockRows) {
    const auto acc =
        out.subspan(lo, std::min(RegressionTree::kBlockRows, end - lo));
    std::fill(acc.begin(), acc.end(), base_prediction_);
    for (const auto& tree : trees_) {
      tree.accumulate(x, lo, params_.learning_rate, acc);
    }
    if (log_target_) {
      for (double& v : acc) v = std::exp(v);
    }
  }
}

void GbdtRegressor::predict_rows(const Matrix& x,
                                 std::span<double> out) const {
  BAT_EXPECTS(trained());
  BAT_EXPECTS(out.size() == x.rows());
  score(x, 0, x.rows(), out);
}

std::vector<double> GbdtRegressor::predict_all(const Matrix& x) const {
  BAT_EXPECTS(trained());
  std::vector<double> out(x.rows());
  common::parallel_for_chunked(
      0, x.rows(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        score(x, lo, hi, out);
      });
  return out;
}

double r2_score(std::span<const double> truth,
                std::span<const double> predicted) {
  BAT_EXPECTS(truth.size() == predicted.size());
  BAT_EXPECTS(truth.size() >= 2);
  double mean = 0.0;
  for (const double v : truth) mean += v;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double rmse(std::span<const double> truth, std::span<const double> predicted) {
  BAT_EXPECTS(truth.size() == predicted.size());
  BAT_EXPECTS(!truth.empty());
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    acc += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

}  // namespace bat::ml
