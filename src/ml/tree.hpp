// CART regression tree with exact splits over the (few, discrete)
// distinct values each feature takes in BAT datasets.
//
// Split search is exact: every boundary between two adjacent distinct
// values of every feature is scored, exactly as a per-node sort of
// (value, target) pairs would score it. It works from pre-binned
// features (BinnedMatrix) instead of sorting inside every node:
//
//   * the sampled rows are sorted by target once per tree, and the node
//     partition keeps that list target-sorted inside every node;
//   * per node and feature, a counting sort of that list by bin code
//     yields the (value ascending, target ascending) sequence a full
//     sort would, in O(n_node + bins) instead of O(n_node log n_node),
//     so a node costs O(F * (n_node + bins)).
//
// Prefix sums, boundary tests, tie-breaks, thresholds and node means are
// accumulated in the same order as the sort-per-node builder, so the
// trees are bit-identical to it (tests/ml_test.cpp keeps that builder as
// an oracle). Per-bin sums would be cheaper still but reorder the
// floating-point additions and flip near-tied splits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace bat::ml {

struct TreeParams {
  int max_depth = 6;
  std::size_t min_samples_leaf = 5;
  double min_gain = 1e-12;
};

class RegressionTree {
 public:
  struct Node {
    double value_or_threshold = 0.0;  // leaf prediction, or go left if
                                      // value <= threshold
    int feature = -1;                 // -1 => leaf
    int left = -1;                    // children at left and left + 1
  };
  struct Split {
    int feature = -1;
    double gain = 0.0;  // squared-error gain of the split
  };

  /// Fits on the rows of x listed in `sample_rows` (gradient targets in
  /// `y`, aligned with x's rows). Bins x, then fits on the bins.
  void fit(const Matrix& x, std::span<const double> y,
           std::span<const std::size_t> sample_rows, const TreeParams& params);
  void fit(const BinnedMatrix& x, std::span<const double> y,
           std::span<const std::size_t> sample_rows, const TreeParams& params);

  [[nodiscard]] double predict(std::span<const double> features) const;

  [[nodiscard]] bool trained() const noexcept { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::span<const Node> nodes() const noexcept {
    return nodes_;
  }
  /// One entry per internal node, in preorder (node, left, right).
  [[nodiscard]] std::span<const Split> splits() const noexcept {
    return splits_;
  }

  /// Total squared-error gain contributed by splits on each feature
  /// (tree-internal importance; PFI is computed separately).
  [[nodiscard]] std::vector<double> split_gains(std::size_t num_features) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Split> splits_;
};

}  // namespace bat::ml
