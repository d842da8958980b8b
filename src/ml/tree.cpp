#include "ml/tree.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace bat::ml {

static_assert(sizeof(RegressionTree::Node) == 16);

namespace {

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

// One tree's fit state: the two row lists and scratch buffers shared by
// every node.
class Builder {
 public:
  Builder(const BinnedMatrix& x, std::span<const double> y,
          std::span<const std::size_t> sample_rows, const TreeParams& params,
          std::vector<RegressionTree::Node>& nodes,
          std::vector<RegressionTree::Split>& splits)
      : x_(x),
        y_(y),
        params_(params),
        nodes_(nodes),
        splits_(splits),
        rows_(sample_rows.begin(), sample_rows.end()),
        by_y_(rows_),
        start_(x.max_bins() + 1),
        pos_(x.max_bins()),
        seq_(rows_.size()) {
    std::sort(by_y_.begin(), by_y_.end(),
              [&](std::size_t a, std::size_t b) { return y_[a] < y_[b]; });
    spill_.reserve(rows_.size());
  }

  void build_root() {
    nodes_.emplace_back();
    build(0, 0, rows_.size(), 0);
  }

 private:
  // `rows_[begin, end)` is the node's rows in partition order (node means
  // sum in it); `by_y_[begin, end)` holds the same rows sorted by target.
  void build(std::size_t node, std::size_t begin, std::size_t end,
             int depth) {
    const std::size_t n = end - begin;
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += y_[rows_[i]];
    nodes_[node].value_or_threshold = sum / static_cast<double>(n);

    if (depth >= params_.max_depth || n < 2 * params_.min_samples_leaf) {
      return;
    }

    SplitCandidate best;
    for (std::size_t f = 0; f < x_.cols(); ++f) {
      scan_feature(f, begin, end, sum, best);
    }
    if (best.feature < 0 || best.gain <= params_.min_gain) return;

    const auto f = static_cast<std::size_t>(best.feature);
    const auto values = x_.values(f);
    const auto codes = x_.codes(f);
    // Rows whose value is <= threshold are exactly the bins below `cut`.
    const auto cut = static_cast<std::uint32_t>(
        std::upper_bound(values.begin(), values.end(), best.threshold) -
        values.begin());
    const auto goes_left = [&](std::size_t r) { return codes[r] < cut; };
    const auto mid = static_cast<std::size_t>(
        std::partition(rows_.begin() + static_cast<std::ptrdiff_t>(begin),
                       rows_.begin() + static_cast<std::ptrdiff_t>(end),
                       goes_left) -
        rows_.begin());
    if (mid == begin || mid == end) return;  // degenerate

    // Stable partition of by_y_, so both halves stay target-sorted.
    spill_.clear();
    std::size_t out = begin;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = by_y_[i];
      if (goes_left(r)) {
        by_y_[out++] = r;
      } else {
        spill_.push_back(r);
      }
    }
    std::copy(spill_.begin(), spill_.end(),
              by_y_.begin() + static_cast<std::ptrdiff_t>(out));

    const auto left = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_.emplace_back();
    nodes_[node] = {best.threshold, best.feature, left};
    splits_.push_back({best.feature, best.gain});
    build(static_cast<std::size_t>(left), begin, mid, depth + 1);
    build(static_cast<std::size_t>(left) + 1, mid, end, depth + 1);
  }

  // Scores every value boundary of feature f in the node. The counting
  // sort of the target-sorted rows by bin visits targets in the same
  // (value, target) order as sorting the node's pairs, so left_sum
  // accumulates identically.
  void scan_feature(std::size_t f, std::size_t begin, std::size_t end,
                    double total_sum, SplitCandidate& best) {
    const std::size_t n = end - begin;
    const auto values = x_.values(f);
    const auto codes = x_.codes(f);
    const std::size_t bins = values.size();

    std::fill_n(start_.begin(), bins + 1, std::size_t{0});
    for (std::size_t i = begin; i < end; ++i) ++start_[codes[by_y_[i]] + 1];
    const std::uint32_t first_bin = codes[by_y_[begin]];
    if (start_[first_bin + 1] == n) return;  // constant in this node
    for (std::size_t b = 0; b < bins; ++b) start_[b + 1] += start_[b];
    std::copy_n(start_.begin(), bins, pos_.begin());
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = by_y_[i];
      seq_[pos_[codes[r]]++] = y_[r];
    }

    double left_sum = 0.0;
    std::size_t prev = 0;
    for (std::size_t b = 0; b < bins; ++b) {
      const std::size_t lo = start_[b];
      const std::size_t hi = start_[b + 1];
      if (lo == hi) continue;
      const std::size_t nl = lo;
      const std::size_t nr = n - nl;
      if (nl >= params_.min_samples_leaf && nr >= params_.min_samples_leaf) {
        const double right_sum = total_sum - left_sum;
        // Variance-reduction gain (up to constants): sum^2/n terms.
        const double gain =
            left_sum * left_sum / static_cast<double>(nl) +
            right_sum * right_sum / static_cast<double>(nr) -
            total_sum * total_sum / static_cast<double>(n);
        if (gain > best.gain) {
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (values[prev] + values[b]);
          best.gain = gain;
        }
      }
      for (std::size_t k = lo; k < hi; ++k) left_sum += seq_[k];
      prev = b;
    }
  }

  const BinnedMatrix& x_;
  std::span<const double> y_;
  const TreeParams& params_;
  std::vector<RegressionTree::Node>& nodes_;
  std::vector<RegressionTree::Split>& splits_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> by_y_;
  std::vector<std::size_t> start_;  // per-bin offsets into seq_
  std::vector<std::size_t> pos_;    // per-bin write cursors
  std::vector<double> seq_;         // node targets, counting-sorted by bin
  std::vector<std::size_t> spill_;  // right half of by_y_ while splitting
};

}  // namespace

void RegressionTree::fit(const Matrix& x, std::span<const double> y,
                         std::span<const std::size_t> sample_rows,
                         const TreeParams& params) {
  fit(BinnedMatrix::build(x), y, sample_rows, params);
}

void RegressionTree::fit(const BinnedMatrix& x, std::span<const double> y,
                         std::span<const std::size_t> sample_rows,
                         const TreeParams& params) {
  BAT_EXPECTS(x.rows() == y.size());
  BAT_EXPECTS(!sample_rows.empty());
  for (const std::size_t r : sample_rows) BAT_EXPECTS(r < x.rows());
  nodes_.clear();
  splits_.clear();
  Builder(x, y, sample_rows, params, nodes_, splits_).build_root();
}

double RegressionTree::predict(std::span<const double> features) const {
  BAT_EXPECTS(!nodes_.empty());
  std::size_t idx = 0;
  while (nodes_[idx].feature >= 0) {
    const auto& node = nodes_[idx];
    const double v = features[static_cast<std::size_t>(node.feature)];
    // NaN compares false and goes right.
    idx = static_cast<std::size_t>(node.left) +
          (v <= node.value_or_threshold ? 0 : 1);
  }
  return nodes_[idx].value_or_threshold;
}

std::vector<double> RegressionTree::split_gains(
    std::size_t num_features) const {
  std::vector<double> gains(num_features, 0.0);
  for (const auto& split : splits_) {
    gains[static_cast<std::size_t>(split.feature)] += split.gain;
  }
  return gains;
}

}  // namespace bat::ml
