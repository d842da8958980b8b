#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "ml/gbdt.hpp"
#include "ml/matrix.hpp"
#include "ml/pfi.hpp"
#include "ml/tree.hpp"

namespace bat::ml {
namespace {

/// y = 3*x0 + step(x1) + noise; x2 is pure noise.
std::pair<Matrix, std::vector<double>> synthetic_data(std::size_t n,
                                                      std::uint64_t seed) {
  common::Rng rng(seed);
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0.0, 4.0);
    x(i, 1) = static_cast<double>(rng.uniform_int(0, 3));
    x(i, 2) = rng.uniform(-1.0, 1.0);
    y[i] = std::exp(0.5 * x(i, 0) + (x(i, 1) >= 2.0 ? 1.0 : 0.0) +
                    rng.normal(0.0, 0.01));
  }
  return {std::move(x), std::move(y)};
}

TEST(Matrix, FromRowsAndAccess) {
  const auto m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.row(0)[1], 2.0);
}

TEST(Matrix, PermutedColumnOnlyTouchesThatColumn) {
  const auto m = Matrix::from_rows({{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}});
  const auto p = m.with_permuted_column(1, {2, 0, 1});
  EXPECT_DOUBLE_EQ(p(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);  // column 0 untouched
}

TEST(TrainTestSplit, SizesAndDeterminism) {
  const auto [x, y] = synthetic_data(100, 1);
  const auto s1 = train_test_split(x, y, 0.25, 7);
  const auto s2 = train_test_split(x, y, 0.25, 7);
  EXPECT_EQ(s1.x_train.rows(), 75u);
  EXPECT_EQ(s1.x_test.rows(), 25u);
  EXPECT_EQ(s1.y_test, s2.y_test);
  const auto s3 = train_test_split(x, y, 0.25, 8);
  EXPECT_NE(s1.y_test, s3.y_test);
}

TEST(RegressionTree, FitsAStepFunctionExactly) {
  Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 50 ? 1.0 : 5.0;
  }
  std::vector<std::size_t> rows(100);
  for (std::size_t i = 0; i < 100; ++i) rows[i] = i;
  RegressionTree tree;
  tree.fit(x, y, rows, TreeParams{});
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{10.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{80.0}), 5.0);
}

TEST(RegressionTree, RespectsMinSamplesLeaf) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i);
  }
  std::vector<std::size_t> rows(10);
  for (std::size_t i = 0; i < 10; ++i) rows[i] = i;
  TreeParams params;
  params.min_samples_leaf = 5;
  RegressionTree tree;
  tree.fit(x, y, rows, params);
  // Only one split is possible (5|5).
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(RegressionTree, SplitGainsConcentrateOnInformativeFeature) {
  const auto [x, y] = synthetic_data(400, 2);
  std::vector<double> logy(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) logy[i] = std::log(y[i]);
  std::vector<std::size_t> rows(x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  RegressionTree tree;
  tree.fit(x, logy, rows, TreeParams{});
  const auto gains = tree.split_gains(3);
  EXPECT_GT(gains[0], gains[2]);
}

TEST(Gbdt, HighR2OnSmoothTarget) {
  const auto [x, y] = synthetic_data(600, 3);
  const auto split = train_test_split(x, y, 0.25, 11);
  GbdtRegressor model;
  model.fit(split.x_train, split.y_train);
  const auto pred = model.predict_all(split.x_test);
  EXPECT_GT(r2_score(split.y_test, pred), 0.95);
}

TEST(Gbdt, MoreTreesDoNotHurtTrainFit) {
  const auto [x, y] = synthetic_data(300, 4);
  GbdtParams small;
  small.num_trees = 10;
  GbdtParams large;
  large.num_trees = 150;
  GbdtRegressor m_small(small), m_large(large);
  m_small.fit(x, y);
  m_large.fit(x, y);
  const auto p_small = m_small.predict_all(x);
  const auto p_large = m_large.predict_all(x);
  EXPECT_GE(r2_score(y, p_large), r2_score(y, p_small));
}

TEST(Gbdt, DeterministicGivenSeed) {
  const auto [x, y] = synthetic_data(200, 5);
  GbdtRegressor a, b;
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_DOUBLE_EQ(a.predict(x.row(0)), b.predict(x.row(0)));
}

TEST(Gbdt, LogTargetRequiresPositiveY) {
  Matrix x(4, 1);
  std::vector<double> y{1.0, 2.0, -1.0, 3.0};
  GbdtRegressor model;
  EXPECT_THROW(model.fit(x, y, /*log_target=*/true),
               common::ContractViolation);
  EXPECT_NO_THROW(model.fit(x, y, /*log_target=*/false));
}

TEST(Metrics, R2Properties) {
  const std::vector<double> truth{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_DOUBLE_EQ(r2_score(truth, mean_pred), 0.0);
  const std::vector<double> bad{4.0, 3.0, 2.0, 1.0};
  EXPECT_LT(r2_score(truth, bad), 0.0);
}

TEST(Metrics, Rmse) {
  const std::vector<double> truth{0.0, 0.0};
  const std::vector<double> pred{3.0, 4.0};
  EXPECT_DOUBLE_EQ(rmse(truth, pred), std::sqrt(12.5));
}

TEST(Pfi, InformativeFeaturesDominateNoise) {
  const auto [x, y] = synthetic_data(600, 6);
  GbdtRegressor model;
  model.fit(x, y);
  const auto result = permutation_importance(model, x, y);
  EXPECT_GT(result.baseline_r2, 0.9);
  EXPECT_GT(result.importance[0], 10.0 * result.importance[2] + 1e-9);
  EXPECT_GT(result.importance[1], result.importance[2]);
  EXPECT_GT(result.total(), 0.0);
}

TEST(Pfi, RequiresTrainedModel) {
  GbdtRegressor model;
  Matrix x(2, 1);
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)permutation_importance(model, x, y),
               common::ContractViolation);
}

class GbdtDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(GbdtDepthSweep, DeeperTreesFitInteractionsBetter) {
  // y depends on XOR(x0 > .5, x1 > .5): needs depth >= 2.
  common::Rng rng(7);
  Matrix x(400, 2);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    const bool a = x(i, 0) > 0.5, b = x(i, 1) > 0.5;
    y[i] = (a ^ b) ? 4.0 : 1.0;
  }
  GbdtParams params;
  params.tree.max_depth = GetParam();
  GbdtRegressor model(params);
  model.fit(x, y);
  const double r2 = r2_score(y, model.predict_all(x));
  if (GetParam() >= 2) {
    EXPECT_GT(r2, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, GbdtDepthSweep, ::testing::Values(2, 4, 6));

TEST(BinnedMatrix, CodesIndexSortedDistinctValues) {
  const auto m = Matrix::from_rows(
      {{4.0, 0.0}, {-1.0, 7.0}, {4.0, -0.0}, {2.5, 7.0}, {-1.0, 1.0}});
  const auto b = BinnedMatrix::build(m);
  ASSERT_EQ(b.rows(), 5u);
  ASSERT_EQ(b.cols(), 2u);
  EXPECT_EQ(b.max_bins(), 3u);
  EXPECT_EQ(std::vector<double>(b.values(0).begin(), b.values(0).end()),
            (std::vector<double>{-1.0, 2.5, 4.0}));
  EXPECT_EQ(std::vector<std::uint32_t>(b.codes(0).begin(), b.codes(0).end()),
            (std::vector<std::uint32_t>{2, 0, 2, 1, 0}));
  // 0.0 and -0.0 compare equal, so they share one bin.
  EXPECT_EQ(b.values(1).size(), 3u);
  EXPECT_EQ(b.codes(1)[0], b.codes(1)[2]);
  for (std::size_t f = 0; f < 2; ++f) {
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(b.values(f)[b.codes(f)[r]], m(r, f));
    }
  }
}

TEST(BinnedMatrix, RejectsNonFiniteFeatures) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix x(4, 2);
    for (std::size_t r = 0; r < 4; ++r) {
      x(r, 0) = x(r, 1) = static_cast<double>(r);
    }
    x(2, 1) = bad;
    EXPECT_THROW((void)BinnedMatrix::build(x), common::ContractViolation);
    const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
    GbdtRegressor model;
    EXPECT_THROW(model.fit(x, y), common::ContractViolation);
    RegressionTree tree;
    const std::vector<std::size_t> rows{0, 1, 2, 3};
    EXPECT_THROW(tree.fit(x, y, rows, TreeParams{}),
                 common::ContractViolation);
  }
}

// ---- Oracle: the sort-per-node builder the binned builder replaced. ----
// Every tree, gain and prediction of the binned builder must match it
// bit for bit.

struct RefNode {
  int feature = -1;
  double threshold = 0.0;
  double value = 0.0;
  double gain = 0.0;
  int left = -1;
  int right = -1;
  std::size_t n = 0;  // rows reaching the node
};

int reference_build(const Matrix& x, std::span<const double> y,
                    std::vector<std::size_t>& rows, std::size_t begin,
                    std::size_t end, int depth, const TreeParams& params,
                    std::vector<RefNode>& nodes) {
  const std::size_t n = end - begin;
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += y[rows[i]];
  const int node_index = static_cast<int>(nodes.size());
  nodes.push_back(RefNode{});
  nodes[node_index].value = sum / static_cast<double>(n);
  nodes[node_index].n = n;
  if (depth >= params.max_depth || n < 2 * params.min_samples_leaf) {
    return node_index;
  }
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 0.0;
  std::vector<std::pair<double, double>> vals;
  for (std::size_t f = 0; f < x.cols(); ++f) {
    vals.clear();
    for (std::size_t i = begin; i < end; ++i) {
      vals.emplace_back(x(rows[i], f), y[rows[i]]);
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_sum += vals[i].second;
      if (vals[i].first == vals[i + 1].first) continue;
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < params.min_samples_leaf || nr < params.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double gain = left_sum * left_sum / static_cast<double>(nl) +
                          right_sum * right_sum / static_cast<double>(nr) -
                          sum * sum / static_cast<double>(n);
      if (gain > best_gain) {
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
        best_gain = gain;
      }
    }
  }
  if (best_feature < 0 || best_gain <= params.min_gain) return node_index;
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t r) {
        return x(r, static_cast<std::size_t>(best_feature)) <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == begin || mid == end) return node_index;
  nodes[node_index].feature = best_feature;
  nodes[node_index].threshold = best_threshold;
  nodes[node_index].gain = best_gain;
  const int left = reference_build(x, y, rows, begin, mid, depth + 1, params,
                                   nodes);
  const int right =
      reference_build(x, y, rows, mid, end, depth + 1, params, nodes);
  nodes[node_index].left = left;
  nodes[node_index].right = right;
  return node_index;
}

std::vector<RefNode> reference_tree(const Matrix& x, std::span<const double> y,
                                    std::span<const std::size_t> sample_rows,
                                    const TreeParams& params) {
  std::vector<RefNode> nodes;
  std::vector<std::size_t> rows(sample_rows.begin(), sample_rows.end());
  reference_build(x, y, rows, 0, rows.size(), 0, params, nodes);
  return nodes;
}

double reference_predict(const std::vector<RefNode>& nodes,
                         std::span<const double> features) {
  std::size_t idx = 0;
  while (nodes[idx].feature >= 0) {
    const auto& node = nodes[idx];
    idx = static_cast<std::size_t>(
        features[static_cast<std::size_t>(node.feature)] <= node.threshold
            ? node.left
            : node.right);
  }
  return nodes[idx].value;
}

struct RefModel {
  double base = 0.0;
  std::vector<std::vector<RefNode>> trees;
};

// The boosting loop as GbdtRegressor::fit runs it, on log targets.
RefModel reference_gbdt(const Matrix& x, std::span<const double> y,
                        const GbdtParams& params) {
  const std::size_t n = x.rows();
  RefModel model;
  std::vector<double> target(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += target[i] = std::log(y[i]);
  model.base = sum / static_cast<double>(n);
  std::vector<double> residual(n), current(n, model.base);
  common::Rng rng(params.seed);
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) * params.subsample));
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t t = 0; t < params.num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = target[i] - current[i];
    const auto sample =
        params.subsample >= 1.0 ? all : rng.sample_indices(n, k);
    model.trees.push_back(reference_tree(x, residual, sample, params.tree));
    for (std::size_t i = 0; i < n; ++i) {
      current[i] += params.learning_rate *
                    reference_predict(model.trees.back(), x.row(i));
    }
  }
  return model;
}

std::vector<double> reference_predict_all(const RefModel& model,
                                          const GbdtParams& params,
                                          const Matrix& x) {
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double acc = model.base;
    for (const auto& tree : model.trees) {
      acc += params.learning_rate * reference_predict(tree, x.row(i));
    }
    out[i] = std::exp(acc);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Walks both trees in preorder and describes the first difference in
// structure, feature, threshold, leaf value or gain ("" if none).
std::string tree_difference(const std::vector<RefNode>& ref,
                            const RegressionTree& tree) {
  const auto nodes = tree.nodes();
  const auto splits = tree.splits();
  if (ref.size() != nodes.size()) {
    return "node count " + std::to_string(ref.size()) + " vs " +
           std::to_string(nodes.size());
  }
  std::size_t next_split = 0;
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [r, c] = stack.back();
    stack.pop_back();
    const auto& a = ref[r];
    const auto& b = nodes[c];
    const std::string at = "ref node " + std::to_string(r) + ": ";
    if ((a.feature < 0) != b.leaf()) return at + "leaf";
    if (a.feature < 0) {
      if (b.child[0] != c || b.feature != 0) return at + "leaf links";
      if (bits(a.value) != bits(b.value_or_threshold)) return at + "value";
      continue;
    }
    if (static_cast<std::uint32_t>(a.feature) != b.feature) {
      return at + "feature";
    }
    if (bits(a.threshold) != bits(b.value_or_threshold)) {
      return at + "threshold";
    }
    if (next_split >= splits.size()) return at + "missing split";
    const auto& split = splits[next_split++];
    if (split.feature != a.feature || bits(split.gain) != bits(a.gain)) {
      return at + "gain";
    }
    if (b.child[0] <= c || b.child[1] != b.child[0] + 1) {
      return at + "child pair";
    }
    stack.emplace_back(static_cast<std::size_t>(a.right), b.child[1]);
    stack.emplace_back(static_cast<std::size_t>(a.left), b.child[0]);
  }
  if (next_split != splits.size()) return "extra splits";
  return "";
}

void expect_same_split_gains(const std::vector<RefNode>& ref,
                             const RegressionTree& tree,
                             std::size_t num_features) {
  // Preorder sum, as the reference's node array is laid out.
  std::vector<double> expected(num_features, 0.0);
  for (const auto& node : ref) {
    if (node.feature >= 0) {
      expected[static_cast<std::size_t>(node.feature)] += node.gain;
    }
  }
  const auto got = tree.split_gains(num_features);
  for (std::size_t f = 0; f < num_features; ++f) {
    EXPECT_EQ(bits(expected[f]), bits(got[f])) << "feature " << f;
  }
}

void expect_same_gbdt(const Matrix& x, std::span<const double> y,
                      const GbdtParams& params, const Matrix& x_eval) {
  GbdtRegressor model(params);
  model.fit(x, y);
  const auto ref = reference_gbdt(x, y, params);
  ASSERT_EQ(model.num_trees(), ref.trees.size());
  for (std::size_t t = 0; t < ref.trees.size(); ++t) {
    ASSERT_EQ(tree_difference(ref.trees[t], model.trees()[t]), "")
        << "tree " << t;
  }
  const auto expected = reference_predict_all(ref, params, x_eval);
  const auto got = model.predict_all(x_eval);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(expected[i]), bits(got[i])) << "row " << i;
  }
}

// Few-valued columns of the kinds BAT parameters take, plus the awkward
// cases: negatives, -0.0 beside 0.0, a constant column, a continuous one,
// and targets drawn from a handful of values so ties are common.
std::pair<Matrix, std::vector<double>> awkward_data(std::size_t n,
                                                    std::uint64_t seed) {
  common::Rng rng(seed);
  Matrix x(n, 6);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(rng.uniform_int(-3, 3));
    x(i, 1) = 5.0;
    x(i, 2) = std::ldexp(1.0, static_cast<int>(rng.uniform_int(0, 6)));
    x(i, 3) = rng.uniform(-2.0, 2.0);
    x(i, 4) = rng.bernoulli(0.5) ? -0.0 : (rng.bernoulli(0.5) ? 0.0 : 1.0);
    x(i, 5) = static_cast<double>(rng.uniform_int(0, 1));
    const auto level = rng.uniform_int(0, 5);
    y[i] = std::exp(0.25 * static_cast<double>(level) +
                    (x(i, 0) > 0.0 ? 0.5 : 0.0) + 0.1 * x(i, 5));
  }
  return {std::move(x), std::move(y)};
}

std::vector<double> logs(std::span<const double> y) {
  std::vector<double> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = std::log(y[i]);
  return out;
}

TEST(TreeOracle, AwkwardFeaturesMatchSortPerNodeBuilder) {
  std::size_t exact_min_leaves = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto [x, y] = awkward_data(40 + 23 * seed, seed);
    const auto target = logs(y);
    common::Rng rng(seed * 31);
    // Duplicate rows in the sample, as a caller may pass them.
    std::vector<std::size_t> rows(x.rows());
    for (auto& r : rows) r = rng.next_below(x.rows());
    for (const std::size_t min_leaf : {1, 3, 5}) {
      for (const int depth : {1, 4, 8}) {
        const TreeParams params{depth, min_leaf, 1e-12};
        const auto ref = reference_tree(x, target, rows, params);
        RegressionTree tree;
        tree.fit(x, target, rows, params);
        ASSERT_EQ(tree_difference(ref, tree), "")
            << "seed " << seed << " min_leaf " << min_leaf << " depth "
            << depth;
        expect_same_split_gains(ref, tree, x.cols());
        for (const auto& node : ref) {
          if (node.feature < 0 && node.n == min_leaf) ++exact_min_leaves;
        }
        for (std::size_t i = 0; i < x.rows(); ++i) {
          ASSERT_EQ(bits(reference_predict(ref, x.row(i))),
                    bits(tree.predict(x.row(i))));
        }
      }
    }
  }
  EXPECT_GT(exact_min_leaves, 0u);  // the boundary case was exercised
}

TEST(TreeOracle, SingleDistinctValueGivesOneLeaf) {
  Matrix x(30, 3);
  std::vector<double> y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = 2.0;
    x(i, 1) = -1.0;
    x(i, 2) = 0.0;
    y[i] = static_cast<double>(i % 4);
  }
  std::vector<std::size_t> rows(30);
  for (std::size_t i = 0; i < 30; ++i) rows[i] = i;
  const auto ref = reference_tree(x, y, rows, TreeParams{});
  RegressionTree tree;
  tree.fit(x, y, rows, TreeParams{});
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree_difference(ref, tree), "");
}

TEST(GbdtOracle, AwkwardFeaturesMatchReferenceBoosting) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto [x, y] = awkward_data(150 + 50 * seed, 100 + seed);
    GbdtParams params;
    params.num_trees = 60;
    params.seed = seed;
    params.tree.max_depth = static_cast<int>(3 + seed);
    params.tree.min_samples_leaf = seed;
    expect_same_gbdt(x, y, params, x);
    params.subsample = 1.0;
    expect_same_gbdt(x, y, params, x);
  }
}

TEST(GbdtOracle, ContinuousFeaturesMatchReferenceBoosting) {
  // Every value distinct: one bin per row, binning's worst case.
  const auto [x, y] = synthetic_data(500, 21);
  GbdtParams params;
  params.num_trees = 40;
  expect_same_gbdt(x, y, params, x);
}

class GbdtOracleExhaustive : public ::testing::TestWithParam<const char*> {};

TEST_P(GbdtOracleExhaustive, PfiModelMatchesReferenceBoosting) {
  // The importance study's own model on a full exhaustive sweep: these
  // spaces have near-tied splits that reordered sums would flip.
  const auto bench = kernels::make(GetParam());
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  const auto x = Matrix::from_rows(ds.feature_matrix());
  const auto y = ds.target_vector();
  const auto split = train_test_split(x, y, 0.25, 0x1396ULL);
  GbdtParams params;
  params.num_trees = 100;
  expect_same_gbdt(split.x_train, split.y_train, params, split.x_test);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GbdtOracleExhaustive,
                         ::testing::Values("pnpoly", "convolution"));

// ---- Batch scoring: predict_rows/predict_all against per-row predict(). ----
// The lockstep walk and the tree-major sums must give every row exactly
// the bits the one-row, one-tree-at-a-time path gives.

void expect_batch_matches_predict(const GbdtRegressor& model,
                                  const Matrix& x) {
  std::vector<double> rows(x.rows());
  model.predict_rows(x, rows);
  const auto all = model.predict_all(x);
  ASSERT_EQ(all.size(), x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double expected = model.predict(x.row(i));
    ASSERT_EQ(bits(expected), bits(rows[i])) << "predict_rows row " << i;
    ASSERT_EQ(bits(expected), bits(all[i])) << "predict_all row " << i;
  }
}

Matrix first_rows(const Matrix& x, std::size_t n) {
  Matrix out(n, x.cols());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) out(r, c) = x(r % x.rows(), c);
  }
  return out;
}

// Depth of every leaf, by a walk from the root over the child pairs.
std::vector<int> leaf_depths(const RegressionTree& tree) {
  const auto nodes = tree.nodes();
  std::vector<int> depths;
  std::vector<std::pair<std::uint32_t, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [at, depth] = stack.back();
    stack.pop_back();
    if (nodes[at].leaf()) {
      depths.push_back(depth);
      continue;
    }
    stack.emplace_back(nodes[at].child[0], depth + 1);
    stack.emplace_back(nodes[at].child[1], depth + 1);
  }
  return depths;
}

TEST(GbdtBatch, BlockRemaindersMatchPredict) {
  const auto [x, y] = awkward_data(400, 7);
  GbdtParams params;
  params.num_trees = 40;
  GbdtRegressor model(params);
  model.fit(x, y);
  static_assert(RegressionTree::kBlockRows == 16);
  for (const std::size_t n : {1, 15, 16, 17, 400}) {
    SCOPED_TRACE(n);
    expect_batch_matches_predict(model, first_rows(x, n));
  }
}

TEST(GbdtBatch, SingleLeafTreesMatchPredict) {
  const auto [x, y_unused] = awkward_data(60, 8);
  const std::vector<double> y(x.rows(), 2.5);  // constant target
  GbdtParams params;
  params.num_trees = 5;
  GbdtRegressor model(params);
  model.fit(x, y);
  for (const auto& tree : model.trees()) {
    EXPECT_EQ(tree.node_count(), 1u);
    EXPECT_EQ(tree.depth(), 0);
  }
  expect_batch_matches_predict(model, x);
}

TEST(GbdtBatch, MixedLeafDepthsMatchPredict) {
  const auto [x, y] = awkward_data(300, 9);
  GbdtParams params;
  params.num_trees = 30;
  params.tree.max_depth = 6;
  params.tree.min_samples_leaf = 8;
  GbdtRegressor model(params);
  model.fit(x, y);
  std::size_t mixed = 0;
  for (const auto& tree : model.trees()) {
    const auto depths = leaf_depths(tree);
    const auto [lo, hi] = std::minmax_element(depths.begin(), depths.end());
    EXPECT_EQ(*hi, tree.depth());
    if (*lo < *hi) ++mixed;
  }
  EXPECT_GT(mixed, 0u);  // short walks had to idle on their leaves
  expect_batch_matches_predict(model, x);
}

TEST(GbdtBatch, RawTargetMatchesPredict) {
  auto [x, y] = awkward_data(200, 10);
  for (double& v : y) v = std::log(v) - 0.3;  // signed, not log-scaled
  GbdtParams params;
  params.num_trees = 30;
  GbdtRegressor model(params);
  model.fit(x, y, /*log_target=*/false);
  expect_batch_matches_predict(model, x);
}

TEST(GbdtBatch, NanFeatureGoesRightAsPredictSendsIt) {
  // Documented behaviour: the batch path does not reject non-finite
  // rows; a NaN compares false at every split and goes right, exactly
  // as predict() sends it.
  const auto [x, y] = awkward_data(200, 11);
  GbdtParams params;
  params.num_trees = 20;
  GbdtRegressor model(params);
  model.fit(x, y);
  Matrix probe = first_rows(x, 40);
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    probe(r, r % probe.cols()) = std::numeric_limits<double>::quiet_NaN();
  }
  expect_batch_matches_predict(model, probe);
  // All-NaN rows take the rightmost path of every tree.
  Matrix all_nan(3, x.cols());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      all_nan(r, c) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  std::vector<double> got(3);
  model.predict_rows(all_nan, got);
  // The base prediction is the mean log target, summed as fit sums it.
  double acc = 0.0;
  for (const double v : y) acc += std::log(v);
  acc /= static_cast<double>(y.size());
  for (const auto& tree : model.trees()) {
    std::uint32_t at = 0;
    while (!tree.nodes()[at].leaf()) at = tree.nodes()[at].child[1];
    acc += params.learning_rate * tree.nodes()[at].value_or_threshold;
  }
  for (const double v : got) EXPECT_EQ(bits(std::exp(acc)), bits(v));
}

TEST(GbdtBatch, PfiShapedModelOnExhaustivePnpolyMatchesPredict) {
  const auto bench = kernels::make("pnpoly");
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  const auto x = Matrix::from_rows(ds.feature_matrix());
  const auto split = train_test_split(x, ds.target_vector(), 0.25, 0x1396ULL);
  GbdtRegressor model;  // 300 trees, depth 6: the importance study's model
  ASSERT_EQ(model.params().num_trees, 300u);
  ASSERT_EQ(model.params().tree.max_depth, 6);
  model.fit(split.x_train, split.y_train);
  expect_batch_matches_predict(model, x);
}

TEST(GbdtBatch, RowCountMustMatchOutput) {
  const auto [x, y] = awkward_data(50, 12);
  GbdtParams params;
  params.num_trees = 3;
  GbdtRegressor model(params);
  model.fit(x, y);
  std::vector<double> out(x.rows() - 1);
  EXPECT_THROW(model.predict_rows(x, out), common::ContractViolation);
}

}  // namespace
}  // namespace bat::ml
