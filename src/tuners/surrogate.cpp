#include "tuners/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/gbdt.hpp"

namespace bat::tuners {

void SurrogateTuner::optimize(core::CachingEvaluator& evaluator,
                              common::Rng& rng) {
  const auto& space = evaluator.space();
  const auto& params = space.params();
  const std::size_t dims = params.num_params();

  // Observations (features = raw parameter values, target = objective).
  std::vector<std::vector<double>> x_rows;
  std::vector<double> y_vals;

  const auto observe = [&](const core::Config& config) {
    const double obj = evaluator(config);
    if (std::isfinite(obj) && obj > 0.0) {
      std::vector<double> row(dims);
      for (std::size_t p = 0; p < dims; ++p) {
        row[p] = static_cast<double>(config[p]);
      }
      x_rows.push_back(std::move(row));
      y_vals.push_back(obj);
    }
    return obj;
  };

  for (std::size_t i = 0; i < options_.initial_random; ++i) {
    (void)observe(space.random_valid_config(rng));
  }

  ml::GbdtParams gparams;
  gparams.num_trees = 80;  // refit often -> keep individual fits cheap
  gparams.tree.max_depth = 5;

  // The candidate pool, reused by every screening step.
  ml::Matrix pool(options_.candidate_pool, dims);
  std::vector<core::ConfigIndex> pool_index(options_.candidate_pool);
  std::vector<double> predicted(options_.candidate_pool);
  core::Config decoded;

  while (true) {
    // (Re)fit the surrogate on everything observed so far.
    ml::GbdtRegressor model(gparams);
    if (x_rows.size() >= 8) {
      model.fit(ml::Matrix::from_rows(x_rows), y_vals);
    }

    for (std::size_t step = 0; step < options_.refit_every; ++step) {
      if (!model.trained() || rng.uniform() < options_.explore_fraction) {
        (void)observe(space.random_valid_config(rng));
        continue;
      }
      // Screen a pool of random valid candidates through the surrogate
      // in one batch and evaluate the most promising one for real: the
      // first strict minimum, as a one-by-one scan would pick it.
      for (std::size_t i = 0; i < options_.candidate_pool; ++i) {
        pool_index[i] = space.random_valid_index(rng);
        params.decode_into(pool_index[i], decoded);
        for (std::size_t p = 0; p < dims; ++p) {
          pool(i, p) = static_cast<double>(decoded[p]);
        }
      }
      model.predict_rows(pool, predicted);
      core::Config best_candidate;
      double best_predicted = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < options_.candidate_pool; ++i) {
        if (predicted[i] < best_predicted) {
          best_predicted = predicted[i];
          params.decode_into(pool_index[i], best_candidate);
        }
      }
      (void)observe(best_candidate);
    }
  }
}

}  // namespace bat::tuners
