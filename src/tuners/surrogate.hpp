// Sequential model-based search (SMAC-style): fit a GBDT surrogate on the
// evaluations so far, screen a pool of random candidates through it, and
// spend real evaluations only on the most promising ones (with
// epsilon-greedy exploration).
//
// Each screening step draws candidate_pool valid indices, decodes them
// into one reused feature matrix and scores them in one
// GbdtRegressor::predict_rows call. The first strict minimum wins, as a
// one-candidate-at-a-time scan would pick it, and only the winner is
// built as a Config. The model is refit every refit_every proposals.
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class SurrogateTuner final : public Tuner {
 public:
  struct Options {
    std::size_t initial_random = 20;   // warm-up evaluations
    std::size_t candidate_pool = 400;  // surrogate-screened candidates
    // Proposals between refits, counting those the evaluator answers
    // from its cache; a refit can therefore follow fewer than
    // refit_every new evaluations.
    std::size_t refit_every = 8;
    double explore_fraction = 0.15;    // epsilon
  };

  SurrogateTuner() : options_(Options{}) {}
  explicit SurrogateTuner(Options options) : options_(options) {}

  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "surrogate";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;

 private:
  Options options_;
};

}  // namespace bat::tuners
