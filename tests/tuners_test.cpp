#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "tuners/tuner.hpp"

namespace bat::tuners {
namespace {

TEST(TunerFactory, KnowsAllNamesAndRejectsUnknown) {
  for (const auto& name : tuner_names()) {
    const auto tuner = make_tuner(name);
    EXPECT_EQ(tuner->name(), name);
  }
  EXPECT_EQ(make_tuner("basic")->name(), "local");  // paper's basic tuner
  EXPECT_THROW((void)make_tuner("gradient_descent"), std::out_of_range);
}

class AllTunersSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AllTunersSweep, RespectsBudgetExactly) {
  const auto bench = kernels::make("pnpoly");
  auto tuner = make_tuner(GetParam());
  const auto run = run_tuner(*tuner, *bench, 0, 60, 17);
  EXPECT_EQ(run.trace.size(), 60u);
  EXPECT_EQ(run.best_so_far.size(), 60u);
}

TEST_P(AllTunersSweep, FindsFiniteBest) {
  const auto bench = kernels::make("pnpoly");
  auto tuner = make_tuner(GetParam());
  const auto run = run_tuner(*tuner, *bench, 2, 80, 23);
  ASSERT_TRUE(run.best.has_value());
  EXPECT_TRUE(std::isfinite(run.best->objective));
}

TEST_P(AllTunersSweep, DeterministicGivenSeed) {
  const auto bench = kernels::make("convolution");
  auto t1 = make_tuner(GetParam());
  auto t2 = make_tuner(GetParam());
  const auto r1 = run_tuner(*t1, *bench, 1, 40, 99);
  const auto r2 = run_tuner(*t2, *bench, 1, 40, 99);
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  for (std::size_t i = 0; i < r1.trace.size(); ++i) {
    EXPECT_EQ(r1.trace[i].index, r2.trace[i].index);
  }
}

TEST_P(AllTunersSweep, BeatsTheMedianWithModestBudget) {
  const auto bench = kernels::make("pnpoly");
  // Median of the exhaustive space (computed once, cheap for pnpoly).
  static const double median = [] {
    const auto b = kernels::make("pnpoly");
    const auto ds = core::Runner::run_exhaustive(*b, 0);
    return ds.median_time();
  }();
  auto tuner = make_tuner(GetParam());
  const auto run = run_tuner(*tuner, *bench, 0, 150, 31);
  ASSERT_TRUE(run.best.has_value());
  EXPECT_LT(run.best->objective, median);
}

INSTANTIATE_TEST_SUITE_P(Tuners, AllTunersSweep,
                         ::testing::ValuesIn(tuner_names()),
                         [](const auto& info) { return info.param; });

TEST(LocalSearch, ReachesALocalMinimum) {
  const auto bench = kernels::make("pnpoly");
  auto tuner = make_tuner("local");
  const auto run = run_tuner(*tuner, *bench, 2, 400, 5);
  ASSERT_TRUE(run.best.has_value());
  // Verify the incumbent is no worse than all its valid neighbors OR the
  // budget ended mid-descent; for a 400-eval budget on a 4k space, at
  // least one full descent completes, so check against neighbors.
  const auto& space = bench->space();
  const auto best_config =
      space.params().config_at(run.best->index);
  std::size_t better_neighbors = 0;
  for (const auto& n : space.valid_neighbors(best_config)) {
    const auto m = bench->evaluate(n, 2);
    if (m.ok() && m.time_ms < run.best->objective) ++better_neighbors;
  }
  EXPECT_EQ(better_neighbors, 0u);
}

TEST(Comparison, InformedTunersBeatRandomOnGemm) {
  // The whole point of the suite: optimization algorithms can be
  // compared through a single interface. On the hard GEMM space a
  // model/structure-exploiting tuner should beat random search given the
  // same modest budget (aggregated over seeds to avoid flakiness).
  const auto bench = kernels::make("gemm");
  double random_best = 0.0, informed_best = 0.0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto random = make_tuner("random");
    auto informed = make_tuner("ils");
    random_best += run_tuner(*random, *bench, 2, 220, seed).best->objective;
    informed_best +=
        run_tuner(*informed, *bench, 2, 220, seed).best->objective;
  }
  EXPECT_LT(informed_best, random_best * 1.10);
}

TEST_P(AllTunersSweep, LiveAndReplayTracesAreIdentical) {
  // The backend-parity acceptance test: one Runner sweep replayed as a
  // tabular benchmark must reproduce the exact live run (same
  // ConfigIndex sequence, same objectives) for the same seed.
  const auto bench = kernels::make("pnpoly");
  static const core::Dataset ds = core::Runner::run_exhaustive(*bench, 1);
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    auto live_tuner = make_tuner(GetParam());
    core::LiveBackend live(*bench, 1);
    const auto live_run = run_tuner(*live_tuner, live, 70, seed);

    auto replay_tuner = make_tuner(GetParam());
    core::ReplayBackend replay(bench->space(), ds);
    const auto replay_run = run_tuner(*replay_tuner, replay, 70, seed);

    ASSERT_EQ(live_run.trace.size(), replay_run.trace.size());
    for (std::size_t i = 0; i < live_run.trace.size(); ++i) {
      EXPECT_EQ(live_run.trace[i].index, replay_run.trace[i].index);
      EXPECT_DOUBLE_EQ(live_run.trace[i].objective,
                       replay_run.trace[i].objective);
    }
    ASSERT_EQ(live_run.best_so_far.size(), replay_run.best_so_far.size());
    for (std::size_t i = 0; i < live_run.best_so_far.size(); ++i) {
      EXPECT_DOUBLE_EQ(live_run.best_so_far[i], replay_run.best_so_far[i]);
    }
  }
}

// FNV-1a 64 over each trace entry's (index, objective bits).
std::uint64_t trace_digest(const TuningRun& run) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& entry : run.trace) {
    mix(entry.index);
    mix(std::bit_cast<std::uint64_t>(entry.objective));
  }
  return h;
}

TEST(SurrogateTuner, TracesMatchRecordedDigests) {
  // Recorded from the per-row scorer; any change to how the surrogate
  // draws, scores or picks candidates shows up here as a new digest.
  const std::map<std::string, std::uint64_t> expected{
      {"convolution/live/41", 0xa40f1358835d6115ULL},
      {"convolution/live/5", 0xdde5955d4ce767aULL},
      {"dedisp/live/41", 0xc086fa3843f328acULL},
      {"dedisp/live/5", 0x55b3cd4b519e2f79ULL},
      {"expdist/live/41", 0xf29965afc43c31d2ULL},
      {"expdist/live/5", 0xa4f8dbde19963c8cULL},
      {"gemm/live/41", 0x1714b965d4dc2cdeULL},
      {"gemm/live/5", 0x7ee3500444da188eULL},
      {"hotspot/live/41", 0x86f15af32be2f514ULL},
      {"hotspot/live/5", 0x223e94d2444e79e9ULL},
      {"nbody/live/41", 0x412f6d371e2b8210ULL},
      {"nbody/live/5", 0x317cca1c650a3276ULL},
      {"pnpoly/live/41", 0x1f4de71015cf618cULL},
      {"pnpoly/live/5", 0xed9ab3ff35fcdce7ULL},
      {"pnpoly/replay/41", 0x33982fa26a3a2f2aULL},
      {"pnpoly/replay/5", 0x5a770f4556953a93ULL}};
  std::map<std::string, std::uint64_t> got;
  for (const auto& name : kernels::paper_benchmark_names()) {
    const auto bench = kernels::make(name);
    for (const std::uint64_t seed : {5ULL, 41ULL}) {
      auto tuner = make_tuner("surrogate");
      got[name + "/live/" + std::to_string(seed)] =
          trace_digest(run_tuner(*tuner, *bench, seed % 4, 60, seed));
    }
  }
  const auto bench = kernels::make("pnpoly");
  const core::Dataset ds = core::Runner::run_exhaustive(*bench, 2);
  for (const std::uint64_t seed : {5ULL, 41ULL}) {
    auto tuner = make_tuner("surrogate");
    core::ReplayBackend replay(bench->space(), ds);
    got["pnpoly/replay/" + std::to_string(seed)] =
        trace_digest(run_tuner(*tuner, replay, 60, seed));
  }
  for (const auto& [key, digest] : got) {
    const auto it = expected.find(key);
    EXPECT_TRUE(it != expected.end() && it->second == digest)
        << key << " = 0x" << std::hex << digest;
  }
  EXPECT_EQ(got.size(), expected.size());
}

TEST(BatchedTuners, PopulationTunersUseAskTell) {
  for (const auto& name : {"random", "genetic", "pso", "de"}) {
    EXPECT_TRUE(make_tuner(name)->batched()) << name;
  }
  for (const auto& name : {"local", "annealing", "ils", "surrogate"}) {
    EXPECT_FALSE(make_tuner(name)->batched()) << name;
  }
}

TEST(RunTuner, TraceObjectivesMatchBenchmark) {
  const auto bench = kernels::make("nbody");
  auto tuner = make_tuner("random");
  const auto run = run_tuner(*tuner, *bench, 3, 25, 77);
  for (const auto& entry : run.trace) {
    const auto config = bench->space().params().config_at(entry.index);
    const auto m = bench->evaluate(config, 3);
    EXPECT_DOUBLE_EQ(entry.objective, m.objective());
  }
}

}  // namespace
}  // namespace bat::tuners
