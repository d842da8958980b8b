// study: the paper's own pipeline, in process. Characterises pnpoly
// (4092 configurations, exhaustively enumerable) on all four devices:
// random-search convergence, fitness-flow graph + proportion of
// centrality, speedup over the median, the portability matrix and
// permutation feature importance, plus a tuner comparison of all eight
// tuners x six seeds per device over ReplayBackend. No net, api or
// journal: this is where ml dominates (GBDT fits in PFI and in the
// surrogate tuner). gemm's ~60 s of PFI would not fit a run.
//
// A run repeats the characterisation (a round) until --seconds have
// passed, at least twice, and every round must produce the same output.
// A "session" here is the characterisation of one device.
#include <cstdio>
#include <map>
#include <optional>
#include <type_traits>

#include "analysis/centrality.hpp"
#include "analysis/convergence.hpp"
#include "analysis/ffg.hpp"
#include "analysis/importance.hpp"
#include "analysis/portability.hpp"
#include "analysis/speedup.hpp"
#include "bench.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "ml/gbdt.hpp"
#include "ml/matrix.hpp"
#include "ml/pfi.hpp"
#include "tuners/tuner.hpp"

namespace e2e {
namespace {

constexpr const char* kKernel = "pnpoly";
/// How much work a surrogate session does depends on its seed; six per
/// tuner and device average that out of the round time.
constexpr std::size_t kSeedsPerTuner = 6;
constexpr std::size_t kBudget = 100;
constexpr std::size_t kConvergenceEvals = 1000;
constexpr std::size_t kConvergenceRepeats = 100;
constexpr std::size_t kSetupRepeats = 30;
const std::vector<double> kProportions{0.01, 0.05, 0.1, 0.2};

/// The seeded inputs of one run: what the program is handed.
struct Inputs {
  std::vector<bat::service::SessionSpec> sessions;  // tuner comparison
  std::uint64_t convergence_seed = 0;
  bat::analysis::ImportanceOptions importance;
};

Inputs draw_inputs(std::uint64_t seed, std::size_t devices) {
  SeedRng rng(seed);
  Inputs in;
  for (std::size_t d = 0; d < devices; ++d) {
    for (const auto& tuner : bat::tuners::tuner_names()) {
      for (std::size_t s = 0; s < kSeedsPerTuner; ++s) {
        bat::service::SessionSpec spec;
        spec.kernel = kKernel;
        spec.tuner = tuner;
        spec.device = d;
        spec.budget = kBudget;
        spec.seed = rng.next() >> 16;
        spec.backend = "replay";
        in.sessions.push_back(spec);
      }
    }
  }
  in.convergence_seed = rng.next();
  in.importance.seed = rng.next();
  in.importance.gbdt.seed = rng.next();
  in.importance.pfi.seed = rng.next();
  return in;
}

/// Appends numbers to the round's output text, which must be identical
/// in every round.
void put(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g ", v);
  out += buf;
}

/// Times the call, records it as a span when a log is given and adds it
/// to its name's total when totals are given.
struct Stage {
  SpanLog* log;
  std::map<std::string, double>* totals_us;

  template <typename F>
  auto operator()(const std::string& name, F&& f) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      finish(name, t0);
    } else {
      auto result = f();
      finish(name, t0);
      return result;
    }
  }
  void finish(const std::string& name, Clock::time_point t0) {
    const auto t1 = Clock::now();
    if (log) log->add(name, 0, 0, t0, t1);
    if (totals_us) (*totals_us)[name] += us_since(t0, t1);
  }
};

struct RoundResult {
  std::string output;  // every computed number, in a fixed order
  double seconds = 0.0;
  /// Per device: its analyses plus its share of the tuner comparison.
  std::vector<double> device_ms;
  std::size_t evaluations = 0;
  std::size_t pfi_fits = 0;  // GBDT fits the traced round made for PFI
  std::map<std::string, std::vector<double>> tuner_self_us;
  double backend_us = 0.0;
};

/// One characterisation, device by device. With `log`, the GBDT fit and
/// PFI are called one by one (as analysis::feature_importance does) so
/// each is timed, and the tuners run over a timing decorator.
RoundResult characterise(const bat::core::Benchmark& bench,
                         const std::vector<bat::core::Dataset>& datasets,
                         const Inputs& in, SpanLog* log,
                         std::map<std::string, double>* totals_us,
                         Report& report) {
  RoundResult r;
  Stage stage{log, totals_us};
  const auto t0 = Clock::now();
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const auto& ds = datasets[d];
    const auto d0 = Clock::now();
    const auto curve = stage("analysis.convergence", [&] {
      return bat::analysis::random_search_convergence(
          ds, kConvergenceEvals, kConvergenceRepeats, in.convergence_seed);
    });
    bool monotone = true;
    for (std::size_t k = 1; k < curve.median_relative_perf.size(); ++k) {
      monotone &= curve.median_relative_perf[k] >=
                  curve.median_relative_perf[k - 1];
    }
    report.check(monotone, ds.device_name() + ": convergence curve got worse");
    for (const double v : curve.median_relative_perf) put(r.output, v);

    const auto graph = stage("analysis.ffg", [&] {
      return bat::analysis::FitnessFlowGraph(bench.space(), ds);
    });
    const auto centrality = stage("analysis.centrality", [&] {
      return bat::analysis::proportion_of_centrality(graph, kProportions);
    });
    for (const double v : centrality.centrality) put(r.output, v);
    const auto speedup = stage("analysis.speedup", [&] {
      return bat::analysis::max_speedup_over_median(ds);
    });
    put(r.output, speedup.speedup);

    bat::analysis::ImportanceReport importance;
    if (!log) {
      importance = stage("ml.feature_importance", [&] {
        return bat::analysis::feature_importance(ds, in.importance);
      });
    } else {
      const auto x = bat::ml::Matrix::from_rows(ds.feature_matrix());
      const auto y = ds.target_vector();
      const auto split = bat::ml::train_test_split(
          x, y, in.importance.test_fraction, in.importance.seed);
      bat::ml::GbdtRegressor model(in.importance.gbdt);
      stage("ml.gbdt_fit", [&] { model.fit(split.x_train, split.y_train); });
      ++r.pfi_fits;
      importance.r2 = bat::ml::r2_score(split.y_test,
                                        model.predict_all(split.x_test));
      const auto pfi = stage("ml.pfi", [&] {
        return bat::ml::permutation_importance(model, split.x_test,
                                               split.y_test, in.importance.pfi);
      });
      importance.importance = pfi.importance;
    }
    report.check(importance.r2 >= 0.9,
                 ds.device_name() + ": PFI model R^2 below 0.9");
    put(r.output, importance.r2);
    for (const double v : importance.importance) put(r.output, v);

    bat::core::ReplayBackend replay(bench.space(), ds);
    for (const auto& spec : in.sessions) {
      if (spec.device != d) continue;
      TimingBackend timing(replay);
      bat::core::EvaluationBackend& backend =
          log ? static_cast<bat::core::EvaluationBackend&>(timing) : replay;
      const auto s0 = Clock::now();
      const auto run = stage(spec.tuner == "surrogate" ? "ml.surrogate_session"
                                                       : "tuners.session",
                             [&] {
                               const auto tuner =
                                   bat::tuners::make_tuner(spec.tuner);
                               return bat::tuners::run_tuner(
                                   *tuner, backend, spec.budget, spec.seed);
                             });
      r.tuner_self_us[spec.tuner].push_back(us_since(s0) - timing.busy_us());
      r.backend_us += timing.busy_us();
      r.evaluations += run.trace.size();
      bool improving = !run.best_so_far.empty();
      for (std::size_t k = 1; k < run.best_so_far.size(); ++k) {
        improving &= run.best_so_far[k] <= run.best_so_far[k - 1];
      }
      report.check(improving, spec.tuner + ": best-so-far got worse");
      for (const auto& entry : run.trace) put(r.output, entry.objective);
    }
    r.device_ms.push_back(us_since(d0) / 1000.0);
  }

  const auto portability = stage("analysis.portability", [&] {
    return bat::analysis::portability_matrix(bench, datasets);
  });
  for (std::size_t d = 0; d < portability.relative.size(); ++d) {
    report.check(portability.relative[d][d] == 1.0,
                 "portability diagonal is not 1");
    for (const double v : portability.relative[d]) put(r.output, v);
  }
  r.seconds = us_since(t0) / 1e6;
  return r;
}

/// Exhaustive sweeps of every device: the study's set-up.
std::vector<bat::core::Dataset> sweep(const bat::core::Benchmark& bench) {
  std::vector<bat::core::Dataset> datasets;
  for (std::size_t d = 0; d < bench.device_count(); ++d) {
    datasets.push_back(bat::core::Runner::run_exhaustive(bench, d));
  }
  return datasets;
}

}  // namespace

void run_study(const Options& options, Report& report) {
  const auto bench = bat::kernels::make(kKernel);
  const Inputs in = draw_inputs(options.seed, bench->device_count());
  std::optional<HostSpeed> speed;  // the timed rounds' only
  if (!options.trace) speed.emplace();
  const auto workload_cpu = [&] {
    return speed ? speed->workload_cpu() : cpu_time();
  };

  std::vector<double> setup_s, sweep_ms;
  std::vector<bat::core::Dataset> datasets;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    const auto c0 = workload_cpu();
    datasets = sweep(*bench);
    setup_s.push_back((workload_cpu() - c0).total_s());
    sweep_ms.push_back(us_since(t0) / 1000.0);
  }

  if (options.trace) {
    // Untraced reference first, then the traced round; both must agree.
    const auto plain =
        characterise(*bench, datasets, in, nullptr, nullptr, report);
    SpanLog log;
    std::map<std::string, double> totals_us;
    const auto t0 = Clock::now();
    const auto traced =
        characterise(*bench, datasets, in, &log, &totals_us, report);
    log.add("study", 0, 0, t0, Clock::now());
    report.check(traced.output == plain.output,
                 "traced round output differs from the untraced round");

    const auto total_s = [&](const char* name) {
      return totals_us[name] / 1e6;
    };
    report.set("runner.sweep_ms", median(sweep_ms), "ms", sweep_ms.size());
    report.set("ml.gbdt_fit_s", total_s("ml.gbdt_fit"), "s");
    // The surrogate tuner's refits happen inside run_tuner, where no
    // public entry point counts them; their time is in
    // ml.surrogate_session_s.
    report.set("ml.pfi_fits", static_cast<double>(traced.pfi_fits), "count");
    report.set("ml.pfi_s", total_s("ml.pfi"), "s");
    report.set("ml.surrogate_session_s", total_s("ml.surrogate_session"), "s");
    report.set("analysis.convergence_ms",
               totals_us["analysis.convergence"] / 1000.0, "ms");
    report.set("analysis.ffg_ms", totals_us["analysis.ffg"] / 1000.0, "ms");
    report.set("analysis.centrality_ms",
               totals_us["analysis.centrality"] / 1000.0, "ms");
    report.set("analysis.portability_ms",
               totals_us["analysis.portability"] / 1000.0, "ms");
    for (const auto& [name, self] : traced.tuner_self_us) {
      report.set("tuners." + name + ".self_us", median(self), "us",
                 self.size());
    }
    report.set("replay.eval_us",
               traced.backend_us / static_cast<double>(traced.evaluations),
               "us");
    report.set("unattributed_frac", 1.0 - log.coverage("study"), "fraction");
    report.set("trace_overhead_frac", traced.seconds / plain.seconds - 1.0,
               "fraction");
    log.write_chrome(options.out_dir + "/trace-" + options.workload + ".json");
    return;
  }

  // A study "session" is the characterisation of one device: what a
  // tuner researcher waits for per (kernel, device).
  std::vector<double> ref_cpu_ms, ref_cpu_eval_us, cpu_ms, user_ms, sys_ms,
      round_s, eval_rate, device_ms;
  std::string first_output;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    const auto c0 = workload_cpu();
    const auto r = characterise(*bench, datasets, in, nullptr, nullptr, report);
    const auto cpu = workload_cpu() - c0;
    const double scale = speed->scale(t0, Clock::now());
    if (round_s.empty()) first_output = r.output;
    report.check(r.output == first_output,
                 "round output differs from the first round");
    const auto sessions = static_cast<double>(r.device_ms.size());
    ref_cpu_ms.push_back(cpu.total_s() * scale * 1000.0 / sessions);
    ref_cpu_eval_us.push_back(cpu.total_s() * scale * 1e6 /
                              static_cast<double>(r.evaluations));
    cpu_ms.push_back(cpu.total_s() * 1000.0 / sessions);
    user_ms.push_back(cpu.user_s * 1000.0 / sessions);
    sys_ms.push_back(cpu.sys_s * 1000.0 / sessions);
    std::printf("round %zu: %.3f s CPU (%.3f user) x %.4f, %.3f s wall\n",
                round_s.size() + 1, cpu.total_s(), cpu.user_s, scale,
                r.seconds);
    round_s.push_back(r.seconds);
    eval_rate.push_back(static_cast<double>(r.evaluations) / r.seconds);
    device_ms.insert(device_ms.end(), r.device_ms.begin(), r.device_ms.end());
  } while (round_s.size() < 2 || us_since(start) / 1e6 < options.seconds);

  // Bounded: scaled CPU time, as on the serve workloads. Printed: the
  // unscaled CPU time and wall time.
  report.set("setup_s", median(setup_s) * speed->scale(), "s",
             setup_s.size());
  report.set("ref_cpu_ms_per_session", median(ref_cpu_ms), "ms",
             ref_cpu_ms.size());
  report.set("ref_cpu_us_per_eval", median(ref_cpu_eval_us), "us",
             ref_cpu_eval_us.size());
  report.set("setup_cpu_s", median(setup_s), "s", setup_s.size());
  report.set("cpu_ms_per_session", median(cpu_ms), "ms", cpu_ms.size());
  report.set("user_ms_per_session", median(user_ms), "ms", user_ms.size());
  report.set("sys_ms_per_session", median(sys_ms), "ms", sys_ms.size());
  report.set("host.job_ms", speed->job_ms(), "ms", speed->samples());
  report.set("study_s", median(round_s), "s", round_s.size());
  report.set("evals_per_s", median(eval_rate), "1/s", eval_rate.size());
  report.set("session_p50_ms", median(device_ms), "ms", device_ms.size());
}

}  // namespace e2e
