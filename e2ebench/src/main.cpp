// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload serve-live|serve-journal|study --seed N
//            --seconds S --trace 0|1 [--out-dir DIR] [--fail-after N]
//
// --trace 0 runs the timed rounds and reports the end-to-end metrics
// (CPU time per unit of work; wall-clock figures are printed but are not
// in the JSON result, since on a shared host they follow its load);
// --trace 1 runs the separate traced pass (single client, one layer
// peeled at a time) and reports the per-layer metrics, writing
// DIR/trace-<workload>.json in Chrome trace-event format. Either way
// every output is checked, human-readable lines come first, and the
// last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The metric names and units here are the ones BENCHMARK.json lists
// (tests/self_test.py checks that they agree).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"

namespace {

using Table = std::vector<std::pair<const char*, const char*>>;

const Table kEndToEnd = {
    {"setup_s", "s"},
    {"ref_cpu_ms_per_session", "ms"},
    {"ref_cpu_us_per_eval", "us"},
    {"peak_rss_mb", "MiB"},
};

const Table kPerLayer = {
    {"net.rtt_overhead_us", "us"},
    {"net.requests_per_session", "count"},
    {"json.result_encode_us", "us"},
    {"json.result_bytes", "B"},
    {"json.spec_decode_us", "us"},
    {"json.parse_us", "us"},
    {"api.handle_self_us", "us"},
    {"api.submit_ms", "ms"},
    {"service.self_us", "us"},
    {"service.exec_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"cache.hit_ratio", "fraction"},
    {"cache.cross_session_hits", "count"},
    {"tuners.random.self_us", "us"},
    {"tuners.local.self_us", "us"},
    {"tuners.annealing.self_us", "us"},
    {"tuners.genetic.self_us", "us"},
    {"tuners.ils.self_us", "us"},
    {"tuners.pso.self_us", "us"},
    {"tuners.de.self_us", "us"},
    {"tuners.surrogate.self_us", "us"},
    {"gpusim.eval_us", "us"},
    {"gpusim.evals_per_session", "count"},
    {"replay.eval_us", "us"},
    {"journal.commit_ms", "ms"},
    {"journal.commits_per_session", "count"},
    {"journal.checkpoints", "count"},
    {"runner.sweep_ms", "ms"},
    {"ml.gbdt_fit_s", "s"},
    {"ml.pfi_fits", "count"},
    {"ml.pfi_s", "s"},
    {"ml.surrogate_session_s", "s"},
    {"analysis.convergence_ms", "ms"},
    {"analysis.ffg_ms", "ms"},
    {"analysis.centrality_ms", "ms"},
    {"analysis.portability_ms", "ms"},
    {"unattributed_frac", "fraction"},
    {"trace_overhead_frac", "fraction"},
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: e2ebench --workload serve-live|serve-journal|study --seed N "
      "--seconds S --trace 0|1 [--out-dir DIR] [--fail-after N]");
}

std::uint64_t to_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const auto value = std::stoull(text, &used);
  if (used != text.size()) usage(flag + " takes a whole number");
  return value;
}

e2e::Options parse(int argc, char** argv) {
  e2e::Options options;
  bool seeded = false, timed = false, traced = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = to_count(flag, value);
      seeded = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(to_count(flag, value));
      timed = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace is 0 or 1");
      options.trace = value == "1";
      traced = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--fail-after") {
      options.fail_after = to_count(flag, value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.workload != "serve-live" && options.workload != "serve-journal" &&
      options.workload != "study") {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!seeded || !timed || !traced) usage("missing --seed/--seconds/--trace");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto options = parse(argc, argv);
    std::filesystem::create_directories(options.out_dir);
    e2e::Report report;
    if (options.workload == "study") {
      e2e::run_study(options, report);
    } else {
      e2e::run_serve(options, report);
    }
    report.set("peak_rss_mb", e2e::peak_rss_mb(), "MiB");

    const Table& names = options.trace ? kPerLayer : kEndToEnd;
    bat::common::JsonObject metrics;
    for (const auto& [name, unit] : names) {
      // A per-layer metric a workload bypasses reads 0.
      const auto it = report.metrics.find(name);
      const double value = it == report.metrics.end() ? 0.0 : it->second.value;
      bat::common::JsonObject metric;
      metric.emplace("value", value);
      metric.emplace("unit", unit);
      metrics.emplace(name, bat::common::Json(std::move(metric)));
    }
    for (const auto& [name, metric] : report.metrics) {
      std::printf("%-30s %14.6g %-8s", name.c_str(), metric.value,
                  metric.unit.c_str());
      if (metric.samples) std::printf(" (n=%zu)", metric.samples);
      std::printf("\n");
    }
    const double failed_ratio =
        report.attempted ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0;
    std::printf("%-30s %14.6g %-8s (%llu of %llu checks)\n", "failed_ratio",
                failed_ratio, "fraction",
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const auto& failure : report.failures) {
      std::printf("FAILED: %s\n", failure.c_str());
    }

    bat::common::JsonObject out;
    out.emplace("correct", report.failed == 0 && report.attempted > 0);
    out.emplace("attempted", report.attempted);
    out.emplace("failed", report.failed);
    out.emplace("metrics", bat::common::Json(std::move(metrics)));
    std::printf("%s\n", bat::common::Json(std::move(out)).dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
