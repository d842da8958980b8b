// Shared pieces of the end-to-end benchmark: options, the report every
// workload fills, seeded input generation, the span log the traced pass
// writes as Chrome trace-event JSON, and the timing backend decorator.
//
// The benchmark reaches the system only through public entry points
// (net::HttpClient, api::ApiServer, service::TuningService,
// tuners::run_tuner, core backends, core::Runner, ml::, analysis::) and
// only on the live and replay backends of a single node.
#pragma once

#include <time.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "service/session.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_since(Clock::time_point t0,
                                     Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced pass writes its Chrome trace and where the
  /// serve-journal workload makes its temporary journal directories.
  std::string out_dir = ".bench_build/e2ebench";
  /// Self-test hook: throw after this many serve-journal sessions of the
  /// first round (0 = never), to prove failed runs clean up.
  std::size_t fail_after = 0;
};

/// What one run prints: named metrics with units, plus the operation
/// counts the correctness verdict is made of.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  // printed beside percentiles
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records one checked operation; `ok == false` counts it as failed.
  void check(bool ok, const std::string& what);
};

// ------------------------------------------------------------ statistics --

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
[[nodiscard]] double sum(std::span<const double> xs);

/// CPU time this process has used so far, all threads, as the kernel
/// splits it between user and system mode. A paravirtualised guest
/// leaves steal time out of it and no thread is charged while it waits
/// for a CPU, so on a shared host it follows the work done, where wall
/// time follows the neighbours' load as well.
struct CpuTime {
  double user_s = 0.0;
  double sys_s = 0.0;
  [[nodiscard]] double total_s() const noexcept { return user_s + sys_s; }
  [[nodiscard]] CpuTime operator-(const CpuTime& o) const noexcept {
    return {user_s - o.user_s, sys_s - o.sys_s};
  }
};
[[nodiscard]] CpuTime cpu_time();

/// The host's speed, sampled while a workload runs. A background thread
/// runs a fixed job every 100 ms, made only of the benchmark's own code
/// (sorting, hashing, formatting, libm), and records the CPU time each
/// run of it took. On a shared host that time drifts with the clock speed
/// and with what the neighbours do to the caches and cores, by a quarter
/// within minutes, and the workload's CPU time drifts with it; the
/// program's code moves only the workload's. Scaling the workload's CPU
/// time by kReferenceJobMs over the job's time in the same interval gives
/// its cost on a host where the job takes kReferenceJobMs, and takes the
/// drift out. Samples are kept in memory; the thread stops on destruction.
/// Its own CPU time is the process's too, so workload_cpu() leaves it out.
class HostSpeed {
 public:
  static constexpr double kReferenceJobMs = 5.0;

  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Mean CPU ms of the job over the samples taken within [t0, t1]; over
  /// every sample so far when fewer than three fall in it.
  [[nodiscard]] double job_ms(Clock::time_point t0, Clock::time_point t1) const;
  [[nodiscard]] double job_ms() const;
  /// Factor from CPU time measured over [t0, t1] to the reference speed.
  [[nodiscard]] double scale(Clock::time_point t0, Clock::time_point t1) const {
    return kReferenceJobMs / job_ms(t0, t1);
  }
  [[nodiscard]] double scale() const { return kReferenceJobMs / job_ms(); }
  [[nodiscard]] std::size_t samples() const;
  /// cpu_time() less what the sampling thread has used (all user time).
  [[nodiscard]] CpuTime workload_cpu() const;

 private:
  struct Sample {
    Clock::time_point at;
    double ms;
  };
  void sample_until_stopped();
  [[nodiscard]] double mean_locked() const;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
  clockid_t thread_clock_{};
};

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------------ inputs --

/// splitmix64: the one generator every seeded input comes from, so a
/// seed names the same inputs on every platform.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// `count` session specs over kernels x tuners x devices with fresh
/// seeds, all with the given budget and backend. The combinations come
/// in seeded shuffled passes, each combination once a pass, so every
/// one appears equally often give or take one: what a round costs
/// depends on the seed's sessions, not on how its draw fell across
/// cheap and dear combinations.
[[nodiscard]] std::vector<bat::service::SessionSpec> draw_specs(
    SeedRng& rng, std::size_t count, const std::vector<std::string>& kernels,
    const std::vector<std::string>& tuners, std::size_t devices,
    std::size_t budget, const std::string& backend);

/// The seven tuners that are cheap enough to serve (all but surrogate).
[[nodiscard]] std::vector<std::string> served_tuners();

// ---------------------------------------------------------------- tracing --

/// Spans recorded by the benchmark around its calls into each layer.
/// Thread-safe; written out once at the end as Chrome trace-event JSON
/// (open in Perfetto or chrome://tracing).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t op = 0;  // which operation (session, stage) it belongs to
    int tid = 0;  // 0 = client or study, 1 = API handler, 2 = service
    double start_us = 0.0;  // since the log's epoch
    double dur_us = 0.0;
  };

  SpanLog() : epoch_(Clock::now()) {}

  void add(std::string name, std::uint64_t op, int tid, Clock::time_point t0,
           Clock::time_point t1);
  /// Adds a span whose start is given in microseconds on the log's own
  /// time axis (program-recorded spans placed by the caller).
  void add_at(std::string name, std::uint64_t op, int tid, double start_us,
              double dur_us);
  [[nodiscard]] double at_us(Clock::time_point t) const {
    return us_since(epoch_, t);
  }
  [[nodiscard]] std::vector<Span> spans() const;

  /// {"traceEvents":[{"ph":"X",...},...]}; throws on I/O failure.
  void write_chrome(const std::string& path) const;

  /// Share of the `top` spans' time covered by the union of the other
  /// spans of the same operation: what directly timed layers account
  /// for. 1 - this is the unattributed share. `container` spans enclose
  /// other layers rather than being one, and `idle` spans are the client
  /// waiting by choice; neither counts as covered. Idle time no layer
  /// span overlaps is taken out of the top spans' time as well.
  [[nodiscard]] double coverage(const std::string& top,
                                const std::string& container = {},
                                const std::string& idle = {}) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// EvaluationBackend decorator that times every batch its inner backend
/// evaluates: run_tuner time minus this is the tuner's own time.
class TimingBackend final : public bat::core::EvaluationBackend {
 public:
  explicit TimingBackend(bat::core::EvaluationBackend& inner)
      : inner_(&inner) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] const bat::core::SearchSpace& space() const override {
    return inner_->space();
  }
  [[nodiscard]] std::vector<bat::core::Measurement> evaluate_batch(
      std::span<const bat::core::ConfigIndex> indices) override;

  [[nodiscard]] double busy_us() const noexcept { return busy_us_; }
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return evaluations_;
  }

 private:
  bat::core::EvaluationBackend* inner_;
  double busy_us_ = 0.0;
  std::size_t evaluations_ = 0;
};

/// The `"trace":[...]` member of a serialized session result: what the
/// byte-identity check compares ("" when absent).
[[nodiscard]] std::string trace_member(const std::string& json);

/// Serialized trace of a bare in-process run_tuner of `spec` over
/// `backend` — the reference a served session must reproduce.
[[nodiscard]] std::string reference_trace(
    const bat::service::SessionSpec& spec,
    bat::core::EvaluationBackend& backend);

// -------------------------------------------------------------- workloads --

void run_serve(const Options& options, Report& report);
void run_study(const Options& options, Report& report);

}  // namespace e2e
