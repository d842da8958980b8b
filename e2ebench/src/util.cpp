#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "common/json.hpp"
#include "service/session_json.hpp"
#include "tuners/tuner.hpp"

namespace e2e {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double sum(std::span<const double> xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

CpuTime cpu_time() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

namespace {

double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

volatile double speed_job_sink = 0.0;

/// The fixed job HostSpeed times: the same work on every call, about
/// 5 ms of CPU on a current server core.
class SpeedJob {
 public:
  double run() {
    const double t0 = thread_cpu_ms();
    SeedRng rng(0x5eed);
    for (int rep = 0; rep < 4; ++rep) {
      for (auto& x : xs_) x = static_cast<double>(rng.next() >> 11) * 0x1p-53;
      std::sort(xs_.begin(), xs_.end());
      counts_.clear();
      for (std::size_t i = 0; i < xs_.size(); ++i) {
        counts_[rng.next() & 0xfff] += i;
      }
      text_.clear();
      for (std::size_t i = 0; i < xs_.size(); i += 8) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g,", xs_[i]);
        text_ += buf;
      }
      for (const double x : xs_) sink_ += std::exp(-x) * std::log1p(x);
      sink_ += static_cast<double>(counts_.size() + text_.size());
    }
    speed_job_sink = sink_;  // the result is used, so the work is done
    return thread_cpu_ms() - t0;
  }

 private:
  std::vector<double> xs_ = std::vector<double>(1 << 13);
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;
  std::string text_;
  double sink_ = 0.0;
};

}  // namespace

HostSpeed::HostSpeed() : thread_([this] { sample_until_stopped(); }) {
  pthread_getcpuclockid(thread_.native_handle(), &thread_clock_);
}

HostSpeed::~HostSpeed() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void HostSpeed::sample_until_stopped() {
  SpeedJob job;
  (void)job.run();  // first touch of its buffers, not timed
  std::unique_lock lock(mutex_);
  while (!wake_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
    lock.unlock();
    const double ms = job.run();
    lock.lock();
    samples_.push_back(Sample{Clock::now(), ms});
  }
}

double HostSpeed::job_ms(Clock::time_point t0, Clock::time_point t1) const {
  std::lock_guard lock(mutex_);
  double in = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples_) {
    if (s.at < t0 || s.at > t1) continue;
    in += s.ms;
    ++n;
  }
  return n >= 3 ? in / static_cast<double>(n) : mean_locked();
}

double HostSpeed::job_ms() const {
  std::lock_guard lock(mutex_);
  return mean_locked();
}

double HostSpeed::mean_locked() const {
  if (samples_.empty()) throw std::runtime_error("no host speed samples");
  double all = 0.0;
  for (const auto& s : samples_) all += s.ms;
  return all / static_cast<double>(samples_.size());
}

CpuTime HostSpeed::workload_cpu() const {
  CpuTime cpu = cpu_time();
  timespec t{};
  clock_gettime(thread_clock_, &t);
  cpu.user_s -= static_cast<double>(t.tv_sec) +
                static_cast<double>(t.tv_nsec) / 1e9;
  return cpu;
}

std::size_t HostSpeed::samples() const {
  std::lock_guard lock(mutex_);
  return samples_.size();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<bat::service::SessionSpec> draw_specs(
    SeedRng& rng, std::size_t count, const std::vector<std::string>& kernels,
    const std::vector<std::string>& tuners, std::size_t devices,
    std::size_t budget, const std::string& backend) {
  std::vector<std::size_t> combos(kernels.size() * tuners.size() * devices);
  std::iota(combos.begin(), combos.end(), std::size_t{0});
  std::vector<bat::service::SessionSpec> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t at = i % combos.size();
    if (at == 0) {  // a new pass: Fisher-Yates over the combinations
      for (std::size_t k = combos.size() - 1; k > 0; --k) {
        std::swap(combos[k], combos[rng.below(k + 1)]);
      }
    }
    const std::size_t combo = combos[at];
    auto& spec = specs[i];
    spec.kernel = kernels[combo % kernels.size()];
    spec.tuner = tuners[combo / kernels.size() % tuners.size()];
    spec.device = combo / (kernels.size() * tuners.size());
    spec.budget = budget;
    spec.seed = rng.next() >> 16;  // exact in the JSON wire format
    spec.backend = backend;
  }
  return specs;
}

std::vector<std::string> served_tuners() {
  auto names = bat::tuners::tuner_names();
  std::erase(names, "surrogate");
  return names;
}

void SpanLog::add(std::string name, std::uint64_t op, int tid,
                  Clock::time_point t0, Clock::time_point t1) {
  add_at(std::move(name), op, tid, at_us(t0), us_since(t0, t1));
}

void SpanLog::add_at(std::string name, std::uint64_t op, int tid,
                     double start_us, double dur_us) {
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{std::move(name), op, tid, start_us, dur_us});
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void SpanLog::write_chrome(const std::string& path) const {
  bat::common::JsonArray events;
  for (const auto& span : spans()) {
    bat::common::JsonObject args;
    args.emplace("op", span.op);
    bat::common::JsonObject event;
    event.emplace("name", span.name);
    event.emplace("cat", span.name.substr(0, span.name.find('.')));
    event.emplace("ph", "X");
    event.emplace("ts", span.start_us);
    event.emplace("dur", span.dur_us);
    event.emplace("pid", 1);
    event.emplace("tid", span.tid);
    event.emplace("args", bat::common::Json(std::move(args)));
    events.emplace_back(std::move(event));
  }
  bat::common::JsonObject root;
  root.emplace("traceEvents", bat::common::Json(std::move(events)));
  root.emplace("displayTimeUnit", "ms");
  std::ofstream out(path, std::ios::trunc);
  out << bat::common::Json(std::move(root)).dump() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi).
double union_length(std::vector<std::pair<double, double>> intervals,
                    double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double length = 0.0;
  double cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      length += b - a;
      cursor = b;
    }
  }
  return length;
}

}  // namespace

double SpanLog::coverage(const std::string& top, const std::string& container,
                         const std::string& idle) const {
  using Intervals = std::vector<std::pair<double, double>>;
  const auto all = spans();
  std::unordered_map<std::uint64_t, Intervals> layers, waits;
  for (const auto& span : all) {
    if (span.name == top || span.name == container) continue;
    auto& into = !idle.empty() && span.name == idle ? waits : layers;
    into[span.op].emplace_back(span.start_us, span.start_us + span.dur_us);
  }
  double total = 0.0;
  double covered = 0.0;
  for (const auto& span : all) {
    if (span.name != top) continue;
    const double lo = span.start_us;
    const double hi = span.start_us + span.dur_us;
    const auto& own = layers[span.op];
    const double layer = union_length(own, lo, hi);
    Intervals either = own;
    const auto& wait = waits[span.op];
    either.insert(either.end(), wait.begin(), wait.end());
    const double idle_only = union_length(std::move(either), lo, hi) - layer;
    covered += layer;
    total += span.dur_us - idle_only;
  }
  return total > 0.0 ? covered / total : 0.0;
}

std::vector<bat::core::Measurement> TimingBackend::evaluate_batch(
    std::span<const bat::core::ConfigIndex> indices) {
  const auto t0 = Clock::now();
  auto out = inner_->evaluate_batch(indices);
  busy_us_ += us_since(t0);
  evaluations_ += indices.size();
  return out;
}

std::string trace_member(const std::string& json) {
  const auto begin = json.rfind("\"trace\":[");
  if (begin == std::string::npos) return {};
  // Trace entries are flat objects, so the first ']' closes the array.
  const auto end = json.find(']', begin);
  if (end == std::string::npos) return {};
  return json.substr(begin, end + 1 - begin);
}

std::string reference_trace(const bat::service::SessionSpec& spec,
                            bat::core::EvaluationBackend& backend) {
  bat::service::SessionResult result;
  result.spec = spec;
  result.status = bat::service::SessionStatus::kCompleted;
  const auto tuner = bat::tuners::make_tuner(spec.tuner);
  result.run = bat::tuners::run_tuner(*tuner, backend, spec.budget, spec.seed);
  return trace_member(bat::service::to_json(result).dump());
}

}  // namespace e2e
