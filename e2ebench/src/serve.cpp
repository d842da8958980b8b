// serve-live and serve-journal: closed-loop HTTP clients against an
// in-process api::ApiServer over a service::TuningService on loopback.
//
//   serve-live     4 clients, sync POST /v1/sessions:run, live backend,
//                  7 kernels x 7 served tuners x 4 devices, fresh seeds.
//                  The broad request path with no disk I/O and no ml.
//   serve-journal  4 clients, async POST /v1/sessions then GET polls,
//                  replay backend over the 4 enumerable kernels, with
//                  the service journaling into a fresh directory. The
//                  queue, group commit and the poll path dominate.
//
// A run repeats rounds until --seconds have passed. Each round is the
// same fixed seeded list of sessions against a freshly set-up service,
// so the shared cache fill and the journal's checkpoint regime are the
// same in every round and on every machine, whatever its speed. A
// round's CPU time, over its sessions and evaluations, is what the run
// reports; its wall-clock throughput and latency are printed beside.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/api_server.hpp"
#include "bench.hpp"
#include "common/json.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"
#include "obs/metrics.hpp"
#include "service/session_json.hpp"
#include "service/tuning_service.hpp"
#include "tuners/tuner.hpp"

namespace e2e {
namespace {

using bat::common::Json;
using bat::service::SessionSpec;

constexpr std::size_t kClients = 4;     // nproc of the reference machine
constexpr std::size_t kDevices = 4;
/// About 8 KB of result JSON per session, as `tune remote run` returns.
constexpr std::size_t kBudget = 200;
/// Sessions of the traced pass: the first ones of the timed round's list.
constexpr std::size_t kTracedSessions = 420;  // 60 per served tuner
/// Untraced/traced pass pairs the tracing overhead is a median of. A
/// serve-journal pass is paced by the client's polls (~26 s a pass), so
/// there it is one pair and no warm-up.
constexpr std::size_t kOverheadReps = 3;
/// One session in this many, at a seeded offset, has its trace compared
/// byte for byte with a bare in-process run of the same spec.
constexpr std::size_t kCheckEvery = 16;
/// Client-side poll interval of serve-journal: the default of
/// `tune remote run --async` (--poll-ms), the repository's async client.
constexpr auto kPollInterval = std::chrono::milliseconds(100);
constexpr auto kSessionDeadline = std::chrono::seconds(60);
constexpr std::size_t kExtraSetups = 7;

struct Shape {
  bool journal = false;
  std::string backend;
  std::vector<std::string> kernels;
  std::size_t round = 0;  // sessions per round
  std::size_t sample_offset = 0;  // which sessions get the trace check
};

Shape shape_of(const std::string& workload) {
  if (workload == "serve-live") {
    return Shape{false, "live", bat::kernels::paper_benchmark_names(), 2000};
  }
  // 256 sessions: past the first ~32 results every result triggers a
  // checkpoint that rewrites all retained results, so journal traffic
  // grows with the square of the round; a short round keeps the disk
  // traffic (and its noise) small while every round has the same regime.
  return Shape{true, "replay", {"gemm", "nbody", "pnpoly", "convolution"},
               256};
}

/// Benchmarks (and, for replay, the swept datasets) the references are
/// computed against; built once per run, outside every timed section.
struct Tables {
  std::map<std::string, std::unique_ptr<bat::core::Benchmark>> benchmarks;
  std::map<std::pair<std::string, std::size_t>, bat::core::Dataset> datasets;

  explicit Tables(const Shape& shape) {
    for (const auto& kernel : shape.kernels) {
      benchmarks[kernel] = bat::kernels::make(kernel);
    }
  }

  /// Sweeps every (kernel, device) exhaustively; returns the time taken.
  double sweep(const Shape& shape) {
    const auto t0 = Clock::now();
    for (const auto& kernel : shape.kernels) {
      for (std::size_t d = 0; d < kDevices; ++d) {
        datasets[{kernel, d}] =
            bat::core::Runner::run_exhaustive(*benchmarks.at(kernel), d);
      }
    }
    return us_since(t0) / 1000.0;
  }

  /// A fresh bare backend for `spec` (what references run against).
  std::unique_ptr<bat::core::EvaluationBackend> backend(
      const SessionSpec& spec) const {
    const auto& bench = *benchmarks.at(spec.kernel);
    if (spec.backend == "replay") {
      return std::make_unique<bat::core::ReplayBackend>(
          bench.space(), datasets.at({spec.kernel, spec.device}));
    }
    return std::make_unique<bat::core::LiveBackend>(bench, spec.device);
  }
};

/// Journal directory that is removed however the run ends: by the
/// destructor when the run returns or throws, and by the next run in the
/// same place when this process was killed (the name carries its pid).
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    remove_orphans(parent);
    std::string pattern =
        parent + "/journal-" + std::to_string(getpid()) + "-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Removes journal directories whose process no longer exists.
  static void remove_orphans(const std::string& parent) {
    for (const auto& entry : std::filesystem::directory_iterator(parent)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("journal-", 0) != 0) continue;
      const pid_t owner = static_cast<pid_t>(std::atol(name.c_str() + 8));
      if (owner > 0 && kill(owner, 0) != 0 && errno == ESRCH) {
        std::error_code ignored;
        std::filesystem::remove_all(entry.path(), ignored);
      }
    }
  }

  std::string path_;
};

/// One set-up system: registry, service (journaled for serve-journal)
/// and API server. Members are destroyed in reverse: server, service,
/// then the journal directory.
struct System {
  std::optional<TempDir> journal_dir;
  std::shared_ptr<bat::obs::MetricsRegistry> registry =
      std::make_shared<bat::obs::MetricsRegistry>();
  std::unique_ptr<bat::service::TuningService> service;
  std::unique_ptr<bat::api::ApiServer> api;

  System(const Options& options, const Tables& tables, bool journaled) {
    bat::service::ServiceOptions service_options;
    service_options.metrics = registry;
    if (journaled) {
      journal_dir.emplace(options.out_dir + "/tmp");
      service_options.journal_dir = journal_dir->path();
    }
    service = std::make_unique<bat::service::TuningService>(service_options);
    for (const auto& [key, dataset] : tables.datasets) {
      service->register_dataset(key.first, key.second, dataset);
    }
    bat::api::ApiOptions api_options;
    api_options.metrics = registry;
    api = std::make_unique<bat::api::ApiServer>(*service, api_options);
  }
};

/// What one session looked like from its client.
struct Outcome {
  bool ok = false;
  std::string error;
  double latency_us = 0.0;
  double submit_us = 0.0;  // serve-journal: until the durable 202
  std::size_t evaluations = 0;
  std::size_t requests = 0;
  double wall_ms = 0.0;  // the result's own execution time
  std::string body;      // final response body (kept for checked ones)
};

/// Span of the client sleeping between polls: not time of any layer.
constexpr const char* kPollWait = "client.poll_wait";

/// Per-request hooks the traced pass uses to record spans.
struct Hooks {
  std::function<void(const char*, Clock::time_point, Clock::time_point)> span;
  std::function<void()> after_request;
};

/// Runs one session the way a client of the API does: encode the spec,
/// send it, wait for the result (polling when async), parse it.
Outcome run_session(bat::net::HttpClient& client, const SessionSpec& spec,
                    bool async, const Hooks* hooks) {
  Outcome out;
  const auto note = [&](const char* name, Clock::time_point t0) {
    if (hooks) hooks->span(name, t0, Clock::now());
  };
  const auto request = [&](auto&& send) {
    const auto t0 = Clock::now();
    auto response = send();
    note("net.request", t0);
    if (hooks) hooks->after_request();
    ++out.requests;
    return response;
  };
  const auto t0 = Clock::now();
  auto t = Clock::now();
  std::string body = bat::service::to_json(spec).dump();
  note("json.spec_encode", t);

  bat::net::HttpResponse response;
  if (!async) {
    response = request([&] { return client.post("/v1/sessions:run", body); });
  } else {
    auto submitted =
        request([&] { return client.post("/v1/sessions", std::move(body)); });
    out.submit_us = us_since(t0);
    if (submitted.status != 202) {
      out.error = "submit answered " + std::to_string(submitted.status);
      return out;
    }
    const std::string href =
        "/v1/sessions/" + Json::parse(submitted.body).at("id").as_string();
    // As `tune remote run --async` does: poll at once, then once per
    // interval until the session is done.
    for (;;) {
      response = request([&] { return client.get(href); });
      if (response.status != 200 ||
          response.body.find("\"state\":\"done\"") != std::string::npos) {
        break;
      }
      if (Clock::now() - t0 > kSessionDeadline) {
        out.error = "session still pending after 60 s";
        return out;
      }
      t = Clock::now();
      std::this_thread::sleep_for(kPollInterval);
      note(kPollWait, t);
    }
  }
  if (response.status != 200) {
    out.error = "answered " + std::to_string(response.status);
    return out;
  }
  t = Clock::now();
  const Json parsed = Json::parse(response.body);
  note("json.parse", t);
  out.latency_us = us_since(t0);
  const Json& result = async ? parsed.at("result") : parsed;
  out.ok = result.at("status").as_string() == "completed";
  if (!out.ok) out.error = "status " + result.at("status").as_string();
  out.evaluations = result.at("evaluations").as_uint();
  out.wall_ms = result.at("wall_ms").as_double();
  out.body = std::move(response.body);
  return out;
}

/// Sends every spec of `specs` through `clients` closed-loop clients;
/// outcomes come back in spec order. Returns the wall time in seconds.
double drive(std::uint16_t port, const std::vector<SessionSpec>& specs,
             bool async, std::size_t clients, std::size_t sample_offset,
             std::vector<Outcome>& outcomes, std::size_t fail_after = 0) {
  outcomes.assign(specs.size(), Outcome{});
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  std::vector<std::future<void>> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    workers.push_back(std::async(std::launch::async, [&] {
      bat::net::HttpClient client("127.0.0.1", port);
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        if (fail_after != 0 && i >= fail_after) {
          throw std::runtime_error("injected failure (--fail-after)");
        }
        outcomes[i] = run_session(client, specs[i], async, nullptr);
        if (i % kCheckEvery != sample_offset) outcomes[i].body.clear();
      }
    }));
  }
  // Join every client before rethrowing, so none outlives the server.
  std::exception_ptr error;
  for (auto& worker : workers) {
    try {
      worker.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return us_since(t0) / 1e6;
}

/// Checks every outcome; compares the sampled traces with references.
void check_outcomes(const std::vector<SessionSpec>& specs,
                    const std::vector<Outcome>& outcomes,
                    const Tables& tables, Report& report) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& out = outcomes[i];
    report.check(out.ok, "session " + std::to_string(i) + ": " + out.error);
    if (!out.ok || out.body.empty()) continue;
    const auto backend = tables.backend(specs[i]);
    report.check(trace_member(out.body) == reference_trace(specs[i], *backend),
                 "session " + std::to_string(i) +
                     ": trace differs from a bare run_tuner");
  }
}

/// Interpolated quantile of a Prometheus histogram family in `text`.
double prometheus_quantile(const std::string& text, const std::string& family,
                           double q) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  std::istringstream lines(text);
  const std::string prefix = family + "_bucket{le=\"";
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const double bound = le == "+Inf" ? INFINITY : std::stod(le);
    buckets.emplace_back(bound, std::stod(line.substr(line.rfind(' ') + 1)));
  }
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double rank = q * buckets.back().second;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [bound, count] : buckets) {
    if (count >= rank) {
      if (std::isinf(bound)) return lower;
      return lower + (bound - lower) * (rank - below) /
                         std::max(count - below, 1e-12);
    }
    lower = bound;
    below = count;
  }
  return lower;
}

// -------------------------------------------------------------- timed runs --

void timed(const Options& options, const Shape& shape,
           const std::vector<SessionSpec>& specs, Tables& tables,
           Report& report) {
  const HostSpeed speed;
  std::vector<double> setup_s, ref_cpu_ms, ref_cpu_eval_us, cpu_ms, user_ms,
      sys_ms, round_s, rate, eval_rate, latency_ms, submit_ms;
  std::uint64_t requests = 0;
  const auto set_up = [&] {
    const auto c0 = speed.workload_cpu();
    if (shape.journal) tables.sweep(shape);
    auto system = std::make_unique<System>(options, tables, shape.journal);
    system->api->start();
    setup_s.push_back((speed.workload_cpu() - c0).total_s());
    return system;
  };
  // A few set-ups that serve no round, so set-up time is a median even
  // when a run has room for only a couple of rounds.
  for (std::size_t i = 0; i < kExtraSetups; ++i) set_up();
  const auto start = Clock::now();
  do {
    const auto system = set_up();
    std::vector<Outcome> outcomes;
    const auto t0 = Clock::now();
    const auto c0 = speed.workload_cpu();
    const double wall =
        drive(system->api->port(), specs, shape.journal, kClients,
              shape.sample_offset, outcomes,
              round_s.empty() ? options.fail_after : 0);
    const auto cpu = speed.workload_cpu() - c0;
    const double scale = speed.scale(t0, Clock::now());
    system->api->stop();
    double evals = 0.0;
    for (const auto& out : outcomes) {
      evals += static_cast<double>(out.evaluations);
      requests += out.requests;
      if (!out.ok) continue;
      latency_ms.push_back(out.latency_us / 1000.0);
      if (shape.journal) submit_ms.push_back(out.submit_us / 1000.0);
    }
    const auto sessions = static_cast<double>(specs.size());
    ref_cpu_ms.push_back(cpu.total_s() * scale * 1000.0 / sessions);
    ref_cpu_eval_us.push_back(cpu.total_s() * scale * 1e6 / evals);
    cpu_ms.push_back(cpu.total_s() * 1000.0 / sessions);
    user_ms.push_back(cpu.user_s * 1000.0 / sessions);
    sys_ms.push_back(cpu.sys_s * 1000.0 / sessions);
    round_s.push_back(wall);
    rate.push_back(sessions / wall);
    eval_rate.push_back(evals / wall);
    check_outcomes(specs, outcomes, tables, report);
  } while (us_since(start) / 1e6 < options.seconds);

  // The bounded figures are CPU time scaled to the reference host speed,
  // each a median over the rounds: what the work costs, whatever else
  // the host runs. Wall-clock figures (throughput and latency as the
  // clients saw them) are printed beside them; they move with the host's
  // load as much as with the program.
  report.set("setup_s", median(setup_s) * speed.scale(), "s", setup_s.size());
  report.set("ref_cpu_ms_per_session", median(ref_cpu_ms), "ms",
             ref_cpu_ms.size());
  report.set("ref_cpu_us_per_eval", median(ref_cpu_eval_us), "us",
             ref_cpu_eval_us.size());
  report.set("setup_cpu_s", median(setup_s), "s", setup_s.size());
  report.set("cpu_ms_per_session", median(cpu_ms), "ms", cpu_ms.size());
  report.set("user_ms_per_session", median(user_ms), "ms", user_ms.size());
  report.set("sys_ms_per_session", median(sys_ms), "ms", sys_ms.size());
  report.set("host.job_ms", speed.job_ms(), "ms", speed.samples());
  report.set("round_s", median(round_s), "s", round_s.size());
  report.set("sessions_per_s", median(rate), "1/s", rate.size());
  report.set("evals_per_s", median(eval_rate), "1/s", eval_rate.size());
  report.set("session_p50_ms", quantile(latency_ms, 0.5), "ms",
             latency_ms.size());
  report.set("session_p99_ms", quantile(latency_ms, 0.99), "ms",
             latency_ms.size());
  if (shape.journal) {
    report.set("submit_p50_ms", quantile(submit_ms, 0.5), "ms",
               submit_ms.size());
  }
  report.set("requests", static_cast<double>(requests), "count");
}

// ------------------------------------------------------------ traced pass --

/// Per-session timings of one peel, indexed like the traced specs.
struct PeelTimes {
  std::vector<double> inline_us, decode_us, encode_us, bytes;
  std::vector<double> tuner_us, backend_us, evals;
};

/// What the traced HTTP pass saw.
struct HttpPass {
  std::vector<Outcome> outcomes;
  std::vector<double> overhead_us, final_handle_us, queue_ms, submit_ms;
  bat::service::ShardedMeasurementCache::Stats cache;
  bat::service::DurabilityStats durability;
  std::string metrics;  // the registry's Prometheus exposition
};

double total_latency_us(const std::vector<Outcome>& outcomes) {
  double total = 0.0;
  for (const auto& out : outcomes) total += out.latency_us;
  return total;
}

/// Layers 1-2: HTTP round trip and ApiServer::handle of the same request,
/// one client. The transport is a net::HttpServer (the class ApiServer
/// serves through) whose handler times the ApiServer's own handle().
HttpPass traced_http(const Options& options, const Shape& shape,
                     const std::vector<SessionSpec>& specs,
                     const Tables& tables, SpanLog& log) {
  HttpPass pass;
  System system(options, tables, shape.journal);
  std::mutex handled_mutex;
  std::pair<Clock::time_point, Clock::time_point> handled;
  bat::net::HttpServer transport(
      bat::net::ServerOptions{}, [&](const bat::net::HttpRequest& request) {
        const auto t0 = Clock::now();
        auto response = system.api->handle(request);
        const auto t1 = Clock::now();
        std::lock_guard lock(handled_mutex);
        handled = {t0, t1};
        return response;
      });
  transport.start();
  bat::net::HttpClient client("127.0.0.1", transport.port());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Clock::time_point request_start;
    double submit_handle_end = 0.0;  // on the log's time axis
    double handle_us = 0.0;
    Hooks hooks;
    hooks.span = [&](const char* name, Clock::time_point t0,
                     Clock::time_point t1) {
      log.add(name, i, 0, t0, t1);
      if (std::string_view(name) == "net.request") request_start = t0;
    };
    hooks.after_request = [&] {
      std::pair<Clock::time_point, Clock::time_point> h;
      {
        std::lock_guard lock(handled_mutex);
        h = handled;
      }
      log.add("api.handle", i, 1, h.first, h.second);
      if (submit_handle_end == 0.0) submit_handle_end = log.at_us(h.second);
      handle_us = us_since(h.first, h.second);
      pass.overhead_us.push_back(us_since(request_start) - handle_us);
    };
    const auto t0 = Clock::now();
    auto out = run_session(client, specs[i], shape.journal, &hooks);
    log.add_at("session", i, 0, log.at_us(t0), out.latency_us);
    pass.final_handle_us.push_back(handle_us);
    if (shape.journal && out.ok) {
      pass.submit_ms.push_back(out.submit_us / 1000.0);
      // Program-recorded spans of the session, from the trace endpoint,
      // placed so that its "submit" span ends with the submit's handle().
      const auto id = Json::parse(out.body).at("id").as_string();
      const auto trace =
          Json::parse(client.get("/v1/sessions/" + id + "/trace").body);
      double submit_end = 0.0;
      double evaluate_start = -1.0;
      for (const auto& span : trace.at("spans").as_array()) {
        const auto& name = span.at("name").as_string();
        const double start = span.at("start_us").as_double();
        const double dur = span.at("duration_us").as_double();
        if (name == "submit") submit_end = start + dur;
        if (name == "evaluate") evaluate_start = start;
        if (name == "evaluate" || name == "journal.result") {
          log.add_at("service." + name, i, 2,
                     submit_handle_end - submit_end + start, dur);
        }
      }
      if (evaluate_start >= 0.0) {
        pass.queue_ms.push_back((evaluate_start - submit_end) / 1000.0);
      }
    }
    pass.outcomes.push_back(std::move(out));
  }
  client.disconnect();
  transport.stop();
  pass.cache = system.service->cache_stats();
  pass.durability = system.service->durability_stats();
  pass.metrics = system.registry->render_prometheus();
  return pass;
}

void traced(const Options& options, const Shape& shape,
            const std::vector<SessionSpec>& specs, Tables& tables,
            Report& report) {
  const std::size_t n = specs.size();
  const double sweep_ms = shape.journal ? tables.sweep(shape) : 0.0;

  // Untraced and traced single-client passes over the same sessions,
  // alternated, after one untraced pass that only warms the process up.
  // The spans of the last traced pass are the ones kept.
  const auto plain_pass = [&] {
    System system(options, tables, shape.journal);
    system.api->start();
    std::vector<Outcome> outcomes;
    drive(system.api->port(), specs, shape.journal, 1, shape.sample_offset,
          outcomes);
    system.api->stop();
    check_outcomes(specs, outcomes, tables, report);
    return total_latency_us(outcomes);
  };
  if (!shape.journal) (void)plain_pass();
  std::vector<double> plain_us, traced_us, unattributed;
  std::optional<SpanLog> log;
  HttpPass pass;
  for (std::size_t rep = 0; rep < (shape.journal ? 1 : kOverheadReps); ++rep) {
    plain_us.push_back(plain_pass());
    log.emplace();
    pass = traced_http(options, shape, specs, tables, *log);
    traced_us.push_back(total_latency_us(pass.outcomes));
    unattributed.push_back(
        1.0 - log->coverage("session", "net.request", kPollWait));
    check_outcomes(specs, pass.outcomes, tables, report);
  }
  const auto& outcomes = pass.outcomes;

  // Layers 3-5 over fresh state, same sessions in the same order: the
  // service's own call, the bare tuner over a timing decorator, and the
  // backend inside it. JSON codecs are timed directly on the same data.
  PeelTimes peel;
  {
    System fresh(options, tables, false);
    for (const auto& spec : specs) {
      const std::string body = bat::service::to_json(spec).dump();
      auto t0 = Clock::now();
      const auto decoded = bat::service::spec_from_json(Json::parse(body));
      peel.decode_us.push_back(us_since(t0));
      t0 = Clock::now();
      const auto result = fresh.service->run_inline(decoded);
      peel.inline_us.push_back(us_since(t0));
      t0 = Clock::now();
      const std::string encoded = bat::service::to_json(result).dump();
      peel.encode_us.push_back(us_since(t0));
      peel.bytes.push_back(static_cast<double>(encoded.size()));
    }
  }
  std::map<std::string, std::vector<double>> tuner_self;
  {
    std::map<std::pair<std::string, std::size_t>,
             std::unique_ptr<bat::core::EvaluationBackend>>
        backends;
    for (const auto& spec : specs) {
      auto& inner = backends[{spec.kernel, spec.device}];
      if (!inner) inner = tables.backend(spec);
      TimingBackend timing(*inner);
      const auto tuner = bat::tuners::make_tuner(spec.tuner);
      const auto t0 = Clock::now();
      const auto run =
          bat::tuners::run_tuner(*tuner, timing, spec.budget, spec.seed);
      peel.tuner_us.push_back(us_since(t0));
      peel.backend_us.push_back(timing.busy_us());
      peel.evals.push_back(static_cast<double>(timing.evaluations()));
      tuner_self[spec.tuner].push_back(peel.tuner_us.back() -
                                       timing.busy_us());
    }
  }

  // ------------------------------------------------------ attribution --
  std::vector<double> api_self, service_self, parse_us, exec_ms;
  double requests = 0.0;
  for (const auto& span : log->spans()) {
    if (span.name == "json.parse") parse_us.push_back(span.dur_us);
  }
  for (std::size_t i = 0; i < n; ++i) {
    requests += static_cast<double>(outcomes[i].requests);
    exec_ms.push_back(outcomes[i].wall_ms);
    service_self.push_back(peel.inline_us[i] - peel.tuner_us[i]);
    // Sync: handle() minus the service call and the JSON it does.
    // Async: the final poll's handle() minus encoding the result.
    api_self.push_back(
        shape.journal
            ? pass.final_handle_us[i] - peel.encode_us[i]
            : pass.final_handle_us[i] - peel.inline_us[i] - peel.decode_us[i] -
                  peel.encode_us[i]);
  }
  const double sessions = static_cast<double>(n);
  const double evals = sum(peel.evals);
  const double backend_per_eval = evals > 0 ? sum(peel.backend_us) / evals : 0;
  const auto& cache = pass.cache;
  const auto& durability = pass.durability;

  report.set("net.rtt_overhead_us", median(pass.overhead_us), "us",
             pass.overhead_us.size());
  report.set("net.requests_per_session", requests / sessions, "count");
  report.set("json.result_encode_us", median(peel.encode_us), "us", n);
  report.set("json.result_bytes", median(peel.bytes), "B", n);
  report.set("json.spec_decode_us", median(peel.decode_us), "us", n);
  report.set("json.parse_us", median(parse_us), "us", parse_us.size());
  report.set("api.handle_self_us", median(api_self), "us", n);
  report.set("api.submit_ms", median(pass.submit_ms), "ms",
             pass.submit_ms.size());
  report.set("service.self_us", median(service_self), "us", n);
  report.set("service.exec_ms", median(exec_ms), "ms", n);
  report.set("service.queue_wait_ms", median(pass.queue_ms), "ms",
             pass.queue_ms.size());
  report.set("cache.hit_ratio",
             cache.lookups ? static_cast<double>(cache.hits) /
                                 static_cast<double>(cache.lookups)
                           : 0.0,
             "fraction");
  report.set("cache.cross_session_hits",
             static_cast<double>(cache.cross_session_hits()), "count");
  for (const auto& name : bat::tuners::tuner_names()) {
    const auto it = tuner_self.find(name);
    report.set("tuners." + name + ".self_us",
               it == tuner_self.end() ? 0.0 : median(it->second), "us",
               it == tuner_self.end() ? 0 : it->second.size());
  }
  const bool live = shape.backend == "live";
  report.set("gpusim.eval_us", live ? backend_per_eval : 0.0, "us");
  report.set("gpusim.evals_per_session", live ? evals / sessions : 0.0,
             "count");
  report.set("replay.eval_us", live ? 0.0 : backend_per_eval, "us");
  report.set("journal.commit_ms",
             1000.0 * prometheus_quantile(
                          pass.metrics, "bat_journal_commit_duration_seconds",
                          0.5),
             "ms", static_cast<std::size_t>(durability.commits));
  report.set("journal.commits_per_session",
             static_cast<double>(durability.commits) / sessions, "count");
  report.set("journal.checkpoints",
             static_cast<double>(durability.checkpoints), "count");
  report.set("runner.sweep_ms", sweep_ms, "ms");
  report.set("unattributed_frac", median(unattributed), "fraction",
             unattributed.size());
  report.set("trace_overhead_frac", median(traced_us) / median(plain_us) - 1.0,
             "fraction", traced_us.size());
  log->write_chrome(options.out_dir + "/trace-" + options.workload + ".json");
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  Shape shape = shape_of(options.workload);
  SeedRng rng(options.seed);
  shape.sample_offset = rng.below(kCheckEvery);
  Tables tables(shape);
  auto specs = draw_specs(rng, shape.round, shape.kernels, served_tuners(),
                          kDevices, kBudget, shape.backend);
  if (options.trace) {
    specs.resize(std::min(kTracedSessions, specs.size()));
    traced(options, shape, specs, tables, report);
  } else {
    timed(options, shape, specs, tables, report);
  }
}

}  // namespace e2e
