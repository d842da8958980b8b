// google-benchmark microbenchmarks of the framework itself: the costs a
// tuner pays per step (space decode, constraint check, simulated
// evaluation, neighbor generation) and the analysis building blocks
// (GBDT fit on continuous and on few-valued features, GBDT scoring,
// PageRank iteration).
//
// The *Config / *Index pairs compare the seed Config-materializing hot
// paths against the compiled index-space paths (CompiledSpace): neighbor
// iteration with no per-step Config allocation, and FFG construction in
// flat CSR off the valid-index set instead of a hash map.
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "analysis/ffg.hpp"
#include "analysis/pagerank.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/backend.hpp"
#include "core/compiled_space.hpp"
#include "core/evaluator.hpp"
#include "core/runner.hpp"
#include "io/dataset_file.hpp"
#include "io/dataset_view.hpp"
#include "io/replay_view.hpp"
#include "jit/compiled_backend.hpp"
#include "kernels/all_kernels.hpp"
#include "ml/gbdt.hpp"
#include "net/http.hpp"
#include "service/session_json.hpp"
#include "service/sharded_cache.hpp"

namespace {

using namespace bat;

void BM_SpaceDecode(benchmark::State& state) {
  const auto bench = kernels::make("dedisp");
  const auto& params = bench->space().params();
  core::Config scratch;
  core::ConfigIndex i = 0;
  for (auto _ : state) {
    params.decode_into(i % params.cardinality(), scratch);
    benchmark::DoNotOptimize(scratch.data());
    i += 977;
  }
}
BENCHMARK(BM_SpaceDecode);

void BM_ConstraintCheck(benchmark::State& state) {
  const auto bench = kernels::make("gemm");
  const auto& space = bench->space();
  common::Rng rng(1);
  const auto config = space.params().random_config(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.constraints().satisfied(config));
  }
}
BENCHMARK(BM_ConstraintCheck);

void BM_SimulatedEvaluation(benchmark::State& state) {
  const auto bench = kernels::make("gemm");
  common::Rng rng(2);
  const auto config = bench->space().random_valid_config(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench->evaluate(config, 2).time_ms);
  }
}
BENCHMARK(BM_SimulatedEvaluation);

// Seed path: materialize a std::vector<Config> of valid neighbors.
void BM_NeighborsConfig(benchmark::State& state, const std::string& kernel) {
  const auto bench = kernels::make(kernel);
  common::Rng rng(3);
  const auto config = bench->space().random_valid_config(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench->space().valid_neighbors(config).size());
  }
}
BENCHMARK_CAPTURE(BM_NeighborsConfig, gemm, "gemm");
BENCHMARK_CAPTURE(BM_NeighborsConfig, hotspot, "hotspot");

// Index-space path: for_each_valid_neighbor_index, pure index
// arithmetic + rank probes (gemm, materialized) or the constraint plan
// (hotspot, streamed) — no per-step allocation.
void BM_NeighborsIndex(benchmark::State& state, const std::string& kernel) {
  const auto bench = kernels::make(kernel);
  const auto& compiled = bench->space().compiled();
  common::Rng rng(3);
  const auto base = bench->space().random_valid_index(rng);
  core::NeighborScratch scratch;
  for (auto _ : state) {
    std::size_t count = 0;
    compiled.for_each_valid_neighbor_index(
        base, scratch, [&](core::ConfigIndex) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK_CAPTURE(BM_NeighborsIndex, gemm, "gemm");
BENCHMARK_CAPTURE(BM_NeighborsIndex, hotspot, "hotspot");

void BM_RandomValidSample(benchmark::State& state) {
  const auto bench = kernels::make("expdist");  // ~5% acceptance
  common::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench->space().random_valid_config(rng).front());
  }
}
BENCHMARK(BM_RandomValidSample);

// Seed FFG construction: ConfigIndex -> node via an unordered_map, one
// edge vector per node (replica of the pre-CompiledSpace build).
void BM_FfgBuildHashMap(benchmark::State& state) {
  const auto bench = kernels::make("pnpoly");
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  const auto& params = bench->space().params();
  for (auto _ : state) {
    std::unordered_map<core::ConfigIndex, std::uint32_t> node_of;
    std::vector<core::ConfigIndex> index_of_node;
    std::vector<double> times;
    node_of.reserve(ds.size());
    for (std::size_t r = 0; r < ds.size(); ++r) {
      if (!ds.row_ok(r)) continue;
      node_of.emplace(ds.config_index(r),
                      static_cast<std::uint32_t>(index_of_node.size()));
      index_of_node.push_back(ds.config_index(r));
      times.push_back(ds.time_ms(r));
    }
    std::vector<std::vector<std::uint32_t>> edges(times.size());
    common::parallel_for_chunked(
        0, times.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
          core::Config config;
          for (std::size_t node = lo; node < hi; ++node) {
            params.decode_into(index_of_node[node], config);
            auto& out = edges[node];
            params.for_each_neighbor(config, [&](const core::Config& n) {
              const auto it = node_of.find(params.index_of_config(n));
              if (it == node_of.end()) return;
              if (times[it->second] < times[node]) out.push_back(it->second);
            });
          }
        });
    benchmark::DoNotOptimize(edges.data());
  }
}
BENCHMARK(BM_FfgBuildHashMap);

// Index-space FFG construction: flat CSR arrays off the compiled
// valid-index set (rank lookups, parallel pass).
void BM_FfgBuildCsr(benchmark::State& state) {
  const auto bench = kernels::make("pnpoly");
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  (void)bench->space().compiled();  // compile outside the timed region
  for (auto _ : state) {
    const analysis::FitnessFlowGraph graph(bench->space(), ds);
    benchmark::DoNotOptimize(graph.graph().num_edges());
  }
}
BENCHMARK(BM_FfgBuildCsr);

void BM_GbdtFit(benchmark::State& state) {
  common::Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ml::Matrix x(n, 6);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 6; ++c) x(i, c) = rng.uniform(0.0, 8.0);
    y[i] = std::exp(0.3 * x(i, 0) + 0.1 * x(i, 1));
  }
  ml::GbdtParams params;
  params.num_trees = 50;
  for (auto _ : state) {
    ml::GbdtRegressor model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.predict(x.row(0)));
  }
}
BENCHMARK(BM_GbdtFit)->Arg(500)->Arg(2000);

// The importance study's model on pnpoly's exhaustive sweep: few distinct
// values per feature (31/11/4/3), the regime tree binning targets.
ml::TrainTestSplit pnpoly_split() {
  const auto bench = kernels::make("pnpoly");
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  return ml::train_test_split(ml::Matrix::from_rows(ds.feature_matrix()),
                              ds.target_vector(), 0.25, 0x1396ULL);
}

void BM_GbdtFitDiscrete(benchmark::State& state) {
  const auto split = pnpoly_split();
  for (auto _ : state) {
    ml::GbdtRegressor model;  // 300 trees
    model.fit(split.x_train, split.y_train);
    benchmark::DoNotOptimize(model.predict(split.x_test.row(0)));
  }
}
BENCHMARK(BM_GbdtFitDiscrete)->Unit(benchmark::kMillisecond);

// One PFI scoring pass: 300 trees over pnpoly's 1023 held-out rows.
void BM_GbdtPredictAll(benchmark::State& state) {
  const auto split = pnpoly_split();
  ml::GbdtRegressor model;
  model.fit(split.x_train, split.y_train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_all(split.x_test).front());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(split.x_test.rows()));
}
BENCHMARK(BM_GbdtPredictAll)->MeasureProcessCPUTime()->UseRealTime();

void BM_PageRank(benchmark::State& state) {
  // Random DAG-ish graph with n nodes, ~8 out-edges each.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(6);
  std::vector<std::vector<std::uint32_t>> edges(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (int e = 0; e < 8; ++e) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (v != u) edges[u].push_back(v);
    }
  }
  const auto csr = analysis::CsrGraph::from_adjacency(edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::pagerank(csr).front());
  }
}
BENCHMARK(BM_PageRank)->Arg(1000)->Arg(10000);

void BM_TunerStepLocalSearch(benchmark::State& state) {
  const auto bench = kernels::make("pnpoly");
  for (auto _ : state) {
    core::LiveBackend backend(*bench, 0);
    core::CachingEvaluator eval(backend, 64);
    common::Rng rng(7);
    try {
      core::Config current = bench->space().random_valid_config(rng);
      double best = eval(current);
      for (const auto& neighbor : bench->space().valid_neighbors(current)) {
        best = std::min(best, eval(neighbor));
      }
      benchmark::DoNotOptimize(best);
    } catch (const core::BudgetExhausted&) {
    }
  }
}
BENCHMARK(BM_TunerStepLocalSearch);

void BM_BatchEvaluateLive(benchmark::State& state) {
  // The batched hot path: one generation fanned out over the thread
  // pool vs evaluated element-wise (state.range(0) = batch size).
  const auto bench = kernels::make("gemm");
  common::Rng rng(8);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::ConfigIndex> indices;
  indices.reserve(n);
  const auto& params = bench->space().params();
  for (std::size_t i = 0; i < n; ++i) {
    indices.push_back(
        params.index_of_config(bench->space().random_valid_config(rng)));
  }
  core::LiveBackend backend(*bench, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.evaluate_batch(indices).front().time_ms);
  }
}
BENCHMARK(BM_BatchEvaluateLive)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchEvaluateReplay(benchmark::State& state) {
  // Tabular replay: the same generation served from a dataset.
  const auto bench = kernels::make("pnpoly");
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  core::ReplayBackend backend(bench->space(), ds);
  common::Rng rng(9);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::ConfigIndex> indices;
  const auto& params = bench->space().params();
  for (std::size_t i = 0; i < n; ++i) {
    indices.push_back(
        params.index_of_config(bench->space().random_valid_config(rng)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.evaluate_batch(indices).front().time_ms);
  }
}
BENCHMARK(BM_BatchEvaluateReplay)->Arg(64)->Arg(1024);

// ------------------------------------------------------------- dataset io --
// The persistence before/after pairs (tools/ci.sh exports them as
// BENCH_io.json): cold-open cost of a 10k-row archive — full CSV parse
// vs mmap + O(1) header/footer decode — and replay lookup cost — the
// owned in-memory Measurement table built from a CSV-loaded Dataset vs
// zero-copy reads straight off the mmap'ed binary columns.

struct DatasetIoFixture {
  std::unique_ptr<core::Benchmark> bench;
  std::string csv_path;
  std::string bin_path;
  std::vector<core::ConfigIndex> lookups;  // indices covered by the rows
};

const DatasetIoFixture& dataset_io_fixture() {
  static const DatasetIoFixture fixture = [] {
    DatasetIoFixture f;
    f.bench = kernels::make("hotspot");
    const auto ds = core::Runner::run_sampled(*f.bench, 0, 10'000, 42);
    const auto dir =
        std::filesystem::temp_directory_path() / "bat_micro_datasets";
    std::filesystem::create_directories(dir);
    f.csv_path = (dir / "hotspot_10k.csv").string();
    f.bin_path = (dir / "hotspot_10k.bin").string();
    io::save_dataset(f.csv_path, ds, io::DatasetFormat::kCsv);
    io::save_dataset(f.bin_path, ds, io::DatasetFormat::kBinary);
    common::Rng rng(10);
    f.lookups.reserve(1024);
    for (std::size_t i = 0; i < 1024; ++i) {
      f.lookups.push_back(ds.config_index(rng.next_below(ds.size())));
    }
    return f;
  }();
  return fixture;
}

// Cold open + first lookup, CSV: the full text parse is the price of
// admission before the first row can be read.
void BM_DatasetLoadCsv(benchmark::State& state) {
  const auto& fixture = dataset_io_fixture();
  for (auto _ : state) {
    const auto ds = io::load_dataset(fixture.csv_path);
    benchmark::DoNotOptimize(ds.time_ms(ds.size() - 1));
  }
}
BENCHMARK(BM_DatasetLoadCsv);

// Cold open + first lookup, binary: mmap + header/footer decode,
// independent of row count.
void BM_DatasetOpenBinary(benchmark::State& state) {
  const auto& fixture = dataset_io_fixture();
  for (auto _ : state) {
    const auto view = io::DatasetView::open(fixture.bin_path);
    benchmark::DoNotOptimize(view->time_ms(view->size() - 1));
  }
}
BENCHMARK(BM_DatasetOpenBinary);

// Replay lookups over a CSV-loaded Dataset (owned Measurement table).
void BM_ReplayLookupCsvLoaded(benchmark::State& state) {
  const auto& fixture = dataset_io_fixture();
  const auto ds = io::load_dataset(fixture.csv_path);
  core::ReplayBackend backend(fixture.bench->space(), ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backend.evaluate_batch(fixture.lookups).front().time_ms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.lookups.size()));
}
BENCHMARK(BM_ReplayLookupCsvLoaded);

// Replay lookups served zero-copy from the mmap'ed binary columns.
void BM_ReplayLookupMmap(benchmark::State& state) {
  const auto& fixture = dataset_io_fixture();
  io::MmapReplayBackend backend(fixture.bench->space(),
                                io::DatasetView::open(fixture.bin_path));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backend.evaluate_batch(fixture.lookups).front().time_ms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.lookups.size()));
}
BENCHMARK(BM_ReplayLookupMmap);

// ------------------------------------------------------- http wire layer --
// The per-request fixed costs of the network front-end: framing one
// POST /v1/sessions request out of raw bytes, and serializing a full
// SessionResult (150-entry trace, the default budget) back to JSON.
// Together they bound what the API adds on top of the service layer.

void BM_HttpParseRequest(benchmark::State& state) {
  const std::string body =
      R"({"kernel":"gemm","tuner":"local","budget":150,"seed":42})";
  const std::string raw =
      "POST /v1/sessions HTTP/1.1\r\n"
      "host: 127.0.0.1:8080\r\n"
      "content-type: application/json\r\n"
      "content-length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  net::HttpRequest request;
  for (auto _ : state) {
    const auto result = net::parse_request(raw, request);
    benchmark::DoNotOptimize(result.consumed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_HttpParseRequest);

void BM_SessionResultToJson(benchmark::State& state) {
  service::SessionResult result;
  result.status = service::SessionStatus::kCompleted;
  result.wall_ms = 12.5;
  result.run.trace.reserve(150);
  for (std::size_t i = 0; i < 150; ++i) {
    result.run.trace.push_back(
        {static_cast<core::ConfigIndex>(i * 977),
         10.0 + 0.001 * static_cast<double>(i)});
  }
  result.run.best = result.run.trace.front();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = service::to_json(result).dump();
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SessionResultToJson);

// ---------------------------------------------- sharded measurement cache --
// service::ShardedMeasurementCache under the access pattern of a long
// grid run: every session claim()s mostly-ready entries (cross-session
// hits) spread over the key range. shards = 1 *is* the single-mutex
// baseline — identical code, one mutex — so the SingleMutex/Sharded
// pair at 16 threads isolates exactly what sharding buys once
// concurrent sessions hammer the same workload cache.

constexpr std::uint64_t kCacheKeys = 1 << 14;

service::ShardedMeasurementCache& prepared_cache(std::size_t shards) {
  static std::mutex mutex;
  static std::map<std::size_t,
                  std::unique_ptr<service::ShardedMeasurementCache>>
      caches;
  std::lock_guard lock(mutex);
  auto& cache = caches[shards];
  if (!cache) {
    // No CompiledSpace: raw-index keys, so the benchmark measures the
    // shard/lock machinery, not rank().
    cache = std::make_unique<service::ShardedMeasurementCache>(nullptr,
                                                               shards);
    for (std::uint64_t k = 0; k < kCacheKeys; ++k) {
      (void)cache->claim(k);
      cache->publish(k, core::Measurement::valid(1.0 + 0.001 * k));
    }
  }
  return *cache;
}

void BM_CacheClaims(benchmark::State& state, std::size_t shards) {
  auto& cache = prepared_cache(shards);
  common::Rng rng(100 + static_cast<std::uint64_t>(state.thread_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.claim(rng.next_below(kCacheKeys)).state);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_CacheUncontended(benchmark::State& state) { BM_CacheClaims(state, 16); }
void BM_CacheSingleMutex16Threads(benchmark::State& state) {
  BM_CacheClaims(state, 1);
}
void BM_CacheSharded16Threads(benchmark::State& state) {
  BM_CacheClaims(state, 16);
}
BENCHMARK(BM_CacheUncontended);
BENCHMARK(BM_CacheSingleMutex16Threads)->Threads(16)->UseRealTime();
BENCHMARK(BM_CacheSharded16Threads)->Threads(16)->UseRealTime();

// ------------------------------------------------------------ jit backend --
// The three regimes of the compiled-kernel backend, one benchmark each:
// a cold compile (emit + system compiler + publish, the price paid once
// per configuration per cache), a warm dispatch (fn-cache hit, the
// steady-state cost every tuner step pays), and a dlopen-only reload (a
// fresh backend over an already-populated artifact dir — what a new
// process pays when the disk cache is hot).

struct JitFixture {
  std::unique_ptr<core::Benchmark> bench;
  const kernels::KernelBenchmark* kernel = nullptr;
  std::string artifact_dir;
  std::vector<core::ConfigIndex> indices;  // valid, pre-sampled
};

const JitFixture& jit_fixture() {
  static const JitFixture fixture = [] {
    JitFixture f;
    f.bench = kernels::make("pnpoly");
    f.kernel = &dynamic_cast<const kernels::KernelBenchmark&>(*f.bench);
    f.artifact_dir = (std::filesystem::temp_directory_path() /
                      "bat_micro_jit")
                         .string();
    std::filesystem::remove_all(f.artifact_dir);
    common::Rng rng(11);
    const auto& params = f.bench->space().params();
    for (std::size_t i = 0; i < 4; ++i) {
      f.indices.push_back(params.index_of_config(
          f.bench->space().random_valid_config(rng)));
    }
    return f;
  }();
  return fixture;
}

// One full cold compile per iteration: fresh artifact dir, so the
// builder (system compiler + atomic publish) runs every time.
void BM_JitColdCompile(benchmark::State& state) {
  const auto& fixture = jit_fixture();
  const auto dir = std::filesystem::temp_directory_path() / "bat_micro_jit_cold";
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    jit::CompiledBackendOptions options;
    options.artifact_dir = dir.string();
    jit::CompiledKernelBackend backend(*fixture.kernel, 0, options);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        backend.evaluate(fixture.indices.front()).time_ms);
  }
}
BENCHMARK(BM_JitColdCompile)->Unit(benchmark::kMillisecond);

// Steady state: every index resolved, dispatch is a shared-lock map
// probe plus a direct function-pointer call.
void BM_JitWarmDispatch(benchmark::State& state) {
  const auto& fixture = jit_fixture();
  static jit::CompiledKernelBackend* backend = [] {
    jit::CompiledBackendOptions options;
    options.artifact_dir = jit_fixture().artifact_dir;
    auto* b = new jit::CompiledKernelBackend(*jit_fixture().kernel, 0,
                                             options);
    (void)b->evaluate_batch(jit_fixture().indices);  // warm the fn cache
    return b;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backend->evaluate_batch(fixture.indices).front().time_ms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.indices.size()));
}
BENCHMARK(BM_JitWarmDispatch);

// Fresh backend over a hot disk cache: no compiles, just verified
// probe + dlopen + symbol resolution per artifact — the next process's
// startup cost.
void BM_JitDlopenCached(benchmark::State& state) {
  const auto& fixture = jit_fixture();
  {
    // Ensure the artifacts exist (shared dir with BM_JitWarmDispatch).
    jit::CompiledBackendOptions options;
    options.artifact_dir = fixture.artifact_dir;
    jit::CompiledKernelBackend seed(*fixture.kernel, 0, options);
    (void)seed.evaluate_batch(fixture.indices);
  }
  for (auto _ : state) {
    jit::CompiledBackendOptions options;
    options.artifact_dir = fixture.artifact_dir;
    jit::CompiledKernelBackend backend(*fixture.kernel, 0, options);
    benchmark::DoNotOptimize(
        backend.evaluate_batch(fixture.indices).front().time_ms);
  }
}
BENCHMARK(BM_JitDlopenCached)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
