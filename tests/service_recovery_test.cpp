// Crash recovery at the service layer, the tentpole proof:
//  * a service killed mid-grid (first session done, the rest torn
//    away) reboots from its journal with every id intact — the
//    completed result restored byte-for-byte, the unfinished sessions
//    re-run under their original ids — and the recovered grid's traces
//    are identical to an uninterrupted run's (deterministic backends
//    make at-least-once re-execution observably exactly-once);
//  * replay is idempotent: a third boot of the same journal yields the
//    same registry as the second;
//  * checkpoint + truncate preserves replay semantics while evicting
//    the oldest completed sessions and bounding the file; checkpoints
//    fire per checkpoint_bytes appended, not per result, and the
//    retention slack between them is bounded;
//  * exhaustive fault injection over a real session journal
//    (tests/fault_util.hpp): every truncation point and every
//    single-byte flip recovers a strict record prefix of the logical
//    state, or rejects cleanly (corrupted header);
//  * journals written while the jit backend existed still boot: their
//    result records' compile-cost block is discarded, and a pending
//    jit session re-runs into a failure that names the removal.
// tools/ci.sh runs this binary under TSan in addition to ASan/UBSan;
// the end-to-end kill -9 variant of the first bullet lives in
// tools/ci.sh's durability stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/trace.hpp"
#include "io/journal.hpp"
#include "service/session_log.hpp"
#include "service/tuning_service.hpp"
#include "fault_util.hpp"

namespace bat::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The grid service_test.cpp uses, shrunk: same kernel, alternating
/// tuners, rotating seeds — heavy cache overlap, seconds not minutes.
std::vector<SessionSpec> grid_specs(std::size_t sessions) {
  std::vector<SessionSpec> specs;
  specs.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    SessionSpec spec;
    spec.kernel = "pnpoly";
    spec.tuner = s % 2 == 0 ? "local" : "annealing";
    spec.budget = 40;
    spec.seed = 7 + s % 3;
    spec.backend = "live";
    specs.push_back(spec);
  }
  return specs;
}

void expect_same_run(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.status, SessionStatus::kCompleted) << a.error;
  ASSERT_EQ(b.status, SessionStatus::kCompleted) << b.error;
  ASSERT_EQ(a.run.trace.size(), b.run.trace.size());
  for (std::size_t i = 0; i < a.run.trace.size(); ++i) {
    EXPECT_EQ(a.run.trace[i].index, b.run.trace[i].index) << "entry " << i;
    EXPECT_EQ(a.run.trace[i].objective, b.run.trace[i].objective)
        << "entry " << i;
  }
  ASSERT_EQ(a.run.best.has_value(), b.run.best.has_value());
  if (a.run.best) {
    EXPECT_EQ(a.run.best->index, b.run.best->index);
    EXPECT_EQ(a.run.best->objective, b.run.best->objective);
  }
}

SessionResult wait_tracked(TuningService& svc, std::uint64_t id) {
  const auto session = svc.tracked(id);
  EXPECT_TRUE(session.has_value()) << "id " << id << " not in registry";
  if (!session) return {};
  return session->future.get();
}

// --------------------------------------------------- crash-mid-grid --

TEST(ServiceRecovery, CrashMidGridRecoversEveryIdWithIdenticalTraces) {
  const auto specs = grid_specs(6);

  // The uninterrupted reference: what the grid produces when nothing
  // crashes (journal-less service, same determinism contract).
  std::vector<SessionResult> reference;
  {
    TuningService svc;
    reference = svc.run_all(specs);
  }

  const std::string dir = fresh_dir("recovery_crash_grid");
  SessionResult first_before_crash;
  {
    // One worker: sessions run strictly in id order, so waiting for
    // id 1 guarantees ids 2..6 are still queued when the "crash"
    // (shutdown) hits — they get cancelled, and cancellations are
    // never journaled, so the journal keeps them *pending*.
    ServiceOptions options;
    options.workers = 1;
    options.journal_dir = dir;
    TuningService svc(options);
    std::vector<std::uint64_t> ids;
    for (const auto& spec : specs) {
      ids.push_back(svc.submit_tracked(spec));
    }
    ASSERT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
    first_before_crash = wait_tracked(svc, 1);
    ASSERT_EQ(first_before_crash.status, SessionStatus::kCompleted);
  }  // destructor == shutdown: the closest in-process stand-in for a
     // crash (tools/ci.sh does the real kill -9)

  // Reboot on the same journal.
  ServiceOptions options;
  options.journal_dir = dir;
  TuningService svc(options);

  const auto durability = svc.durability_stats();
  EXPECT_TRUE(durability.enabled);
  // At least id 1 completed before the crash; the shutdown window may
  // let the in-flight id 2 squeak through too, so bound, don't pin.
  EXPECT_GE(durability.restored_completed, 1u);
  EXPECT_GE(durability.recovered_pending, 1u);
  EXPECT_EQ(durability.restored_completed + durability.recovered_pending, 6u);

  // Every id survived, and the completed one is already resolved.
  const auto sessions = svc.tracked_sessions();
  ASSERT_EQ(sessions.size(), 6u);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(sessions[i].first, i + 1);
  }
  EXPECT_TRUE(sessions[0].second);  // id 1: restored, instantly "done"

  // The restored result is the journaled one, bit-for-bit.
  const auto restored_first = wait_tracked(svc, 1);
  expect_same_run(restored_first, first_before_crash);
  EXPECT_EQ(restored_first.wall_ms, first_before_crash.wall_ms);
  EXPECT_EQ(restored_first.spec.tuner, specs[0].tuner);

  // The re-run grid converges to exactly the uninterrupted grid.
  for (std::uint64_t id = 1; id <= 6; ++id) {
    const auto result = wait_tracked(svc, id);
    expect_same_run(result, reference[id - 1]);
  }
}

TEST(ServiceRecovery, ReplayIsIdempotentAcrossReboots) {
  const std::string dir = fresh_dir("recovery_idempotent");
  const auto specs = grid_specs(3);
  {
    ServiceOptions options;
    options.journal_dir = dir;
    TuningService svc(options);
    for (const auto& spec : specs) (void)svc.submit_tracked(spec);
    for (std::uint64_t id = 1; id <= 3; ++id) (void)wait_tracked(svc, id);
  }
  // Second boot: everything completed, nothing to re-run.
  std::vector<SessionResult> second;
  {
    ServiceOptions options;
    options.journal_dir = dir;
    TuningService svc(options);
    EXPECT_EQ(svc.durability_stats().recovered_pending, 0u);
    EXPECT_EQ(svc.durability_stats().restored_completed, 3u);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      second.push_back(wait_tracked(svc, id));
    }
  }
  // Third boot: identical to the second — replaying a replayed journal
  // is a fixpoint.
  ServiceOptions options;
  options.journal_dir = dir;
  TuningService svc(options);
  EXPECT_EQ(svc.durability_stats().recovered_pending, 0u);
  EXPECT_EQ(svc.durability_stats().restored_completed, 3u);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto result = wait_tracked(svc, id);
    expect_same_run(result, second[id - 1]);
    EXPECT_EQ(result.wall_ms, second[id - 1].wall_ms);
  }
}

TEST(ServiceRecovery, IdCounterResumesPastTheJournalHighWaterMark) {
  const std::string dir = fresh_dir("recovery_next_id");
  {
    ServiceOptions options;
    options.journal_dir = dir;
    TuningService svc(options);
    EXPECT_EQ(svc.submit_tracked(grid_specs(1)[0]), 1u);
    EXPECT_EQ(svc.submit_tracked(grid_specs(1)[0]), 2u);
    (void)wait_tracked(svc, 2);
  }
  ServiceOptions options;
  options.journal_dir = dir;
  TuningService svc(options);
  // Never reuse an id a client may still hold.
  EXPECT_EQ(svc.submit_tracked(grid_specs(1)[0]), 3u);
  (void)wait_tracked(svc, 3);
}

// ------------------------------------------------ checkpoint policy --

TEST(ServiceRecovery, CheckpointEvictsOldestCompletedAndBoundsTheFile) {
  const std::string dir = fresh_dir("recovery_checkpoint");
  ServiceOptions options;
  options.journal_dir = dir;
  options.journal_retain_completed = 2;
  options.journal_checkpoint_bytes = 1;  // checkpoint after every result
  std::uint64_t steady_state_bytes = 0;
  {
    TuningService svc(options);
    const auto specs = grid_specs(5);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const auto id = svc.submit_tracked(specs[s]);
      (void)wait_tracked(svc, id);
    }
    // Live eviction: only the newest `retain_completed` ids remain;
    // the evicted ones now 404 exactly like after a restart.
    const auto sessions = svc.tracked_sessions();
    ASSERT_EQ(sessions.size(), 2u);
    EXPECT_EQ(sessions[0].first, 4u);
    EXPECT_EQ(sessions[1].first, 5u);
    EXPECT_FALSE(svc.tracked(1).has_value());
    const auto durability = svc.durability_stats();
    EXPECT_EQ(durability.evicted_completed, 3u);
    EXPECT_GE(durability.checkpoints, 3u);
    steady_state_bytes = durability.file_bytes;
    EXPECT_GT(steady_state_bytes, 0u);
  }
  // Restart: the checkpointed journal replays to the same registry the
  // live service ended with (checkpoint-then-truncate equivalence),
  // and the file holds exactly the retained sessions — it did not grow
  // with the 3 evicted histories.
  TuningService svc(options);
  const auto durability = svc.durability_stats();
  EXPECT_EQ(durability.restored_completed, 2u);
  EXPECT_EQ(durability.recovered_pending, 0u);
  EXPECT_EQ(durability.file_bytes, steady_state_bytes);
  EXPECT_TRUE(svc.tracked(4).has_value());
  EXPECT_TRUE(svc.tracked(5).has_value());
  EXPECT_FALSE(svc.tracked(3).has_value());
}

TEST(ServiceRecovery, ConcurrentSubmitsRacingCheckpointsReplayExactlyOnce) {
  // Regression: record_submit once wrote its journal record *outside*
  // the lock a checkpoint held, so a submit could land in the
  // checkpoint's snapshot AND be appended to the rewritten file — two
  // submit records for one id, which replay rejects, bricking the
  // server on its own journal. Hammer submits against results that
  // each trip a checkpoint; the reboot below throws if the race is
  // ever reintroduced. (tools/ci.sh also runs this under TSan.)
  const std::string dir = fresh_dir("recovery_concurrent");
  SessionLogOptions options;
  options.dir = dir;
  options.retain_completed = 1024;  // never evict: every id must replay
  options.checkpoint_bytes = 1;     // every result trips a checkpoint
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 16;
  {
    SessionLog log(options);
    std::atomic<std::uint64_t> next_id{1};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = next_id.fetch_add(1);
          const SessionSpec spec = grid_specs(1)[0];
          log.record_submit(id, spec);
          SessionResult result;
          result.spec = spec;
          result.status = SessionStatus::kCompleted;
          result.run.trace = {{id, 1.0}};
          (void)log.record_result(id, result);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  SessionLog log(options);  // throws "duplicate submit record" on the race
  EXPECT_TRUE(log.pending().empty());
  ASSERT_EQ(log.completed().size(), kThreads * kPerThread);
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    EXPECT_EQ(log.completed()[i].id, i + 1);  // each id exactly once
  }
  EXPECT_EQ(log.next_id(), kThreads * kPerThread + 1);
}

// A terminal result with an `entries`-long trace, unique per id, with
// objectives whose mantissas use every bit (so "bit-equal" means it).
SessionResult traced_result(std::uint64_t id, std::size_t entries) {
  SessionResult result;
  result.spec = grid_specs(1)[0];
  result.status = SessionStatus::kCompleted;
  result.run.trace.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    result.run.trace.push_back(
        {id * 1000 + i, 1.0 / static_cast<double>(id * 7 + i + 3)});
  }
  return result;
}

/// Framed journal bytes of one submit + result pair.
std::uint64_t pair_bytes(std::uint64_t id, const SessionResult& result) {
  return io::frame_journal_record(
             SessionLog::kSubmitRecord,
             SessionLog::encode_submit(id, result.spec))
             .size() +
         io::frame_journal_record(SessionLog::kResultRecord,
                                  SessionLog::encode_result(id, result))
             .size();
}

TEST(ServiceRecovery, CheckpointsAmortiseOverBytesAppended) {
  // Regression: checkpoints once fired whenever the *file* exceeded
  // checkpoint_bytes, so once the retained state alone was past it,
  // every result rewrote all of it (~178 checkpoints for this round,
  // journal traffic quadratic in the retained sessions). Now a
  // checkpoint needs checkpoint_bytes appended since the last one.
  const std::string dir = fresh_dir("recovery_amortised");
  SessionLogOptions options;
  options.dir = dir;  // default retain_completed and checkpoint_bytes
  constexpr std::uint64_t kSessions = 256;
  constexpr std::size_t kEntries = 200;
  std::uint64_t appended_bytes = 0;
  {
    SessionLog log(options);
    for (std::uint64_t id = 1; id <= kSessions; ++id) {
      const SessionResult result = traced_result(id, kEntries);
      log.record_submit(id, result.spec);
      EXPECT_TRUE(log.record_result(id, result).empty());  // retain 1024
      appended_bytes += pair_bytes(id, result);
    }
    const auto stats = log.stats();
    ASSERT_GT(appended_bytes, 2 * options.checkpoint_bytes);
    EXPECT_GE(stats.checkpoints, 1u);
    EXPECT_LE(stats.checkpoints,
              appended_bytes / options.checkpoint_bytes + 1);
  }
  SessionLog log(options);
  EXPECT_TRUE(log.pending().empty());
  ASSERT_EQ(log.completed().size(), kSessions);
  for (std::uint64_t i = 0; i < kSessions; ++i) {
    const auto& done = log.completed()[i];
    ASSERT_EQ(done.id, i + 1);
    const auto want = traced_result(done.id, kEntries);
    ASSERT_EQ(done.result.run.trace.size(), kEntries);
    for (std::size_t e = 0; e < kEntries; ++e) {
      const auto& got = done.result.run.trace[e];
      EXPECT_EQ(got.index, want.run.trace[e].index);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
                std::bit_cast<std::uint64_t>(want.run.trace[e].objective))
          << "id " << done.id << " entry " << e;
    }
  }
}

TEST(ServiceRecovery, RetentionSlackIsBoundedAndEvictsOldestFirst) {
  // Between checkpoints, completed sessions past retain_completed stay
  // fetchable; the slack is bounded by one threshold's worth of results
  // and every checkpoint (automatic or explicit) evicts the oldest ids
  // down to exactly retain_completed.
  const std::string dir = fresh_dir("recovery_slack");
  constexpr std::size_t kRetain = 4;
  constexpr std::uint64_t kPerThreshold = 3;
  constexpr std::size_t kEntries = 16;
  SessionLogOptions options;
  options.dir = dir;
  options.retain_completed = kRetain;
  // Every pair frames to the same size: fixed-width ids, one spec.
  options.checkpoint_bytes =
      kPerThreshold * pair_bytes(1, traced_result(1, kEntries));

  // Completed ids the owner still holds, ascending: what a
  // TuningService's registry keeps after dropping the evicted ids.
  std::vector<std::uint64_t> live;
  const auto drop_evicted = [&live](const std::vector<std::uint64_t>& ev) {
    ASSERT_LE(ev.size(), live.size());
    EXPECT_TRUE(std::equal(ev.begin(), ev.end(), live.begin()))
        << "evictions must be the oldest live ids, in id order";
    live.erase(live.begin(),
               live.begin() + static_cast<std::ptrdiff_t>(ev.size()));
  };
  const auto ids_of = [](const SessionLog& log) {
    std::vector<std::uint64_t> ids;
    for (const auto& done : log.completed()) ids.push_back(done.id);
    return ids;
  };

  std::size_t evictions = 0;
  std::size_t max_live = 0;
  {
    SessionLog log(options);
    for (std::uint64_t id = 1; id <= 18; ++id) {
      const SessionResult result = traced_result(id, kEntries);
      log.record_submit(id, result.spec);
      live.push_back(id);
      const auto evicted = log.record_result(id, result);
      drop_evicted(evicted);
      if (!evicted.empty()) {
        EXPECT_EQ(live.size(), kRetain);
      }
      EXPECT_LE(live.size(), kRetain + kPerThreshold + 1) << "after " << id;
      evictions += evicted.size();
      max_live = std::max(max_live, live.size());
    }
    EXPECT_GT(evictions, 0u);     // automatic checkpoints evicted
    EXPECT_GT(max_live, kRetain);  // and the slack was really used
    ASSERT_GT(live.size(), kRetain);  // ends between checkpoints
  }
  // Reboot mid-slack: the journal holds exactly the live registry.
  {
    SessionLog log(options);
    EXPECT_TRUE(log.pending().empty());
    EXPECT_EQ(ids_of(log), live);
    drop_evicted(log.checkpoint());
    EXPECT_EQ(live.size(), kRetain);
  }
  SessionLog log(options);
  EXPECT_EQ(ids_of(log), live);
  EXPECT_EQ(log.next_id(), 19u);
}

// ------------------------------------------- exhaustive fault sweep --

/// What a strict record-prefix of [submit 1][submit 2][result 1]
/// must replay to, per surviving record count.
struct ExpectedState {
  std::vector<std::uint64_t> pending;
  std::vector<std::uint64_t> completed;
  std::uint64_t next_id;
};

const std::vector<ExpectedState>& expected_by_prefix() {
  static const std::vector<ExpectedState> table = {
      {{}, {}, 1},       // nothing survived
      {{1}, {}, 2},      // submit 1
      {{1, 2}, {}, 3},   // submit 1, submit 2
      {{2}, {1}, 3},     // submit 1, submit 2, result 1
  };
  return table;
}

void expect_state(const SessionLog& log, const ExpectedState& want,
                  const std::string& context) {
  std::vector<std::uint64_t> pending;
  for (const auto& p : log.pending()) pending.push_back(p.id);
  std::vector<std::uint64_t> completed;
  for (const auto& c : log.completed()) completed.push_back(c.id);
  EXPECT_EQ(pending, want.pending) << context;
  EXPECT_EQ(completed, want.completed) << context;
  EXPECT_EQ(log.next_id(), want.next_id) << context;
}

TEST(ServiceRecovery, EveryTruncationAndByteFlipRecoversPrefixOrRejects) {
  // A handcrafted journal — no service runs, so the sweep over ~2000
  // mutations stays fast — with the shapes that matter: two specs, one
  // terminal result with a non-trivial trace.
  SessionSpec spec_a = grid_specs(2)[0];
  SessionSpec spec_b = grid_specs(2)[1];
  SessionResult result_a;
  result_a.spec = spec_a;
  result_a.status = SessionStatus::kCompleted;
  result_a.wall_ms = 12.5;
  result_a.run.trace = {{40, 3.25}, {7, 1.5}, {901, 2.0}};

  const std::vector<std::string> frames = {
      io::frame_journal_record(SessionLog::kSubmitRecord,
                               SessionLog::encode_submit(1, spec_a)),
      io::frame_journal_record(SessionLog::kSubmitRecord,
                               SessionLog::encode_submit(2, spec_b)),
      io::frame_journal_record(SessionLog::kResultRecord,
                               SessionLog::encode_result(1, result_a)),
  };
  std::string bytes = io::journal_header_bytes();
  std::vector<std::size_t> record_end;  // byte offset where record i ends
  for (const auto& frame : frames) {
    bytes += frame;
    record_end.push_back(bytes.size());
  }

  const std::string dir = fresh_dir("recovery_fault_sweep");
  const std::string path = (fs::path(dir) / "sessions.batjnl").string();
  SessionLogOptions log_options;
  log_options.dir = dir;

  const auto surviving_records = [&](std::size_t damage_at) {
    std::size_t k = 0;
    while (k < record_end.size() && record_end[k] <= damage_at) ++k;
    return k;
  };

  // Sanity: the undamaged journal replays to the full state.
  testutil::write_file(path, bytes);
  expect_state(SessionLog(log_options), expected_by_prefix()[3], "intact");

  testutil::for_each_truncation(
      bytes, [&](const std::string& torn, std::size_t len) {
        testutil::write_file(path, torn);
        // A genuine truncation is always a torn tail, never a foreign
        // file — the log must open and expose the strict prefix.
        SessionLog log(log_options);
        expect_state(log, expected_by_prefix()[surviving_records(len)],
                     "truncated at byte " + std::to_string(len));
      });

  testutil::for_each_byte_flip(
      bytes, [&](const std::string& bad, std::size_t pos) {
        testutil::write_file(path, bad);
        if (pos < io::kJournalHeaderBytes) {
          // Corrupted header: this is no longer recognizably our
          // journal — refusing loudly beats replaying garbage.
          EXPECT_THROW(SessionLog{log_options}, std::invalid_argument)
              << "header flip at byte " << pos;
          return;
        }
        SessionLog log(log_options);
        expect_state(log, expected_by_prefix()[surviving_records(pos)],
                     "flip at byte " + std::to_string(pos));
      });
}

TEST(ServiceRecovery, HugeDeclaredTraceLengthRejectsWithoutAllocating) {
  // A CRC-valid record whose declared trace length dwarfs the payload
  // (an incompatible build, or corruption a CRC collision let through)
  // must reject as invalid_argument — not attempt a ~64 GB reserve and
  // die of bad_alloc mid-recovery.
  SessionResult result;
  result.spec = grid_specs(1)[0];
  result.status = SessionStatus::kCompleted;
  result.run.trace = {{1, 2.0}};
  ASSERT_TRUE(result.error.empty());
  std::string payload = SessionLog::encode_result(7, result);
  // The trace-count u32 sits after id(8) + status(1) + cancelled(1) +
  // wall_ms(8) + empty error string (4).
  const std::size_t count_offset = 22;
  for (std::size_t i = 0; i < 4; ++i) {
    payload[count_offset + i] = static_cast<char>(0xFF);
  }
  EXPECT_THROW((void)SessionLog::decode_result(payload),
               std::invalid_argument);
}

// ------------------------------------------ pre-removal jit journals --

/// A result payload in the layout written while the jit backend
/// existed, framed field by field: the current layout followed by the
/// 40-byte compile-cost block (compile_ms f64, then compiles, artifact
/// cache hits, artifact cache misses and fallback evals as u64).
std::string legacy_result_payload(std::uint64_t id,
                                  const SessionResult& result) {
  std::string out;
  const auto put = [&out](const auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(id);
  put(static_cast<std::uint8_t>(result.status == SessionStatus::kFailed ? 2
                                                                        : 0));
  put(static_cast<std::uint8_t>(result.run.cancelled ? 1 : 0));
  put(std::bit_cast<std::uint64_t>(result.wall_ms));
  put(static_cast<std::uint32_t>(result.error.size()));
  out += result.error;
  put(static_cast<std::uint32_t>(result.run.trace.size()));
  for (const auto& entry : result.run.trace) {
    put(entry.index);
    put(std::bit_cast<std::uint64_t>(entry.objective));
  }
  put(std::bit_cast<std::uint64_t>(512.25));  // compile_ms
  for (const std::uint64_t counter : {3u, 5u, 2u, 1u}) put(counter);
  return out;
}

TEST(ServiceRecovery, LegacyJitCostBlockIsDiscardedOtherTailsReject) {
  const SessionResult result = traced_result(4, 9);
  const std::string current = SessionLog::encode_result(4, result);
  const std::string legacy = legacy_result_payload(4, result);
  ASSERT_EQ(legacy.size(), current.size() + 40);

  const auto [id, decoded] = SessionLog::decode_result(legacy);
  EXPECT_EQ(id, 4u);
  EXPECT_EQ(decoded.status, result.status);
  EXPECT_EQ(decoded.run.cancelled, result.run.cancelled);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.wall_ms),
            std::bit_cast<std::uint64_t>(result.wall_ms));
  expect_same_run(decoded, SessionLog::decode_result(current).second);
  ASSERT_EQ(decoded.run.trace.size(), result.run.trace.size());
  for (std::size_t i = 0; i < result.run.trace.size(); ++i) {
    EXPECT_EQ(decoded.run.trace[i].index, result.run.trace[i].index);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.run.trace[i].objective),
              std::bit_cast<std::uint64_t>(result.run.trace[i].objective));
  }

  // Only an empty remainder or exactly the legacy block is accepted.
  for (const std::size_t extra : {1u, 35u, 36u, 37u, 39u, 41u, 80u}) {
    EXPECT_THROW((void)SessionLog::decode_result(current +
                                                 std::string(extra, '\x01')),
                 std::invalid_argument)
        << extra << " trailing bytes";
  }
  EXPECT_THROW((void)SessionLog::decode_result(legacy.substr(
                   0, legacy.size() - 1)),
               std::invalid_argument);
}

TEST(ServiceRecovery, LegacyJournalWithPendingJitSessionBootsAndFailsIt) {
  // A journal as the last build with the jit backend left it: session
  // 1 (live) completed, its result carrying the cost block; session 2
  // (jit) acknowledged but never finished.
  SessionSpec live = grid_specs(1)[0];
  SessionSpec jit = live;
  jit.backend = "jit";
  SessionResult done;
  done.spec = live;
  done.status = SessionStatus::kCompleted;
  done.wall_ms = 3.5;
  done.run.trace = {{40, 3.25}, {7, 1.5}, {901, 2.0}};
  done.run.best = core::trace_best(done.run.trace);
  const std::string dir = fresh_dir("recovery_legacy_jit");
  testutil::write_file(
      (fs::path(dir) / "sessions.batjnl").string(),
      io::journal_header_bytes() +
          io::frame_journal_record(SessionLog::kSubmitRecord,
                                   SessionLog::encode_submit(1, live)) +
          io::frame_journal_record(SessionLog::kSubmitRecord,
                                   SessionLog::encode_submit(2, jit)) +
          io::frame_journal_record(SessionLog::kResultRecord,
                                   legacy_result_payload(1, done)));

  ServiceOptions options;
  options.workers = 1;
  options.journal_dir = dir;
  {
    TuningService svc(options);
    EXPECT_EQ(svc.durability_stats().restored_completed, 1u);
    EXPECT_EQ(svc.durability_stats().recovered_pending, 1u);
    const SessionResult restored = wait_tracked(svc, 1);
    expect_same_run(restored, done);

    const SessionResult rerun = wait_tracked(svc, 2);
    EXPECT_EQ(rerun.status, SessionStatus::kFailed);
    EXPECT_NE(rerun.error.find("removed"), std::string::npos) << rerun.error;
    EXPECT_TRUE(rerun.run.trace.empty());
  }
  // The failure is terminal and journaled in the current layout: the
  // next boot restores it rather than re-running it.
  TuningService svc(options);
  EXPECT_EQ(svc.durability_stats().restored_completed, 2u);
  EXPECT_EQ(svc.durability_stats().recovered_pending, 0u);
  EXPECT_EQ(wait_tracked(svc, 2).status, SessionStatus::kFailed);
}

TEST(ServiceRecovery, TornTailAfterRealSessionsIsDroppedCleanly) {
  const std::string dir = fresh_dir("recovery_torn_tail");
  ServiceOptions options;
  options.journal_dir = dir;
  std::uint64_t intact_bytes = 0;
  {
    TuningService svc(options);
    (void)wait_tracked(svc, svc.submit_tracked(grid_specs(1)[0]));
    intact_bytes = svc.durability_stats().file_bytes;
  }
  // Append half of a valid submit record: the crash window where
  // write() ran but the record was never committed whole.
  const std::string path = (fs::path(dir) / "sessions.batjnl").string();
  const std::string frame = io::frame_journal_record(
      SessionLog::kSubmitRecord,
      SessionLog::encode_submit(99, grid_specs(1)[0]));
  testutil::write_file(
      path, testutil::read_file(path) + frame.substr(0, frame.size() - 3));

  TuningService svc(options);
  const auto durability = svc.durability_stats();
  EXPECT_EQ(durability.replay_dropped_bytes, frame.size() - 3);
  EXPECT_EQ(durability.restored_completed, 1u);
  EXPECT_EQ(durability.recovered_pending, 0u);
  EXPECT_FALSE(svc.tracked(99).has_value());
  // The torn bytes were truncated away on reopen, not left to lurk.
  EXPECT_EQ(svc.durability_stats().file_bytes, intact_bytes);
  // And id 99 was never acknowledged, so the counter ignores it too.
  EXPECT_EQ(svc.submit_tracked(grid_specs(1)[0]), 2u);
  (void)wait_tracked(svc, 2);
}

TEST(ServiceRecovery, DurabilityStatsReflectJournalPresence) {
  {
    TuningService svc;  // no journal_dir
    EXPECT_FALSE(svc.durability_stats().enabled);
  }
  ServiceOptions options;
  options.journal_dir = fresh_dir("recovery_stats");
  TuningService svc(options);
  const auto durability = svc.durability_stats();
  EXPECT_TRUE(durability.enabled);
  EXPECT_EQ(durability.restored_completed, 0u);
  EXPECT_GT(durability.file_bytes, 0u);  // the header is already down
}

}  // namespace
}  // namespace bat::service
