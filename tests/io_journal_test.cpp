// The BATJNL01 write-ahead journal's durability contract, proven
// byte-by-byte:
//  * append/commit/replay round-trips records exactly, and append()
//    alone is *not* durable — commit() is the boundary;
//  * a reopened journal continues where the last valid record ended,
//    truncating any torn tail so a stale suffix can never resurrect;
//  * exhaustive fault injection (tests/fault_util.hpp): EVERY
//    truncation point and EVERY single-byte flip of a multi-record
//    journal replays as a strict record prefix or rejects cleanly —
//    never garbage, never an exception the caller didn't sign up for;
//  * checkpoint() atomically replaces the file with the compacted
//    record set (replay equivalence + smaller file), and appends after
//    a checkpoint land on the new file;
//  * stats().bytes_written counts every byte written — header,
//    flushed appends and checkpoint rewrites;
//  * concurrent appenders group-commit without losing or reordering
//    any thread's records (tools/ci.sh runs this binary under TSan).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/journal.hpp"
#include "fault_util.hpp"

namespace bat::io {
namespace {

using testutil::for_each_byte_flip;
using testutil::for_each_truncation;
using testutil::read_file;
using testutil::write_file;

std::string temp_journal_path(const std::string& name) {
  // TempDir() persists across test-binary runs; start from a clean slate
  // or an earlier run's journal would be replayed into this one.
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return (dir / "test.batjnl").string();
}

/// A small deterministic record set with awkward payloads: empty,
/// binary with embedded NULs and 0x5a-sensitive bytes, and one large
/// enough to span several cache lines.
std::vector<JournalRecord> sample_records() {
  std::vector<JournalRecord> records;
  records.push_back({1, ""});
  records.push_back({2, std::string("\x00\x5a\xff\x00spec", 8)});
  records.push_back({1, "second submission"});
  records.push_back({3, std::string(257, '\x42')});
  return records;
}

std::string journal_bytes_for(const std::vector<JournalRecord>& records) {
  std::string bytes = journal_header_bytes();
  for (const auto& record : records) {
    bytes += frame_journal_record(record.type, record.payload);
  }
  return bytes;
}

TEST(Journal, AppendCommitReplayRoundTrip) {
  const std::string path = temp_journal_path("roundtrip");
  const auto records = sample_records();
  {
    Journal journal(path);
    EXPECT_TRUE(journal.replayed().records.empty());
    for (const auto& record : records) {
      journal.append(record.type, record.payload);
    }
    journal.commit();
    EXPECT_EQ(journal.stats().records_appended, records.size());
    EXPECT_GE(journal.stats().commits, 1u);
  }
  const auto replay = Journal::replay(path);
  EXPECT_EQ(replay.records, records);
  EXPECT_EQ(replay.dropped_bytes, 0u);
  EXPECT_EQ(replay.valid_bytes, std::filesystem::file_size(path));
}

TEST(Journal, AppendAloneIsNotDurable) {
  const std::string path = temp_journal_path("uncommitted");
  Journal journal(path);
  journal.append(1, "committed");
  journal.commit();
  journal.append(1, "buffered only");
  // While the instance is alive the uncommitted record exists only in
  // its buffer: the on-disk file ends at the commit boundary. (The
  // destructor flushes best-effort, so this must be observed *before*
  // destruction — exactly what a crash would see.)
  const auto replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "committed");
}

TEST(Journal, ReopenContinuesAppending) {
  const std::string path = temp_journal_path("reopen");
  {
    Journal journal(path);
    journal.append(1, "first");
    journal.commit();
  }
  {
    Journal journal(path);
    ASSERT_EQ(journal.replayed().records.size(), 1u);
    EXPECT_EQ(journal.replayed().records[0].payload, "first");
    journal.append(2, "second");
    journal.commit();
  }
  const auto replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].payload, "first");
  EXPECT_EQ(replay.records[1].payload, "second");
}

TEST(Journal, TornTailIsDroppedAndTruncatedOnReopen) {
  const std::string path = temp_journal_path("torn");
  {
    Journal journal(path);
    journal.append(1, "survives");
    journal.append(2, "also survives");
    journal.commit();
  }
  // Simulate a crash mid-write: half of a third record's frame.
  const std::string good = read_file(path);
  const std::string frame = frame_journal_record(3, "torn off");
  write_file(path, good + frame.substr(0, frame.size() / 2));

  const auto replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.dropped_bytes, frame.size() / 2);

  {
    Journal journal(path);  // reopening truncates the torn tail...
    EXPECT_EQ(journal.replayed().records.size(), 2u);
    journal.append(3, "replacement");
    journal.commit();
  }
  // ...so the file is exactly [2 old records][new record], no gap.
  const auto after = Journal::replay(path);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.records[2].payload, "replacement");
  EXPECT_EQ(after.dropped_bytes, 0u);
  EXPECT_EQ(read_file(path),
            journal_bytes_for(after.records));
}

TEST(Journal, EveryTruncationRecoversAStrictPrefix) {
  const auto records = sample_records();
  const std::string bytes = journal_bytes_for(records);
  const std::string path = temp_journal_path("truncate-sweep");

  for_each_truncation(bytes, [&](const std::string& torn, std::size_t len) {
    write_file(path, torn);
    JournalReplay replay;
    try {
      replay = Journal::replay(path);
    } catch (const std::invalid_argument&) {
      // Only legal for a torn *header* that stopped being a prefix of
      // the constant template — impossible here, where the bytes are a
      // genuine truncation of a valid journal.
      FAIL() << "truncation at byte " << len
             << " rejected a genuinely torn journal";
    }
    // Strict prefix: every surviving record identical to the original
    // stream, and (because len < file size) never the full set with a
    // clean tail.
    ASSERT_LE(replay.records.size(), records.size()) << "at byte " << len;
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(replay.records[i], records[i]) << "at byte " << len;
    }
    EXPECT_EQ(replay.valid_bytes + replay.dropped_bytes, len);
    if (replay.records.size() == records.size()) {
      ADD_FAILURE() << "truncation at byte " << len
                    << " still replayed every record";
    }
  });
}

TEST(Journal, EveryByteFlipRecoversAPrefixOrRejects) {
  const auto records = sample_records();
  const std::string bytes = journal_bytes_for(records);
  const std::string path = temp_journal_path("flip-sweep");

  std::size_t rejected = 0;
  std::size_t shortened = 0;
  for_each_byte_flip(bytes, [&](const std::string& bad, std::size_t pos) {
    write_file(path, bad);
    JournalReplay replay;
    try {
      replay = Journal::replay(path);
    } catch (const std::invalid_argument&) {
      // Clean rejection — the contract for a corrupted header.
      EXPECT_LT(pos, kJournalHeaderBytes)
          << "record-area flip at byte " << pos
          << " must degrade to a prefix, not reject the whole file";
      ++rejected;
      return;
    }
    EXPECT_GE(pos, kJournalHeaderBytes)
        << "header flip at byte " << pos << " was not rejected";
    // CRC framing guarantees the flipped record (and everything after
    // it) drops; everything before it must survive untouched.
    ASSERT_LT(replay.records.size(), records.size()) << "flip at " << pos;
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(replay.records[i], records[i]) << "flip at " << pos;
    }
    ++shortened;
  });
  // Every fault fell into exactly one bucket, and both occurred.
  EXPECT_EQ(rejected, kJournalHeaderBytes);
  EXPECT_EQ(shortened, bytes.size() - kJournalHeaderBytes);
}

TEST(Journal, TrailingGarbageAfterValidRecordsIsDropped) {
  const auto records = sample_records();
  const std::string path = temp_journal_path("garbage");
  write_file(path, journal_bytes_for(records) + "not a record");
  const auto replay = Journal::replay(path);
  EXPECT_EQ(replay.records, records);
  EXPECT_EQ(replay.dropped_bytes, 12u);
}

TEST(Journal, ForeignFileIsRejectedNotReplayed) {
  const std::string path = temp_journal_path("foreign");
  write_file(path, "PK\x03\x04 this is definitely not a journal file");
  EXPECT_THROW(Journal::replay(path), std::invalid_argument);
  EXPECT_THROW(Journal{path}, std::invalid_argument);
}

TEST(Journal, MissingFileReplaysEmpty) {
  const auto replay = Journal::replay(temp_journal_path("missing") + ".nope");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_EQ(replay.dropped_bytes, 0u);
}

TEST(Journal, TornHeaderRecoversAsEmptyJournal) {
  // A crash during file creation can tear the constant 16-byte header
  // itself; every prefix of it must reopen as an empty journal (and a
  // reopen lays the header down again).
  const std::string header = journal_header_bytes();
  const std::string path = temp_journal_path("torn-header");
  for (std::size_t len = 0; len < header.size(); ++len) {
    write_file(path, header.substr(0, len));
    const auto replay = Journal::replay(path);
    EXPECT_TRUE(replay.records.empty()) << "header torn at " << len;
    EXPECT_EQ(replay.dropped_bytes, len);
    Journal journal(path);
    journal.append(1, "after torn header");
    journal.commit();
    const auto after = Journal::replay(path);
    ASSERT_EQ(after.records.size(), 1u) << "header torn at " << len;
    std::filesystem::remove(path);
  }
}

TEST(Journal, CheckpointReplacesContentsAtomically) {
  const std::string path = temp_journal_path("checkpoint");
  Journal journal(path);
  for (int i = 0; i < 64; ++i) {
    journal.append(1, "bulk record " + std::to_string(i));
  }
  journal.commit();
  const auto before_bytes = std::filesystem::file_size(path);

  const std::vector<JournalRecord> compacted = {
      {1, "retained"}, {2, "result"}};
  journal.checkpoint(compacted);

  // Replay equivalence: the file now *is* the compacted set, smaller
  // than the history it replaced, with no .tmp debris.
  const auto replay = Journal::replay(path);
  EXPECT_EQ(replay.records, compacted);
  EXPECT_LT(std::filesystem::file_size(path), before_bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(journal.stats().checkpoints, 1u);

  // Appends continue on the new file.
  journal.append(3, "post-checkpoint");
  journal.commit();
  const auto after = Journal::replay(path);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.records[2].payload, "post-checkpoint");
}

TEST(Journal, BytesWrittenCountsHeaderAppendsAndCheckpointRewrites) {
  const std::string path = temp_journal_path("bytes_written");
  const std::vector<JournalRecord> records = sample_records();
  {
    Journal journal(path);
    EXPECT_EQ(journal.stats().bytes_written, kJournalHeaderBytes);
    for (const auto& record : records) {
      journal.append(record.type, record.payload);
    }
    EXPECT_EQ(journal.stats().bytes_written, kJournalHeaderBytes);
    journal.commit();
    const std::uint64_t full = journal_bytes_for(records).size();
    EXPECT_EQ(journal.stats().bytes_written, full);
    // A checkpoint writes its whole compacted file, on top of the
    // bytes already written: write amplification, not file size.
    const std::vector<JournalRecord> compacted = {records[1]};
    journal.checkpoint(compacted);
    EXPECT_EQ(journal.stats().bytes_written,
              full + journal_bytes_for(compacted).size());
    EXPECT_EQ(journal.stats().file_bytes, journal_bytes_for(compacted).size());
  }
  // Reopening writes nothing: the counter is per instance.
  Journal reopened(path);
  EXPECT_EQ(reopened.stats().bytes_written, 0u);
}

TEST(Journal, ConcurrentAppendersGroupCommitWithoutLoss) {
  const std::string path = temp_journal_path("concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  {
    Journal journal(path);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&journal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          journal.append(static_cast<std::uint8_t>(t + 1),
                         std::to_string(t) + ":" + std::to_string(i));
          journal.commit();  // returns only once this record is durable
        }
      });
    }
    for (auto& thread : threads) thread.join();
    // Group commit's whole point: far fewer fsyncs than commit calls.
    EXPECT_EQ(journal.stats().records_appended,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_LE(journal.stats().commits,
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  const auto replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // All records present, and each thread's records in its program
  // order (appends interleave across threads but never within one).
  std::vector<int> next(kThreads, 0);
  for (const auto& record : replay.records) {
    const int t = record.type - 1;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(record.payload,
              std::to_string(t) + ":" + std::to_string(next[t]));
    ++next[t];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

TEST(Journal, OversizedRecordIsRejectedAtFrameTime) {
  EXPECT_THROW(
      frame_journal_record(1, std::string(kMaxJournalRecordBytes + 1, 'x')),
      std::invalid_argument);
}

}  // namespace
}  // namespace bat::io
