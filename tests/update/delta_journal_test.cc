// Write-ahead journal framing: append/replay round-trips, group-commit
// accounting, fault injection, and the torn-write sweep — truncating the
// file at EVERY byte boundary of the last record must always replay the
// longest valid prefix, never garbage and never an error.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "update/delta_journal.h"

namespace simcard {
namespace update {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/simcard_journal_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

std::vector<float> Point(size_t dim, float base) {
  std::vector<float> p(dim);
  for (size_t i = 0; i < dim; ++i) p[i] = base + 0.25f * static_cast<float>(i);
  return p;
}

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

void TruncateTo(const std::string& path, uint64_t bytes) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(bytes)), 0);
}

TEST(DeltaJournalTest, AppendReplayRoundTrip) {
  TempDir tmp;
  const std::string path = tmp.path("journal-1.wal");
  const size_t dim = 4;
  {
    auto journal = DeltaJournal::Create(path, dim, JournalOptions{}).value();
    ASSERT_TRUE(journal->AppendEpochMark(1, 100).ok());
    ASSERT_TRUE(journal->AppendInsert(Point(dim, 1.0f)).ok());
    ASSERT_TRUE(journal->AppendErase(7).ok());
    ASSERT_TRUE(journal->AppendInsert(Point(dim, -3.0f)).ok());
    ASSERT_TRUE(journal->Sync().ok());
  }
  const auto replay = DeltaJournal::Replay(path).value();
  EXPECT_FALSE(replay.tail_truncated);
  EXPECT_EQ(replay.discarded_bytes, 0u);
  EXPECT_EQ(replay.valid_bytes, FileSize(path));
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.records[0].type, JournalRecordType::kEpochMark);
  EXPECT_EQ(replay.records[0].epoch, 1u);
  EXPECT_EQ(replay.records[0].base_rows, 100u);
  EXPECT_EQ(replay.records[1].type, JournalRecordType::kInsert);
  EXPECT_EQ(replay.records[1].point, Point(dim, 1.0f));
  EXPECT_EQ(replay.records[2].type, JournalRecordType::kErase);
  EXPECT_EQ(replay.records[2].row, 7u);
  EXPECT_EQ(replay.records[3].point, Point(dim, -3.0f));
}

TEST(DeltaJournalTest, RejectsWrongDimInsert) {
  TempDir tmp;
  auto journal =
      DeltaJournal::Create(tmp.path("j.wal"), 4, JournalOptions{}).value();
  ASSERT_TRUE(journal->AppendEpochMark(1, 0).ok());
  EXPECT_FALSE(journal->AppendInsert(Point(3, 0.0f)).ok());
}

TEST(DeltaJournalTest, GroupCommitAccounting) {
  TempDir tmp;
  JournalOptions opts;
  opts.group_commit = 3;
  auto journal = DeltaJournal::Create(tmp.path("j.wal"), 2, opts).value();
  ASSERT_TRUE(journal->AppendEpochMark(1, 0).ok());
  EXPECT_EQ(journal->unsynced_records(), 1u);
  ASSERT_TRUE(journal->AppendErase(0).ok());
  EXPECT_EQ(journal->unsynced_records(), 2u);
  // Third append reaches the group size: the batch fsyncs.
  ASSERT_TRUE(journal->AppendErase(1).ok());
  EXPECT_EQ(journal->unsynced_records(), 0u);
  ASSERT_TRUE(journal->AppendErase(2).ok());
  EXPECT_EQ(journal->unsynced_records(), 1u);
  ASSERT_TRUE(journal->Sync().ok());
  EXPECT_EQ(journal->unsynced_records(), 0u);
}

// The torn-write sweep: build a journal, then for EVERY byte boundary
// inside the final record, truncate a copy there and replay. The replay
// must recover exactly the records before the final one, report the torn
// tail, and OpenForAppend must produce a journal that extends cleanly.
TEST(DeltaJournalTest, TornTailSweepRecoversLongestValidPrefix) {
  TempDir tmp;
  const std::string path = tmp.path("journal-1.wal");
  const size_t dim = 3;
  uint64_t before_last = 0;
  {
    auto journal = DeltaJournal::Create(path, dim, JournalOptions{}).value();
    ASSERT_TRUE(journal->AppendEpochMark(1, 50).ok());
    ASSERT_TRUE(journal->AppendInsert(Point(dim, 2.0f)).ok());
    ASSERT_TRUE(journal->AppendErase(11).ok());
    before_last = journal->offset();
    ASSERT_TRUE(journal->AppendInsert(Point(dim, 9.0f)).ok());
    ASSERT_TRUE(journal->Sync().ok());
  }
  const uint64_t full = FileSize(path);
  ASSERT_GT(full, before_last);

  for (uint64_t cut = before_last; cut < full; ++cut) {
    const std::string torn = tmp.path("torn.wal");
    std::filesystem::copy_file(path, torn,
                               std::filesystem::copy_options::overwrite_existing);
    TruncateTo(torn, cut);
    auto replay_or = DeltaJournal::Replay(torn);
    ASSERT_TRUE(replay_or.ok()) << "cut at " << cut;
    const auto replay = std::move(replay_or).value();
    ASSERT_EQ(replay.records.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(replay.valid_bytes, before_last) << "cut at " << cut;
    EXPECT_EQ(replay.tail_truncated, cut > before_last) << "cut at " << cut;
    EXPECT_EQ(replay.discarded_bytes, cut - before_last) << "cut at " << cut;

    // Re-open truncates the torn tail and appends cleanly after it.
    auto reopened = DeltaJournal::OpenForAppend(torn, dim, replay.valid_bytes,
                                                JournalOptions{});
    ASSERT_TRUE(reopened.ok()) << "cut at " << cut;
    ASSERT_TRUE(reopened.value()->AppendErase(1).ok());
    ASSERT_TRUE(reopened.value()->Sync().ok());
    const auto again = DeltaJournal::Replay(torn).value();
    ASSERT_EQ(again.records.size(), 4u) << "cut at " << cut;
    EXPECT_EQ(again.records[3].type, JournalRecordType::kErase);
    EXPECT_EQ(again.records[3].row, 1u);
    EXPECT_FALSE(again.tail_truncated);
  }
}

// Corruption mid-file (not just truncation): flipping a payload byte of the
// second record invalidates its CRC; replay keeps only the first record.
TEST(DeltaJournalTest, CorruptPayloadStopsReplayAtPrefix) {
  TempDir tmp;
  const std::string path = tmp.path("journal-1.wal");
  uint64_t after_first = 0;
  {
    auto journal = DeltaJournal::Create(path, 2, JournalOptions{}).value();
    ASSERT_TRUE(journal->AppendEpochMark(1, 10).ok());
    after_first = journal->offset();
    ASSERT_TRUE(journal->AppendErase(3).ok());
    ASSERT_TRUE(journal->Sync().ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    // 8 bytes frame header, then the payload — flip its second byte.
    f.seekp(static_cast<std::streamoff>(after_first + 8 + 1));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(after_first + 8 + 1));
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  const auto replay = DeltaJournal::Replay(path).value();
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.valid_bytes, after_first);
  EXPECT_TRUE(replay.tail_truncated);
}

TEST(DeltaJournalTest, ReplayRejectsBadHeader) {
  TempDir tmp;
  const std::string path = tmp.path("bogus.wal");
  { std::ofstream(path) << "definitely not a journal header"; }
  EXPECT_FALSE(DeltaJournal::Replay(path).ok());
  EXPECT_FALSE(DeltaJournal::Replay(tmp.path("missing.wal")).ok());
}

// The header dim is untrusted input. A flip of any of its 64 bits must come
// back as a Status (bits 62 and 63 used to wrap the insert frame-size check
// and throw from resize), and whatever replays reports the dim it read, so
// recovery can compare it with the manifest.
TEST(DeltaJournalTest, HeaderDimBitFlipsNeverThrow) {
  TempDir tmp;
  const std::string path = tmp.path("journal-1.wal");
  const size_t dim = 4;
  {
    auto journal = DeltaJournal::Create(path, dim, JournalOptions{}).value();
    ASSERT_TRUE(journal->AppendEpochMark(1, 10).ok());
    ASSERT_TRUE(journal->AppendInsert(Point(dim, 1.0f)).ok());
    ASSERT_TRUE(journal->AppendInsert(Point(dim, 2.0f)).ok());
    ASSERT_TRUE(journal->AppendErase(3).ok());
    ASSERT_TRUE(journal->Sync().ok());
  }
  EXPECT_EQ(DeltaJournal::Replay(path).value().dim, dim);

  constexpr std::streamoff kDimOffset = 8 + 4;  // magic + version
  const std::string flipped = tmp.path("flipped.wal");
  for (int bit = 0; bit < 64; ++bit) {
    SCOPED_TRACE("bit " + std::to_string(bit));
    std::filesystem::copy_file(
        path, flipped, std::filesystem::copy_options::overwrite_existing);
    {
      std::fstream f(flipped, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(kDimOffset + bit / 8);
      char byte = 0;
      f.read(&byte, 1);
      f.seekp(kDimOffset + bit / 8);
      byte = static_cast<char>(byte ^ (1 << (bit % 8)));
      f.write(&byte, 1);
    }
    const uint64_t flipped_dim = dim ^ (uint64_t{1} << bit);
    Result<DeltaJournal::ReplayResult> replay_or = Status::Internal("not run");
    EXPECT_NO_THROW(replay_or = DeltaJournal::Replay(flipped));
    if (flipped_dim == 0 || bit >= 62) {
      EXPECT_FALSE(replay_or.ok());
    }
    if (replay_or.ok()) {
      EXPECT_EQ(replay_or.value().dim, flipped_dim);
    } else {
      EXPECT_EQ(replay_or.status().code(), StatusCode::kIoError);
    }
  }
}

TEST(DeltaJournalTest, FaultSiteFailsAppendAndSync) {
  TempDir tmp;
  auto journal =
      DeltaJournal::Create(tmp.path("j.wal"), 2, JournalOptions{}).value();
  ASSERT_TRUE(journal->AppendEpochMark(1, 0).ok());
  fault::Configure(fault::FaultConfig{.sites = "update.journal_io",
                                      .max_injections = 2});
  EXPECT_FALSE(journal->AppendErase(0).ok());
  EXPECT_FALSE(journal->Sync().ok());
  fault::Disable();
  EXPECT_TRUE(journal->AppendErase(0).ok());
  EXPECT_TRUE(journal->Sync().ok());
}

}  // namespace
}  // namespace update
}  // namespace simcard
