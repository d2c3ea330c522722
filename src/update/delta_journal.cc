#include "update/delta_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/serialize.h"
#include "obs/metrics.h"

namespace simcard {
namespace update {
namespace {

constexpr char kMagic[8] = {'S', 'I', 'M', 'C', 'J', 'N', 'L', '1'};
constexpr uint32_t kVersion = 1;
// magic + version u32 + dim u64.
constexpr uint64_t kHeaderBytes = sizeof(kMagic) + 4 + 8;
// payload_len u32 + payload_crc u32.
constexpr uint64_t kFrameHeaderBytes = 8;
// Frames carry at most a kInsert payload: type + dim floats. Anything larger
// in a length field is corruption, rejected before allocation.
constexpr uint64_t kMaxPayloadBytes = 64ull * 1024 * 1024;
// Widest insert whose frame (type u32 + dim floats) fits kMaxPayloadBytes.
constexpr uint64_t kMaxInsertDim = (kMaxPayloadBytes - 4) / sizeof(float);

constexpr const char kFaultSite[] = "update.journal_io";

struct JournalMetrics {
  obs::Counter* appends = obs::GetCounter("simcard.update.journal.appends");
  obs::Counter* syncs = obs::GetCounter("simcard.update.journal.syncs");
  obs::Counter* bytes = obs::GetCounter("simcard.update.journal.bytes");
  obs::Counter* append_failures =
      obs::GetCounter("simcard.update.journal.append_failures");
  obs::Counter* replays = obs::GetCounter("simcard.update.journal.replays");
  obs::Counter* replayed_records =
      obs::GetCounter("simcard.update.journal.replayed_records");
  obs::Counter* discarded_bytes =
      obs::GetCounter("simcard.update.journal.discarded_bytes");
  static JournalMetrics& Get() {
    static JournalMetrics m;
    return m;
  }
};

Status WriteFully(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("journal write failed: " +
                             std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

DeltaJournal::DeltaJournal(std::string path, size_t dim, JournalOptions options)
    : path_(std::move(path)), dim_(dim), options_(options) {
  if (options_.group_commit == 0) options_.group_commit = 1;
}

DeltaJournal::~DeltaJournal() {
  if (fd_ >= 0) {
    // Best-effort final flush; errors on teardown have no caller to reach.
    if (options_.fsync && unsynced_records_ > 0) ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<DeltaJournal>> DeltaJournal::Create(
    const std::string& path, size_t dim, const JournalOptions& options) {
  if (fault::ShouldFail(kFaultSite)) return fault::InjectedError(kFaultSite);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create journal " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  std::unique_ptr<DeltaJournal> journal(
      new DeltaJournal(path, dim, options));
  journal->fd_ = fd;

  Serializer header;
  header.WriteRawBytes(kMagic, sizeof(kMagic));
  header.WriteU32(kVersion);
  header.WriteU64(dim);
  SIMCARD_RETURN_IF_ERROR(
      WriteFully(fd, header.bytes().data(), header.bytes().size()));
  journal->offset_ = header.bytes().size();
  return journal;
}

Result<std::unique_ptr<DeltaJournal>> DeltaJournal::OpenForAppend(
    const std::string& path, size_t dim, uint64_t valid_bytes,
    const JournalOptions& options) {
  if (fault::ShouldFail(kFaultSite)) return fault::InjectedError(kFaultSite);
  if (valid_bytes < kHeaderBytes) {
    return Status::InvalidArgument(
        "journal valid prefix shorter than its header");
  }
  // Drop any torn/corrupt tail so appends resume right after the last good
  // frame instead of burying garbage mid-file.
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::IoError("cannot truncate journal tail of " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("cannot reopen journal " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  std::unique_ptr<DeltaJournal> journal(
      new DeltaJournal(path, dim, options));
  journal->fd_ = fd;
  journal->offset_ = valid_bytes;
  return journal;
}

Status DeltaJournal::AppendFrame(const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Status::Internal("journal is closed");
  if (fault::ShouldFail(kFaultSite)) {
    JournalMetrics::Get().append_failures->Increment();
    return fault::InjectedError(kFaultSite);
  }
  Serializer frame;
  frame.WriteU32(static_cast<uint32_t>(payload.size()));
  frame.WriteU32(Crc32(payload.data(), payload.size()));
  frame.WriteRawBytes(payload.data(), payload.size());
  Status s = WriteFully(fd_, frame.bytes().data(), frame.bytes().size());
  if (!s.ok()) {
    JournalMetrics::Get().append_failures->Increment();
    return s;
  }
  offset_ += frame.bytes().size();
  ++unsynced_records_;
  if (obs::MetricsEnabled()) {
    JournalMetrics::Get().appends->Increment();
    JournalMetrics::Get().bytes->Add(
        static_cast<int64_t>(frame.bytes().size()));
  }
  if (options_.fsync && unsynced_records_ >= options_.group_commit) {
    return FsyncNow();
  }
  return Status::OK();
}

Status DeltaJournal::FsyncNow() {
  if (::fsync(fd_) != 0) {
    return Status::IoError("journal fsync failed: " +
                           std::string(std::strerror(errno)));
  }
  unsynced_records_ = 0;
  if (obs::MetricsEnabled()) JournalMetrics::Get().syncs->Increment();
  return Status::OK();
}

Status DeltaJournal::AppendEpochMark(uint64_t epoch, uint64_t base_rows) {
  Serializer payload;
  payload.WriteU32(static_cast<uint32_t>(JournalRecordType::kEpochMark));
  payload.WriteU64(epoch);
  payload.WriteU64(base_rows);
  return AppendFrame(payload.bytes());
}

Status DeltaJournal::AppendInsert(std::span<const float> point) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("journal insert dim mismatch");
  }
  Serializer payload;
  payload.WriteU32(static_cast<uint32_t>(JournalRecordType::kInsert));
  payload.WriteRawBytes(point.data(), point.size() * sizeof(float));
  return AppendFrame(payload.bytes());
}

Status DeltaJournal::AppendErase(uint32_t row) {
  Serializer payload;
  payload.WriteU32(static_cast<uint32_t>(JournalRecordType::kErase));
  payload.WriteU32(row);
  return AppendFrame(payload.bytes());
}

Status DeltaJournal::Sync() {
  if (fd_ < 0) return Status::Internal("journal is closed");
  if (fault::ShouldFail(kFaultSite)) return fault::InjectedError(kFaultSite);
  if (!options_.fsync || unsynced_records_ == 0) return Status::OK();
  return FsyncNow();
}

Result<DeltaJournal::ReplayResult> DeltaJournal::Replay(
    const std::string& path) {
  auto bytes_or = ReadFileBytes(path);
  SIMCARD_RETURN_IF_ERROR(bytes_or.status());
  const std::vector<uint8_t>& bytes = bytes_or.value();
  if (bytes.size() < kHeaderBytes) {
    return Status::IoError("journal shorter than its header: " + path);
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("journal magic mismatch: " + path);
  }
  uint32_t version = 0;
  uint64_t dim = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  std::memcpy(&dim, bytes.data() + sizeof(kMagic) + 4, sizeof(dim));
  if (version != kVersion) {
    return Status::IoError("unsupported journal version " +
                              std::to_string(version));
  }
  // A dim no insert frame can carry is header corruption, not a torn tail:
  // accepting it would discard every insert (or wrap the frame-size check).
  if (dim == 0 || dim > kMaxInsertDim) {
    return Status::IoError("journal header dim " + std::to_string(dim) +
                           " out of range: " + path);
  }

  ReplayResult result;
  result.dim = dim;
  result.valid_bytes = kHeaderBytes;
  uint64_t pos = kHeaderBytes;
  // Walk frames until the first one that does not fully parse; everything
  // before it is the longest valid prefix.
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    uint32_t payload_len = 0;
    uint32_t payload_crc = 0;
    std::memcpy(&payload_len, bytes.data() + pos, sizeof(payload_len));
    std::memcpy(&payload_crc, bytes.data() + pos + 4, sizeof(payload_crc));
    if (payload_len > kMaxPayloadBytes) break;
    uint64_t frame_end = pos + kFrameHeaderBytes + payload_len;
    if (frame_end > bytes.size()) break;  // torn tail
    const uint8_t* payload = bytes.data() + pos + kFrameHeaderBytes;
    if (Crc32(payload, payload_len) != payload_crc) break;
    if (payload_len < 4) break;

    JournalRecord record;
    uint32_t type = 0;
    std::memcpy(&type, payload, sizeof(type));
    bool parsed = false;
    switch (static_cast<JournalRecordType>(type)) {
      case JournalRecordType::kEpochMark:
        if (payload_len == 4 + 8 + 8) {
          record.type = JournalRecordType::kEpochMark;
          std::memcpy(&record.epoch, payload + 4, 8);
          std::memcpy(&record.base_rows, payload + 12, 8);
          parsed = true;
        }
        break;
      case JournalRecordType::kInsert:
        if (payload_len == 4 + dim * sizeof(float)) {
          record.type = JournalRecordType::kInsert;
          record.point.resize(dim);
          std::memcpy(record.point.data(), payload + 4, dim * sizeof(float));
          parsed = true;
        }
        break;
      case JournalRecordType::kErase:
        if (payload_len == 4 + 4) {
          record.type = JournalRecordType::kErase;
          std::memcpy(&record.row, payload + 4, 4);
          parsed = true;
        }
        break;
      default:
        break;
    }
    if (!parsed) break;
    result.records.push_back(std::move(record));
    pos = frame_end;
    result.valid_bytes = pos;
  }
  result.discarded_bytes = bytes.size() - result.valid_bytes;
  result.tail_truncated = result.discarded_bytes > 0;
  if (obs::MetricsEnabled()) {
    JournalMetrics::Get().replays->Increment();
    JournalMetrics::Get().replayed_records->Add(
        static_cast<int64_t>(result.records.size()));
    JournalMetrics::Get().discarded_bytes->Add(
        static_cast<int64_t>(result.discarded_bytes));
  }
  return result;
}

}  // namespace update
}  // namespace simcard
