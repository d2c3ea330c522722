#include "common/checked_file.h"

#include <cstring>

#include "common/crc32.h"

namespace simcard {
namespace {

constexpr char kMagic[8] = {'S', 'I', 'M', 'C', 'K', 'V', '2', '\n'};
constexpr uint32_t kFormatVersion = 2;
// Smallest section-table entry: empty name (u64 length), payload_len (u64)
// and crc32 (u32).
constexpr size_t kMinTableEntryBytes =
    2 * sizeof(uint64_t) + sizeof(uint32_t);

}  // namespace

Serializer* CheckedFileWriter::AddSection(const std::string& name) {
  sections_.emplace_back(name, std::make_unique<Serializer>());
  return sections_.back().second.get();
}

std::vector<uint8_t> CheckedFileWriter::Assemble() const {
  Serializer header;
  header.WriteRawBytes(kMagic, sizeof(kMagic));
  header.WriteU32(kFormatVersion);
  header.WriteU32(static_cast<uint32_t>(sections_.size()));
  uint64_t payload_length = 0;
  for (const auto& [name, payload] : sections_) {
    payload_length += payload->bytes().size();
  }
  header.WriteU64(payload_length);
  for (const auto& [name, payload] : sections_) {
    header.WriteString(name);
    header.WriteU64(payload->bytes().size());
    header.WriteU32(
        Crc32(payload->bytes().data(), payload->bytes().size()));
  }
  header.WriteU32(Crc32(header.bytes().data(), header.bytes().size()));

  std::vector<uint8_t> out = header.bytes();
  out.reserve(out.size() + payload_length);
  for (const auto& [name, payload] : sections_) {
    out.insert(out.end(), payload->bytes().begin(), payload->bytes().end());
  }
  return out;
}

Status CheckedFileWriter::Save(const std::string& path) const {
  Serializer out;
  const std::vector<uint8_t> bytes = Assemble();
  out.WriteRawBytes(bytes.data(), bytes.size());
  return out.SaveToFile(path);
}

bool CheckedFileReader::LooksChecked(const std::vector<uint8_t>& bytes) {
  return bytes.size() >= sizeof(kMagic) &&
         std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
}

Result<CheckedFileReader> CheckedFileReader::FromBytes(
    std::vector<uint8_t> bytes) {
  if (!LooksChecked(bytes)) {
    return Status::InvalidArgument(
        "not a checked simcard container (bad magic)");
  }
  Deserializer in(bytes);  // copy: bytes_ keeps the original for payloads
  char magic[sizeof(kMagic)];
  SIMCARD_RETURN_IF_ERROR(in.ReadRawBytes(magic, sizeof(magic)));
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint64_t payload_length = 0;
  SIMCARD_RETURN_IF_ERROR(in.ReadU32(&version));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checked-container version: " + std::to_string(version));
  }
  SIMCARD_RETURN_IF_ERROR(in.ReadU32(&section_count));
  SIMCARD_RETURN_IF_ERROR(in.ReadU64(&payload_length));
  // The count is not yet covered by a verified CRC: bound it by what the
  // remaining bytes can hold before reserving, so a flipped high bit cannot
  // ask for a multi-GB table.
  if (section_count > in.remaining() / kMinTableEntryBytes) {
    return Status::IoError("checked container: section count " +
                           std::to_string(section_count) +
                           " exceeds what the remaining " +
                           std::to_string(in.remaining()) +
                           " bytes can hold");
  }

  CheckedFileReader reader;
  reader.sections_.reserve(section_count);
  uint64_t payload_seen = 0;
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionInfo info;
    SIMCARD_RETURN_IF_ERROR(in.ReadString(&info.name));
    uint64_t size = 0;
    SIMCARD_RETURN_IF_ERROR(in.ReadU64(&size));
    SIMCARD_RETURN_IF_ERROR(in.ReadU32(&info.crc));
    info.size = size;
    payload_seen += size;
    reader.sections_.push_back(std::move(info));
  }
  if (payload_seen != payload_length) {
    return Status::IoError("checked container: section table sums to " +
                           std::to_string(payload_seen) +
                           " bytes but header declares " +
                           std::to_string(payload_length));
  }
  // The header CRC covers everything read so far; validate it before
  // trusting any of the table's offsets.
  const size_t header_end = in.offset();
  uint32_t header_crc = 0;
  SIMCARD_RETURN_IF_ERROR(in.ReadU32(&header_crc));
  if (Crc32(bytes.data(), header_end) != header_crc) {
    return Status::IoError("checked container: header checksum mismatch");
  }
  const size_t payload_start = in.offset();
  // Trailing bytes beyond the declared payloads are tolerated (future
  // writers may append data old readers don't know about); a file *shorter*
  // than the header promises is truncation.
  if (payload_length > bytes.size() - payload_start) {
    return Status::IoError(
        "checked container: truncated (header declares " +
        std::to_string(payload_length) + " payload bytes, " +
        std::to_string(bytes.size() - payload_start) + " present)");
  }
  size_t offset = payload_start;
  for (auto& info : reader.sections_) {
    info.offset = offset;
    offset += info.size;
  }
  reader.bytes_ = std::move(bytes);
  return reader;
}

Result<CheckedFileReader> CheckedFileReader::Open(const std::string& path) {
  auto bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  return FromBytes(std::move(bytes_or).value());
}

bool CheckedFileReader::HasSection(const std::string& name) const {
  for (const auto& info : sections_) {
    if (info.name == name) return true;
  }
  return false;
}

Result<Deserializer> CheckedFileReader::OpenSection(
    const std::string& name) const {
  for (const auto& info : sections_) {
    if (info.name != name) continue;
    if (Crc32(bytes_.data() + info.offset, info.size) != info.crc) {
      return Status::IoError("checked container: checksum mismatch in "
                             "section '" +
                             name + "'");
    }
    return Deserializer(std::vector<uint8_t>(
        bytes_.begin() + static_cast<ptrdiff_t>(info.offset),
        bytes_.begin() + static_cast<ptrdiff_t>(info.offset + info.size)));
  }
  return Status::NotFound("checked container: no section '" + name + "'");
}

Status CheckedFileReader::VerifyAll() const {
  for (const auto& info : sections_) {
    if (Crc32(bytes_.data() + info.offset, info.size) != info.crc) {
      return Status::IoError("checked container: checksum mismatch in "
                             "section '" +
                             info.name + "'");
    }
  }
  return Status::OK();
}

}  // namespace simcard
