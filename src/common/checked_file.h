// Checksummed, versioned, sectioned container for persisted models ("v2"
// model format).
//
// Layout (all integers little-endian, written via Serializer):
//
//   magic            8 bytes  "SIMCKV2\n"
//   format_version   u32      currently 2
//   section_count    u32
//   payload_length   u64      total bytes of all section payloads
//   section table    per section: name (u64 len + bytes),
//                                 payload_len (u64), crc32 (u32)
//   header_crc       u32      CRC-32 of every byte above
//   payloads         section payloads, concatenated in table order
//
// Guarantees: any truncation, any bit flip — in the header, the table, or a
// payload — is detected before a single payload byte is interpreted (header
// CRC covers the table; per-section CRCs cover payloads). Readers locate
// sections by name, so new sections can be appended without breaking old
// readers and unknown sections are skipped (forward compatibility).
//
// Bytes that do not begin with the magic are refused by
// CheckedFileReader::FromBytes with InvalidArgument before anything else is
// read.
#ifndef SIMCARD_COMMON_CHECKED_FILE_H_
#define SIMCARD_COMMON_CHECKED_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace simcard {

/// \brief Accumulates named sections and writes the checked container.
class CheckedFileWriter {
 public:
  /// Returns the payload serializer for a new section. Pointers stay valid
  /// until the writer is destroyed; section order is preserved.
  Serializer* AddSection(const std::string& name);

  /// Assembles header + table + payloads and writes them atomically (via
  /// Serializer::SaveToFile's tmp+rename).
  Status Save(const std::string& path) const;

  /// The assembled container as bytes (for tests and in-memory use).
  std::vector<uint8_t> Assemble() const;

 private:
  // unique_ptr keeps AddSection's returned pointers stable across growth.
  std::vector<std::pair<std::string, std::unique_ptr<Serializer>>> sections_;
};

/// \brief Validated view over a checked container.
class CheckedFileReader {
 public:
  /// Section metadata; `offset` is the payload's byte offset in the file —
  /// exposed so corruption tests can target exact section boundaries.
  struct SectionInfo {
    std::string name;
    size_t offset = 0;
    size_t size = 0;
    uint32_t crc = 0;
  };

  /// True when `bytes` starts with the v2 magic (legacy-format probe).
  static bool LooksChecked(const std::vector<uint8_t>& bytes);

  /// Parses and validates the header and section table (magic, version,
  /// lengths, header CRC). Payload CRCs are checked per section on access.
  static Result<CheckedFileReader> FromBytes(std::vector<uint8_t> bytes);

  /// Reads `path` and parses it as a checked container.
  static Result<CheckedFileReader> Open(const std::string& path);

  const std::vector<SectionInfo>& sections() const { return sections_; }
  bool HasSection(const std::string& name) const;

  /// Validates the named section's CRC and returns a deserializer over its
  /// payload. NotFound for unknown names, IoError ("checksum mismatch") for
  /// corrupt payloads.
  Result<Deserializer> OpenSection(const std::string& name) const;

  /// Validates every section's CRC.
  Status VerifyAll() const;

 private:
  CheckedFileReader() = default;

  std::vector<uint8_t> bytes_;
  std::vector<SectionInfo> sections_;
};

}  // namespace simcard

#endif  // SIMCARD_COMMON_CHECKED_FILE_H_
