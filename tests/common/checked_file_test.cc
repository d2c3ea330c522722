#include "common/checked_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

namespace simcard {
namespace {

std::vector<uint8_t> TwoSectionContainer() {
  CheckedFileWriter writer;
  Serializer* alpha = writer.AddSection("alpha");
  alpha->WriteString("alpha payload");
  alpha->WriteU64(17);
  Serializer* beta = writer.AddSection("beta");
  beta->WriteFloatVector({1.0f, 2.0f, 3.0f});
  return writer.Assemble();
}

TEST(CheckedFileTest, RoundTrip) {
  auto reader_or = CheckedFileReader::FromBytes(TwoSectionContainer());
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  const CheckedFileReader& reader = reader_or.value();
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_TRUE(reader.HasSection("alpha"));
  EXPECT_TRUE(reader.HasSection("beta"));
  EXPECT_FALSE(reader.HasSection("gamma"));
  EXPECT_TRUE(reader.VerifyAll().ok());

  auto alpha_or = reader.OpenSection("alpha");
  ASSERT_TRUE(alpha_or.ok());
  Deserializer alpha = std::move(alpha_or).value();
  std::string s;
  uint64_t v = 0;
  ASSERT_TRUE(alpha.ReadString(&s).ok());
  ASSERT_TRUE(alpha.ReadU64(&v).ok());
  EXPECT_EQ(s, "alpha payload");
  EXPECT_EQ(v, 17u);
  EXPECT_TRUE(alpha.AtEnd());

  EXPECT_EQ(reader.OpenSection("gamma").status().code(),
            StatusCode::kNotFound);
}

TEST(CheckedFileTest, EmptyContainerAndEmptySectionRoundTrip) {
  {
    CheckedFileWriter writer;
    auto reader_or = CheckedFileReader::FromBytes(writer.Assemble());
    ASSERT_TRUE(reader_or.ok());
    EXPECT_TRUE(reader_or.value().sections().empty());
  }
  {
    CheckedFileWriter writer;
    writer.AddSection("empty");
    auto reader_or = CheckedFileReader::FromBytes(writer.Assemble());
    ASSERT_TRUE(reader_or.ok());
    auto sec_or = reader_or.value().OpenSection("empty");
    ASSERT_TRUE(sec_or.ok());
    EXPECT_TRUE(sec_or.value().AtEnd());
  }
}

TEST(CheckedFileTest, PayloadBitFlipIsDetected) {
  const auto clean = TwoSectionContainer();
  auto reader_or = CheckedFileReader::FromBytes(clean);
  ASSERT_TRUE(reader_or.ok());
  // Flip one bit in every payload byte of every section; OpenSection must
  // report a checksum mismatch each time (the header still parses).
  for (const auto& info : reader_or.value().sections()) {
    for (size_t off = info.offset; off < info.offset + info.size; ++off) {
      auto bytes = clean;
      bytes[off] ^= 0x01;
      auto flipped_or = CheckedFileReader::FromBytes(bytes);
      ASSERT_TRUE(flipped_or.ok());  // header untouched
      Status st = flipped_or.value().OpenSection(info.name).status();
      EXPECT_FALSE(st.ok()) << info.name << " offset " << off;
      EXPECT_NE(st.ToString().find("checksum"), std::string::npos);
      EXPECT_FALSE(flipped_or.value().VerifyAll().ok());
    }
  }
}

TEST(CheckedFileTest, HeaderBitFlipIsDetected) {
  const auto clean = TwoSectionContainer();
  const size_t payload_start = CheckedFileReader::FromBytes(clean)
                                   .value()
                                   .sections()[0]
                                   .offset;
  // Bytes 0..7 are the magic (flips there read as "not a checked file");
  // every other header byte must trip the version check or the header CRC.
  for (size_t off = sizeof("SIMCKV2"); off < payload_start; ++off) {
    auto bytes = clean;
    bytes[off] ^= 0x80;
    EXPECT_FALSE(CheckedFileReader::FromBytes(bytes).ok()) << "offset " << off;
  }
}

// The section count is read before the header CRC can vouch for it. A count
// the remaining bytes cannot hold is refused before anything is reserved, so
// this holds on every host, not only where a ~120 GB reservation fails.
TEST(CheckedFileTest, SectionCountBeyondBufferIsRefused) {
  constexpr size_t kSectionCountOffset = 8 + 4;  // magic + format_version
  for (uint32_t count : {0x80000002u, 0xFFFFFFFFu}) {
    auto bytes = TwoSectionContainer();
    std::memcpy(bytes.data() + kSectionCountOffset, &count, sizeof(count));
    auto reader_or = CheckedFileReader::FromBytes(bytes);
    ASSERT_FALSE(reader_or.ok()) << "count " << count;
    EXPECT_EQ(reader_or.status().code(), StatusCode::kIoError)
        << reader_or.status().ToString();
    EXPECT_NE(reader_or.status().message().find("section count"),
              std::string::npos)
        << reader_or.status().ToString();
  }
}

TEST(CheckedFileTest, TruncationIsDetected) {
  const auto clean = TwoSectionContainer();
  for (size_t keep = 0; keep < clean.size(); ++keep) {
    std::vector<uint8_t> cut(clean.begin(), clean.begin() + keep);
    auto reader_or = CheckedFileReader::FromBytes(cut);
    if (!reader_or.ok()) continue;  // header already rejected it
    // Header may survive if the cut only removed payload bytes — but then
    // no section past the cut may verify.
    EXPECT_FALSE(reader_or.value().VerifyAll().ok()) << "kept " << keep;
  }
}

TEST(CheckedFileTest, TrailingBytesAreIgnored) {
  auto bytes = TwoSectionContainer();
  bytes.push_back(0xEE);
  bytes.push_back(0xFF);
  auto reader_or = CheckedFileReader::FromBytes(bytes);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  EXPECT_TRUE(reader_or.value().VerifyAll().ok());
}

TEST(CheckedFileTest, LooksCheckedProbe) {
  EXPECT_TRUE(CheckedFileReader::LooksChecked(TwoSectionContainer()));
  EXPECT_FALSE(CheckedFileReader::LooksChecked({}));
  Serializer legacy;
  legacy.WriteString("simcard.gl.v1");
  EXPECT_FALSE(CheckedFileReader::LooksChecked(legacy.bytes()));
}

TEST(CheckedFileTest, SaveAndOpen) {
  const std::string path = testing::TempDir() + "/simcard_checked_test.bin";
  CheckedFileWriter writer;
  writer.AddSection("payload")->WriteString("on disk");
  ASSERT_TRUE(writer.Save(path).ok());
  auto reader_or = CheckedFileReader::Open(path);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  auto sec_or = reader_or.value().OpenSection("payload");
  ASSERT_TRUE(sec_or.ok());
  std::string s;
  Deserializer sec = std::move(sec_or).value();
  ASSERT_TRUE(sec.ReadString(&s).ok());
  EXPECT_EQ(s, "on disk");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simcard
