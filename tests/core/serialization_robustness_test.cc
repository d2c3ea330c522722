// Robustness of model loading against malformed inputs: truncated files,
// bit flips in structural fields, and cross-model confusion must produce a
// Status error, never a crash or a silently-wrong model.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/checked_file.h"
#include "core/gl_estimator.h"
#include "eval/harness.h"

namespace simcard {
namespace {

// ctest runs every test of this binary as its own parallel process, so any
// scratch file must carry the test name or concurrent tests clobber each
// other's bytes mid-read.
std::string ScratchPath(const char* stem) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + stem + "." +
         (info != nullptr ? info->name() : "fixture") + ".bin";
}

// A trained, serialized GL model (bytes) shared by the tests.
const std::vector<uint8_t>& TrainedModelBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    EnvOptions opts;
    opts.num_segments = 3;
    auto env = std::move(
        BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
    GlEstimatorConfig config = GlEstimatorConfig::GlCnn();
    config.local_train.epochs = 4;
    config.global_train.epochs = 4;
    GlEstimator est(config);
    TrainContext ctx = MakeTrainContext(env);
    EXPECT_TRUE(est.Train(ctx).ok());
    const std::string path = ScratchPath("robustness_model");
    EXPECT_TRUE(est.SaveToFile(path).ok());
    auto* out = new std::vector<uint8_t>();
    FILE* f = fopen(path.c_str(), "rb");
    fseek(f, 0, SEEK_END);
    out->resize(static_cast<size_t>(ftell(f)));
    fseek(f, 0, SEEK_SET);
    const size_t n = fread(out->data(), 1, out->size(), f);
    EXPECT_EQ(n, out->size());
    fclose(f);
    std::remove(path.c_str());
    return out;
  }();
  return *bytes;
}

Status LoadFromBytes(const std::vector<uint8_t>& bytes) {
  const std::string path = ScratchPath("robustness_variant");
  FILE* f = fopen(path.c_str(), "wb");
  if (!bytes.empty()) fwrite(bytes.data(), 1, bytes.size(), f);
  fclose(f);
  GlEstimator est(GlEstimatorConfig::GlCnn());
  Status st = est.LoadFromFile(path);
  std::remove(path.c_str());
  return st;
}

TEST(SerializationRobustnessTest, IntactBytesLoad) {
  EXPECT_TRUE(LoadFromBytes(TrainedModelBytes()).ok());
}

TEST(SerializationRobustnessTest, TruncationsFailGracefully) {
  const auto& bytes = TrainedModelBytes();
  for (double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    std::vector<uint8_t> cut(
        bytes.begin(),
        bytes.begin() + static_cast<size_t>(frac * bytes.size()));
    Status st = LoadFromBytes(cut);
    EXPECT_FALSE(st.ok()) << "truncated to " << frac;
  }
}

TEST(SerializationRobustnessTest, EmptyFileFails) {
  EXPECT_FALSE(LoadFromBytes({}).ok());
}

TEST(SerializationRobustnessTest, WrongMagicFails) {
  auto bytes = TrainedModelBytes();
  // Byte 9 sits in the version field of the v2 header; flipping it must be
  // rejected (as must any flip in the magic itself, covered by the sweep).
  ASSERT_GT(bytes.size(), 12u);
  bytes[9] ^= 0xFF;
  EXPECT_FALSE(LoadFromBytes(bytes).ok());
}

// The pre-container (v1) layout had no magic and no checksums; its loader
// reserved a locals vector for whatever count the file claimed. Such files
// are refused outright now, before any count in them is believed.
TEST(SerializationRobustnessTest, NonCheckedFileRefusedBeforeAllocating) {
  GlEstimator model(GlEstimatorConfig::GlCnn());
  ASSERT_TRUE(model.LoadFromBytes(TrainedModelBytes()).ok());
  Serializer v1;
  v1.WriteString("simcard.gl.v1");
  v1.WriteU32(static_cast<uint32_t>(model.metric()));
  v1.WriteU64(model.dim());
  model.segmentation().Serialize(&v1);
  model.tuned_qes().Serialize(&v1);
  v1.WriteU64(1ull << 62);  // n_locals
  Status st;
  EXPECT_NO_THROW(st = LoadFromBytes(v1.bytes()));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(SerializationRobustnessTest, TruncationAtEverySectionBoundaryFails) {
  const auto& bytes = TrainedModelBytes();
  auto reader_or = CheckedFileReader::FromBytes(bytes);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  const auto& sections = reader_or.value().sections();
  ASSERT_FALSE(sections.empty());
  // Cut exactly at the start and end of every section, and one byte short
  // of each boundary — each cut drops at least the last section's bytes.
  std::vector<size_t> cuts{sections.front().offset,
                           sections.front().offset - 1};
  for (const auto& info : sections) {
    cuts.push_back(info.offset);
    cuts.push_back(info.offset + info.size - 1);
  }
  for (size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    Status st = LoadFromBytes(truncated);
    EXPECT_FALSE(st.ok()) << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(SerializationRobustnessTest, BitFlipSweepFailsStrictLoad) {
  const auto& bytes = TrainedModelBytes();
  // One flipped bit anywhere in the file must fail a strict load: header
  // flips break the magic/version/header CRC, payload flips break a section
  // CRC. Sampled stride keeps the test fast while still crossing every
  // section of the tiny model.
  for (size_t off = 0; off < bytes.size(); off += 97) {
    auto flipped = bytes;
    flipped[off] ^= 0x10;
    Status st = LoadFromBytes(flipped);
    EXPECT_FALSE(st.ok()) << "bit flip at offset " << off;
  }
}

TEST(SerializationRobustnessTest, DegradedLoadSurvivesLocalModelFlip) {
  const auto& bytes = TrainedModelBytes();
  auto reader_or = CheckedFileReader::FromBytes(bytes);
  ASSERT_TRUE(reader_or.ok());
  auto flipped = bytes;
  bool found = false;
  for (const auto& info : reader_or.value().sections()) {
    if (info.name == "local.0") {
      flipped[info.offset + info.size / 3] ^= 0x04;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  const std::string path = ScratchPath("robustness_degraded");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_EQ(fwrite(flipped.data(), 1, flipped.size(), f), flipped.size());
  fclose(f);
  GlEstimator est(GlEstimatorConfig::GlCnn());
  EXPECT_FALSE(est.LoadFromFile(path).ok());  // strict refuses
  EXPECT_TRUE(
      est.LoadFromFile(path, GlEstimator::LoadMode::kDegraded).ok());
  EXPECT_EQ(est.num_quarantined_locals(), 1u);
  std::remove(path.c_str());
}

// Corruption sweep over the exact-members section added for mid-refresh
// snapshots: a strict load must refuse it, a degraded load must fall back
// to assignment-derived member lists that still cover every row.
TEST(SerializationRobustnessTest, MembersSectionFlipDegradesToDerivedLists) {
  const auto& bytes = TrainedModelBytes();
  auto reader_or = CheckedFileReader::FromBytes(bytes);
  ASSERT_TRUE(reader_or.ok());
  const CheckedFileReader::SectionInfo* members = nullptr;
  for (const auto& info : reader_or.value().sections()) {
    if (info.name == "members") members = &info;
  }
  ASSERT_NE(members, nullptr) << "model file lost the members section";

  // Sweep a few offsets across the section payload.
  for (size_t step : {size_t{0}, members->size / 2, members->size - 1}) {
    auto flipped = bytes;
    flipped[members->offset + step] ^= 0x20;
    EXPECT_FALSE(LoadFromBytes(flipped).ok()) << "offset " << step;

    const std::string path = ScratchPath("robustness_members");
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_EQ(fwrite(flipped.data(), 1, flipped.size(), f), flipped.size());
    fclose(f);
    GlEstimator est(GlEstimatorConfig::GlCnn());
    ASSERT_TRUE(
        est.LoadFromFile(path, GlEstimator::LoadMode::kDegraded).ok());
    std::remove(path.c_str());
    // Derived lists: every row present exactly once, in its assigned
    // segment — degraded, but internally consistent.
    const Segmentation& seg = est.segmentation();
    size_t total = 0;
    for (size_t s = 0; s < seg.num_segments(); ++s) {
      for (uint32_t row : seg.members[s]) {
        EXPECT_EQ(seg.assignment[row], s);
      }
      total += seg.members[s].size();
    }
    EXPECT_EQ(total, seg.assignment.size());
  }
}

TEST(SerializationRobustnessTest, TrailingGarbageIsHarmless) {
  // Extra bytes after a well-formed model are ignored by the reader
  // (forward compatibility for appended sections).
  auto bytes = TrainedModelBytes();
  bytes.push_back(0xAB);
  bytes.push_back(0xCD);
  EXPECT_TRUE(LoadFromBytes(bytes).ok());
}

}  // namespace
}  // namespace simcard
