#include "tensor/matrix.h"

#include <gtest/gtest.h>

namespace simcard {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZerosAndShape) {
  Matrix m = Matrix::Zeros(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(m.at(r, c), 0.0f);
  }
}

TEST(MatrixTest, FullAndFill) {
  Matrix m = Matrix::Full(2, 2, 3.0f);
  EXPECT_EQ(m.at(1, 1), 3.0f);
  m.Fill(-1.0f);
  EXPECT_EQ(m.at(0, 0), -1.0f);
  EXPECT_EQ(m.Sum(), -4.0);
}

TEST(MatrixTest, RowVectorAndAccess) {
  Matrix m = Matrix::RowVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.Row(0)[2], 3.0f);
}

TEST(MatrixTest, SetRowCopies) {
  Matrix m(2, 3);
  std::vector<float> row{4.0f, 5.0f, 6.0f};
  m.SetRow(1, row.data());
  EXPECT_EQ(m.at(1, 0), 4.0f);
  EXPECT_EQ(m.at(1, 2), 6.0f);
  EXPECT_EQ(m.at(0, 0), 0.0f);
}

TEST(MatrixTest, GaussianIsDeterministicPerSeed) {
  Rng a(5);
  Rng b(5);
  Matrix ma = Matrix::Gaussian(4, 4, 1.0f, &a);
  Matrix mb = Matrix::Gaussian(4, 4, 1.0f, &b);
  EXPECT_TRUE(ma.AllClose(mb, 0.0f));
}

TEST(MatrixTest, GaussianStddevScales) {
  Rng rng(5);
  Matrix m = Matrix::Gaussian(100, 100, 2.0f, &rng);
  double sq = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    sq += static_cast<double>(m.data()[i]) * m.data()[i];
  }
  EXPECT_NEAR(sq / m.size(), 4.0, 0.2);
}

TEST(MatrixTest, SliceRows) {
  Matrix m(4, 2);
  for (size_t r = 0; r < 4; ++r) m.at(r, 0) = static_cast<float>(r);
  Matrix s = m.SliceRows(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.at(0, 0), 1.0f);
  EXPECT_EQ(s.at(1, 0), 2.0f);
}

TEST(MatrixTest, SliceCols) {
  Matrix m(2, 4);
  for (size_t c = 0; c < 4; ++c) m.at(1, c) = static_cast<float>(c);
  Matrix s = m.SliceCols(2, 4);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_EQ(s.at(1, 0), 2.0f);
  EXPECT_EQ(s.at(1, 1), 3.0f);
}

TEST(MatrixTest, NormAndMaxAbs) {
  Matrix m = Matrix::RowVector({3.0f, -4.0f});
  EXPECT_DOUBLE_EQ(m.Norm(), 5.0);
  EXPECT_EQ(m.MaxAbs(), 4.0f);
}

TEST(MatrixTest, AllCloseTolerance) {
  Matrix a = Matrix::RowVector({1.0f, 2.0f});
  Matrix b = Matrix::RowVector({1.0f + 1e-6f, 2.0f});
  Matrix c = Matrix::RowVector({1.1f, 2.0f});
  Matrix d(2, 1);
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(c));
  EXPECT_FALSE(a.AllClose(d));  // shape mismatch
}

TEST(MatrixTest, SerializationRoundTrip) {
  Rng rng(9);
  Matrix m = Matrix::Gaussian(5, 7, 1.0f, &rng);
  Serializer out;
  m.Serialize(&out);
  Deserializer in(out.bytes());
  Matrix restored;
  ASSERT_TRUE(restored.Deserialize(&in).ok());
  EXPECT_TRUE(m.AllClose(restored, 0.0f));
}

// rows * cols wraps when bit 62 or 63 of a dimension is set: a 2x4 matrix
// whose rows read as 2 | 2^62 must not load as a 2^62+2 x 4 view of 8 floats.
TEST(MatrixTest, DeserializeRejectsShapeThatWraps) {
  Serializer out;
  Matrix::Full(2, 4, 1.5f).Serialize(&out);
  for (size_t field = 0; field < 2; ++field) {  // rows, then cols (u64 each)
    for (int bit : {62, 63}) {
      std::vector<uint8_t> bytes = out.bytes();
      bytes[field * sizeof(uint64_t) + bit / 8] ^=
          static_cast<uint8_t>(1u << (bit % 8));
      Deserializer in(bytes);
      Matrix restored;
      const Status st = restored.Deserialize(&in);
      EXPECT_FALSE(st.ok()) << "field " << field << " bit " << bit;
      EXPECT_NE(st.message().find("size mismatch"), std::string::npos)
          << st.ToString();
      EXPECT_EQ(restored.rows(), 0u);
    }
  }
}

TEST(MatrixTest, ToStringShowsShape) {
  Matrix m(2, 3);
  EXPECT_NE(m.ToString().find("2x3"), std::string::npos);
}

}  // namespace
}  // namespace simcard
