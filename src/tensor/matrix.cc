#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace simcard {

Matrix Matrix::Full(size_t rows, size_t cols, float value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) {
    v = stddev * static_cast<float>(rng->NextGaussian());
  }
  return m;
}

Matrix Matrix::RowVector(const std::vector<float>& values) {
  return Matrix(1, values.size(), values);
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::SetRow(size_t r, const float* src) {
  assert(r < rows_);
  std::memcpy(Row(r), src, cols_ * sizeof(float));
}

Matrix Matrix::SliceRows(size_t begin, size_t end) const {
  assert(begin <= end && end <= rows_);
  Matrix out = Uninit(end - begin, cols_);
  std::memcpy(out.data(), data_.data() + begin * cols_,
              (end - begin) * cols_ * sizeof(float));
  return out;
}

Matrix Matrix::SliceCols(size_t begin, size_t end) const {
  assert(begin <= end && end <= cols_);
  Matrix out = Uninit(rows_, end - begin);
  for (size_t r = 0; r < rows_; ++r) {
    std::memcpy(out.Row(r), Row(r) + begin, (end - begin) * sizeof(float));
  }
  return out;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

double Matrix::Norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

float Matrix::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Matrix::AllClose(const Matrix& other, float tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::ToString(size_t max_elems) const {
  std::ostringstream out;
  out << "Matrix(" << rows_ << "x" << cols_ << ")[";
  for (size_t i = 0; i < std::min(max_elems, data_.size()); ++i) {
    if (i > 0) out << ", ";
    out << data_[i];
  }
  if (data_.size() > max_elems) out << ", ...";
  out << "]";
  return out.str();
}

void Matrix::Serialize(Serializer* out) const {
  out->WriteU64(rows_);
  out->WriteU64(cols_);
  // Same framing as WriteFloatVector (u64 count + raw floats); spelled out
  // because data_ uses the default-init allocator type.
  out->WriteU64(data_.size());
  out->WriteRawBytes(data_.data(), data_.size() * sizeof(float));
}

Status Matrix::Deserialize(Deserializer* in) {
  uint64_t rows = 0;
  uint64_t cols = 0;
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&rows));
  SIMCARD_RETURN_IF_ERROR(in->ReadU64(&cols));
  std::vector<float> data;
  SIMCARD_RETURN_IF_ERROR(in->ReadFloatVector(&data));
  // rows * cols can wrap for a corrupt shape (2^62 x 4 "is" 8 floats):
  // a product that overflows never matches the payload.
  uint64_t elems = 0;
  if (__builtin_mul_overflow(rows, cols, &elems) || data.size() != elems) {
    return Status::Internal("matrix payload size mismatch");
  }
  rows_ = rows;
  cols_ = cols;
  data_.assign(data.begin(), data.end());
  return Status::OK();
}

}  // namespace simcard
