#include "tensor/ops.h"

#include <algorithm>
#include <cassert>

namespace simcard {
namespace {

// Cache-blocking tile sizes. The models here are small (hidden widths in the
// tens to low hundreds), so the tiles are sized for L1: a 64x128 float tile
// of B is 32 KiB.
constexpr size_t kBlockP = 64;   // reduction-dimension tile
constexpr size_t kBlockJ = 128;  // output-column tile
constexpr size_t kBlockI = 64;   // output-row tile (MatMulTransposeB)

// Stride-1 dot product with a single accumulator in ascending index order,
// so every caller gets the same bits as the naive loop.
inline float Dot1(const float* a, const float* b, size_t k) {
  float acc = 0.0f;
  for (size_t p = 0; p < k; ++p) acc += a[p] * b[p];
  return acc;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const size_t n = a.rows();
  const size_t k = a.cols();
  const size_t m = b.cols();
  // Blocked ikj: tile the reduction (p) and output-column (j) loops so a
  // kBlockP x kBlockJ panel of B stays cache-hot across every row of A.
  // Each output element still accumulates its products in ascending-p order
  // (blocks ascend, p ascends within a block), so the result is bitwise
  // identical to the unblocked loop for finite inputs.
  for (size_t jb = 0; jb < m; jb += kBlockJ) {
    const size_t jend = std::min(m, jb + kBlockJ);
    for (size_t pb = 0; pb < k; pb += kBlockP) {
      const size_t pend = std::min(k, pb + kBlockP);
      for (size_t i = 0; i < n; ++i) {
        const float* arow = a.Row(i);
        float* crow = c.Row(i);
        for (size_t p = pb; p < pend; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;  // ReLU activations are often sparse
          const float* brow = b.Row(p);
          for (size_t j = jb; j < jend; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }
  }
  return c;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c = Matrix::Uninit(a.rows(), b.rows());
  const size_t k = a.cols();
  // Blocked over both output dimensions: a tile of B rows is reused against
  // a tile of A rows before moving on. The per-(i,j) reduction is a single
  // stride-1 dot product (see Dot1 for the accumulation-order contract).
  for (size_t ib = 0; ib < a.rows(); ib += kBlockI) {
    const size_t iend = std::min(a.rows(), ib + kBlockI);
    for (size_t jb = 0; jb < b.rows(); jb += kBlockI) {
      const size_t jend = std::min(b.rows(), jb + kBlockI);
      for (size_t i = ib; i < iend; ++i) {
        const float* arow = a.Row(i);
        float* crow = c.Row(i);
        for (size_t j = jb; j < jend; ++j) {
          crow[j] = Dot1(arow, b.Row(j), k);
        }
      }
    }
  }
  return c;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (size_t p = 0; p < a.rows(); ++p) {
    const float* arow = a.Row(p);
    const float* brow = b.Row(p);
    for (size_t i = 0; i < a.cols(); ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.Row(i);
      for (size_t j = 0; j < b.cols(); ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t = Matrix::Uninit(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      t.at(j, i) = a.at(i, j);
    }
  }
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  float* cd = c.data();
  const float* bd = b.data();
  for (size_t i = 0; i < c.size(); ++i) cd[i] += bd[i];
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  float* cd = c.data();
  const float* bd = b.data();
  for (size_t i = 0; i < c.size(); ++i) cd[i] -= bd[i];
  return c;
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  float* cd = c.data();
  const float* bd = b.data();
  for (size_t i = 0; i < c.size(); ++i) cd[i] *= bd[i];
  return c;
}

Matrix Scale(const Matrix& a, float s) {
  Matrix c = a;
  float* cd = c.data();
  for (size_t i = 0; i < c.size(); ++i) cd[i] *= s;
  return c;
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == a.cols());
  Matrix c = a;
  const float* bd = bias.data();
  for (size_t r = 0; r < c.rows(); ++r) {
    float* row = c.Row(r);
    for (size_t j = 0; j < c.cols(); ++j) row[j] += bd[j];
  }
  return c;
}

Matrix SumRows(const Matrix& a) {
  Matrix s(1, a.cols());
  float* sd = s.data();
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.Row(r);
    for (size_t j = 0; j < a.cols(); ++j) sd[j] += row[j];
  }
  return s;
}

Matrix ConcatCols(const std::vector<Matrix>& parts) {
  assert(!parts.empty());
  size_t rows = parts[0].rows();
  size_t cols = 0;
  for (const auto& p : parts) {
    assert(p.rows() == rows);
    cols += p.cols();
  }
  Matrix out = Matrix::Uninit(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    float* dst = out.Row(r);
    for (const auto& p : parts) {
      const float* src = p.Row(r);
      std::copy(src, src + p.cols(), dst);
      dst += p.cols();
    }
  }
  return out;
}

void AddScaledInPlace(Matrix* a, const Matrix& b, float s) {
  assert(a->rows() == b.rows() && a->cols() == b.cols());
  float* ad = a->data();
  const float* bd = b.data();
  for (size_t i = 0; i < a->size(); ++i) ad[i] += s * bd[i];
}

void ClampInPlace(Matrix* a, float lo, float hi) {
  float* ad = a->data();
  for (size_t i = 0; i < a->size(); ++i) {
    ad[i] = std::min(hi, std::max(lo, ad[i]));
  }
}

}  // namespace simcard
