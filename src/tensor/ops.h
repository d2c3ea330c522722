// Numerical kernels over Matrix.
//
// These are the only places where simcard does heavy floating-point work on
// matrices. The forward-path kernels (MatMul, MatMulTransposeB) are cache
// blocked for batched inference, but every output element still accumulates
// its products in ascending reduction-index order, so results are bitwise
// identical to the naive loops — that ordering contract is what makes
// batch-of-queries inference reproduce single-query results exactly
// (DESIGN.md §11).
#ifndef SIMCARD_TENSOR_OPS_H_
#define SIMCARD_TENSOR_OPS_H_

#include "tensor/matrix.h"

namespace simcard {

/// C = A * B. Requires a.cols() == b.rows().
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B^T. Requires a.cols() == b.cols(). Avoids materializing B^T;
/// this is the layout used by Linear::Backward.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// C = A^T * B. Requires a.rows() == b.rows().
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

/// Transposed copy.
Matrix Transpose(const Matrix& a);

/// Element-wise sum; shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);

/// Element-wise difference; shapes must match.
Matrix Sub(const Matrix& a, const Matrix& b);

/// Element-wise (Hadamard) product; shapes must match.
Matrix Mul(const Matrix& a, const Matrix& b);

/// Scales every element by `s`.
Matrix Scale(const Matrix& a, float s);

/// Adds `bias` (1 x a.cols()) to every row of `a`.
Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias);

/// Column-wise sum of `a`, returned as 1 x cols.
Matrix SumRows(const Matrix& a);

/// Concatenates matrices horizontally; all must share the row count.
Matrix ConcatCols(const std::vector<Matrix>& parts);

/// In-place a += b * s (axpy); shapes must match.
void AddScaledInPlace(Matrix* a, const Matrix& b, float s);

/// In-place element clamp to [lo, hi].
void ClampInPlace(Matrix* a, float lo, float hi);

}  // namespace simcard

#endif  // SIMCARD_TENSOR_OPS_H_
