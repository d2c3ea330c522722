// Numerical-gradient verification for every layer type. This is the core
// safety net of the hand-written backprop framework: each TEST_P instance
// checks one layer geometry against central finite differences.
#include "nn/gradient_check.h"

#include <gtest/gtest.h>

#include <memory>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/linear.h"
#include "nn/monotone_head.h"
#include "nn/pool1d.h"
#include "nn/positive_linear.h"
#include "nn/sequential.h"

namespace simcard {
namespace nn {
namespace {

constexpr double kTol = 5e-3;

struct LayerCase {
  std::string name;
  size_t in_cols;
  std::function<std::unique_ptr<Layer>(Rng*)> make;
  // Deep ReLU/pool stacks accumulate float32 kink-crossing noise in the
  // finite differences; such cases get a looser tolerance.
  double tol = kTol;
};

// Without a printer gtest dumps the raw bytes, heap and code addresses
// included, into the value that ctest folds into each test's name, so the
// names changed with every build. Print the case name instead.
void PrintTo(const LayerCase& c, std::ostream* os) { *os << c.name; }

class LayerGradientTest : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerGradientTest, AnalyticMatchesNumeric) {
  const LayerCase& c = GetParam();
  Rng rng(1234);
  auto layer = c.make(&rng);
  const size_t batch = 3;
  Matrix input = Matrix::Gaussian(batch, c.in_cols, 1.0f, &rng);
  const size_t out_cols = layer->OutputCols(c.in_cols);
  Matrix target = Matrix::Gaussian(batch, out_cols, 1.0f, &rng);
  auto report = CheckLayerGradients(layer.get(), input, target, &rng);
  EXPECT_LT(report.max_param_error, c.tol) << c.name;
  EXPECT_LT(report.max_input_error, c.tol) << c.name;
  EXPECT_GT(report.checked_inputs, 0u);
}

std::vector<LayerCase> AllLayerCases() {
  std::vector<LayerCase> cases;
  cases.push_back({"Linear", 6, [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<Linear>(6, 4, rng);
                   }});
  cases.push_back({"LinearWide", 3, [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<Linear>(3, 10, rng);
                   }});
  cases.push_back({"PositiveLinear", 5,
                   [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<PositiveLinear>(5, 4, rng);
                   }});
  cases.push_back({"PartialPositiveLinear", 8,
                   [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<PartialPositiveLinear>(8, 5, 2, 5,
                                                                    rng);
                   }});
  cases.push_back({"Relu", 7, [](Rng*) -> std::unique_ptr<Layer> {
                     return std::make_unique<Relu>();
                   }});
  cases.push_back({"Sigmoid", 7, [](Rng*) -> std::unique_ptr<Layer> {
                     return std::make_unique<Sigmoid>();
                   }});
  cases.push_back({"Tanh", 7, [](Rng*) -> std::unique_ptr<Layer> {
                     return std::make_unique<Tanh>();
                   }});
  cases.push_back({"Softplus", 7, [](Rng*) -> std::unique_ptr<Layer> {
                     return std::make_unique<Softplus>();
                   }});
  cases.push_back({"Conv1DBasic", 12, [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<Conv1D>(1, 12, 3, 4, 4, 0, rng);
                   }});
  cases.push_back({"Conv1DStridePad", 16,
                   [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<Conv1D>(2, 8, 3, 3, 2, 1, rng);
                   }});
  cases.push_back({"Conv1DMultiChannel", 24,
                   [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<Conv1D>(3, 8, 4, 2, 1, 0, rng);
                   }});
  cases.push_back({"Pool1DMax", 12, [](Rng*) -> std::unique_ptr<Layer> {
                     return std::make_unique<Pool1D>(2, 6, 2, 2, PoolOp::kMax);
                   }});
  cases.push_back({"Pool1DAvg", 12, [](Rng*) -> std::unique_ptr<Layer> {
                     return std::make_unique<Pool1D>(2, 6, 3, 1, PoolOp::kAvg);
                   }});
  cases.push_back({"Pool1DSum", 12, [](Rng*) -> std::unique_ptr<Layer> {
                     return std::make_unique<Pool1D>(2, 6, 2, 2, PoolOp::kSum);
                   }});
  cases.push_back({"MonotoneHead", 10,
                   [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<MonotoneHead>(10, 4, 7, 6, 8, 3,
                                                           rng);
                   }});
  cases.push_back({"MonotoneHeadScalarOut", 6,
                   [](Rng* rng) -> std::unique_ptr<Layer> {
                     return std::make_unique<MonotoneHead>(6, 0, 2, 4, 5, 1,
                                                           rng);
                   }});
  cases.push_back(
      {"SequentialMlp", 6, [](Rng* rng) -> std::unique_ptr<Layer> {
         auto seq = std::make_unique<Sequential>();
         seq->Emplace<Linear>(6, 8, rng);
         seq->Emplace<Relu>();
         seq->Emplace<Linear>(8, 4, rng);
         seq->Emplace<Tanh>();
         return seq;
       }});
  cases.push_back(
      {"SequentialConvStack", 16, [](Rng* rng) -> std::unique_ptr<Layer> {
         auto seq = std::make_unique<Sequential>();
         seq->Emplace<Conv1D>(1, 16, 4, 4, 4, 0, rng);
         seq->Emplace<Relu>();
         seq->Emplace<Conv1D>(4, 4, 2, 2, 1, 0, rng);
         seq->Emplace<Relu>();
         seq->Emplace<Pool1D>(2, 3, 2, 1, PoolOp::kAvg);
         seq->Emplace<Linear>(4, 2, rng);
         return seq;
       }, /*tol=*/2e-2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerGradientTest,
                         ::testing::ValuesIn(AllLayerCases()),
                         [](const ::testing::TestParamInfo<LayerCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace nn
}  // namespace simcard
