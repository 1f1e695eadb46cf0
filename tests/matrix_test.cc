#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/parameter.h"

namespace t2vec::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng, float scale = 1.0f) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-scale, scale));
  }
  return m;
}

// Reference O(mnk) triple-loop GEMM against which the kernels are checked.
Matrix NaiveGemm(const Matrix& a, const Matrix& b, bool trans_a,
                 bool trans_b) {
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t k = trans_a ? a.rows() : a.cols();
  const size_t n = trans_b ? b.rows() : b.cols();
  Matrix out(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a.At(p, i) : a.At(i, p);
        const float bv = trans_b ? b.At(j, p) : b.At(p, j);
        acc += static_cast<double>(av) * bv;
      }
      out.At(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
  m.At(1, 2) = 5.0f;
  EXPECT_EQ(m(1, 2), 5.0f);
  EXPECT_EQ(m.Row(1)[2], 5.0f);
}

TEST(MatrixTest, FillAndZero) {
  Matrix m(2, 2, 7.0f);
  EXPECT_EQ(m(0, 0), 7.0f);
  m.SetZero();
  EXPECT_EQ(m(1, 1), 0.0f);
}

TEST(MatrixTest, SquaredNorm) {
  Matrix m(1, 3);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 25.0);
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(GemmShapeTest, GemmMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(42 + m * 100 + k * 10 + n);
  Matrix a = RandomMatrix(m, k, rng);
  Matrix b = RandomMatrix(k, n, rng);
  Matrix out(m, n);
  Gemm(a, b, &out);
  EXPECT_LT(MaxAbsDiff(out, NaiveGemm(a, b, false, false)), 1e-4f);
}

TEST_P(GemmShapeTest, GemmTransAMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(17 + m);
  Matrix a = RandomMatrix(k, m, rng);  // a^T is m x k
  Matrix b = RandomMatrix(k, n, rng);
  Matrix out(m, n);
  GemmTransA(a, b, &out);
  EXPECT_LT(MaxAbsDiff(out, NaiveGemm(a, b, true, false)), 1e-4f);
}

TEST_P(GemmShapeTest, GemmTransBMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(29 + n);
  Matrix a = RandomMatrix(m, k, rng);
  Matrix b = RandomMatrix(n, k, rng);  // b^T is k x n
  Matrix out(m, n);
  GemmTransB(a, b, &out);
  EXPECT_LT(MaxAbsDiff(out, NaiveGemm(a, b, false, true)), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 64, 33), std::make_tuple(33, 1, 17),
                      std::make_tuple(31, 37, 41)));

// Exhaustive kernel sweep over every m, k, n in {1, 7, 8, 9, 64, 65}: the
// values straddle the micro-tile (8), vector (8/16), and panel boundaries,
// so every edge path in the blocked kernels runs. Each kernel is checked
// against the double-accumulation reference, including alpha/beta outside
// {0, 1}.
TEST(GemmKernelSweep, AllShapesAllKernels) {
  const size_t dims[] = {1, 7, 8, 9, 64, 65};
  const struct {
    float alpha, beta;
  } scales[] = {{1.0f, 0.0f}, {2.0f, 1.0f}, {0.5f, -1.5f}};
  Rng rng(99);
  for (size_t m : dims) {
    for (size_t k : dims) {
      for (size_t n : dims) {
        const Matrix a = RandomMatrix(m, k, rng);
        const Matrix b = RandomMatrix(k, n, rng);
        const Matrix at = RandomMatrix(k, m, rng);  // a^T layout for TransA.
        const Matrix bt = RandomMatrix(n, k, rng);  // b^T layout for TransB.
        const Matrix base = RandomMatrix(m, n, rng);
        // Accumulated rounding grows with k; 1e-4 covers k = 65 comfortably.
        const float tol = 1e-4f;
        for (const auto& s : scales) {
          auto expect = [&](const Matrix& naive) {
            Matrix e = base;
            for (size_t i = 0; i < e.size(); ++i) {
              e.data()[i] =
                  s.alpha * naive.data()[i] + s.beta * base.data()[i];
            }
            return e;
          };
          Matrix out = base;
          Gemm(a, b, &out, s.alpha, s.beta);
          EXPECT_LT(MaxAbsDiff(out, expect(NaiveGemm(a, b, false, false))),
                    tol)
              << "Gemm " << m << "x" << k << "x" << n << " alpha=" << s.alpha
              << " beta=" << s.beta;
          out = base;
          GemmTransA(at, b, &out, s.alpha, s.beta);
          EXPECT_LT(MaxAbsDiff(out, expect(NaiveGemm(at, b, true, false))),
                    tol)
              << "GemmTransA " << m << "x" << k << "x" << n;
          out = base;
          GemmTransB(a, bt, &out, s.alpha, s.beta);
          EXPECT_LT(MaxAbsDiff(out, expect(NaiveGemm(a, bt, false, true))),
                    tol)
              << "GemmTransB " << m << "x" << k << "x" << n;
        }
      }
    }
  }
}

// The determinism contract (nn/matrix.h): a parallel run partitions output
// rows only, so it must produce the same bits as the serial run at any
// thread count. The shape is chosen to clear the parallelism thresholds
// (flops and row count).
TEST(GemmKernelSweep, ParallelBitIdenticalToSerial) {
  Rng rng(123);
  const size_t m = 97, k = 130, n = 67;  // 2*m*k*n ≈ 1.7e6 flops.
  const Matrix a = RandomMatrix(m, k, rng);
  const Matrix b = RandomMatrix(k, n, rng);
  const Matrix at = RandomMatrix(k, m, rng);
  const Matrix bt = RandomMatrix(n, k, rng);
  const Matrix base = RandomMatrix(m, n, rng);

  Matrix ref_gemm, ref_ta, ref_tb;
  {
    ScopedNumThreads serial(1);
    ref_gemm = base;
    Gemm(a, b, &ref_gemm, 1.3f, 0.7f);
    ref_ta = base;
    GemmTransA(at, b, &ref_ta, 1.3f, 0.7f);
    ref_tb = base;
    GemmTransB(a, bt, &ref_tb, 1.3f, 0.7f);
  }
  for (int threads : {2, 3, 8}) {
    ScopedNumThreads scope(threads);
    Matrix out = base;
    Gemm(a, b, &out, 1.3f, 0.7f);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out.data()[i], ref_gemm.data()[i]) << "Gemm threads=" << threads;
    }
    out = base;
    GemmTransA(at, b, &out, 1.3f, 0.7f);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out.data()[i], ref_ta.data()[i])
          << "GemmTransA threads=" << threads;
    }
    out = base;
    GemmTransB(a, bt, &out, 1.3f, 0.7f);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out.data()[i], ref_tb.data()[i])
          << "GemmTransB threads=" << threads;
    }
  }
}

// A segmented GemmTransBV call must equal chaining one beta=1 call per
// k-segment bit-for-bit — this is the property that keeps the GRU
// backward's packed GEMMs in the order of one call per gate.
TEST(GemmKernelSweep, SegmentedTransBEqualsChainedCalls) {
  Rng rng(7);
  const size_t m = 9, n = 11, seg = 16, nseg = 3, k = seg * nseg;
  const Matrix a = RandomMatrix(m, k, rng);
  const Matrix bt = RandomMatrix(n, k, rng);
  const Matrix base = RandomMatrix(m, n, rng);

  Matrix chained = base;
  for (size_t s = 0; s < nseg; ++s) {
    GemmTransBV(ColBlock(a, s * seg, seg), ColBlock(bt, s * seg, seg),
                chained, 1.3f, s == 0 ? 0.7f : 1.0f);
  }
  Matrix fused = base;
  GemmTransBV(a, bt, fused, 1.3f, 0.7f, seg);
  for (size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(fused.data()[i], chained.data()[i]) << "index " << i;
  }
}

TEST(MatrixTest, DotAndSquaredNormMatchDoubleReference) {
  Rng rng(31);
  const Matrix a = RandomMatrix(5, 103, rng);
  const Matrix b = RandomMatrix(5, 103, rng);
  double norm = 0.0, dot = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    norm += static_cast<double>(a.data()[i]) * a.data()[i];
    dot += static_cast<double>(a.data()[i]) * b.data()[i];
  }
  EXPECT_NEAR(a.SquaredNorm(), norm, 1e-9 * std::max(1.0, norm));
  EXPECT_NEAR(Kernels().dot_f64(a.data(), b.data(), a.size()), dot,
              1e-9 * std::max(1.0, std::fabs(dot)));
}

TEST(MatrixTest, ToStringTruncatesAndFormats) {
  Matrix m(5, 7);
  m(0, 0) = 1.5f;
  m(4, 6) = -2.25f;
  const std::string full = m.ToString(5, 7);
  EXPECT_NE(full.find("[5 x 7]"), std::string::npos);
  EXPECT_NE(full.find("1.5000"), std::string::npos);
  EXPECT_NE(full.find("-2.2500"), std::string::npos);
  EXPECT_EQ(full.find("..."), std::string::npos);

  const std::string clipped = m.ToString(2, 3);
  EXPECT_NE(clipped.find("[5 x 7]"), std::string::npos);
  EXPECT_NE(clipped.find("..."), std::string::npos);
  EXPECT_EQ(clipped.find("-2.2500"), std::string::npos);
}

TEST(GemmTest, AlphaBetaAccumulate) {
  Rng rng(5);
  Matrix a = RandomMatrix(4, 3, rng);
  Matrix b = RandomMatrix(3, 5, rng);
  Matrix base = RandomMatrix(4, 5, rng);
  Matrix out = base;
  Gemm(a, b, &out, 2.0f, 1.0f);  // out = 2ab + base

  Matrix expected = NaiveGemm(a, b, false, false);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected.data()[i] = 2.0f * expected.data()[i] + base.data()[i];
  }
  EXPECT_LT(MaxAbsDiff(out, expected), 1e-4f);
}

TEST(ElementwiseTest, AddAxpyScale) {
  Rng rng(9);
  Matrix a = RandomMatrix(3, 3, rng);
  Matrix b = RandomMatrix(3, 3, rng);
  Matrix sum = a;
  AddInPlace(&sum, b);
  for (size_t i = 0; i < sum.size(); ++i) {
    EXPECT_FLOAT_EQ(sum.data()[i], a.data()[i] + b.data()[i]);
  }
  Matrix c = a;
  Axpy(0.5f, b, &c);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_FLOAT_EQ(c.data()[i], a.data()[i] + 0.5f * b.data()[i]);
  }
  Scale(&c, 2.0f);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_FLOAT_EQ(c.data()[i], 2.0f * (a.data()[i] + 0.5f * b.data()[i]));
  }
}

TEST(ElementwiseTest, RowBroadcastAndSumRows) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 2) = 4;
  Matrix bias(1, 3);
  bias(0, 0) = 10;
  bias(0, 1) = 20;
  bias(0, 2) = 30;
  AddRowBroadcastV(m, bias);
  EXPECT_FLOAT_EQ(m(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 20.0f);
  EXPECT_FLOAT_EQ(m(1, 2), 34.0f);

  Matrix col_sum(1, 3);
  SumRowsIntoV(m, &col_sum);
  EXPECT_FLOAT_EQ(col_sum(0, 0), 21.0f);
  EXPECT_FLOAT_EQ(col_sum(0, 1), 40.0f);
  EXPECT_FLOAT_EQ(col_sum(0, 2), 64.0f);
}

TEST(ElementwiseTest, Hadamard) {
  Matrix a(1, 3), b(1, 3);
  for (int i = 0; i < 3; ++i) {
    a(0, i) = static_cast<float>(i + 1);
    b(0, i) = 2.0f;
  }
  Matrix out;
  Hadamard(a, b, &out);
  EXPECT_FLOAT_EQ(out(0, 2), 6.0f);
  HadamardAccum(a, b, &out);  // out += a*b -> 12
  EXPECT_FLOAT_EQ(out(0, 2), 12.0f);
}

TEST(OpsTest, SigmoidValues) {
  Matrix in(1, 3);
  in(0, 0) = 0.0f;
  in(0, 1) = 100.0f;
  in(0, 2) = -100.0f;
  Matrix out(1, 3);
  SigmoidV(in, out);
  EXPECT_FLOAT_EQ(out(0, 0), 0.5f);
  EXPECT_NEAR(out(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(out(0, 2), 0.0f, 1e-6f);
}

TEST(OpsTest, TanhValues) {
  Matrix in(1, 2);
  in(0, 0) = 0.0f;
  in(0, 1) = 1.0f;
  Matrix out(1, 2);
  TanhV(in, out);
  EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
  EXPECT_NEAR(out(0, 1), std::tanh(1.0f), 1e-6f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Matrix in = RandomMatrix(5, 17, rng, 10.0f);
  Matrix out;
  SoftmaxRows(in, &out);
  for (size_t r = 0; r < out.rows(); ++r) {
    double total = 0.0;
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_GT(out(r, c), 0.0f);
      total += out(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(OpsTest, SoftmaxNumericallyStable) {
  Matrix in(1, 2);
  in(0, 0) = 1000.0f;
  in(0, 1) = 1000.0f;
  Matrix out;
  SoftmaxRows(in, &out);
  EXPECT_NEAR(out(0, 0), 0.5f, 1e-6f);
}

TEST(OpsTest, LogSoftmaxConsistentWithSoftmax) {
  Rng rng(4);
  Matrix in = RandomMatrix(3, 9, rng, 5.0f);
  Matrix sm, lsm;
  SoftmaxRows(in, &sm);
  LogSoftmaxRows(in, &lsm);
  for (size_t i = 0; i < sm.size(); ++i) {
    EXPECT_NEAR(std::log(sm.data()[i]), lsm.data()[i], 1e-4);
  }
}

TEST(OpsTest, ActivationBackwardFormulas) {
  // For y = sigmoid(x): dy/dx = y(1-y); for y = tanh(x): 1 - y^2.
  Matrix y(1, 2);
  y(0, 0) = 0.3f;
  y(0, 1) = 0.8f;
  Matrix d_out(1, 2, 1.0f);
  Matrix d_in(1, 2);
  SigmoidBackwardV(y, d_out, d_in);
  EXPECT_NEAR(d_in(0, 0), 0.3f * 0.7f, 1e-6f);
  TanhBackwardV(y, d_out, d_in);
  EXPECT_NEAR(d_in(0, 1), 1.0f - 0.64f, 1e-6f);
}

TEST(ParameterTest, ClipGradNorm) {
  Parameter p("p", 1, 2);
  p.grad(0, 0) = 3.0f;
  p.grad(0, 1) = 4.0f;  // norm 5
  ParamList params = {&p};
  const double pre = ClipGradNorm(params, 2.5);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(std::sqrt(p.grad.SquaredNorm()), 2.5, 1e-5);
  // Below threshold: untouched.
  const double pre2 = ClipGradNorm(params, 100.0);
  EXPECT_NEAR(pre2, 2.5, 1e-5);
  EXPECT_NEAR(std::sqrt(p.grad.SquaredNorm()), 2.5, 1e-5);
}

TEST(ParameterTest, XavierScale) {
  Rng rng(8);
  Matrix m(100, 50);
  InitXavier(&m, rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  float max_abs = 0.0f;
  for (size_t i = 0; i < m.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(m.data()[i]));
  }
  EXPECT_LE(max_abs, bound);
  EXPECT_GT(max_abs, 0.5f * bound);  // Should come close to the bound.
}

TEST(ParameterTest, TotalParamCount) {
  Parameter a("a", 2, 3), b("b", 1, 4);
  EXPECT_EQ(TotalParamCount({&a, &b}), 10u);
}

}  // namespace
}  // namespace t2vec::nn
