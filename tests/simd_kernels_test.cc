// Exact bit-identity between the scalar and AVX2 kernel tiers, at the raw
// kernel level (kernels.h function table) and through every dispatched call
// site: GEMM variants, GRU forward, attention forward, and the full encoder
// batch pass at several thread counts. Equality is memcmp on the raw bytes —
// no tolerances anywhere; the tiers must produce the same words.
//
// On hardware without AVX2+FMA the cross-tier tests GTEST_SKIP (the scalar
// path is then the only tier and trivially self-identical).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ann_index.h"
#include "core/model.h"
#include "nn/attention.h"
#include "nn/gru.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "serve/embedding_store.h"
#include "traj/tokenizer.h"

namespace t2vec::nn {
namespace {

bool HaveAvx2() { return SimdTierSupported(SimdTier::kAvx2); }

// Forces a dispatch tier for a scope and restores the previous one after.
class ScopedTier {
 public:
  explicit ScopedTier(SimdTier tier) : prev_(ActiveSimdTier()) {
    SetSimdTier(tier);
  }
  ~ScopedTier() { SetSimdTier(prev_); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  SimdTier prev_;
};

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng, float scale = 1.0f) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-scale, scale));
  }
  return m;
}

std::vector<float> RandomVec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  return v;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << " diverged between tiers";
}

// --------------------------------------------------------------------------
// Raw kernel table: every entry point, scalar vs AVX2, odd tail sizes
// included.
// --------------------------------------------------------------------------

TEST(SimdKernelsTest, DotAndDot4BitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelOps& s = KernelsFor(SimdTier::kScalar);
  const KernelOps& v = KernelsFor(SimdTier::kAvx2);
  ASSERT_STREQ(s.name, "scalar");
  ASSERT_STREQ(v.name, "avx2");
  Rng rng(11);
  for (size_t k : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 64u, 129u}) {
    const std::vector<float> x0 = RandomVec(k, rng);
    const std::vector<float> x1 = RandomVec(k, rng);
    const std::vector<float> x2 = RandomVec(k, rng);
    const std::vector<float> x3 = RandomVec(k, rng);
    const std::vector<float> y = RandomVec(k, rng);

    const float ds = s.dot(x0.data(), y.data(), k);
    const float dv = v.dot(x0.data(), y.data(), k);
    EXPECT_EQ(std::memcmp(&ds, &dv, sizeof(float)), 0) << "dot k=" << k;

    float outs[4], outv[4];
    s.dot4(x0.data(), x1.data(), x2.data(), x3.data(), y.data(), k, outs);
    v.dot4(x0.data(), x1.data(), x2.data(), x3.data(), y.data(), k, outv);
    EXPECT_EQ(std::memcmp(outs, outv, sizeof(outs)), 0) << "dot4 k=" << k;

    // dot4 lane 0 must also match plain dot (shared reduction shape).
    EXPECT_EQ(std::memcmp(&outs[0], &ds, sizeof(float)), 0)
        << "dot4 vs dot k=" << k;
  }
}

TEST(SimdKernelsTest, Tile8x32BitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelOps& s = KernelsFor(SimdTier::kScalar);
  const KernelOps& v = KernelsFor(SimdTier::kAvx2);
  Rng rng(12);
  for (size_t depth : {1u, 5u, 8u, 37u}) {
    for (bool strided_a : {false, true}) {
      // Row-major A (8 x lda, lda >= depth) or transposed A (depth x lda,
      // lda >= 8): a[r * row_stride + p * step_stride] stays in bounds.
      const size_t lda = strided_a ? 8 : 64;
      const std::vector<float> a =
          RandomVec(strided_a ? depth * lda : 8 * lda, rng);
      const std::vector<float> b = RandomVec(depth * 40, rng);
      std::vector<float> accs = RandomVec(8 * 32, rng);
      std::vector<float> accv = accs;
      const size_t row_stride = strided_a ? 1 : lda;
      const size_t step_stride = strided_a ? lda : 1;
      s.tile8x32(accs.data(), a.data(), row_stride, step_stride, b.data(),
                 /*ldb=*/40, /*p0=*/0, /*p1=*/depth, /*alpha=*/1.25f);
      v.tile8x32(accv.data(), a.data(), row_stride, step_stride, b.data(),
                 40, 0, depth, 1.25f);
      EXPECT_EQ(std::memcmp(accs.data(), accv.data(),
                            accs.size() * sizeof(float)),
                0)
          << "tile8x32 depth=" << depth << " strided_a=" << strided_a;
    }
  }
}

TEST(SimdKernelsTest, F64KernelsBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const KernelOps& s = KernelsFor(SimdTier::kScalar);
  const KernelOps& v = KernelsFor(SimdTier::kAvx2);
  Rng rng(13);
  for (size_t n : {0u, 1u, 4u, 7u, 8u, 9u, 24u, 100u, 257u}) {
    const std::vector<float> x = RandomVec(n, rng);
    const std::vector<float> y = RandomVec(n, rng);
    const double results[6] = {
        s.sqnorm(x.data(), n),           v.sqnorm(x.data(), n),
        s.dot_f64(x.data(), y.data(), n), v.dot_f64(x.data(), y.data(), n),
        s.sqdist_f64(x.data(), y.data(), n),
        v.sqdist_f64(x.data(), y.data(), n)};
    EXPECT_EQ(std::memcmp(&results[0], &results[1], sizeof(double)), 0)
        << "sqnorm n=" << n;
    EXPECT_EQ(std::memcmp(&results[2], &results[3], sizeof(double)), 0)
        << "dot_f64 n=" << n;
    EXPECT_EQ(std::memcmp(&results[4], &results[5], sizeof(double)), 0)
        << "sqdist_f64 n=" << n;
  }
}

TEST(SimdKernelsTest, SqDist4MatchesFourSqDistCallsOnEveryTier) {
  // Every tier's sqdist4_f64 must return, for each of its four rows, the
  // scalar tier's sqdist_f64 bits. n = 1..67 covers every tail length
  // several times. Each n scores four finite rows, then four rows holding
  // a NaN, +inf and -inf, against a finite probe and probes holding one
  // NaN or infinity. No row mixes a propagated NaN with an inf - inf NaN,
  // whose payloads differ, so the bits are well defined.
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const KernelOps& ref = KernelsFor(SimdTier::kScalar);
  std::vector<const KernelOps*> tiers = {&ref};
  if (HaveAvx2()) tiers.push_back(&KernelsFor(SimdTier::kAvx2));
  Rng rng(14);
  for (size_t n = 1; n <= 67; ++n) {
    std::vector<std::vector<float>> rows;
    for (size_t t = 0; t < 8; ++t) rows.push_back(RandomVec(n, rng));
    rows[5][n / 2] = kNaN;
    rows[6][n - 1] = kInf;
    rows[7][0] = -kInf;
    std::vector<std::vector<float>> probes(4, RandomVec(n, rng));
    probes[1][n - 1] = kNaN;
    probes[2][n / 2] = kInf;
    probes[3][n - 1] = -kInf;
    for (const std::vector<float>& x : probes) {
      const std::vector<double> q(x.begin(), x.end());
      for (size_t g = 0; g < 8; g += 4) {
        double want[4];
        for (size_t t = 0; t < 4; ++t) {
          want[t] = ref.sqdist_f64(x.data(), rows[g + t].data(), n);
        }
        for (const KernelOps* ops : tiers) {
          double got[4];
          ops->sqdist4_f64(q.data(), rows[g].data(), rows[g + 1].data(),
                           rows[g + 2].data(), rows[g + 3].data(), n, got);
          EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
              << ops->name << " sqdist4_f64 n=" << n << " rows " << g
              << ".." << g + 3;
        }
      }
    }
  }
}

// sqdist4_f32's documented reduction for one row: 8 fma lanes over the
// body, an in-order fma tail, then tail + lane[0] + ... + lane[7].
float SqDistF32Reference(const float* q, const float* r, size_t n) {
  float lanes[8] = {};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      const float d = q[i + l] - r[i + l];
      lanes[l] = std::fma(d, d, lanes[l]);
    }
  }
  float acc = 0.0f;
  for (; i < n; ++i) {
    const float d = q[i] - r[i];
    acc = std::fma(d, d, acc);
  }
  for (size_t l = 0; l < 8; ++l) acc += lanes[l];
  return acc;
}

TEST(SimdKernelsTest, SqDist4F32BitIdenticalAcrossTiers) {
  // Every tier's sqdist4_f32 must return the documented reduction's bits:
  // a tail only (1, 7), one body step with and without a tail (8, 47), the
  // served width (48) and a wider one (64). Each dim scores four finite
  // rows, then four rows holding a NaN, +inf and -inf, against a finite
  // probe and probes holding one NaN or infinity; as in the f64 case above,
  // no row mixes a propagated NaN with an inf - inf NaN. The rows sit in
  // two storage blocks of two rows each, and every group takes two rows
  // from each block, like a scan group that straddles an index's mmap'd
  // prefix and its owned tail.
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const KernelOps& ref = KernelsFor(SimdTier::kScalar);
  std::vector<const KernelOps*> tiers = {&ref};
  if (HaveAvx2()) tiers.push_back(&KernelsFor(SimdTier::kAvx2));
  Rng rng(15);
  for (const size_t n : {1u, 7u, 8u, 47u, 48u, 64u}) {
    for (const bool non_finite : {false, true}) {
      std::vector<float> first = RandomVec(2 * n, rng);
      std::vector<float> second = RandomVec(2 * n, rng);
      if (non_finite) {
        first[n / 2] = kNaN;
        first[n + n - 1] = kInf;
        second[0] = -kInf;
      }
      const float* rows[4] = {first.data(), first.data() + n, second.data(),
                              second.data() + n};
      std::vector<std::vector<float>> probes(4, RandomVec(n, rng));
      probes[1][n - 1] = kNaN;
      probes[2][n / 2] = kInf;
      probes[3][n - 1] = -kInf;
      for (const std::vector<float>& q : probes) {
        float want[4];
        for (size_t t = 0; t < 4; ++t) {
          want[t] = SqDistF32Reference(q.data(), rows[t], n);
        }
        for (const KernelOps* ops : tiers) {
          float got[4];
          ops->sqdist4_f32(q.data(), rows[0], rows[1], rows[2], rows[3], n,
                           got);
          EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
              << ops->name << " sqdist4_f32 n=" << n
              << " non_finite=" << non_finite;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, UnsupportedTierFallsBackToScalarTable) {
  // KernelsFor never returns a table the machine cannot execute.
  if (HaveAvx2()) GTEST_SKIP() << "machine has AVX2; fallback untestable";
  EXPECT_STREQ(KernelsFor(SimdTier::kAvx2).name, "scalar");
}

TEST(SimdKernelsTest, SetSimdTierClampsToSupported) {
  const SimdTier before = ActiveSimdTier();
  const SimdTier installed = SetSimdTier(SimdTier::kAvx2);
  if (HaveAvx2()) {
    EXPECT_EQ(installed, SimdTier::kAvx2);
  } else {
    EXPECT_EQ(installed, SimdTier::kScalar);  // never-SIGILL guard
  }
  EXPECT_EQ(SetSimdTier(SimdTier::kScalar), SimdTier::kScalar);
  SetSimdTier(before);
}

// --------------------------------------------------------------------------
// Dispatched call sites: whole operations under SetSimdTier, memcmp'd.
// --------------------------------------------------------------------------

TEST(SimdDispatchTest, GemmVariantsBitIdenticalAcrossTiers) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(21);
  // Shapes straddling the 8 x 32 micro-tile: full tiles, edge tiles, odd k.
  const struct {
    size_t m, k, n;
  } shapes[] = {{1, 1, 1}, {3, 5, 7}, {8, 16, 32}, {17, 33, 65}, {64, 48, 96}};
  for (const auto& sh : shapes) {
    const Matrix a = RandomMatrix(sh.m, sh.k, rng);
    const Matrix b = RandomMatrix(sh.k, sh.n, rng);
    const Matrix at = RandomMatrix(sh.k, sh.m, rng);
    const Matrix bt = RandomMatrix(sh.n, sh.k, rng);
    Matrix out_s(sh.m, sh.n), out_v(sh.m, sh.n);

    {
      ScopedTier tier(SimdTier::kScalar);
      Gemm(a, b, &out_s);
    }
    {
      ScopedTier tier(SimdTier::kAvx2);
      Gemm(a, b, &out_v);
    }
    ExpectBitIdentical(out_s, out_v, "Gemm");

    {
      ScopedTier tier(SimdTier::kScalar);
      GemmTransA(at, b, &out_s);
    }
    {
      ScopedTier tier(SimdTier::kAvx2);
      GemmTransA(at, b, &out_v);
    }
    ExpectBitIdentical(out_s, out_v, "GemmTransA");

    for (size_t segment : {size_t{0}, sh.k / 2}) {
      if (segment != 0 && sh.k % segment != 0) continue;
      Matrix seg_s = RandomMatrix(sh.m, sh.n, rng);
      Matrix seg_v = seg_s;
      {
        ScopedTier tier(SimdTier::kScalar);
        GemmTransBV(a, bt, seg_s, 0.75f, 1.0f, segment);
      }
      {
        ScopedTier tier(SimdTier::kAvx2);
        GemmTransBV(a, bt, seg_v, 0.75f, 1.0f, segment);
      }
      ExpectBitIdentical(seg_s, seg_v, "GemmTransBV");
    }
  }
}

TEST(SimdDispatchTest, SquaredNormAndDotBitIdenticalAcrossTiers) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(22);
  const Matrix m = RandomMatrix(5, 37, rng);
  const Matrix x = RandomMatrix(3, 43, rng);
  const Matrix y = RandomMatrix(3, 43, rng);
  double sq[2], dot[2];
  {
    ScopedTier tier(SimdTier::kScalar);
    sq[0] = m.SquaredNorm();
    dot[0] = Kernels().dot_f64(x.data(), y.data(), x.size());
  }
  {
    ScopedTier tier(SimdTier::kAvx2);
    sq[1] = m.SquaredNorm();
    dot[1] = Kernels().dot_f64(x.data(), y.data(), x.size());
  }
  EXPECT_EQ(std::memcmp(&sq[0], &sq[1], sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&dot[0], &dot[1], sizeof(double)), 0);
}

// Runs `forward` under the given tier and thread count and returns the
// concatenation of all produced matrices for memcmp.
template <typename Fn>
std::vector<Matrix> RunUnder(SimdTier tier, int threads, Fn&& forward) {
  ScopedTier scoped_tier(tier);
  ScopedNumThreads scoped_threads(threads);
  return forward();
}

TEST(SimdDispatchTest, GruForwardBitIdenticalAcrossTiersAndThreads) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(23);
  const size_t in_dim = 19, hidden = 27, batch = 6, steps = 5;
  Gru gru("g", in_dim, hidden, /*layers=*/2, rng);
  std::vector<Matrix> xs;
  for (size_t t = 0; t < steps; ++t) {
    xs.push_back(RandomMatrix(batch, in_dim, rng));
  }
  std::vector<std::vector<float>> masks(steps,
                                        std::vector<float>(batch, 1.0f));
  masks[steps - 1][0] = 0.0f;  // one sequence ends early
  masks[steps - 1][3] = 0.0f;

  auto run = [&] {
    Gru::ForwardResult result;
    gru.Forward(xs, nullptr, masks, &result);
    std::vector<Matrix> outs = result.TopOutputs();
    for (const Matrix& h : result.final_state.h) outs.push_back(h);
    return outs;
  };

  const std::vector<Matrix> ref = RunUnder(SimdTier::kScalar, 1, run);
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    for (int threads : {1, 2, 8}) {
      const std::vector<Matrix> got = RunUnder(tier, threads, run);
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        ExpectBitIdentical(ref[i], got[i], "Gru::Forward");
      }
    }
  }
}

TEST(SimdDispatchTest, AttentionForwardBitIdenticalAcrossTiersAndThreads) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(24);
  const size_t hidden = 22, batch = 4, src = 6, dec = 3;
  Attention attention("att", hidden, rng);
  std::vector<Matrix> dec_hs, enc_hs;
  for (size_t t = 0; t < dec; ++t) {
    dec_hs.push_back(RandomMatrix(batch, hidden, rng));
  }
  for (size_t s = 0; s < src; ++s) {
    enc_hs.push_back(RandomMatrix(batch, hidden, rng));
  }
  std::vector<std::vector<float>> src_masks(src,
                                            std::vector<float>(batch, 1.0f));
  src_masks[src - 1][1] = 0.0f;

  auto run = [&] {
    AttentionCache cache;
    attention.Forward(dec_hs, enc_hs, src_masks, &cache);
    return cache.output;
  };

  const std::vector<Matrix> ref = RunUnder(SimdTier::kScalar, 1, run);
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    for (int threads : {1, 2, 8}) {
      const std::vector<Matrix> got = RunUnder(tier, threads, run);
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        ExpectBitIdentical(ref[i], got[i], "Attention::Forward");
      }
    }
  }
}

TEST(SimdDispatchTest, EncodeBatchBitIdenticalAcrossTiersAndThreads) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(25);
  core::T2VecConfig config;
  config.embed_dim = 12;
  config.hidden = 20;
  config.layers = 2;
  const geo::Token vocab_size = 40;
  const core::EncoderDecoder model(config, vocab_size, rng);

  std::vector<traj::TokenSeq> seqs;
  Rng token_rng(26);
  for (size_t i = 0; i < 9; ++i) {
    traj::TokenSeq seq(3 + i % 4);
    for (auto& tok : seq) {
      tok = static_cast<geo::Token>(4 + token_rng.UniformInt(36));
    }
    seqs.push_back(seq);
  }

  auto run = [&] { return std::vector<Matrix>{model.EncodeBatch(seqs)}; };

  const std::vector<Matrix> ref = RunUnder(SimdTier::kScalar, 1, run);
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    for (int threads : {1, 2, 8}) {
      const std::vector<Matrix> got = RunUnder(tier, threads, run);
      ExpectBitIdentical(ref[0], got[0], "EncodeBatch");
    }
  }
}

TEST(SimdDispatchTest, IvfIndexBitIdenticalAcrossTiersAndThreads) {
  // The IVF quantizer routes every distance through the dispatched
  // sqdist_f64 kernel; k-means training and probing must therefore produce
  // the same store snapshot bytes (centroids and lists in its aux) and the
  // same neighbors on both tiers.
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const size_t d = 16, n = 150;
  Rng rng(27);
  std::vector<float> data(n * d);
  for (float& v : data) v = static_cast<float>(rng.Gaussian());
  std::vector<float> probes(4 * d);
  for (float& v : probes) v = static_cast<float>(rng.Gaussian());

  core::IndexConfig config;
  config.kind = core::IndexKind::kIvf;
  config.ivf_nlist = 4;
  config.ivf_nprobe = 2;
  config.ivf_train_iters = 3;
  config.ivf_seed = 5;
  config.ivf_train_per_list = 8;

  const std::string path =
      std::string(::testing::TempDir()) + "/simd_ivf.store";
  auto run = [&] {
    serve::EmbeddingStore store(d, config);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(store.Add(static_cast<int64_t>(i), {&data[i * d], d}).ok());
    }
    EXPECT_TRUE(store.Stats().trained);
    EXPECT_TRUE(store.Save(path).ok());
    std::string bytes;
    EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
    for (size_t q = 0; q < 4; ++q) {
      const core::KnnResult r = store.index().Query({&probes[q * d], d}, 9);
      bytes.append(reinterpret_cast<const char*>(r.ids.data()),
                   r.ids.size() * sizeof(size_t));
      bytes.append(reinterpret_cast<const char*>(r.distances.data()),
                   r.distances.size() * sizeof(double));
    }
    return bytes;
  };

  std::string reference;
  {
    ScopedTier tier(SimdTier::kScalar);
    ScopedNumThreads threads(1);
    reference = run();
  }
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    for (int threads : {1, 2, 8}) {
      ScopedTier tier_guard(tier);
      ScopedNumThreads thread_guard(threads);
      const std::string got = run();
      ASSERT_EQ(got.size(), reference.size());
      EXPECT_EQ(std::memcmp(got.data(), reference.data(), got.size()), 0)
          << "IVF diverged at tier " << static_cast<int>(tier) << ", "
          << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace t2vec::nn
