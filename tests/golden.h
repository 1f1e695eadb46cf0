#ifndef T2VEC_TESTS_GOLDEN_H_
#define T2VEC_TESTS_GOLDEN_H_

// Helpers shared by the golden-digest tests: CRC32C digests rendered as hex
// (so a mismatch prints both values readably) and a loop that re-runs a
// check on every SIMD tier at 1 and 3 threads.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/cpu.h"
#include "common/fs.h"
#include "common/thread_pool.h"

namespace t2vec::golden {

inline std::string Hex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08" PRIx32, crc);
  return buf;
}

inline uint32_t Digest(const std::string& bytes) {
  return Crc32c(0, bytes.data(), bytes.size());
}

// Runs `body` on every SIMD tier this machine has, at 1 and 3 threads.
template <typename Fn>
void ForEachTierAndThreadCount(const Fn& body) {
  const SimdTier prev = ActiveSimdTier();
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (!SimdTierSupported(tier)) continue;
    SetSimdTier(tier);
    for (const int threads : {1, 3}) {
      ScopedNumThreads guard(threads);
      SCOPED_TRACE(std::string("tier ") + (tier == SimdTier::kAvx2
                                               ? "avx2"
                                               : "scalar") +
                   ", " + std::to_string(threads) + " threads");
      body();
    }
  }
  SetSimdTier(prev);
}

}  // namespace t2vec::golden

#endif  // T2VEC_TESTS_GOLDEN_H_
