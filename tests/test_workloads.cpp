// Integration tests: every benchmark x every mode computes a verified
// result, plus the performance-shape properties the paper's evaluation
// rests on (parallel speedup, MPB vs off-chip ordering, load imbalance),
// and the compute twins' closed forms against the naive loops they replace.
#include <gtest/gtest.h>

#include "workloads/benchmark.h"
#include "workloads/kernels.h"

namespace hsm::workloads {
namespace {

constexpr double kTestScale = 0.05;  // keep simulations fast in unit tests

struct ModeCase {
  const char* benchmark;
  Mode mode;
};

class EveryBenchmarkEveryMode : public ::testing::TestWithParam<ModeCase> {};

std::unique_ptr<Benchmark> make(const std::string& name, double scale) {
  if (name == "PiApprox") return makePiApprox(scale);
  if (name == "3-5-Sum") return makeSum35(scale);
  if (name == "CountPrimes") return makeCountPrimes(scale);
  if (name == "Stream") return makeStream(scale);
  if (name == "DotProduct") return makeDotProduct(scale);
  if (name == "LU") return makeLuDecomposition(scale);
  return nullptr;
}

TEST_P(EveryBenchmarkEveryMode, ComputesVerifiedResult) {
  const ModeCase& c = GetParam();
  const auto bench = make(c.benchmark, kTestScale);
  ASSERT_NE(bench, nullptr);
  const sim::SccConfig config;
  const RunResult r = bench->run(c.mode, 8, config);
  EXPECT_TRUE(r.verified) << r.benchmark << " " << modeName(r.mode) << ": " << r.detail;
  EXPECT_GT(r.makespan, 0u);
}

std::vector<ModeCase> allCases() {
  std::vector<ModeCase> cases;
  for (const char* name :
       {"PiApprox", "3-5-Sum", "CountPrimes", "Stream", "DotProduct", "LU"}) {
    for (const Mode mode :
         {Mode::PthreadSingleCore, Mode::RcceOffChip, Mode::RcceMpb}) {
      cases.push_back(ModeCase{name, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, EveryBenchmarkEveryMode,
                         ::testing::ValuesIn(allCases()),
                         [](const ::testing::TestParamInfo<ModeCase>& info) {
                           std::string name = info.param.benchmark;
                           name += "_";
                           name += modeName(info.param.mode);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(BlockSlice, CoversRangeWithoutOverlap) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (const int units : {1, 3, 8, 32}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (int u = 0; u < units; ++u) {
        const Slice s = blockSlice(n, units, u);
        EXPECT_EQ(s.first, prev_end);
        prev_end = s.last;
        covered += s.size();
      }
      EXPECT_EQ(covered, n) << "n=" << n << " units=" << units;
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(BlockSlice, BalancedWithinOne) {
  for (int u = 0; u < 32; ++u) {
    const Slice s = blockSlice(1000, 32, u);
    EXPECT_GE(s.size(), 31u);
    EXPECT_LE(s.size(), 32u);
  }
}

// --- performance-shape properties (the paper's qualitative claims) -----------

TEST(PerformanceShape, ComputeBoundBenchmarkScalesNearLinearly) {
  const auto pi = makePiApprox(kTestScale);
  const sim::SccConfig config;
  const RunResult base = pi->run(Mode::PthreadSingleCore, 16, config);
  const RunResult rcce = pi->run(Mode::RcceOffChip, 16, config);
  const double speedup =
      static_cast<double>(base.makespan) / static_cast<double>(rcce.makespan);
  EXPECT_GT(speedup, 13.0);  // ~16x ideal at 16 cores
  EXPECT_LT(speedup, 17.5);
}

TEST(PerformanceShape, CountPrimesSuffersLoadImbalance) {
  const auto primes = makeCountPrimes(kTestScale);
  const sim::SccConfig config;
  const RunResult base = primes->run(Mode::PthreadSingleCore, 16, config);
  const RunResult rcce = primes->run(Mode::RcceOffChip, 16, config);
  const double speedup =
      static_cast<double>(base.makespan) / static_cast<double>(rcce.makespan);
  // Block partitioning gives the top block ~2x the mean work (paper: 16x
  // instead of 32x at 32 cores).
  EXPECT_LT(speedup, 12.0);
  EXPECT_GT(speedup, 4.0);
}

TEST(PerformanceShape, MpbNeverSlowerThanOffChip) {
  const sim::SccConfig config;
  for (const auto& bench : standardSuite(kTestScale)) {
    const RunResult off = bench->run(Mode::RcceOffChip, 8, config);
    const RunResult mpb = bench->run(Mode::RcceMpb, 8, config);
    EXPECT_LE(mpb.makespan, off.makespan + off.makespan / 10)
        << bench->name() << ": MPB placement must not significantly hurt";
  }
}

TEST(PerformanceShape, StreamGainsMostFromMpb) {
  const sim::SccConfig config;
  auto ratio = [&](Benchmark& b) {
    const RunResult off = b.run(Mode::RcceOffChip, 8, config);
    const RunResult mpb = b.run(Mode::RcceMpb, 8, config);
    return static_cast<double>(off.makespan) / static_cast<double>(mpb.makespan);
  };
  const auto stream = makeStream(kTestScale);
  const auto pi = makePiApprox(kTestScale);
  const auto lu = makeLuDecomposition(kTestScale);
  const double stream_gain = ratio(*stream);
  const double pi_gain = ratio(*pi);
  const double lu_gain = ratio(*lu);
  EXPECT_GT(stream_gain, 1.5);            // memory benchmark gains a lot
  EXPECT_LT(pi_gain, 1.2);                // compute benchmark barely moves
  EXPECT_LT(lu_gain, stream_gain);        // LU's matrix does not fit: slight
  EXPECT_GT(stream_gain, pi_gain);
}

TEST(PerformanceShape, MoreCoresMoreSpeed) {
  const auto pi = makePiApprox(kTestScale);
  const sim::SccConfig config;
  const RunResult r4 = pi->run(Mode::RcceMpb, 4, config);
  const RunResult r16 = pi->run(Mode::RcceMpb, 16, config);
  EXPECT_LT(r16.makespan, r4.makespan / 3);
}

TEST(Workloads, DeterministicRuns) {
  const auto stream = makeStream(kTestScale);
  const sim::SccConfig config;
  const RunResult a = stream->run(Mode::RcceMpb, 8, config);
  const RunResult b = stream->run(Mode::RcceMpb, 8, config);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Workloads, SuiteHasSixBenchmarksInPaperOrder) {
  const auto suite = standardSuite(kTestScale);
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0]->name(), "PiApprox");
  EXPECT_EQ(suite[1]->name(), "3-5-Sum");
  EXPECT_EQ(suite[2]->name(), "CountPrimes");
  EXPECT_EQ(suite[3]->name(), "Stream");
  EXPECT_EQ(suite[4]->name(), "DotProduct");
  EXPECT_EQ(suite[5]->name(), "LU");
}

TEST(Workloads, PthreadSourcesExistForAllBenchmarks) {
  for (const std::string& name : pthreadSourceNames()) {
    EXPECT_FALSE(pthreadSource(name).empty()) << name;
    EXPECT_NE(pthreadSource(name).find("pthread_create"), std::string::npos) << name;
  }
  EXPECT_THROW((void)pthreadSource("NoSuchBenchmark"), std::out_of_range);
}

// --- joint replay vs the per-word oracle ---------------------------------------
// Stream and LU are the benchmarks whose word runs contend at the controllers;
// LU parks the UEs that own no row at a step at the barrier while their
// class-mates stream. At the benchmark's problem size, the default config
// (coalescing plus the joint replay) must reproduce the per-word path's
// makespan at every UE count, including uneven spreads over the four
// controllers (5, 17) and more UEs than one per tile (48).

TEST(JointReplay, StreamAndLuMakespansEqualThePerWordPath) {
  sim::SccConfig per_word;
  per_word.coalescing = false;
  const sim::SccConfig defaults;
  for (const auto& bench : {makeStream(1.0), makeLuDecomposition(1.0)}) {
    for (const Mode mode : {Mode::RcceOffChip, Mode::RcceMpb}) {
      for (const int ues : {5, 8, 17, 32, 48}) {
        const RunResult fast = bench->run(mode, ues, defaults);
        const RunResult oracle = bench->run(mode, ues, per_word);
        EXPECT_EQ(fast.makespan, oracle.makespan)
            << bench->name() << " " << modeName(mode) << " at " << ues << " UEs";
        EXPECT_TRUE(fast.verified) << fast.detail;
      }
    }
  }
}

// The replay's work counters are exact and deterministic: pin them for the
// benchmark's 32-UE LU off-chip job, where barrier-parked class-mates are
// admitted through their wake bounds. A change here changes what the replay
// admits and must be explained.
TEST(JointReplay, LuOffChipWorkCountersAt32Ues) {
  const sim::SccConfig config;
  const RunResult r = makeLuDecomposition(1.0)->run(Mode::RcceOffChip, 32, config);
  ASSERT_TRUE(r.verified) << r.detail;
  const auto& counters = r.metrics.sim_counters;
  ASSERT_TRUE(counters.contains("shm_joint_replays"));
  EXPECT_EQ(counters.at("shm_joint_replays"), 1823u);
  EXPECT_EQ(counters.at("shm_joint_replay_words"), 710603u);
  EXPECT_EQ(counters.at("events"), 49081u);
}

// --- closed-form kernels vs the naive loops -----------------------------------

/// Algorithm 11's inner loop as written: trial division by every j < i.
std::pair<bool, std::size_t> naiveTrialDivide(std::size_t i) {
  if (i < 2) return {false, 0};
  std::size_t trials = 0;
  for (std::size_t j = 2; j < i; ++j) {
    ++trials;
    if (i % j == 0) return {false, trials};
  }
  return {true, trials};
}

long long naiveChunkSum(std::size_t first, std::size_t last) {
  long long sum = 0;
  for (std::size_t i = first; i < last; ++i) {
    if (i % 3 == 0 || i % 5 == 0) sum += static_cast<long long>(i);
  }
  return sum;
}

TEST(Kernels, TrialDivideMatchesTheFullLoop) {
  for (std::size_t i = 0; i <= 60'000; ++i) {
    ASSERT_EQ(trialDivide(i), naiveTrialDivide(i)) << "candidate " << i;
  }
}

TEST(Kernels, ChunkSumMatchesTheNaiveLoop) {
  constexpr std::size_t kChunk = 8192;
  constexpr std::size_t kLimit = 3'000'000;
  for (std::size_t a = 0; a < kLimit; a += kChunk) {
    const std::size_t b = std::min(a + kChunk, kLimit);
    ASSERT_EQ(sum35ChunkSum(a, b), naiveChunkSum(a, b)) << "[" << a << ", " << b << ")";
  }
  for (std::size_t a = 0; a < 200; ++a) {
    for (std::size_t b = a; b < 400; ++b) {
      ASSERT_EQ(sum35ChunkSum(a, b), naiveChunkSum(a, b)) << "[" << a << ", " << b << ")";
    }
  }
}

TEST(Kernels, SieveCountsKnownPrimePopulations) {
  EXPECT_EQ(sievePrimeCount(0), 0);
  EXPECT_EQ(sievePrimeCount(1), 0);
  EXPECT_EQ(sievePrimeCount(2), 1);
  EXPECT_EQ(sievePrimeCount(100), 25);
  EXPECT_EQ(sievePrimeCount(2000), 303);
  EXPECT_EQ(sievePrimeCount(20'000), 2262);
}

}  // namespace
}  // namespace hsm::workloads
