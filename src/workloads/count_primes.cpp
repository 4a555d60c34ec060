// Count Primes (paper Algorithm 11): trial division with the full j<i loop.
// Work per candidate grows with its value, so block partitioning leaves the
// high-range cores with ~2x the average work — the load imbalance behind
// CountPrimes' ~16x (not 32x) in Fig. 6.1.
//
// The host does not run that loop. The loop stops at a candidate's smallest
// divisor j after j - 1 divisions, and a composite c has one with j*j <= c;
// a prime runs all c - 2. So trialDivide finds the same {is_prime, trials}
// by trial division up to sqrt(c). The kernels charge `trials` exactly as
// before, batch by batch, so every Tick is unchanged: the simulated cost is
// Algorithm 11's, only the host arithmetic is cheaper. The verification
// oracle is a sieve, which shares no code with trialDivide.
#include <cstring>
#include <vector>

#include "rcce/rcce.h"
#include "sim/machine.h"
#include "threadrt/baseline.h"
#include "workloads/benchmark.h"
#include "workloads/kernels.h"

namespace hsm::workloads {

std::pair<bool, std::size_t> trialDivide(std::size_t c) {
  if (c < 2) return {false, 0};
  for (std::size_t j = 2; j * j <= c; ++j) {
    if (c % j == 0) return {false, j - 1};
  }
  return {true, c - 2};
}

long long sievePrimeCount(std::size_t limit) {
  if (limit < 2) return 0;
  std::vector<bool> composite(limit + 1, false);
  long long count = 0;
  for (std::size_t i = 2; i <= limit; ++i) {
    if (composite[i]) continue;
    ++count;
    for (std::size_t m = i * i; m <= limit; m += i) composite[m] = true;
  }
  return count;
}

namespace {

constexpr int kSumLock = 0;

struct PrimesParams {
  std::size_t limit = 20'000;
};

/// The loop both kernels run over their slice of candidates [2, limit]:
/// counts its primes into `primes`. Candidates are batched (one event per
/// batch of 64) while charging the simulated division cost exactly.
template <typename Ctx>
sim::SubTask countSlice(Ctx& ctx, Slice s, long long& primes) {
  const std::size_t lo = 2 + s.first;
  const std::size_t hi = 2 + s.last;
  constexpr std::size_t kCandidatesPerEvent = 64;
  for (std::size_t i = lo; i < hi; i += kCandidatesPerEvent) {
    const std::size_t end = std::min(i + kCandidatesPerEvent, hi);
    std::uint64_t divisions = 0;
    for (std::size_t c = i; c < end; ++c) {
      const auto [is_prime, trials] = trialDivide(c);
      primes += is_prime ? 1 : 0;
      divisions += trials;
    }
    co_await ctx.computeOps(divisions, sim::OpClass::IntDiv);
    co_await ctx.computeOps(divisions, sim::OpClass::IntAlu);
  }
}

sim::SimTask primesThread(threadrt::ThreadContext& ctx, PrimesParams p,
                          std::uint64_t count_addr) {
  long long primes = 0;
  co_await countSlice(ctx, blockSlice(p.limit - 1, ctx.numThreads(), ctx.tid()), primes);
  co_await ctx.lockAcquire(kSumLock);
  long long global = 0;
  co_await ctx.memRead(count_addr, &global, sizeof(global));
  global += primes;
  co_await ctx.memWrite(count_addr, &global, sizeof(global));
  co_await ctx.lockRelease(kSumLock);
}

sim::SimTask primesRcce(sim::CoreContext& ctx, PrimesParams p,
                        rcce::ShmArray<long long> acc,
                        rcce::MpbArray<long long> mpb_acc, bool use_mpb) {
  long long primes = 0;
  co_await countSlice(ctx, blockSlice(p.limit - 1, ctx.numUes(), ctx.ue()), primes);
  co_await ctx.lockAcquire(kSumLock);
  long long global = 0;
  if (use_mpb) {
    co_await mpb_acc.read(ctx, 0, 0, &global);
    global += primes;
    co_await mpb_acc.write(ctx, 0, 0, global);
  } else {
    co_await acc.read(ctx, 0, &global);
    global += primes;
    co_await acc.write(ctx, 0, global);
  }
  co_await ctx.lockRelease(kSumLock);
  co_await ctx.barrier();
}

class CountPrimes final : public Benchmark {
 public:
  explicit CountPrimes(double scale) {
    params_.limit = static_cast<std::size_t>(static_cast<double>(params_.limit) * scale);
    if (params_.limit < 100) params_.limit = 100;
  }

  [[nodiscard]] std::string name() const override { return "CountPrimes"; }

  // (No repeated default for plan: defaults on virtuals bind to the
  // static type — Benchmark::run's declaration owns it.)
  [[nodiscard]] RunResult run(Mode mode, int units, const sim::SccConfig& config,
                              const partition::ExecutionPlan* plan)
      const override {
    RunResult result;
    result.benchmark = name();
    result.mode = mode;
    result.units = units;
    const PrimesParams p = params_;

    long long computed = 0;
    if (mode == Mode::PthreadSingleCore) {
      threadrt::SingleCoreRuntime rt(config);
      const std::uint64_t count_addr = 0;
      std::memset(rt.machine().privData(0, count_addr), 0, sizeof(long long));
      rt.launch(units, [&](threadrt::ThreadContext& ctx) {
        return primesThread(ctx, p, count_addr);
      });
      result.makespan = rt.run();
      std::memcpy(&computed, rt.machine().privData(0, count_addr), sizeof(long long));
    } else {
      sim::SccMachine machine(config);
      rcce::RcceEnv env(machine);
      // "total" is the source's per-thread count array, summed in main:
      // on-chip placement funnels the reduction through UE 0's slot.
      const bool use_mpb = partition::isOnChip(resolvePlacement(
          plan, "total", mode, partition::PlacementClass::kOnChipResident));
      rcce::ShmArray<long long> acc = makeShmArray<long long>(
          env, 1, plan, "total", mode, partition::PlacementClass::kOnChipResident);
      rcce::MpbArray<long long> mpb_acc(env, units, 1);
      *acc.hostData() = 0;
      *mpb_acc.hostData(0) = 0;
      machine.launch(sim::LaunchSpec(units, [&](sim::CoreContext& ctx) {
        return primesRcce(ctx, p, acc, mpb_acc, use_mpb);
      }).withPlan(plan));
      result.makespan = machine.run();
      recordMachineRobustness(result, machine);
      result.plan_regions_unrealized = countUnrealizedRegions(plan, {"total"});
      computed = use_mpb ? *mpb_acc.hostData(0) : *acc.hostData();
    }

    result.verified = computed == sievePrimeCount(p.limit);
    deriveDetail(result, "primes=" + std::to_string(computed));
    return result;
  }

 private:
  PrimesParams params_;
};

}  // namespace

std::unique_ptr<Benchmark> makeCountPrimes(double scale) {
  return std::make_unique<CountPrimes>(scale);
}

}  // namespace hsm::workloads
