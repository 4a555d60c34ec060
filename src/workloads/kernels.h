// Host-side arithmetic of the integer compute twins (CountPrimes, 3-5-Sum),
// exposed so the tests can hold each closed form against the naive loop it
// replaces. Internal to the workloads layer: benchmark.h is the public API.
#pragma once

#include <cstddef>
#include <utility>

namespace hsm::workloads {

/// Algorithm 11's inner loop for candidate `c` (trial division by every
/// j in [2, c)), evaluated in O(sqrt(c)): returns {is_prime, trials} where
/// `trials` is the number of divisions that loop performs before it stops.
[[nodiscard]] std::pair<bool, std::size_t> trialDivide(std::size_t c);

/// Number of primes in [2, limit], by a sieve of Eratosthenes — the oracle
/// CountPrimes verifies against, independent of trialDivide.
[[nodiscard]] long long sievePrimeCount(std::size_t limit);

/// Sum of the multiples of 3 or 5 in [first, last), in O(1).
[[nodiscard]] long long sum35ChunkSum(std::size_t first, std::size_t last);

}  // namespace hsm::workloads
