// Shared helpers of the T_lookup ledger: the clock, order statistics, the
// seeded nanoconfinement domain the workloads draw their keys from, and the
// host/build fingerprint every output carries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "le/md/nanoconfinement.hpp"

namespace ledger {

// The ledger is a client of every le:: module; spell them as the library does.
using namespace le;

using Clock = std::chrono::steady_clock;

/// Seconds since the first call, as a double: every span, schedule and
/// latency in the ledger is on this one monotonic timeline.
inline double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Waits until `t`.  `spin` busy-waits the last stretch for microsecond
/// precision (used where the waiting thread is also the server); otherwise
/// the thread sleeps, leaving its core to the stack under test, and the
/// wake-up delay shows as generator lag.
inline void wait_until(double t, bool spin) {
  const double ahead = t - now_s();
  if (!spin) {
    if (ahead > 0) std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    return;
  }
  if (ahead > 300e-6) {
    std::this_thread::sleep_for(std::chrono::duration<double>(ahead - 200e-6));
  }
  while (now_s() < t) {
  }
}

/// The q-quantile (nearest rank) of `v`; +inf entries are failed requests,
/// which by definition miss every latency limit.  NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(std::ceil(q * v.size())) - (q > 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// splitmix64: the stateless hash that turns a request key into a state
/// point, so a key means the same input in every process and every run.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline double unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// The nanoconfinement domain (inputs h, z_p, z_n, c, d).  The set-up MD
// corpus spans h in [2.4, 3.2], c in [0.2, 0.5], z_p in {1, 2}; requests are
// drawn from the interior, where the MC spread sits well inside the gate.
inline constexpr double kHLo = 2.5, kHHi = 3.1;
inline constexpr double kCLo = 0.25, kCHi = 0.45;
inline constexpr std::size_t kGridH = 16, kGridC = 16;
inline constexpr std::size_t kGridSize = kGridH * kGridC * 2;

/// A new in-domain state point for key `key` (continuous h and c, so two
/// keys practically never share a cache entry).
inline std::vector<double> domain_point(std::uint64_t key) {
  const std::uint64_t a = mix(key), b = mix(a), c = mix(b);
  return {kHLo + (kHHi - kHLo) * unit(a), static_cast<double>(1 + (c & 1)),
          -1.0, kCLo + (kCHi - kCLo) * unit(b), 0.5};
}

/// Grid corner `g` of the sweep a campaign keeps re-asking
/// (kGridH x kGridC x z_p in {1, 2}).
inline std::vector<double> grid_point(std::size_t g) {
  const std::size_t ih = g % kGridH, ic = (g / kGridH) % kGridC,
                    iz = g / (kGridH * kGridC);
  return {kHLo + (kHHi - kHLo) * static_cast<double>(ih) / (kGridH - 1),
          static_cast<double>(1 + iz), -1.0,
          kCLo + (kCHi - kCLo) * static_cast<double>(ic) / (kGridC - 1), 0.5};
}

/// MD controls shared by the set-up corpus and the fallback simulation.
inline md::NanoconfinementParams md_params(const std::vector<double>& x,
                                           std::uint64_t seed) {
  md::NanoconfinementParams p;
  p.h = x[0];
  p.z_p = static_cast<int>(std::lround(x[1]));
  p.z_n = static_cast<int>(std::lround(x[2]));
  p.c = x[3];
  p.d = x[4];
  p.equilibration_steps = 150;
  p.production_steps = 600;
  p.sample_interval = 15;
  p.bins = 32;
  p.seed = seed;
  return p;
}

inline bool finite_row(const std::vector<double>& v, std::size_t dim) {
  if (v.size() != dim) return false;
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace ledger
