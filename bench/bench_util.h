#ifndef AMS_BENCH_BENCH_UTIL_H_
#define AMS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "nn/simd.h"
#include "util/stats.h"
#include "util/table.h"

namespace ams::bench {

/// Integer env-var knob with a fallback (the benches' AMS_BENCH_* scaling).
inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// The machine fields every BENCH_*.json "workload" header carries, as a
/// JSON fragment: core count and the SIMD tier the nn kernels dispatch to.
/// tools/bench_compare.py refuses to compare files whose values differ.
inline std::string HardwareJsonFields() {
  return "\"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_tier\": \"" + nn::simd::TierName(nn::simd::ActiveTier()) +
         "\"";
}

/// Prints a section banner so bench output reads like the paper's figures.
inline void Banner(const std::string& title) {
  std::cout << "\n================================================================\n"
            << title << "\n"
            << "================================================================\n";
}

/// Prints an empirical CDF as rows "x  P(X<=x)" on a fixed grid.
inline void PrintCdf(const std::string& name, std::vector<double> values,
                     const std::vector<double>& grid) {
  std::sort(values.begin(), values.end());
  util::AsciiTable table;
  table.SetHeader({name, "P(X<=x)"});
  for (double x : grid) {
    table.AddRow(util::FormatDouble(x, 2),
                 {util::CdfAt(values, x)});
  }
  table.Print(std::cout);
}

/// Evenly spaced grid [lo, hi] with n points.
inline std::vector<double> Grid(double lo, double hi, int n) {
  std::vector<double> grid;
  grid.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    grid.push_back(lo + (hi - lo) * i / (n - 1));
  }
  return grid;
}

}  // namespace ams::bench

#endif  // AMS_BENCH_BENCH_UTIL_H_
