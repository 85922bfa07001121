#include "machine.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "spans.hpp"

#ifndef ROUNDBENCH_COMPILER
#define ROUNDBENCH_COMPILER "unknown"
#endif
#ifndef ROUNDBENCH_BUILD_TYPE
#define ROUNDBENCH_BUILD_TYPE "unknown"
#endif

namespace roundbench {

namespace {

constexpr int kRepeats = 5;

double memcpy_gb_s() {
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  constexpr int kCopies = 64;
  std::vector<unsigned char> src(kBytes, 1), dst(kBytes, 0);
  std::vector<double> rates;
  for (int r = 0; r < kRepeats; ++r) {
    const double start = now_s();
    for (int c = 0; c < kCopies; ++c) {
      src[static_cast<std::size_t>(c)] = static_cast<unsigned char>(c);
      std::memcpy(dst.data(), src.data(), kBytes);
    }
    const double seconds = now_s() - start;
    // Read dst so the copies cannot be dropped.
    if (dst[kCopies - 1] != static_cast<unsigned char>(kCopies - 1))
      return 0.0;
    rates.push_back(static_cast<double>(kBytes) * kCopies / seconds / 1e9);
  }
  return median(rates);
}

double scalar_madd_gflop_s() {
  constexpr std::size_t kIterations = std::size_t{1} << 24;
  // The multiplier and addend come from a volatile so the loop cannot be
  // folded at compile time.
  volatile double seed = 0.999999;
  const double a = seed;
  const double b = 1.0 - seed;
  std::vector<double> rates;
  for (int r = 0; r < kRepeats; ++r) {
    double x0 = 0.1, x1 = 0.2, x2 = 0.3, x3 = 0.4;
    const double start = now_s();
    for (std::size_t i = 0; i < kIterations; ++i) {
      x0 = x0 * a + b;
      x1 = x1 * a + b;
      x2 = x2 * a + b;
      x3 = x3 * a + b;
    }
    const double seconds = now_s() - start;
    if (!std::isfinite(x0 + x1 + x2 + x3)) return 0.0;
    rates.push_back(4.0 * 2.0 * static_cast<double>(kIterations) / seconds /
                    1e9);
  }
  return median(rates);
}

}  // namespace

MachineInfo measure_machine() {
  MachineInfo info;
  info.hardware_concurrency = std::thread::hardware_concurrency();
  info.compiler = ROUNDBENCH_COMPILER;
  info.build_type = ROUNDBENCH_BUILD_TYPE;
  info.memcpy_gb_s = memcpy_gb_s();
  info.scalar_madd_gflop_s = scalar_madd_gflop_s();
  return info;
}

std::string machine_json(const MachineInfo& info) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"hardware_concurrency\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"memcpy_gb_s\": %.6g, "
                "\"scalar_madd_gflop_s\": %.6g}",
                info.hardware_concurrency, info.compiler.c_str(),
                info.build_type.c_str(), info.memcpy_gb_s,
                info.scalar_madd_gflop_s);
  return buf;
}

}  // namespace roundbench
