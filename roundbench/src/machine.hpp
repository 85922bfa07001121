// The machine block every result carries: what the numbers were measured
// on, plus two fixed calibration kernels timed in the same process, so a
// reader can normalise round times across machines instead of comparing
// absolute seconds.
#pragma once

#include <string>

namespace roundbench {

struct MachineInfo {
  unsigned hardware_concurrency = 0;
  std::string compiler;
  std::string build_type;
  /// Fixed memcpy kernel: 8 MiB copied 64 times, median of 5, GB/s.
  double memcpy_gb_s = 0.0;
  /// Fixed scalar multiply-add kernel: 4 independent chains of 2^24
  /// x = x * a + b steps, median of 5, GFLOP/s (2 flops per step; fused
  /// only where the build targets FMA hardware).
  double scalar_madd_gflop_s = 0.0;
};

MachineInfo measure_machine();

/// One-line JSON object with the fields above.
std::string machine_json(const MachineInfo& info);

}  // namespace roundbench
