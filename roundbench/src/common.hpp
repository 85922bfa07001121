// What the three workloads share: run options, the per-round counters the
// bench's call sites bump, the Scheduler decorator that marks round
// boundaries inside the real coordinator or root, the per-pass result, and
// the reduction of a pass into named metrics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/fl/scheduler.hpp"
#include "spans.hpp"

namespace roundbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_path;  // fedsz_edge_worker binary (tcp_hier)
};

/// Pool threads / worker processes every workload uses: fixed, never
/// derived from the host's hardware concurrency.
inline constexpr std::size_t kThreads = 4;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;
/// The uplink codec of every workload: FedSZ at REL 1e-2, serial.
inline constexpr const char* kCodecSpec = "fedsz:eb=rel:1e-2";

enum class Counter : std::size_t {
  kTrainCalls,
  kTrainSamples,
  kEvalSamples,
  kEncodeCalls,
  kEncodeBytesIn,
  kEncodeBytesOut,
  kEncodeAllocs,
  kDecodeCalls,
  kDecodeFailed,
  kFoldCalls,
  kBcastDecodeCalls,
  kWireFrames,
  kWireBytes,
  kTransportBytes,
  kTransportWriteNs,
  kTransportReadWaitNs,
  kCount,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

using CounterValues = std::array<double, kCounterCount>;

/// Counts made at the bench's call sites; pool and reader threads bump
/// them concurrently, the round loop snapshots them at round boundaries.
class Counters {
 public:
  void add(Counter c, std::uint64_t n) {
    values_[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  /// For the *Ns counters: add `seconds` as whole nanoseconds.
  void add_seconds(Counter c, double seconds) {
    add(c, static_cast<std::uint64_t>(seconds * 1e9));
  }
  CounterValues snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> values_{};
};

struct RoundSample {
  double open = 0.0;   // now_s() when the round opened
  double close = 0.0;  // now_s() when the next round opened or the run ended
  /// Bench-side output checks inside the window; not part of the round.
  double excluded = 0.0;
  CounterValues counters{};  // this round's counter deltas
  /// Layer metrics taken from the program's own round record rather than
  /// from bench spans (tcp_hier, whose workers run in other processes).
  std::map<std::string, double> reported;
  double wall() const { return close - open - excluded; }
  Interval window() const { return {open, close}; }
};

struct SetupSample {
  double total = 0.0;    // bench entry until the first round opened
  double dataset = 0.0;  // inputs: datasets, per-client deltas
  double model = 0.0;    // models, server, clients, codec
  double workers = 0.0;  // worker spawn + handshake (tcp_hier)
};

/// One pass of a workload: its rounds (round 0 is the warm-up), spans when
/// traced, the deterministic counters, and the output-check tallies.
struct PassResult {
  std::vector<SetupSample> setups;
  std::vector<RoundSample> rounds;
  std::vector<Span> spans;
  // Deterministic per-round outputs (fixed seed => identical every run).
  std::vector<std::uint64_t> uplink_bytes;
  std::vector<std::uint64_t> uplink_raw_bytes;
  std::vector<std::uint64_t> wire_bytes;  // uplink + backhaul + broadcast
  std::vector<double> accuracy;           // empty when nothing is evaluated
  std::uint64_t attempted = 0;            // updates attempted
  std::uint64_t failed = 0;               // attempted but not folded
  std::vector<std::string> problems;      // failed output checks
  double peak_rss_mb = 0.0;
};

/// Thrown from RoundMarker::cohort to stop a run at its first round open;
/// how the extra set-ups of a run end without running a campaign.
struct SetupDone {};

/// Scheduler decorator handed to the real coordinator or root: forwards
/// every decision to `inner` and time-stamps the first cohort() call of
/// each round, which is when the round opens.
class RoundMarker final : public fedsz::core::Scheduler {
 public:
  RoundMarker(fedsz::core::SchedulerPtr inner, bool stop_at_first_open,
              std::function<void()> on_open = {});

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> cohort(int round, std::size_t clients,
                                  fedsz::Rng& rng) override;
  std::size_t aggregation_goal(std::size_t cohort_size) const override {
    return inner_->aggregation_goal(cohort_size);
  }
  bool continuous() const override { return inner_->continuous(); }
  double staleness_scale(int dispatch_round, int server_round) const override {
    return inner_->staleness_scale(dispatch_round, server_round);
  }

  const std::vector<double>& opens() const { return opens_; }

 private:
  fedsz::core::SchedulerPtr inner_;
  bool stop_at_first_open_;
  std::function<void()> on_open_;
  std::vector<double> opens_;
};

/// This process's peak resident set, in MB.
double peak_rss_mb();

/// Rounds to measure (after the warm-up) in `seconds` at a nominal
/// per-round cost, at least `floor`; fixed by the arguments alone so the
/// deterministic outputs do not depend on how fast the host is.
int measured_rounds(double seconds, double nominal_round_s, int floor);

using Metric = std::pair<double, std::string>;  // value, unit
using Metrics = std::map<std::string, Metric>;

/// setup_s, round_s, compression_ratio, wire_bytes_per_round, peak_rss_mb,
/// failed_share, final_accuracy (when evaluated), and the round-time tail:
/// round_s_samples, and when some percentile of them has at least 10
/// samples beyond it, round_s_tail at the highest such round_s_tail_q.
Metrics end_to_end_metrics(const PassResult& pass);

/// Per-layer values of each measured round (what per_layer_metrics takes
/// the medians of), for the full result file.
std::vector<std::map<std::string, double>> per_round_layer_values(
    const PassResult& pass);

/// Every per-layer metric: medians over the measured rounds of per-round
/// busy time, calls, bytes and shares, plus engine self time and the
/// set-up split.
Metrics per_layer_metrics(const PassResult& pass);

}  // namespace roundbench
