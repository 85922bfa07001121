// Span recorder and the arithmetic the round benchmark reports with.
//
// A span is one timed call into a layer (train, encode, decode, ...): its
// layer, start and end on the steady clock, its own id and the id of the
// span that caused it (0 = none). Workloads record spans from their own
// files around calls into the library; the recorder keeps them in memory
// and the report folds them per round:
//
//   busy    sum of a layer's span durations inside the round
//   share   length of the union of the layer's span intervals inside the
//           round, divided by the round's wall time (overlapping spans from
//           several pool threads count once)
//   self    a span's duration minus the part of it its child spans cover
//
// A disabled recorder allocates nothing and records nothing; the untraced
// run uses one so that both runs share the same code path.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace roundbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

enum class Layer : std::uint8_t {
  kTrain,
  kEval,
  kEncode,
  kDecode,
  kFold,
  kBcastEncode,
  kBcastDecode,
  kWire,
  kTransport,  // net::Stream write_all / read_some calls
  /// tcp_hier: an edge worker's round trip, from the root's BROADCAST
  /// write to its PARTIAL arriving (train, encode, fold, re-encode and
  /// transfer in the worker process).
  kWorker,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of a layer ("train", "bcast_encode", "transport", ...).
const char* layer_name(Layer layer);

struct Interval {
  double start = 0.0;
  double end = 0.0;
  double length() const { return end > start ? end - start : 0.0; }
};

struct Span {
  Layer layer = Layer::kTrain;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = no parent
  Interval interval() const { return {start, end}; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserve an id for a span that is about to start (0 when disabled), so
  /// children can name it as their parent before it ends.
  std::uint32_t open();
  /// Record a finished span. Thread-safe; a no-op when disabled.
  void record(Layer layer, double start, double end, std::uint32_t id,
              std::uint32_t parent = 0);
  /// Every span recorded so far, in recording order.
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
};

/// Times one call into a layer: records [construction, destruction) as a
/// span when the recorder is enabled, and reads no clock otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, Layer layer, std::uint32_t parent = 0)
      : recorder_(recorder),
        layer_(layer),
        parent_(parent),
        id_(recorder.open()),
        start_(recorder.enabled() ? now_s() : 0.0) {}
  ~ScopedSpan() {
    if (recorder_.enabled()) recorder_.record(layer_, start_, now_s(), id_, parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  Layer layer_;
  std::uint32_t parent_;
  std::uint32_t id_;
  double start_;
};

/// Runs `fn` under a span of `layer` and returns its duration; untraced,
/// just runs it and returns 0.
template <typename F>
double timed_span(SpanRecorder& recorder, Layer layer, F&& fn) {
  if (!recorder.enabled()) {
    fn();
    return 0.0;
  }
  const double start = now_s();
  fn();
  const double end = now_s();
  recorder.record(layer, start, end, recorder.open());
  return end - start;
}

// ---- arithmetic ----

/// Linear-interpolation percentile (the "inclusive" definition: q = 0 is
/// the minimum, q = 1 the maximum, q = 0.5 the usual median). Throws
/// std::invalid_argument on an empty sample or q outside [0, 1].
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// True when a sample of `count` values has at least `tail` values ranked
/// strictly above the `q` percentile's position q * (count - 1) — the rule
/// for reporting a percentile at all (p90 needs 100 samples).
bool percentile_has_tail(std::size_t count, double q, std::size_t tail = 10);

/// Length of the union of `intervals` clipped to `window`.
double union_length(std::vector<Interval> intervals, Interval window);

/// Sum of span durations of `layer` whose start lies in `window`.
double busy_seconds(const std::vector<Span>& spans, Layer layer,
                    Interval window);

/// Union of `layer`'s spans (start in `window`) over the window length.
double layer_share(const std::vector<Span>& spans, Layer layer,
                   Interval window);

/// Duration of span `id` minus the union of its direct children.
double self_seconds(const std::vector<Span>& spans, std::uint32_t id);

/// Window time that no span of any layer covers.
double uncovered_seconds(const std::vector<Span>& spans, Interval window);

}  // namespace roundbench
