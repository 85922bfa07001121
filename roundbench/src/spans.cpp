#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roundbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTrain: return "train";
    case Layer::kEval: return "eval";
    case Layer::kEncode: return "encode";
    case Layer::kDecode: return "decode";
    case Layer::kFold: return "fold";
    case Layer::kBcastEncode: return "bcast_encode";
    case Layer::kBcastDecode: return "bcast_decode";
    case Layer::kWire: return "wire";
    case Layer::kTransport: return "transport";
    case Layer::kWorker: return "worker";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t SpanRecorder::open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::record(Layer layer, double start, double end,
                          std::uint32_t id, std::uint32_t parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{layer, start, end, id, parent});
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty())
    throw std::invalid_argument("percentile: empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile: q must be in [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

bool percentile_has_tail(std::size_t count, double q, std::size_t tail) {
  if (count == 0) return false;
  // Samples ranked strictly above the interpolation position q * (n - 1);
  // the small epsilon keeps 0.9 * 99 from flooring to 89 - 1 ulp.
  const double pos = q * static_cast<double>(count - 1);
  const std::size_t at = static_cast<std::size_t>(std::floor(pos + 1e-9));
  return count - 1 - at >= tail;
}

double union_length(std::vector<Interval> intervals, Interval window) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, window.start);
    iv.end = std::min(iv.end, window.end);
  }
  std::erase_if(intervals, [](const Interval& iv) { return iv.end <= iv.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

namespace {

bool starts_in(const Span& s, Interval window) {
  return s.start >= window.start && s.start < window.end;
}

}  // namespace

double busy_seconds(const std::vector<Span>& spans, Layer layer,
                    Interval window) {
  double total = 0.0;
  for (const Span& s : spans)
    if (s.layer == layer && starts_in(s, window)) total += s.end - s.start;
  return total;
}

double layer_share(const std::vector<Span>& spans, Layer layer,
                   Interval window) {
  if (window.length() <= 0.0) return 0.0;
  std::vector<Interval> intervals;
  for (const Span& s : spans)
    if (s.layer == layer && starts_in(s, window))
      intervals.push_back(s.interval());
  return union_length(std::move(intervals), window) / window.length();
}

double self_seconds(const std::vector<Span>& spans, std::uint32_t id) {
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [id](const Span& s) { return s.id == id; });
  if (it == spans.end())
    throw std::invalid_argument("self_seconds: unknown span id");
  std::vector<Interval> children;
  for (const Span& s : spans)
    if (s.parent == id) children.push_back(s.interval());
  return it->interval().length() -
         union_length(std::move(children), it->interval());
}

double uncovered_seconds(const std::vector<Span>& spans, Interval window) {
  std::vector<Interval> intervals;
  intervals.reserve(spans.size());
  for (const Span& s : spans) intervals.push_back(s.interval());
  return window.length() - union_length(std::move(intervals), window);
}

}  // namespace roundbench
