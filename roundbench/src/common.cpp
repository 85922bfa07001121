#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace roundbench {

CounterValues Counters::snapshot() const {
  CounterValues out{};
  for (std::size_t i = 0; i < kCounterCount; ++i)
    out[i] = static_cast<double>(values_[i].load(std::memory_order_relaxed));
  return out;
}

RoundMarker::RoundMarker(fedsz::core::SchedulerPtr inner,
                         bool stop_at_first_open, std::function<void()> on_open)
    : inner_(std::move(inner)),
      stop_at_first_open_(stop_at_first_open),
      on_open_(std::move(on_open)) {}

std::vector<std::size_t> RoundMarker::cohort(int round, std::size_t clients,
                                             fedsz::Rng& rng) {
  // Hierarchical runs ask once per edge cohort; the first ask opens the
  // round.
  if (static_cast<std::size_t>(round) >= opens_.size()) {
    opens_.push_back(now_s());
    if (stop_at_first_open_) throw SetupDone{};
    if (on_open_) on_open_();
  }
  return inner_->cohort(round, clients, rng);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int measured_rounds(double seconds, double nominal_round_s, int floor) {
  return std::max(floor, static_cast<int>(seconds / nominal_round_s));
}

namespace {

double sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double counter(const RoundSample& r, Counter c) {
  return r.counters[static_cast<std::size_t>(c)];
}

/// Wall seconds of every measured round (round 0 is the warm-up).
std::vector<double> measured_walls(const PassResult& pass) {
  std::vector<double> walls;
  for (std::size_t r = 1; r < pass.rounds.size(); ++r)
    walls.push_back(pass.rounds[r].wall());
  return walls;
}

std::map<std::string, double> round_layer_values(const PassResult& pass,
                                                 const RoundSample& r) {
  const Interval w = r.window();
  const double wall = r.wall();
  std::vector<Span> spans;
  for (const Span& s : pass.spans)
    if (s.start >= w.start && s.start < w.end) spans.push_back(s);

  std::map<std::string, double> v;
  auto layer = [&](Layer l) {
    const std::string name = layer_name(l);
    v[name + ".busy_s"] = busy_seconds(spans, l, w);
    v[name + ".share"] = wall > 0.0 ? layer_share(spans, l, w) * w.length() / wall
                                    : 0.0;
  };
  for (std::size_t l = 0; l < kLayerCount; ++l) layer(static_cast<Layer>(l));
  // Transport time is reported split into write and read-wait seconds from
  // the counters; its spans still feed engine self time below.
  v.erase("transport.busy_s");
  v.erase("transport.share");

  v["train.calls"] = counter(r, Counter::kTrainCalls);
  v["train.samples"] = counter(r, Counter::kTrainSamples);
  v["eval.samples"] = counter(r, Counter::kEvalSamples);
  const double encodes = counter(r, Counter::kEncodeCalls);
  v["encode.calls"] = encodes;
  v["encode.bytes_in"] = counter(r, Counter::kEncodeBytesIn);
  v["encode.bytes_out"] = counter(r, Counter::kEncodeBytesOut);
  v["encode.allocs_per_call"] =
      encodes > 0.0 ? counter(r, Counter::kEncodeAllocs) / encodes : 0.0;
  v["decode.calls"] = counter(r, Counter::kDecodeCalls);
  v["decode.failed"] = counter(r, Counter::kDecodeFailed);
  v["fold.calls"] = counter(r, Counter::kFoldCalls);
  v["bcast_decode.calls"] = counter(r, Counter::kBcastDecodeCalls);
  v["wire.frames"] = counter(r, Counter::kWireFrames);
  v["wire.bytes"] = counter(r, Counter::kWireBytes);
  v["transport.write_s"] = counter(r, Counter::kTransportWriteNs) * 1e-9;
  v["transport.read_wait_s"] = counter(r, Counter::kTransportReadWaitNs) * 1e-9;
  v["transport.bytes"] = counter(r, Counter::kTransportBytes);
  const double self = uncovered_seconds(spans, w) - r.excluded;
  v["engine.self_s"] = self;
  v["engine.share"] = wall > 0.0 ? self / wall : 0.0;
  for (const auto& [name, value] : r.reported) v[name] = value;
  return v;
}

std::string unit_of(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_s")) return "s";
  if (ends_with(".share")) return "fraction";
  if (ends_with("bytes") || ends_with("bytes_in") || ends_with("bytes_out"))
    return "bytes";
  if (ends_with("allocs_per_call")) return "allocs/call";
  if (ends_with("samples")) return "samples";
  if (ends_with("frames")) return "frames";
  return "count";
}

}  // namespace

Metrics end_to_end_metrics(const PassResult& pass) {
  Metrics m;
  std::vector<double> setups;
  for (const SetupSample& s : pass.setups) setups.push_back(s.total);
  m["setup_s"] = {median(setups), "s"};
  const std::vector<double> walls = measured_walls(pass);
  m["round_s"] = {median(walls), "s"};
  m["round_s_samples"] = {static_cast<double>(walls.size()), "count"};
  for (const double q : {0.99, 0.95, 0.9, 0.8, 0.75}) {
    if (!percentile_has_tail(walls.size(), q)) continue;
    m["round_s_tail"] = {percentile(walls, q), "s"};
    m["round_s_tail_q"] = {q, "fraction"};
    break;
  }
  const double uplink = sum(pass.uplink_bytes);
  m["compression_ratio"] = {uplink > 0.0 ? sum(pass.uplink_raw_bytes) / uplink : 0.0,
                            "x"};
  m["wire_bytes_per_round"] = {
      sum(pass.wire_bytes) / static_cast<double>(std::max<std::size_t>(
                                 1, pass.wire_bytes.size())),
      "bytes"};
  if (!pass.accuracy.empty())
    m["final_accuracy"] = {pass.accuracy.back(), "fraction"};
  m["peak_rss_mb"] = {pass.peak_rss_mb, "MB"};
  m["failed_share"] = {
      pass.attempted > 0 ? static_cast<double>(pass.failed) /
                               static_cast<double>(pass.attempted)
                         : 1.0,
      "fraction"};
  return m;
}

std::vector<std::map<std::string, double>> per_round_layer_values(
    const PassResult& pass) {
  std::vector<std::map<std::string, double>> out;
  for (std::size_t r = 1; r < pass.rounds.size(); ++r) {
    out.push_back(round_layer_values(pass, pass.rounds[r]));
    out.back()["round_s"] = pass.rounds[r].wall();
  }
  return out;
}

Metrics per_layer_metrics(const PassResult& pass) {
  std::map<std::string, std::vector<double>> per_round;
  for (const auto& round : per_round_layer_values(pass))
    for (const auto& [name, value] : round)
      if (name != "round_s") per_round[name].push_back(value);
  Metrics m;
  for (const auto& [name, values] : per_round)
    m[name] = {median(values), unit_of(name)};
  std::vector<double> dataset, model, workers;
  for (const SetupSample& s : pass.setups) {
    dataset.push_back(s.dataset);
    model.push_back(s.model);
    workers.push_back(s.workers);
  }
  m["setup.dataset_s"] = {median(dataset), "s"};
  m["setup.model_s"] = {median(model), "s"};
  m["setup.workers_s"] = {median(workers), "s"};
  return m;
}

}  // namespace roundbench
