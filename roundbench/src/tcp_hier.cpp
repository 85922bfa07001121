#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/codec_spec.hpp"
#include "core/fl/federation.hpp"
#include "data/synthetic.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

extern char** environ;

namespace roundbench {

namespace core = fedsz::core;
namespace net = fedsz::net;

namespace {

/// topology=hier:4 over 8 clients: two edge cohorts of 4, one worker
/// process each.
constexpr std::size_t kEdges = 2;

/// The Stream the root talks through: forwards to the accepted TCP stream
/// and counts bytes. Traced, it also times every write and every blocking
/// read, parses the bytes read into frames with its own FrameDecoder, and
/// records each worker's round trip as a span from the BROADCAST write to
/// the PARTIAL it answers with.
class TimedStream final : public net::Stream {
 public:
  TimedStream(net::StreamPtr inner, SpanRecorder& recorder, Counters& counters)
      : inner_(std::move(inner)), recorder_(recorder), counters_(counters) {}

  void write_all(fedsz::ByteSpan data) override {
    const bool traced = recorder_.enabled();
    const double start = traced ? now_s() : 0.0;
    inner_->write_all(data);
    counters_.add(Counter::kTransportBytes, data.size());
    if (!traced) return;
    const double end = now_s();
    counters_.add_seconds(Counter::kTransportWriteNs, end - start);
    recorder_.record(Layer::kTransport, start, end, recorder_.open());
    // FrameChannel writes one whole frame per call; byte 5 is its type.
    if (data.size() >= net::kWireHeaderBytes) {
      counters_.add(Counter::kWireFrames, 1);
      counters_.add(Counter::kWireBytes, data.size());
      if (data[5] == static_cast<std::uint8_t>(net::FrameType::kBroadcast)) {
        std::lock_guard<std::mutex> lock(mutex_);
        broadcast_end_ = end;
      }
    }
  }

  std::size_t read_some(std::uint8_t* out, std::size_t capacity) override {
    const bool traced = recorder_.enabled();
    const double start = traced ? now_s() : 0.0;
    const std::size_t got = inner_->read_some(out, capacity);
    counters_.add(Counter::kTransportBytes, got);
    if (!traced || got == 0) return got;
    const double end = now_s();
    // Blocking reads wait on the workers; they are counted, not spanned,
    // so they do not hide the root's own time from engine.self_s.
    counters_.add_seconds(Counter::kTransportReadWaitNs, end - start);
    decoder_.feed({out, got});
    while (std::optional<net::Frame> frame = decoder_.next()) {
      counters_.add(Counter::kWireFrames, 1);
      counters_.add(Counter::kWireBytes,
                    net::kWireHeaderBytes + frame->payload.size());
      if (frame->type != net::FrameType::kPartial) continue;
      std::lock_guard<std::mutex> lock(mutex_);
      if (broadcast_end_ > 0.0)
        recorder_.record(Layer::kWorker, broadcast_end_, end, recorder_.open());
      broadcast_end_ = 0.0;
    }
    return got;
  }

  void close() override { inner_->close(); }

 private:
  net::StreamPtr inner_;
  SpanRecorder& recorder_;
  Counters& counters_;
  net::FrameDecoder decoder_;  // reader thread only
  std::mutex mutex_;           // guards broadcast_end_
  double broadcast_end_ = 0.0;
};

/// A spawned fedsz_edge_worker; wait() reaps it exactly once.
class WorkerProcess {
 public:
  WorkerProcess(const std::string& path, std::uint16_t port) {
    const std::string endpoint = "127.0.0.1:" + std::to_string(port);
    std::string arg0 = path, flag = "--connect", arg2 = endpoint;
    char* argv[] = {arg0.data(), flag.data(), arg2.data(), nullptr};
    if (posix_spawn(&pid_, path.c_str(), nullptr, nullptr, argv, environ) != 0)
      throw std::runtime_error("tcp_hier: cannot spawn " + path);
  }
  ~WorkerProcess() {
    if (pid_ > 0) wait();
  }
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  /// Exit status (-1 when killed by a signal); peak RSS lands in rss_mb().
  int wait() {
    int status = 0;
    struct rusage usage {};
    while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  double rss_mb() const { return rss_mb_; }

 private:
  pid_t pid_ = -1;
  double rss_mb_ = 0.0;
};

}  // namespace

PassResult tcp_hier(const RunOptions& options, int rounds, bool traced) {
  PassResult pass;
  SpanRecorder recorder(traced);
  Counters counters;
  std::vector<CounterValues> open_counters;
  core::FlRunResult result;
  double end = 0.0;
  std::vector<double> opens;
  double workers_rss = 0.0;

  const core::CodecSpec spec =
      core::parse_codec_spec(std::string(kCodecSpec) + ",topology=hier:4");
  for (int k = 0; k < kSetupRepeats; ++k) {
    const bool last = k + 1 == kSetupRepeats;
    const double t0 = now_s();
    // The root evaluates; each worker rebuilds its training shards from the
    // manifest's dataset recipe.
    fedsz::data::DatasetPtr test = fedsz::data::take(
        fedsz::data::make_dataset("cifar10", options.seed).second,
        kFlatEvalSamples);
    const core::DatasetSpec train{"cifar10", options.seed,
                                  kFlatClients * kFlatSamplesPerClient};
    const double t1 = now_s();
    core::FlRunConfig config = flat_config(options.seed, rounds);
    config.apply_comm_spec(spec);
    auto marker = std::make_shared<RoundMarker>(
        core::make_sync_scheduler(), !last,
        [&] { open_counters.push_back(counters.snapshot()); });
    core::FederatedRoot root(flat_model(options.seed), train, test, config,
                             spec, marker);
    const double t2 = now_s();

    net::TcpListener listener(0);
    std::vector<std::unique_ptr<WorkerProcess>> workers;
    for (std::size_t e = 0; e < kEdges; ++e)
      workers.push_back(
          std::make_unique<WorkerProcess>(options.worker_path, listener.port()));
    std::vector<net::StreamPtr> streams;
    for (std::size_t e = 0; e < kEdges; ++e)
      streams.push_back(
          std::make_shared<TimedStream>(listener.accept(), recorder, counters));
    listener.close();
    try {
      result = root.run_with_streams(std::move(streams));
    } catch (const SetupDone&) {
    }
    end = now_s();
    opens = marker->opens();
    pass.setups.push_back(
        {opens.front() - t0, t1 - t0, t2 - t1, opens.front() - t2});
    for (auto& worker : workers) {
      const int status = worker->wait();
      if (last && status != 0)
        pass.problems.push_back("tcp_hier: worker exited with status " +
                                std::to_string(status));
      if (last) workers_rss += worker->rss_mb();
    }
    if (!last) open_counters.clear();
  }

  const std::vector<Span> spans = recorder.spans();
  const CounterValues final_counters = counters.snapshot();
  if (static_cast<int>(result.rounds.size()) != rounds ||
      opens.size() != result.rounds.size())
    pass.problems.push_back("tcp_hier: root ran " +
                            std::to_string(result.rounds.size()) +
                            " rounds, expected " + std::to_string(rounds));
  for (std::size_t r = 0; r < result.rounds.size() && r < opens.size(); ++r) {
    const core::RoundRecord& rec = result.rounds[r];
    RoundSample sample;
    sample.open = opens[r];
    sample.close = r + 1 < opens.size() ? opens[r + 1] : end;
    const CounterValues& next =
        r + 1 < open_counters.size() ? open_counters[r + 1] : final_counters;
    for (std::size_t c = 0; c < kCounterCount; ++c)
      sample.counters[c] = next[c] - open_counters[r][c];

    // Work inside the worker processes, as their PARTIALs report it.
    const double participants = static_cast<double>(rec.participants);
    const double partials = static_cast<double>(rec.edges.size());
    const double wall = sample.wall();
    sample.reported["train.busy_s"] = rec.train_seconds * participants;
    sample.reported["train.calls"] = participants;
    sample.reported["train.samples"] = rec.aggregate_weight;
    sample.reported["encode.busy_s"] = rec.compress_seconds * participants;
    sample.reported["encode.calls"] = participants;
    sample.reported["encode.bytes_in"] = static_cast<double>(rec.raw_bytes);
    sample.reported["encode.bytes_out"] = static_cast<double>(rec.bytes_sent);
    sample.reported["decode.busy_s"] =
        rec.decompress_seconds * participants +
        rec.backhaul_decode_seconds * partials;
    sample.reported["decode.calls"] = participants + partials;
    sample.reported["fold.calls"] = participants + partials;
    // Each worker trains its cohort serially, concurrently with the other
    // worker: the union of the two is about the busier one's sum.
    sample.reported["train.share"] =
        wall > 0.0 ? rec.train_seconds * participants / kEdges / wall : 0.0;
    sample.reported["encode.share"] =
        wall > 0.0 ? rec.compress_seconds * participants / kEdges / wall : 0.0;
    sample.reported["eval.samples"] = static_cast<double>(kFlatEvalSamples);
    pass.rounds.push_back(sample);
    // The root evaluates last thing in the round, right before the next
    // round opens; its span is placed there from the round record's timer.
    pass.spans.push_back(
        {Layer::kEval, sample.close - rec.eval_seconds, sample.close, 0, 0});

    pass.uplink_bytes.push_back(rec.bytes_sent);
    pass.uplink_raw_bytes.push_back(rec.raw_bytes);
    pass.wire_bytes.push_back(rec.bytes_sent + rec.backhaul_bytes +
                              rec.downlink_bytes + rec.backhaul_downlink_bytes);
    pass.accuracy.push_back(rec.accuracy);
    pass.attempted += kFlatClients;
    pass.failed += kFlatClients - std::min(kFlatClients, rec.participants);
    if (!rec.crashed_nodes.empty())
      pass.problems.push_back("tcp_hier: an edge worker crashed in round " +
                              std::to_string(r));
  }
  pass.spans.insert(pass.spans.end(), spans.begin(), spans.end());
  pass.peak_rss_mb = peak_rss_mb() + workers_rss;
  return pass;
}

}  // namespace roundbench
