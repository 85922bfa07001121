#include <algorithm>
#include <cmath>
#include <future>
#include <memory>

#include "alloc_count.hpp"
#include "compress/lossy/error_bound.hpp"
#include "core/codec_spec.hpp"
#include "core/fedsz.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace roundbench {

namespace core = fedsz::core;

namespace {

constexpr std::size_t kClients = 16;
constexpr double kClientWeight = 64.0;  // samples behind each update
/// Per-client delta amplitude, as a fraction of each tensor's value range.
constexpr double kDeltaScale = 1e-3;
constexpr double kBoundRel = 1e-2;  // kCodecSpec's eb=rel:1e-2
/// Algorithm 1's default threshold (FedSzConfig::lossy_threshold).
constexpr std::size_t kLossyThreshold = 1000;

fedsz::ByteSpan view(const fedsz::Bytes& bytes) {
  return {bytes.data(), bytes.size()};
}

fedsz::nn::ModelConfig ingest_model(std::uint64_t seed) {
  fedsz::nn::ModelConfig model;
  model.arch = "alexnet";
  model.scale = fedsz::nn::ModelScale::kBench;
  model.seed = seed;
  return model;
}

/// Client i's fixed update delta: uniform noise of kDeltaScale times each
/// tensor's value range, from its own seeded stream.
fedsz::StateDict make_delta(const fedsz::StateDict& global, std::uint64_t seed,
                            std::size_t client) {
  fedsz::Rng rng(seed ^ (0xDE17A5EEDull * (client + 1)));
  fedsz::StateDict delta = global.zeros_like();
  for (auto& [name, tensor] : delta.entries_mutable()) {
    const fedsz::Tensor& g = global.get(name);
    const auto [lo, hi] = std::minmax_element(g.data(), g.data() + g.numel());
    const double range = g.numel() > 0 ? static_cast<double>(*hi - *lo) : 0.0;
    const double amplitude = kDeltaScale * (range > 0.0 ? range : 1.0);
    float* d = tensor.data();
    for (std::size_t j = 0; j < tensor.numel(); ++j)
      d[j] = static_cast<float>(amplitude * (2.0 * rng.uniform() - 1.0));
  }
  return delta;
}

/// Empty when `decoded` reconstructs `reference + delta` within the codec's
/// contract: lossy-path tensors within their resolved REL bound, every
/// other tensor bit-exact. Otherwise the first violation.
std::string check_decode(const fedsz::StateDict& decoded,
                         const fedsz::StateDict& reference,
                         const fedsz::StateDict& delta,
                         std::vector<float>& scratch) {
  if (decoded.size() != reference.size())
    return "decoded " + std::to_string(decoded.size()) + " tensors, expected " +
           std::to_string(reference.size());
  const fedsz::lossy::ErrorBound bound =
      fedsz::lossy::ErrorBound::relative(kBoundRel);
  for (const auto& [name, ref] : reference.entries()) {
    if (!decoded.contains(name)) return "missing tensor " + name;
    const fedsz::Tensor& got = decoded.get(name);
    const fedsz::Tensor& d = delta.get(name);
    if (got.numel() != ref.numel()) return "tensor " + name + " changed size";
    // The client's update, recomputed the way add_scaled_matched made it.
    scratch.resize(ref.numel());
    for (std::size_t j = 0; j < ref.numel(); ++j)
      scratch[j] = ref.data()[j] + 1.0f * d.data()[j];
    const bool lossy =
        core::is_lossy_entry(name, ref.numel(), kLossyThreshold);
    // The repository's own bound contract for SZ2 (tests/lossy_test.cpp):
    // the double-precision guarantee plus float32 rounding slack.
    const double eps =
        lossy ? bound.absolute_for({scratch.data(), scratch.size()}) *
                        (1.0 + 1e-5) + 1e-12
              : 0.0;
    for (std::size_t j = 0; j < ref.numel(); ++j) {
      const double err = std::fabs(static_cast<double>(got.data()[j]) -
                                   static_cast<double>(scratch[j]));
      if (!(err <= eps))
        return "tensor " + name + " element " + std::to_string(j) +
               " off by " + std::to_string(err) + " > bound " +
               std::to_string(eps);
    }
  }
  return {};
}

struct ClientOut {
  std::size_t frame_bytes = 0;
  std::size_t payload_bytes = 0;
  std::size_t raw_bytes = 0;
};

}  // namespace

PassResult codec_ingest(const RunOptions& options, int rounds, bool traced) {
  PassResult pass;
  SpanRecorder recorder(traced);
  Counters counters;

  std::unique_ptr<core::FlServer> server;
  core::UpdateCodecPtr codec;
  std::vector<fedsz::StateDict> deltas;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    server = std::make_unique<core::FlServer>(ingest_model(options.seed));
    codec = core::make_codec(kCodecSpec);
    const double t1 = now_s();
    deltas.clear();
    for (std::size_t i = 0; i < kClients; ++i)
      deltas.push_back(make_delta(server->global_state(), options.seed, i));
    const double t2 = now_s();
    pass.setups.push_back({t2 - t0, t2 - t1, t1 - t0, 0.0});
  }
  // One in-memory net::Stream pair per client: the client writes its frame,
  // the server reads it back. Each end has a single writer or reader.
  std::vector<std::pair<fedsz::net::StreamPtr, fedsz::net::StreamPtr>> links;
  for (std::size_t i = 0; i < kClients; ++i)
    links.push_back(fedsz::net::make_loopback_pair());
  fedsz::ThreadPool pool(kThreads);
  std::vector<float> scratch;
  std::vector<std::uint8_t> read_buffer(std::size_t{1} << 16);

  for (int round = 0; round < rounds; ++round) {
    RoundSample sample;
    sample.open = now_s();
    const CounterValues before = counters.snapshot();
    server->begin_round();

    // Downlink: the global model, encoded once.
    core::EncodeContext bcast_ctx;
    bcast_ctx.round = round;
    core::UpdateCodec::Encoded broadcast;
    {
      ScopedSpan span(recorder, Layer::kBcastEncode);
      broadcast = codec->encode(server->global_state(), bcast_ctx);
    }

    // Clients, 4 at a time: decode the broadcast, add the fixed delta,
    // encode the update, wrap it in an FSW1 frame and send it.
    std::vector<std::future<ClientOut>> futures;
    for (std::size_t i = 0; i < kClients; ++i)
      futures.push_back(pool.submit([&, i, round] {
        fedsz::StateDict update;
        {
          ScopedSpan span(recorder, Layer::kBcastDecode);
          update = codec->decode(view(broadcast.payload));
        }
        counters.add(Counter::kBcastDecodeCalls, 1);
        update.add_scaled_matched(deltas[i], 1.0f);
        core::EncodeContext ctx;
        ctx.round = round;
        ctx.client_id = static_cast<int>(i);
        const std::uint64_t allocs = thread_allocations();
        core::UpdateCodec::Encoded encoded;
        {
          ScopedSpan span(recorder, Layer::kEncode);
          encoded = codec->encode(update, ctx);
        }
        counters.add(Counter::kEncodeAllocs, thread_allocations() - allocs);
        counters.add(Counter::kEncodeCalls, 1);
        counters.add(Counter::kEncodeBytesIn, encoded.stats.original_bytes);
        counters.add(Counter::kEncodeBytesOut, encoded.payload.size());
        ClientOut out;
        out.payload_bytes = encoded.payload.size();
        out.raw_bytes = encoded.stats.original_bytes;
        fedsz::Bytes frame;
        {
          ScopedSpan span(recorder, Layer::kWire);
          frame = fedsz::net::encode_frame(fedsz::net::FrameType::kUpdate,
                                           view(encoded.payload));
        }
        counters.add(Counter::kWireFrames, 1);
        counters.add(Counter::kWireBytes, frame.size());
        out.frame_bytes = frame.size();
        counters.add_seconds(
            Counter::kTransportWriteNs,
            timed_span(recorder, Layer::kTransport,
                       [&] { links[i].first->write_all(view(frame)); }));
        counters.add(Counter::kTransportBytes, frame.size());
        return out;
      }));
    std::vector<ClientOut> outs;
    for (auto& future : futures) outs.push_back(future.get());

    // The reference each decode is checked against: the broadcast as every
    // client decoded it. Bench-side work, excluded from the round.
    double check_start = now_s();
    const fedsz::StateDict reference = codec->decode(view(broadcast.payload));
    sample.excluded += now_s() - check_start;

    // Server, serially in client order: read each client's stream until a
    // whole frame parses, then decode, check, fold.
    std::uint64_t uplink = 0;
    std::uint64_t raw = 0;
    std::uint64_t frames = 0;
    for (std::size_t i = 0; i < kClients; ++i) {
      ++pass.attempted;
      frames += outs[i].frame_bytes;
      fedsz::StateDict update;
      try {
        fedsz::net::FrameDecoder decoder;
        std::optional<fedsz::net::Frame> frame;
        while (true) {
          {
            ScopedSpan span(recorder, Layer::kWire);
            frame = decoder.next();
          }
          if (frame) break;
          std::size_t got = 0;
          counters.add_seconds(
              Counter::kTransportReadWaitNs,
              timed_span(recorder, Layer::kTransport, [&] {
                got = links[i].second->read_some(read_buffer.data(),
                                                 read_buffer.size());
              }));
          if (got == 0) throw fedsz::CorruptStream("stream closed mid-frame");
          ScopedSpan span(recorder, Layer::kWire);
          decoder.feed({read_buffer.data(), got});
        }
        if (!frame || frame->type != fedsz::net::FrameType::kUpdate ||
            decoder.buffered() != 0)
          throw fedsz::CorruptStream("not exactly one UPDATE frame");
        ScopedSpan span(recorder, Layer::kDecode);
        update = codec->decode(view(frame->payload));
      } catch (const std::exception& error) {
        counters.add(Counter::kDecodeFailed, 1);
        ++pass.failed;
        pass.problems.push_back("codec_ingest: client " + std::to_string(i) +
                                ": " + error.what());
        continue;
      }
      counters.add(Counter::kDecodeCalls, 1);
      check_start = now_s();
      const std::string violation =
          check_decode(update, reference, deltas[i], scratch);
      sample.excluded += now_s() - check_start;
      if (!violation.empty()) {
        ++pass.failed;
        pass.problems.push_back("codec_ingest: round " + std::to_string(round) +
                                " client " + std::to_string(i) + ": " +
                                violation);
        continue;
      }
      {
        ScopedSpan span(recorder, Layer::kFold);
        server->accumulate(update, kClientWeight);
      }
      counters.add(Counter::kFoldCalls, 1);
      uplink += outs[i].payload_bytes;
      raw += outs[i].raw_bytes;
    }
    {
      ScopedSpan span(recorder, Layer::kFold);
      if (uplink > 0)
        server->finalize_round();
      else
        server->abort_round();  // nothing survived the checks
    }
    sample.close = now_s();
    const CounterValues after = counters.snapshot();
    for (std::size_t c = 0; c < kCounterCount; ++c)
      sample.counters[c] = after[c] - before[c];
    pass.rounds.push_back(sample);
    pass.uplink_bytes.push_back(uplink);
    pass.uplink_raw_bytes.push_back(raw);
    pass.wire_bytes.push_back(frames + kClients * broadcast.payload.size());
  }
  pass.spans = recorder.spans();
  pass.peak_rss_mb = peak_rss_mb();
  return pass;
}

}  // namespace roundbench
