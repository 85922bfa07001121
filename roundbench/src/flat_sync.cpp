#include <algorithm>
#include <future>
#include <memory>

#include "alloc_count.hpp"
#include "core/codec_spec.hpp"
#include "data/synthetic.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace roundbench {

namespace core = fedsz::core;
namespace data = fedsz::data;

fedsz::nn::ModelConfig flat_model(std::uint64_t seed) {
  fedsz::nn::ModelConfig model;
  model.arch = "mobilenet_v2";
  model.scale = fedsz::nn::ModelScale::kTiny;
  model.seed = seed;
  return model;
}

core::FlRunConfig flat_config(std::uint64_t seed, int rounds) {
  core::FlRunConfig config;
  config.clients = kFlatClients;
  config.rounds = rounds;
  config.threads = kThreads;
  config.eval_limit = kFlatEvalSamples;
  config.seed = seed;
  return config;
}

namespace {

struct FlatInputs {
  data::DatasetPtr train;
  data::DatasetPtr test;
};

FlatInputs flat_inputs(std::uint64_t seed) {
  auto [train, test] = data::make_dataset("cifar10", seed);
  return {data::take(train, kFlatClients * kFlatSamplesPerClient),
          data::take(test, kFlatEvalSamples)};
}

fedsz::ByteSpan view(const fedsz::Bytes& bytes) {
  return {bytes.data(), bytes.size()};
}

}  // namespace

PassResult flat_sync_coordinator(const RunOptions& options, int rounds) {
  PassResult pass;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const bool last = k + 1 == kSetupRepeats;
    const double t0 = now_s();
    const FlatInputs inputs = flat_inputs(options.seed);
    const double t1 = now_s();
    auto marker =
        std::make_shared<RoundMarker>(core::make_sync_scheduler(), !last);
    core::FlCoordinator coordinator(flat_model(options.seed), inputs.train,
                                    inputs.test,
                                    flat_config(options.seed, rounds),
                                    core::make_codec(kCodecSpec), marker);
    const double t2 = now_s();
    core::FlRunResult result;
    try {
      result = coordinator.run();
    } catch (const SetupDone&) {
    }
    const double end = now_s();
    const std::vector<double>& opens = marker->opens();
    pass.setups.push_back({opens.front() - t0, t1 - t0, t2 - t1, 0.0});
    if (!last) continue;

    for (std::size_t r = 0; r < opens.size(); ++r) {
      RoundSample sample;
      sample.open = opens[r];
      sample.close = r + 1 < opens.size() ? opens[r + 1] : end;
      pass.rounds.push_back(sample);
    }
    if (static_cast<int>(result.rounds.size()) != rounds)
      pass.problems.push_back("flat_sync: coordinator ran " +
                              std::to_string(result.rounds.size()) +
                              " rounds, expected " + std::to_string(rounds));
    for (const core::RoundRecord& rec : result.rounds) {
      pass.uplink_bytes.push_back(rec.bytes_sent);
      pass.uplink_raw_bytes.push_back(rec.raw_bytes);
      pass.wire_bytes.push_back(rec.bytes_sent + rec.backhaul_bytes +
                                rec.downlink_bytes +
                                rec.backhaul_downlink_bytes);
      pass.accuracy.push_back(rec.accuracy);
      pass.attempted += kFlatClients;
      pass.failed += kFlatClients - std::min(kFlatClients, rec.participants);
    }
  }
  pass.peak_rss_mb = peak_rss_mb();
  return pass;
}

// Follows the pre-event-runtime loop the coordinator is pinned against
// (legacy_sync_trace in tests/fl_test.cpp), with the two details that make
// it reproduce FlCoordinator::run() bit for bit under FedSZ: updates are
// encoded with the coordinator's EncodeContext, and the server folds them
// in the order the coordinator's virtual clock delivers them —
// (arrival, upload, dispatch position), arrival = open + compute + link
// transfer of the payload.
PassResult flat_sync_traced(const RunOptions& options, int rounds) {
  PassResult pass;
  SpanRecorder recorder(true);
  Counters counters;

  const double t0 = now_s();
  const FlatInputs inputs = flat_inputs(options.seed);
  const double t1 = now_s();
  const fedsz::nn::ModelConfig model = flat_model(options.seed);
  const core::FlRunConfig config = flat_config(options.seed, rounds);
  const core::UpdateCodecPtr codec = core::make_codec(kCodecSpec);
  core::FlServer server(model);
  const auto shards = core::build_client_shards(*inputs.train, config, nullptr);
  const fedsz::net::HeterogeneousNetwork network =
      core::build_population_network(config, nullptr);
  std::vector<std::unique_ptr<core::FlClient>> clients;
  std::vector<double> compute_seconds;
  fedsz::Rng speed_rng(config.seed ^ 0xC0DEC10Cull);
  for (std::size_t i = 0; i < config.clients; ++i) {
    core::ClientConfig client_config = config.client;
    client_config.seed = config.seed ^ (0xC11E47ull * (i + 1));
    clients.push_back(std::make_unique<core::FlClient>(
        static_cast<int>(i), model,
        std::make_shared<data::SubsetDataset>(inputs.train, shards[i]),
        client_config));
    const double factor = speed_rng.uniform(1.0 - config.compute_jitter,
                                            1.0 + config.compute_jitter);
    compute_seconds.push_back(config.compute_seconds_per_sample *
                              static_cast<double>(shards[i].size()) *
                              static_cast<double>(config.client.local_epochs) *
                              factor);
  }
  const core::SchedulerPtr scheduler = core::make_sync_scheduler();
  fedsz::Rng cohort_rng(config.seed ^ 0x5C4ED11Eull);
  fedsz::ThreadPool pool(kThreads);
  const double t2 = now_s();
  pass.setups.push_back({t2 - t0, t1 - t0, t2 - t1, 0.0});

  struct ClientOut {
    fedsz::Bytes payload;
    std::size_t samples = 0;
    std::size_t raw_bytes = 0;
  };
  double virtual_now = 0.0;
  for (int round = 0; round < rounds; ++round) {
    RoundSample sample;
    sample.open = now_s();
    const CounterValues before = counters.snapshot();
    server.begin_round();
    const std::vector<std::size_t> cohort =
        scheduler->cohort(round, clients.size(), cohort_rng);
    const fedsz::StateDict global = server.global_state();

    std::vector<std::future<ClientOut>> futures;
    for (const std::size_t i : cohort)
      futures.push_back(pool.submit([&, i, round] {
        core::ClientRoundResult trained;
        {
          ScopedSpan span(recorder, Layer::kTrain);
          trained = clients[i]->run_round(global);
        }
        counters.add(Counter::kTrainCalls, 1);
        counters.add(Counter::kTrainSamples, trained.samples);
        core::EncodeContext ctx;
        ctx.round = round;
        ctx.client_id = static_cast<int>(i);
        ctx.steps = trained.steps;
        const std::uint64_t allocs = thread_allocations();
        core::UpdateCodec::Encoded encoded;
        {
          ScopedSpan span(recorder, Layer::kEncode);
          encoded = codec->encode(trained.update, ctx);
        }
        counters.add(Counter::kEncodeAllocs, thread_allocations() - allocs);
        counters.add(Counter::kEncodeCalls, 1);
        counters.add(Counter::kEncodeBytesIn, encoded.stats.original_bytes);
        counters.add(Counter::kEncodeBytesOut, encoded.payload.size());
        return ClientOut{std::move(encoded.payload), trained.samples,
                         encoded.stats.original_bytes};
      }));
    std::vector<ClientOut> outs;
    for (auto& future : futures) outs.push_back(future.get());

    struct Arrival {
      double arrival = 0.0;
      double upload = 0.0;
      std::size_t pos = 0;
    };
    std::vector<Arrival> order;
    for (std::size_t pos = 0; pos < cohort.size(); ++pos) {
      const std::size_t i = cohort[pos];
      const double upload = virtual_now + compute_seconds[i];
      order.push_back({upload + network.link(i).transfer_seconds(
                                    outs[pos].payload.size()),
                       upload, pos});
    }
    std::sort(order.begin(), order.end(), [](const Arrival& a, const Arrival& b) {
      if (a.arrival != b.arrival) return a.arrival < b.arrival;
      if (a.upload != b.upload) return a.upload < b.upload;
      return a.pos < b.pos;
    });

    std::uint64_t uplink = 0;
    std::uint64_t raw = 0;
    for (const Arrival& a : order) {
      const ClientOut& out = outs[a.pos];
      ++pass.attempted;
      fedsz::StateDict update;
      try {
        ScopedSpan span(recorder, Layer::kDecode);
        update = codec->decode(view(out.payload));
      } catch (const std::exception& error) {
        counters.add(Counter::kDecodeFailed, 1);
        ++pass.failed;
        pass.problems.push_back(std::string("flat_sync: decode failed: ") +
                                error.what());
        continue;
      }
      counters.add(Counter::kDecodeCalls, 1);
      {
        ScopedSpan span(recorder, Layer::kFold);
        server.accumulate(update, static_cast<double>(out.samples) *
                                      scheduler->staleness_scale(round, round));
      }
      counters.add(Counter::kFoldCalls, 1);
      uplink += out.payload.size();
      raw += out.raw_bytes;
    }
    if (!order.empty()) virtual_now = order.back().arrival;
    {
      ScopedSpan span(recorder, Layer::kFold);
      server.finalize_round();
    }
    double accuracy = 0.0;
    {
      ScopedSpan span(recorder, Layer::kEval);
      accuracy = server.evaluate(*inputs.test, config.eval_limit);
    }
    counters.add(Counter::kEvalSamples,
                 std::min(config.eval_limit, inputs.test->size()));

    sample.close = now_s();
    const CounterValues after = counters.snapshot();
    for (std::size_t c = 0; c < kCounterCount; ++c)
      sample.counters[c] = after[c] - before[c];
    pass.rounds.push_back(sample);
    pass.uplink_bytes.push_back(uplink);
    pass.uplink_raw_bytes.push_back(raw);
    pass.wire_bytes.push_back(uplink);  // the broadcast is free and lossless
    pass.accuracy.push_back(accuracy);
  }
  pass.spans = recorder.spans();
  pass.peak_rss_mb = peak_rss_mb();
  return pass;
}

}  // namespace roundbench
