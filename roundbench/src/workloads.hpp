// The three workloads. Each runs `rounds` rounds (round 0 is the warm-up)
// as a closed loop: every round waits for all of its clients.
#pragma once

#include "common.hpp"
#include "core/fl/coordinator.hpp"

namespace roundbench {

/// flat_sync's and tcp_hier's model (tiny mobilenet_v2) and run config: 8
/// clients x 64 samples, 4 threads, eval of 256 samples every round.
fedsz::nn::ModelConfig flat_model(std::uint64_t seed);
fedsz::core::FlRunConfig flat_config(std::uint64_t seed, int rounds);
inline constexpr std::size_t kFlatClients = 8;
inline constexpr std::size_t kFlatSamplesPerClient = 64;
inline constexpr std::size_t kFlatEvalSamples = 256;

/// flat_sync through the real FlCoordinator (flat star, SyncScheduler):
/// tiny mobilenet_v2 on synthetic cifar10, 8 clients x 64 samples, 4
/// threads, eval of 256 samples every round. Untraced; set up
/// kSetupRepeats times.
PassResult flat_sync_coordinator(const RunOptions& options, int rounds);

/// The same rounds as a bench-side loop over the layers' public calls,
/// timed with spans: clients train and encode on a 4-thread pool, the
/// server decodes and folds in the coordinator's virtual arrival order,
/// then evaluates. Reproduces the coordinator's per-round uplink bytes and
/// accuracy exactly.
PassResult flat_sync_traced(const RunOptions& options, int rounds);

/// codec_ingest: a FedSZ bidirectional comm round with no training —
/// broadcast encode, 16 client decodes + encodes on a 4-thread pool, FSW1
/// frames, serial server parse/decode/fold of bench-scale alexnet updates.
/// Every decode is checked against its resolved error bound.
PassResult codec_ingest(const RunOptions& options, int rounds, bool traced);

/// tcp_hier: FederatedRoot serving topology=hier:2 over loopback TCP to two
/// fedsz_edge_worker processes, with flat_sync's model, data, codec and
/// client count. The bench owns the listener and wraps each accepted
/// stream to time transport writes and read waits.
PassResult tcp_hier(const RunOptions& options, int rounds, bool traced);

}  // namespace roundbench
