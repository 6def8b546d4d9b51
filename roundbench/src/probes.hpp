// Per-layer probes of the traced run: timed calls into each layer's public
// functions at one workload's own shapes, each call wrapped in a span.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/transport.hpp"
#include "core/fleet_runtime.hpp"
#include "daemon/fleetd.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace roundbench {

namespace comm = comdml::comm;
namespace core = comdml::core;
namespace daemon = comdml::daemon;
namespace data = comdml::data;
namespace nn = comdml::nn;
namespace sim = comdml::sim;

/// C[m,n] = A[m,k] B[n,k]^T — the orientation conv and linear layers use.
struct GemmShape {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
};

/// An aggregation collective: halving-doubling over `agents` equal links,
/// one run per bucket (a flat collective is a single bucket).
struct AggGeometry {
  int64_t agents = 0;
  std::vector<int64_t> bucket_elems;
  const comm::Codec* codec = nullptr;  ///< nullptr = fp32 wire
  double mbps = 100.0;
  double latency_sec = comm::kDefaultLatencySec;
};

/// What the modeled collective of `geometry` charges per round.
struct ModeledAggregation {
  int64_t max_bytes_sent = 0;  ///< per agent, summed over buckets
  double seconds = 0.0;
  int64_t steps = 0;
  int64_t messages = 0;
};

/// Timing-only SimTransport run of every bucket's schedule.
[[nodiscard]] ModeledAggregation model_aggregation(const AggGeometry& g);

struct ProbeContext {
  // Model that the tensor/nn probes build and train.
  core::ModelFactory factory;
  int64_t classes = 0;
  const data::Dataset* data = nullptr;  ///< batch source
  int64_t batch = 0;
  nn::SGD::Options sgd;
  GemmShape gemm;
  size_t split_cut = 0;  ///< the cut the pairing chose for this model

  // Pairing on the workload's own profile and agents.
  const core::SplitProfile* profile = nullptr;
  std::vector<core::AgentInfo> infos;
  const sim::Topology* topology = nullptr;
  int64_t pairing_batch = 0;

  AggGeometry modeled;   ///< the SimTransport collective probe
  AggGeometry executed;  ///< the InProc collective, codec and transport probes

  /// Live fleetd client for the daemon probes; must be set.
  daemon::FleetClient* client = nullptr;
};

/// Runs every probe, records a span per timed call, and adds the per-layer
/// metrics the probes own to `result`.
void run_probes(const ProbeContext& ctx, Tracer& tracer, RunResult& result);

}  // namespace roundbench
