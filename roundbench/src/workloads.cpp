#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>

#include "comm/allreduce.hpp"
#include "core/fleet_runtime.hpp"
#include "core/parallel.hpp"
#include "core/trainer.hpp"
#include "core/workspace.hpp"
#include "daemon/fleetd.hpp"
#include "host.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/bucket.hpp"
#include "nn/resnet.hpp"
#include "probes.hpp"
#include "procs.hpp"
#include "sim/resources.hpp"
#include "tensor/serialize.hpp"

namespace roundbench {
namespace {

using namespace comdml;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Relative CPU speeds dealt round-robin to the agents of the real fleets:
/// the 0.2x and 0.5x agents offload to the 4x and 2x ones.
constexpr double kCpuCycle[] = {4.0, 0.2, 2.0, 0.5, 1.0};
/// fleetd_unix_2w's per-agent compute scales. Agents alternate between the
/// two workers, so every offload pair crosses the process boundary.
constexpr double kFleetdScales[] = {1, 0.3, 2, 0.5, 1, 0.3, 2, 0.5};

/// A round slower than this fails (a fleetd round is also killed).
constexpr double kRoundDeadline = 30.0;
/// Limit on all per-layer probes of a traced run together.
constexpr double kProbeDeadline = 60.0;
/// The timed phase stops here even short of its window, so a run always
/// exits inside the benchmark's time limit; the run then fails.
constexpr double kTimedPhaseLimit = 90.0;
/// Fleets built per run; setup_s is their median. Builds go on past the
/// minimum until they took kSetupSeconds together, so that a build of a
/// few milliseconds is sampled across the host's short slow spells.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 100;
constexpr double kSetupSeconds = 2.0;

/// Per-workload constants. `window` is the number of rounds after the
/// warm-up that every run completes, however fast the machine: the
/// deterministic metrics are taken over it, and the tail percentile is
/// the highest one that leaves ten of its rounds beyond.
struct WorkloadDef {
  const char* name;
  int threads;  ///< comdml pool threads in the benchmark process
  int64_t window;
};

// bucketed_int8_k16 leaves one of four CPUs free: its rounds cross a pool
// barrier at every bucket, and with a thread on every CPU of a shared host
// any preempted CPU stalled them all (p90 round times spread 0.24 across
// seeds with 4 threads, 0.09 with 3).
constexpr WorkloadDef kWorkloads[] = {
    {"sim_pairing_k300", 1, 200},
    {"resnet_round_k8", 4, 100},
    {"bucketed_int8_k16", 3, 100},
    {"fleetd_unix_2w", 1, 200},
};

/// Link speed around 100 Mbps (within +-2 %) drawn from the seed, so the
/// modeled clocks depend on the inputs like every other metric.
double draw_mbps(tensor::Rng& rng) {
  return 100.0 * (1.0 + 0.04 * (static_cast<double>(rng.uniform()) - 0.5));
}

/// What every round of a workload must satisfy.
struct Expect {
  bool trains = false;      ///< real tensors: the loss must be finite
  int64_t agg_bytes = -1;   ///< SimTransport-predicted bytes per agent
  bool split_early = false; ///< buckets published inside split backward
};

std::string round_problem(const core::RoundReport& r, const Expect& e,
                          double wall) {
  if (wall > kRoundDeadline) return "round passed its deadline";
  if (r.dropped_agents != 0 || r.late_agents != 0)
    return "agents dropped or deferred in a fault-free round";
  if (r.num_pairs <= 0) return "no offload pair formed";
  if (!std::isfinite(r.round_seconds) || r.round_seconds <= 0.0)
    return "modeled round time is not finite";
  if (e.trains && !std::isfinite(r.mean_loss)) return "loss is not finite";
  if (e.agg_bytes >= 0 && r.aggregation_bytes != e.agg_bytes)
    return "executed aggregation bytes " +
           std::to_string(r.aggregation_bytes) + " != predicted " +
           std::to_string(e.agg_bytes);
  if (e.split_early && r.split_early_buckets <= 0)
    return "no bucket published during split backward";
  return {};
}

// ---- sessions: one built fleet each ----------------------------------------

class Session {
 public:
  virtual ~Session() = default;
  virtual core::RoundReport step() = 0;
  /// Peak RSS of the process(es) that run the fleet, MiB.
  [[nodiscard]] virtual double peak_rss_mb() const {
    return self_peak_rss_mb();
  }
  /// Orderly shutdown; false when it did not end cleanly.
  virtual bool close() { return true; }
  /// Bounds the blocking calls made until disarm_deadline(): a fleet that
  /// runs elsewhere is killed when they overrun, so they fail, not hang.
  virtual void arm_deadline(double /*seconds*/) {}
  virtual void disarm_deadline() {}
};

/// Holds a session's deadline armed for one scope.
class DeadlineScope {
 public:
  DeadlineScope(Session& s, double seconds) : s_(s) {
    s_.arm_deadline(seconds);
  }
  ~DeadlineScope() { s_.disarm_deadline(); }
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  Session& s_;
};

class SimSession final : public Session {
 public:
  explicit SimSession(std::unique_ptr<core::SimulatedFleet> fleet)
      : fleet_(std::move(fleet)) {}

  core::RoundReport step() override {
    const core::RoundRecord rec = fleet_->step();
    core::RoundReport rep;
    rep.round = rec.round;
    rep.round_seconds = rec.round_time;
    rep.compute_seconds = rec.compute_time;
    rep.comm_seconds = rec.comm_time;
    rep.aggregation_seconds = rec.aggregation_time;
    rep.num_pairs = rec.num_pairs;
    rep.dropped_agents = rec.dropped_agents;
    return rep;
  }

  [[nodiscard]] core::SimulatedFleet& fleet() { return *fleet_; }

 private:
  std::unique_ptr<core::SimulatedFleet> fleet_;
};

class RealSession final : public Session {
 public:
  explicit RealSession(core::FleetRuntime fleet) : fleet_(std::move(fleet)) {}
  core::RoundReport step() override { return fleet_.step(); }
  [[nodiscard]] core::FleetRuntime& fleet() { return fleet_; }

 private:
  core::FleetRuntime fleet_;
};

class FleetdSession final : public Session {
 public:
  FleetdSession(const RunConfig& cfg, const std::vector<std::string>& args)
      : group_(cfg.fleetd_bin, cfg.work_dir, 2, args),
        watchdog_([this] { group_.kill_all(); }) {
    watchdog_.arm(kRoundDeadline);
    client_ = std::make_unique<daemon::FleetClient>(group_.address(),
                                                    kRoundDeadline);
    watchdog_.disarm();
  }
  ~FleetdSession() override { (void)close(); }
  FleetdSession(const FleetdSession&) = delete;
  FleetdSession& operator=(const FleetdSession&) = delete;

  core::RoundReport step() override {
    DeadlineScope deadline(*this, kRoundDeadline);
    return client_->round();
  }

  void arm_deadline(double seconds) override { watchdog_.arm(seconds); }
  void disarm_deadline() override { watchdog_.disarm(); }

  [[nodiscard]] double peak_rss_mb() const override {
    return group_.peak_rss_mb();
  }

  bool close() override {
    if (closed_) return clean_;
    closed_ = true;
    bool asked = false;
    try {
      watchdog_.arm(10.0);
      client_->shutdown();
      asked = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleetd shutdown failed: %s\n", e.what());
    }
    watchdog_.disarm();
    client_.reset();
    clean_ = group_.wait_exit(10.0) && asked;
    return clean_;
  }

  [[nodiscard]] daemon::FleetClient& client() { return *client_; }

 private:
  FleetdGroup group_;
  Watchdog watchdog_;  // after group_: its callback kills the group
  std::unique_ptr<daemon::FleetClient> client_;
  bool closed_ = false;
  bool clean_ = false;
};

// ---- workloads: generated inputs plus how to build a fleet from them -------

/// Averages of the in-process counters around step() (traced run).
struct RoundCounters {
  double heap_allocs = 0.0;
  double minor_faults = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed preparation before each setup (copies of the inputs).
  virtual void stage() {}
  /// Builds a fleet from the generated inputs and runs its warm-up round
  /// (checked like every other round; a failure throws).
  [[nodiscard]] virtual std::unique_ptr<Session> setup() = 0;
  [[nodiscard]] virtual Expect expect() const = 0;
  [[nodiscard]] virtual int64_t processes() const { return 1; }
  /// What `agg_bytes_per_round` reports when the rounds do not execute a
  /// collective (-1: the executed bytes).
  [[nodiscard]] virtual int64_t modeled_agg_bytes() const { return -1; }
  /// End-of-run output checks after `rounds` rounds (warm-up included).
  virtual void final_checks(Session& /*session*/, int64_t /*rounds*/,
                            RunResult& /*result*/, Tracer& /*tracer*/) {}
  /// Counters measured by final_checks when the fleet runs elsewhere.
  [[nodiscard]] virtual std::optional<RoundCounters> replay_counters()
      const {
    return std::nullopt;
  }
  /// Probe shapes and inputs; `session` is the traced fleet.
  virtual void probe_context(Session& session, ProbeContext& ctx) = 0;

 protected:
  std::unique_ptr<Session> warmed(std::unique_ptr<Session> s) const {
    const auto t0 = Clock::now();
    const core::RoundReport rep = s->step();
    const std::string problem = round_problem(rep, expect(), since(t0));
    if (!problem.empty())
      throw std::runtime_error("warm-up round failed: " + problem);
    return s;
  }
};

/// Broadcast infos of a real fleet (RealFleet's own derivation).
std::vector<core::AgentInfo> real_infos(const core::SplitProfile& profile,
                                        const sim::Topology& topology,
                                        const core::FleetOptions& opt) {
  std::vector<core::AgentInfo> infos(static_cast<size_t>(topology.agents()));
  for (int64_t i = 0; i < topology.agents(); ++i) {
    core::AgentInfo& a = infos[static_cast<size_t>(i)];
    a.id = i;
    const double sps = topology.profile(i).cpu * opt.train.reference_flops /
                       profile.full_flops_per_sample();
    a.proc_speed = sps / static_cast<double>(opt.train.batch_size);
    a.num_batches = opt.train.batches_per_round;
    a.tau_solo = static_cast<double>(a.num_batches) / a.proc_speed;
  }
  return infos;
}

/// The cut of the first offload pair the pairing forms on these inputs.
size_t chosen_cut(const core::SplitProfile& profile,
                  const std::vector<core::AgentInfo>& infos,
                  const sim::Topology& topology, int64_t batch) {
  std::vector<int64_t> all(infos.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
  const auto res = core::pair_agents(profile, infos, topology, batch, all);
  if (res.pairs.empty())
    throw std::runtime_error("pairing formed no pair for the split probe");
  return res.pairs.front().cut;
}

/// resnet_round_k8 and bucketed_int8_k16: a RealFleet on synthetic data.
class RealWorkload final : public Workload {
 public:
  enum class Kind { kResnet, kBucketed };

  RealWorkload(Kind kind, uint64_t seed) {
    tensor::Rng rng(seed);
    const bool resnet = kind == Kind::kResnet;
    agents_ = resnet ? 8 : 16;
    classes_ = 10;
    // Heavy noise makes the classes overlap, so the loss at the end of the
    // window stays well above zero and varies little across seeds.
    const data::Dataset ds =
        resnet ? data::make_synthetic_images(agents_ * 256, classes_,
                                             {3, 16, 16}, 8.0f, rng)
               : data::make_blobs(agents_ * 512, classes_, 64, 6.0f, rng);
    for (const auto& idx : data::iid_partition(ds.size(), agents_, rng))
      shards_.push_back(ds.subset(idx));
    std::vector<sim::ResourceProfile> profiles;
    for (int64_t a = 0; a < agents_; ++a)
      profiles.push_back({kCpuCycle[a % 5], draw_mbps(rng)});
    topology_.emplace(sim::Topology::full_mesh(profiles));

    if (resnet) {
      factory_ = [](tensor::Rng& r) {
        return nn::make_resnet_cifar(1, 16, 10, r);
      };
      // Largest im2col GEMM: the 16-channel 3x3 convs on 16x16 maps, per
      // sample (batch 16 >= 4 pool threads takes the per-sample path).
      gemm_ = {16, 16 * 9, 16 * 16};
    } else {
      factory_ = [](tensor::Rng& r) {
        return nn::mlp({64, 256, 256, 256, 256, 256, 10}, r);
      };
      gemm_ = {16, 256, 256};  // a 256x256 linear layer on a batch of 16
    }
    opt_.seed = seed;
    opt_.train.batch_size = 16;
    opt_.train.batches_per_round = 2;
    // The MLP diverges on these wide blobs at the default rate.
    if (!resnet) opt_.train.sgd.lr = 0.01f;
    opt_.comms.aggregation = comm::AllReduceAlgo::kHalvingDoubling;
    if (!resnet) {
      opt_.comms.bucket_bytes = 64 * 1024;
      opt_.comms.overlap = true;
      opt_.comms.codec = core::FleetOptions::CommOptions::Codec::kInt8Quantized;
      opt_.comms.error_feedback = true;
    }

    // The aggregation geometry the fleet executes, for the bytes check.
    tensor::Rng probe_rng(seed);
    auto model = factory_(probe_rng);
    geometry_.agents = agents_;
    geometry_.codec = opt_.comms.bucket_codec();
    geometry_.mbps = topology_->min_link_bandwidth().value();
    geometry_.latency_sec = opt_.comms.latency_sec;
    if (opt_.comms.bucket_bytes > 0) {
      const auto plan = nn::BucketPlan::build(*model, opt_.comms.bucket_bytes);
      for (int64_t b = 0; b < plan.buckets(); ++b)
        geometry_.bucket_elems.push_back(plan.bucket(b).elems);
    } else {
      geometry_.bucket_elems.push_back(
          comm::state_elems(nn::state_of(*model)));
    }
    expect_.trains = true;
    expect_.agg_bytes = model_aggregation(geometry_).max_bytes_sent;
    expect_.split_early = !resnet;
  }

  void stage() override { staged_ = shards_; }

  std::unique_ptr<Session> setup() override {
    if (staged_.empty()) stage();
    core::FleetRuntime fleet = core::FleetBuilder()
                                   .method(learncurve::Method::kComDML)
                                   .options(opt_)
                                   .topology(*topology_)
                                   .model(factory_, classes_)
                                   .shards(std::move(staged_))
                                   .build();
    staged_.clear();
    return warmed(std::make_unique<RealSession>(std::move(fleet)));
  }

  [[nodiscard]] Expect expect() const override { return expect_; }

  void probe_context(Session& session, ProbeContext& ctx) override {
    auto& fleet = dynamic_cast<RealSession&>(session).fleet();
    const core::SplitProfile& profile = fleet.real_comdml()->profile();
    ctx.factory = factory_;
    ctx.classes = classes_;
    ctx.data = &shards_.front();
    ctx.batch = opt_.train.batch_size;
    ctx.sgd = opt_.train.sgd;
    ctx.gemm = gemm_;
    ctx.profile = &profile;
    ctx.infos = real_infos(profile, *topology_, opt_);
    ctx.topology = &*topology_;
    ctx.pairing_batch = opt_.train.batch_size;
    ctx.split_cut = chosen_cut(profile, ctx.infos, *topology_, ctx.batch);
    ctx.modeled = geometry_;
    ctx.executed = geometry_;
  }

 private:
  int64_t agents_ = 0;
  int64_t classes_ = 0;
  std::vector<data::Dataset> shards_;
  std::vector<data::Dataset> staged_;
  std::optional<sim::Topology> topology_;
  core::ModelFactory factory_;
  core::FleetOptions opt_;
  GemmShape gemm_;
  AggGeometry geometry_;
  Expect expect_;
};

/// sim_pairing_k300: the paper-scale SimulatedFleet.
class SimWorkload final : public Workload {
 public:
  explicit SimWorkload(uint64_t seed) : seed_(seed) {
    constexpr int64_t kAgents = 300;
    tensor::Rng rng(seed);
    auto profiles = sim::assign_profiles(kAgents, rng);
    // The profile set alone fixes the modeled clock; link speeds within
    // +-2 % of their profile make it depend on the seed as well.
    for (sim::ResourceProfile& p : profiles) p.mbps *= draw_mbps(rng) / 100.0;
    for (int attempt = 0; attempt < 100 && !topology_; ++attempt) {
      auto t = sim::Topology::random_graph(profiles, 0.5, rng);
      if (t.is_connected()) topology_.emplace(std::move(t));
    }
    if (!topology_) throw std::runtime_error("no connected topology drawn");
    sizes_ = core::shard_sizes_for(data::cifar10_spec(), kAgents,
                                   learncurve::PartitionKind::kIID, rng);
    core::FleetOptions opt = core::FleetOptions::paper_defaults();
    opt.seed = seed;
    opt.scale.max_split_points = 16;
    config_ = opt.to_fleet_config(kAgents);
    spec_ = nn::resnet56_spec(10);
  }

  std::unique_ptr<Session> setup() override {
    return warmed(std::make_unique<SimSession>(
        std::make_unique<core::SimulatedFleet>(spec_, config_, *topology_,
                                               sizes_)));
  }

  [[nodiscard]] Expect expect() const override { return {}; }

  [[nodiscard]] int64_t modeled_agg_bytes() const override {
    return comm::allreduce_cost(config_.agents,
                                core::SplitProfile::from_spec(spec_)
                                    .model_state_bytes(),
                                topology_->min_link_bandwidth().value(),
                                config_.aggregation, config_.latency_sec)
        .bytes_per_agent;
  }

  void probe_context(Session& session, ProbeContext& ctx) override {
    core::SimulatedFleet& fleet = dynamic_cast<SimSession&>(session).fleet();
    // The simulation moves no tensors: the model and wire probes borrow
    // resnet_round_k8's geometry (same seed), where the prediction is no
    // change for this workload.
    borrowed_ = std::make_unique<RealWorkload>(RealWorkload::Kind::kResnet,
                                               seed_);
    borrowed_session_ = borrowed_->setup();
    borrowed_->probe_context(*borrowed_session_, ctx);
    ctx.profile = &fleet.profile();
    ctx.infos = fleet.agent_infos();
    ctx.topology = &fleet.topology();
    ctx.pairing_batch = config_.batch_size;
    ctx.modeled.agents = config_.agents;
    ctx.modeled.bucket_elems = {fleet.profile().model_state_bytes() / 4};
    ctx.modeled.codec = nullptr;
    ctx.modeled.mbps = fleet.topology().min_link_bandwidth().value();
    ctx.modeled.latency_sec = config_.latency_sec;
  }

 private:
  uint64_t seed_;
  std::optional<sim::Topology> topology_;
  std::vector<int64_t> sizes_;
  core::FleetConfig config_;
  nn::ArchitectureSpec spec_;
  std::unique_ptr<RealWorkload> borrowed_;
  std::unique_ptr<Session> borrowed_session_;
};

/// fleetd_unix_2w: a coordinator and two workers driven by a FleetClient.
class FleetdWorkload final : public Workload {
 public:
  explicit FleetdWorkload(const RunConfig& cfg) : cfg_(cfg) {
    tensor::Rng rng(cfg.seed);
    spec_.agents = static_cast<int64_t>(std::size(kFleetdScales));
    // The spec's data and replicas come from a fixed seed: its toy blobs
    // separate within a few rounds, after which the loss is ~1e-3 and
    // varies by tens of percent from one data seed to the next. The run's
    // seed draws the link speed instead.
    spec_.seed = 42;
    spec_.protocol = "hd";
    spec_.mbps = draw_mbps(rng);
    std::string scales;
    for (const double s : kFleetdScales) {
      spec_.compute_scales.push_back(s);
      scales += (scales.empty() ? "" : ",") + format_double(s);
    }
    args_ = {"--agents",   std::to_string(spec_.agents),
             "--seed",     std::to_string(spec_.seed),
             "--protocol", spec_.protocol,
             "--mbps",     format_double(spec_.mbps),
             "--scale",    scales};

    // The reference: the same spec stepped in this process.
    reference_.emplace(daemon::build_spec_fleet(spec_, &eval_));
    auto& rf = *reference_->real_comdml();
    AggGeometry g;
    g.agents = spec_.agents;
    g.mbps = spec_.mbps;
    g.latency_sec = spec_.latency_sec;
    g.bucket_elems = {comm::state_elems(nn::state_of(rf.model(0)))};
    geometry_ = g;
    expect_.trains = true;
    expect_.agg_bytes = model_aggregation(geometry_).max_bytes_sent;
  }

  std::unique_ptr<Session> setup() override {
    return warmed(std::make_unique<FleetdSession>(cfg_, args_));
  }

  [[nodiscard]] Expect expect() const override { return expect_; }
  [[nodiscard]] int64_t processes() const override { return 3; }

  void final_checks(Session& session, int64_t rounds, RunResult& result,
                    Tracer& tracer) override {
    auto& fs = dynamic_cast<FleetdSession&>(session);
    std::vector<uint8_t> dist;
    try {
      DeadlineScope deadline(session, kRoundDeadline);
      dist = fs.client().weights();
    } catch (const std::exception& e) {
      result.fail_check(std::string("weights RPC failed: ") + e.what());
      return;
    }
    // Replay the same rounds in process; the multi-process consensus must
    // be byte-identical. The pool is widened for the replay only: rounds
    // are bit-identical across thread counts.
    const int threads = core::num_threads();
    core::set_num_threads(4);
    RoundCounters counters;
    {
      ScopedSpan replay(tracer, "reference.replay");
      for (int64_t r = reference_->rounds_executed(); r < rounds; ++r) {
        const int64_t allocs = core::Workspace::aggregate_stats().heap_allocs;
        const int64_t faults = self_minor_faults();
        (void)reference_->step();
        counters.heap_allocs += static_cast<double>(
            core::Workspace::aggregate_stats().heap_allocs - allocs);
        counters.minor_faults +=
            static_cast<double>(self_minor_faults() - faults);
      }
    }
    core::set_num_threads(threads);
    if (rounds > 0) {
      counters.heap_allocs /= static_cast<double>(rounds);
      counters.minor_faults /= static_cast<double>(rounds);
    }
    counters_ = counters;
    auto& rf = *reference_->real_comdml();
    const auto local = tensor::pack_tensors(
        nn::state_of(rf.model(rf.live_agents().front())));
    if (local != dist)
      result.fail_check("multi-process consensus weights differ from the "
                        "single-process replay of " +
                        std::to_string(rounds) + " rounds");
  }

  [[nodiscard]] std::optional<RoundCounters> replay_counters()
      const override {
    return counters_;
  }

  void probe_context(Session& session, ProbeContext& ctx) override {
    auto& rf = *reference_->real_comdml();
    std::vector<sim::ResourceProfile> profiles;
    for (const double s : spec_.compute_scales)
      profiles.push_back({s, spec_.mbps});
    topology_.emplace(sim::Topology::full_mesh(profiles));
    core::FleetOptions opt;
    opt.train.batch_size = spec_.batch_size;
    opt.train.batches_per_round = spec_.batches_per_round;
    opt.train.sgd = {spec_.lr, spec_.momentum, 0.0f};
    ctx.factory = [](tensor::Rng& r) { return nn::mlp({6, 24, 24, 3}, r); };
    ctx.classes = 3;
    ctx.data = &eval_;
    ctx.batch = spec_.batch_size;
    ctx.sgd = opt.train.sgd;
    ctx.gemm = {spec_.batch_size, 24, 24};
    ctx.profile = &rf.profile();
    ctx.infos = real_infos(rf.profile(), *topology_, opt);
    ctx.topology = &*topology_;
    ctx.pairing_batch = spec_.batch_size;
    ctx.split_cut = chosen_cut(rf.profile(), ctx.infos, *topology_, ctx.batch);
    ctx.modeled = geometry_;
    ctx.executed = geometry_;
    ctx.client = &dynamic_cast<FleetdSession&>(session).client();
  }

 private:
  const RunConfig cfg_;
  daemon::FleetSpec spec_;
  std::vector<std::string> args_;
  data::Dataset eval_;
  std::optional<core::FleetRuntime> reference_;
  std::optional<sim::Topology> topology_;
  AggGeometry geometry_;
  Expect expect_;
  std::optional<RoundCounters> counters_;
};

std::unique_ptr<Workload> make_workload(const RunConfig& cfg) {
  if (cfg.workload == "sim_pairing_k300")
    return std::make_unique<SimWorkload>(cfg.seed);
  if (cfg.workload == "resnet_round_k8")
    return std::make_unique<RealWorkload>(RealWorkload::Kind::kResnet,
                                          cfg.seed);
  if (cfg.workload == "bucketed_int8_k16")
    return std::make_unique<RealWorkload>(RealWorkload::Kind::kBucketed,
                                          cfg.seed);
  if (cfg.workload == "fleetd_unix_2w")
    return std::make_unique<FleetdWorkload>(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

// ---- the round loop --------------------------------------------------------

/// Round wall times reserved for before anything is built. The untraced
/// round loop then allocates nothing of its own: its buffers would share
/// glibc's heap with the program's and change where that heap is trimmed,
/// and with it the page faults the program takes.
constexpr size_t kWallCapacity = size_t{1} << 17;

struct Phase {
  std::vector<double> walls;                ///< per successful round
  /// The first successful rounds, up to the capacity reserved for them.
  std::vector<core::RoundReport> reports;
  double seconds = 0.0;
  bool aborted = false;  ///< a round threw: the fleet is unusable
  /// Workspace heap allocations and minor page faults of this process
  /// over the whole phase.
  int64_t heap_allocs = 0;
  int64_t minor_faults = 0;

  Phase(size_t walls_capacity, size_t reports_capacity) {
    walls.reserve(walls_capacity);
    reports.reserve(reports_capacity);
  }
};

/// Steps rounds until at least `min_rounds` ran and `min_seconds` passed,
/// recording them into `p`. Every round counts as attempted; a failing one
/// counts as failed. With a tracer, each round is a span.
void run_rounds(Session& session, const Expect& expect, double min_seconds,
                int64_t min_rounds, const char* step_span, RunResult& result,
                Tracer* tracer, int64_t first_round, Phase& p) {
  const int64_t allocs_before = core::Workspace::aggregate_stats().heap_allocs;
  const int64_t faults_before = self_minor_faults();
  const auto start = Clock::now();
  for (int64_t r = first_round;; ++r) {
    const double elapsed = since(start);
    if (static_cast<int64_t>(p.walls.size()) >= min_rounds &&
        elapsed >= min_seconds)
      break;
    if (elapsed > kTimedPhaseLimit) {
      result.fail_check("timed phase passed " +
                        std::to_string(kTimedPhaseLimit) + " s");
      break;
    }
    core::RoundReport rep;
    std::string problem;
    const auto t0 = Clock::now();
    try {
      if (tracer != nullptr) {
        ScopedSpan round(*tracer, "round", r);
        ScopedSpan step(*tracer, step_span);
        rep = session.step();
      } else {
        rep = session.step();
      }
    } catch (const std::exception& e) {
      problem = std::string("round threw: ") + e.what();
      p.aborted = true;
    }
    const double wall = since(t0);
    if (problem.empty()) problem = round_problem(rep, expect, wall);
    result.count_round(problem.empty());
    if (!problem.empty())
      std::fprintf(stderr, "round %lld failed: %s\n",
                   static_cast<long long>(r), problem.c_str());
    if (p.aborted) break;
    p.walls.push_back(wall);
    if (p.reports.size() < p.reports.capacity()) p.reports.push_back(rep);
  }
  p.seconds = since(start);
  p.minor_faults = self_minor_faults() - faults_before;
  p.heap_allocs =
      core::Workspace::aggregate_stats().heap_allocs - allocs_before;
}

const WorkloadDef& def_of(const std::string& name) {
  for (const WorkloadDef& d : kWorkloads)
    if (name == d.name) return d;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* step_span_of(const std::string& name) {
  if (name == "sim_pairing_k300") return "core.SimulatedFleet.step";
  if (name == "fleetd_unix_2w") return "daemon.FleetClient.round";
  return "core.FleetRuntime.step";
}

RunResult run_end_to_end(const RunConfig& cfg, const WorkloadDef& def,
                         Workload& w) {
  RunResult result;
  Phase p(kWallCapacity, static_cast<size_t>(def.window));
  std::vector<double> setup_s;
  setup_s.reserve(kMaxSetups);
  std::unique_ptr<Session> session;
  double setup_total = 0.0;
  for (int rep = 0; rep < kMaxSetups &&
                    (rep < kMinSetups || setup_total < kSetupSeconds);
       ++rep) {
    if (session != nullptr && !session->close())
      result.fail_check("a set-up fleet did not shut down cleanly");
    session.reset();
    w.stage();
    const auto t0 = Clock::now();
    session = w.setup();
    setup_s.push_back(since(t0));
    setup_total += setup_s.back();
  }
  Tracer off(false);
  run_rounds(*session, w.expect(), cfg.seconds, def.window,
             step_span_of(def.name), result, nullptr, 1, p);
  const double rss_mb = session->peak_rss_mb();
  if (!p.aborted)
    w.final_checks(*session, 1 + static_cast<int64_t>(p.walls.size()), result,
                   off);
  if (!session->close()) result.fail_check("fleet did not shut down cleanly");
  session.reset();
  if (p.walls.empty()) {
    result.fail_check("no round completed");
    return result;
  }

  // Deterministic metrics over the fixed window of rounds.
  const size_t window =
      std::min(p.reports.size(), static_cast<size_t>(def.window));
  if (window < static_cast<size_t>(def.window))
    result.fail_check("only " + std::to_string(window) + " of the " +
                      std::to_string(def.window) + " window rounds ran");
  double modeled = 0.0, bytes = 0.0;
  for (size_t i = 0; i < window; ++i) {
    modeled += p.reports[i].round_seconds;
    bytes += static_cast<double>(p.reports[i].aggregation_bytes);
  }
  modeled /= static_cast<double>(window);
  bytes /= static_cast<double>(window);
  if (w.modeled_agg_bytes() >= 0)
    bytes = static_cast<double>(w.modeled_agg_bytes());
  const bool trains = w.expect().trains;
  const double final_loss =
      trains ? static_cast<double>(p.reports[window - 1].mean_loss) : 1.0;

  const double tail_p = tail_percentile(def.window);
  const auto n = static_cast<int64_t>(p.walls.size());
  const double tail = percentile(p.walls, tail_p);
  const double failed_ratio =
      static_cast<double>(result.failed()) /
      static_cast<double>(std::max<int64_t>(1, result.attempted()));

  const double rate = static_cast<double>(n) / p.seconds;
  result.add("rounds_per_s", rate, "1/s");
  result.add("round_s_p50", median(p.walls), "s");
  result.add("round_s_tail", tail, "s");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", rss_mb, "MB");
  result.add("modeled_round_s", modeled, "s");
  result.add("agg_bytes_per_round", bytes, "B");
  result.add("final_loss", final_loss, "nat");
  std::printf("timed: %lld rounds in %.3f s, %.1f minor page faults a "
              "round in this process\n",
              static_cast<long long>(n), p.seconds,
              static_cast<double>(p.minor_faults) / static_cast<double>(n));
  std::printf("round_s_tail: p%g of %lld rounds, %lld beyond it\n", tail_p,
              static_cast<long long>(n),
              static_cast<long long>(samples_beyond(n, tail_p)));
  std::printf("setup_s: median of %zu set-ups\n", setup_s.size());
  std::printf("peak_rss_mb: %s\n", w.processes() > 1
                                       ? "largest fleetd process"
                                       : "this process");
  std::printf("deterministic over the first %lld timed rounds: "
              "modeled_round_s, agg_bytes_per_round (%s), final_loss%s\n",
              static_cast<long long>(def.window),
              w.modeled_agg_bytes() >= 0 ? "modeled" : "executed",
              trains ? "" : " (n/a without tensors: reported as 1)");
  std::printf("failed_round_ratio: %s (%lld of %lld rounds)\n",
              format_double(failed_ratio).c_str(),
              static_cast<long long>(result.failed()),
              static_cast<long long>(result.attempted()));
  return result;
}

RunResult run_traced(const RunConfig& cfg, const WorkloadDef& def,
                     Workload& w, const HostFingerprint& host) {
  RunResult result;
  Tracer tracer(true);
  // Untraced and traced rounds on the same fleet, alternating so that a
  // drift in host speed hits both: their rate ratio is the tracing
  // overhead. The first half gives the per-round counters: it runs before
  // the tracer has allocated a span per round, whose buffers would share
  // the program's heap.
  std::vector<Phase> halves;
  halves.reserve(4);
  for (int half = 0; half < 4; ++half)
    halves.emplace_back(kWallCapacity, kWallCapacity / 8);
  std::unique_ptr<Session> session;
  {
    ScopedSpan s(tracer, "setup");
    w.stage();
    session = w.setup();
  }
  const char* step_span = step_span_of(def.name);
  const double phase_s = std::max(0.5, 0.15 * cfg.seconds);
  int64_t rounds = 1;  // the warm-up
  bool aborted = false;
  for (int half = 0; half < 4 && !aborted; ++half) {
    Phase& p = halves[static_cast<size_t>(half)];
    run_rounds(*session, w.expect(), phase_s, 2, step_span, result,
               half % 2 == 1 ? &tracer : nullptr, rounds, p);
    rounds += static_cast<int64_t>(p.walls.size());
    aborted = p.aborted;
  }
  if (!aborted) w.final_checks(*session, rounds, result, tracer);

  ProbeContext ctx;
  w.probe_context(*session, ctx);
  // Workloads without a daemon probe it on a fleet of fleetd_unix_2w's
  // spec (same seed), where the prediction is no change.
  std::unique_ptr<FleetdWorkload> daemon_workload;
  std::unique_ptr<Session> daemon_session;
  if (ctx.client == nullptr) {
    ScopedSpan s(tracer, "probe.daemon.setup");
    RunConfig dcfg = cfg;
    dcfg.workload = "fleetd_unix_2w";
    daemon_workload = std::make_unique<FleetdWorkload>(dcfg);
    daemon_session = daemon_workload->setup();
    ProbeContext dctx;
    daemon_workload->probe_context(*daemon_session, dctx);
    ctx.client = dctx.client;
  }
  {
    // The daemon probes block on RPCs: bound them like rounds.
    Session& daemon_host =
        daemon_session != nullptr ? *daemon_session : *session;
    DeadlineScope deadline(daemon_host, kProbeDeadline);
    run_probes(ctx, tracer, result);
  }
  if (daemon_session != nullptr && !daemon_session->close())
    result.fail_check("probe fleetd did not shut down cleanly");
  if (!session->close()) result.fail_check("fleet did not shut down cleanly");

  // Rounds and rates of the untraced (even) and traced halves.
  double rounds_of[2] = {0.0, 0.0}, seconds_of[2] = {0.0, 0.0};
  double buckets = 0.0, early = 0.0, exposed = 0.0, nr = 0.0;
  for (size_t half = 0; half < halves.size(); ++half) {
    const Phase& p = halves[half];
    const bool on = half % 2 == 1;
    rounds_of[on] += static_cast<double>(p.walls.size());
    seconds_of[on] += p.seconds;
    if (!on) continue;
    for (const core::RoundReport& r : p.reports) {
      buckets += static_cast<double>(r.buckets);
      early += static_cast<double>(r.split_early_buckets);
      // A flat collective exposes all of its time.
      exposed +=
          r.buckets > 0 ? r.exposed_comm_seconds : r.aggregation_seconds;
      nr += 1.0;
    }
  }
  nr = std::max(1.0, nr);
  const Phase& first = halves.front();
  const double first_rounds =
      std::max(1.0, static_cast<double>(first.walls.size()));
  RoundCounters counters{static_cast<double>(first.heap_allocs) / first_rounds,
                         static_cast<double>(first.minor_faults) /
                             first_rounds};
  if (const auto replay = w.replay_counters()) counters = *replay;
  result.add("core.round_pipeline.buckets", buckets / nr, "count");
  result.add("core.round_pipeline.split_early_buckets", early / nr, "count");
  result.add("core.round_pipeline.exposed_comm_s", exposed / nr, "s");
  result.add("core.workspace.heap_allocs_per_round", counters.heap_allocs,
             "count");
  result.add("proc.minor_faults_per_round", counters.minor_faults, "count");
  const double plain_rps = rounds_of[0] / std::max(1e-9, seconds_of[0]);
  const double traced_rps = rounds_of[1] / std::max(1e-9, seconds_of[1]);
  result.add("bench.trace_overhead",
             traced_rps > 0.0 ? plain_rps / traced_rps : 0.0, "ratio");

  std::printf("self time per span (s):\n");
  for (const auto& [name, sec] : tracer.self_seconds())
    std::printf("  %-40s %.6f\n", name.c_str(), sec);
  // One file per workload: the latest traced run replaces the previous.
  const std::string path = cfg.work_dir + "/trace_" + cfg.workload + ".json";
  const std::string meta = "{\"workload\": \"" + cfg.workload +
                           "\", \"seed\": " + std::to_string(cfg.seed) +
                           ", \"host\": " + host.json() + "}";
  if (tracer.write_chrome_json(path, meta))
    std::printf("trace: %s (%zu spans)\n", path.c_str(),
                tracer.spans().size());
  else
    result.fail_check("cannot write the trace file " + path);
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& d : kWorkloads) v.emplace_back(d.name);
    return v;
  }();
  return names;
}

RunResult run_workload(const RunConfig& cfg) {
  const WorkloadDef& def = def_of(cfg.workload);
  core::set_num_threads(def.threads);
  // Inputs are generated from the seed before anything is timed.
  std::unique_ptr<Workload> w = make_workload(cfg);
  const HostFingerprint host = host_fingerprint(w->processes());
  std::printf("host: %s\n", host.json().c_str());
  return cfg.trace ? run_traced(cfg, def, *w, host)
                   : run_end_to_end(cfg, def, *w);
}

}  // namespace roundbench
