#include "core/real_fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "comm/compress.hpp"
#include "nn/arch_specs.hpp"
#include "privacy/dcor.hpp"
#include "privacy/dp.hpp"
#include "privacy/patch_shuffle.hpp"
#include "sim/resources.hpp"
#include "tensor/serialize.hpp"

namespace comdml::core {

RealFleet::RealFleet(const ModelFactory& factory, int64_t classes,
                     std::vector<data::Dataset> shards,
                     sim::Topology topology, Options options)
    : options_(options),
      shards_(std::move(shards)),
      topology_(std::move(topology)),
      rng_(options.seed),
      classes_(classes),
      in_shape_(),
      profile_() {
  options_.validate();
  COMDML_REQUIRE(!shards_.empty(), "fleet needs at least one shard");
  COMDML_CHECK(static_cast<int64_t>(shards_.size()) == topology_.agents());
  for (auto& s : shards_) s.validate();
  in_shape_ = shards_.front().sample_shape();

  // Identical initial replicas: build each from a forked RNG, then overwrite
  // with replica 0's state.
  agents_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    tensor::Rng model_rng = rng_.fork();
    agents_[i].model = factory(model_rng);
    COMDML_REQUIRE(agents_[i].model->size() >= 2,
                   "models need >= 2 units for split training");
    agents_[i].batcher = std::make_unique<data::Batcher>(
        shards_[i], options_.train.batch_size, rng_.fork());
  }
  const auto init = nn::state_of(*agents_[0].model);
  for (size_t i = 1; i < agents_.size(); ++i)
    nn::load_state(*agents_[i].model, init);

  const auto spec = nn::spec_from_model(*agents_[0].model, in_shape_,
                                        "real-model", classes_);
  profile_ = SplitProfile::from_spec(spec);

  current_lr_ = options_.train.sgd.lr;
  if (options_.train.plateau_factor > 0.0f) {
    plateau_.emplace(options_.train.plateau_factor, options_.train.plateau_patience);
  }

  // One plan and one pipeline for the fleet's lifetime (all replicas are
  // structurally identical); bucket_bytes = 0 gives one bucket spanning
  // the whole state.
  bucket_plan_ =
      nn::BucketPlan::build(*agents_[0].model, options_.comms.bucket_bytes);
  // Unreliable-network injection on the bucket transports: every bucket
  // collective then retransmits through comm::ReliableChannel and the
  // retransmission traffic is reported per round.
  comm::FaultPlan faults;
  faults.drop_prob = options_.faults.message_drop_prob;
  faults.seed = options_.seed;
  pipeline_ = std::make_unique<RoundPipeline>(
      static_cast<int64_t>(agents_.size()), *bucket_plan_,
      bottleneck_grid(topology_, options_.comms.latency_sec),
      options_.comms.aggregation, options_.comms.bucket_codec(),
      options_.comms.error_feedback, faults,
      /*straggler_support=*/options_.faults.deadline_sec > 0.0);
  // Modeled backward-tail fraction per bucket: the share of one batch's
  // work still ahead of the final backward sweep when the bucket's
  // lowest unit has finished — this is the compute window the bucket's
  // collective can hide inside.
  const auto costs = agents_[0].model->unit_costs(in_shape_);
  double total = 0.0;
  for (const auto& c : costs) total += c.flops_forward + c.flops_backward;
  std::vector<double> below(costs.size() + 1, 0.0);
  for (size_t u = 0; u < costs.size(); ++u)
    below[u + 1] = below[u] + costs[u].flops_backward;
  bucket_back_frac_.resize(static_cast<size_t>(bucket_plan_->buckets()));
  for (int64_t b = 0; b < bucket_plan_->buckets(); ++b)
    bucket_back_frac_[static_cast<size_t>(b)] =
        total > 0.0
            ? below[bucket_plan_->bucket(b).first_unit] / total
            : 0.0;
}

std::vector<AgentInfo> RealFleet::build_infos() const {
  std::vector<AgentInfo> infos(agents_.size());
  const double flops = profile_.full_flops_per_sample();
  for (size_t i = 0; i < agents_.size(); ++i) {
    AgentInfo& a = infos[i];
    a.id = static_cast<int64_t>(i);
    const double sps =
        topology_.profile(static_cast<int64_t>(i)).cpu *
        options_.train.reference_flops / flops;
    a.proc_speed = sps / static_cast<double>(options_.train.batch_size);
    a.num_batches = options_.train.batches_per_round;
    a.tau_solo = static_cast<double>(a.num_batches) / a.proc_speed;
  }
  return infos;
}

data::Batch RealFleet::next_batch(int64_t agent, tensor::Rng& rng) {
  data::Batch batch = agents_[static_cast<size_t>(agent)].batcher->next();
  if (options_.privacy.technique == learncurve::PrivacyTechnique::kPatchShuffle &&
      batch.x.rank() == 4) {
    batch.x = privacy::patch_shuffle(batch.x, options_.privacy.shuffle_patch, rng);
  }
  return batch;
}

/// One round's working state, threaded through the phases of step().
struct RealFleet::Round {
  int64_t live_before = 0;
  /// Armed death points per agent (-1 = none): batches trained, or buckets
  /// published, before the agent dies.
  std::vector<int64_t> die_after_batches;
  std::vector<int64_t> publish_budget;
  std::vector<int64_t> collective_victims;
  nn::SGD::Options sgd;
  std::vector<AgentInfo> infos;
  PairingResult plan;
  std::vector<char> late;  ///< per agent: deferred past the deadline
  /// DP noise draws from the fleet Rng in agent order after training, and
  /// a multi-process round reduces after the cross-worker exchange: either
  /// way every bucket publishes after training instead of from inside the
  /// tasks, and the layerwise overlap window closes.
  bool dp = false;
  bool publish_in_task = false;
  bool overlap = false;
  std::vector<tensor::Rng> task_rngs;
  std::vector<TaskResult> results;
  /// Task -> primary agent id: the solo agent, or a pair's slow agent. The
  /// owner of the primary runs the task.
  std::vector<int64_t> task_agent;
  RoundStats stats;
};

RealFleet::RoundStats RealFleet::step() {
  Round r;
  arm_faults(r);
  pair_up(r);
  train(r);
  exchange(r);
  aggregate(r);
  return finalize(r);
}

void RealFleet::arm_faults(Round& r) {
  // Leave-mode entries take their agent out before pairing; the per-point
  // modes are resolved by the training tasks, the publish path and the
  // bucket transports.
  r.live_before = static_cast<int64_t>(live_agents().size());
  r.die_after_batches.assign(agents_.size(), -1);
  r.publish_budget.assign(agents_.size(), -1);
  for (const FleetOptions::FaultOptions::AgentFailure& f :
       options_.faults.failures) {
    if (f.round != round_) continue;
    COMDML_CHECK(f.agent >= 0 && f.agent < agents());
    const auto a = static_cast<size_t>(f.agent);
    if (!agents_[a].alive) continue;
    if (f.after_batches >= 0) {
      r.die_after_batches[a] = f.after_batches;
    } else if (f.after_buckets >= 0) {
      r.publish_budget[a] = f.after_buckets;
    } else if (f.at_collective_step >= 0) {
      pipeline_->schedule_endpoint_failure(f.agent, f.at_collective_step);
      r.collective_victims.push_back(f.agent);
    } else {
      leave(f.agent);
    }
  }
}

void RealFleet::pair_up(Round& r) {
  r.sgd = options_.train.sgd;
  r.sgd.lr = current_lr_;
  r.infos = build_infos();
  const std::vector<int64_t> participants = live_agents();
  COMDML_REQUIRE(!participants.empty(), "no live agents left to run a round");
  r.plan = pair_agents(profile_, r.infos, topology_, options_.train.batch_size,
                       participants);
  r.stats.num_pairs = static_cast<int64_t>(r.plan.pairs.size());

  // Straggler deadline: a *solo* agent whose balanced round would outlast
  // the deadline is deferred — it still trains, but the on-time set
  // aggregates without waiting for it, and its late update is absorbed
  // into its error-feedback residual afterwards. Paired agents are never
  // deferred: pairing is the paper's rescue mechanism, and the pairing
  // pass has already pulled every rescuable straggler into a pair. If
  // every live agent would be late there is no on-time set to defer to,
  // so nobody is deferred.
  r.late.assign(agents_.size(), 0);
  if (options_.faults.deadline_sec <= 0.0) return;
  std::vector<int64_t> late_ids;
  for (const int64_t id : r.plan.solo)
    if (agents_[static_cast<size_t>(id)].alive &&
        r.infos[static_cast<size_t>(id)].tau_solo > options_.faults.deadline_sec)
      late_ids.push_back(id);
  if (late_ids.size() >= participants.size()) return;
  for (const int64_t id : late_ids) r.late[static_cast<size_t>(id)] = 1;
  r.stats.late_agents = static_cast<int64_t>(late_ids.size());
}

void RealFleet::train(Round& r) {
  r.dp = options_.privacy.technique ==
         learncurve::PrivacyTechnique::kDifferentialPrivacy;
  r.publish_in_task = !r.dp && !dist_;
  r.overlap = r.publish_in_task && options_.comms.overlap;
  pipeline_->begin_round();
  // Deferred stragglers are excluded up front so no bucket waits for their
  // contribution.
  for (int64_t a = 0; a < agents(); ++a)
    if (r.late[static_cast<size_t>(a)] != 0) pipeline_->defer(a);

  // Pairing is a matching, so pair tasks touch disjoint agent
  // replicas/batchers and solo tasks the rest: every task is independent
  // between the pairing and aggregation barriers. Each task gets an Rng
  // forked in fixed task order before the fan-out, and results land in a
  // pre-sized slot vector reduced serially afterwards, so the round is
  // bit-identical for every COMDML_NUM_THREADS value. The pipeline's fan-out
  // adds collector slots in overlapped mode and aborts on exceptions.
  const size_t n_pairs = r.plan.pairs.size();
  const size_t n_tasks = n_pairs + r.plan.solo.size();
  for (size_t t = 0; t < n_tasks; ++t) r.task_rngs.push_back(rng_.fork());
  r.results.resize(n_tasks);
  r.task_agent.resize(n_tasks);
  for (size_t t = 0; t < n_pairs; ++t)
    r.task_agent[t] = r.plan.pairs[t].slow_agent;
  for (size_t t = n_pairs; t < n_tasks; ++t)
    r.task_agent[t] = r.plan.solo[t - n_pairs];
  pipeline_->run_round(
      static_cast<int64_t>(n_tasks), [&](int64_t t) { run_task(r, t); },
      r.overlap);
}

void RealFleet::run_task(Round& r, int64_t task) {
  const auto t = static_cast<size_t>(task);
  const int64_t primary = r.task_agent[t];
  // Multi-process: the primary's owner runs the whole task, a pair's
  // borrowed fast replica included (the task's rng was forked in fixed
  // order, so skipping elsewhere preserves every other draw); the result
  // reaches the other workers through the exchange.
  if (dist_ && dist_->owner[static_cast<size_t>(primary)] != dist_->shard)
    return;
  if (t < r.plan.pairs.size()) {
    train_pair(r, r.plan.pairs[t], r.task_rngs[t], r.results[t]);
  } else {
    train_full(r, primary, r.task_rngs[t], r.results[t]);
  }
}

template <typename State>
void RealFleet::publish_bucket(Round& r, int64_t agent, const State& state,
                               int64_t bucket) {
  // An armed publish budget kills the agent mid-stream: after
  // `after_buckets` publishes the next attempt never lands, and the
  // pipeline re-targets the dead agent's remaining buckets. All of one
  // agent's publishes run on one thread, so the budget needs no
  // synchronization.
  const auto a = static_cast<size_t>(agent);
  if (!agents_[a].alive) return;
  int64_t& budget = r.publish_budget[a];
  if (budget == 0) {
    kill_agent(agent);
    budget = -1;
    return;
  }
  bucket_plan_->flatten_bucket(state, bucket, pipeline_->slot(agent, bucket));
  pipeline_->contribute(agent, bucket);
  if (budget > 0 && --budget == 0) {
    kill_agent(agent);
    budget = -1;
  }
}

void RealFleet::train_full(Round& r, int64_t agent, tensor::Rng& rng,
                           TaskResult& out) {
  // When publishing from inside the task, the round's last batch steps
  // each unit as its backward completes, so output-side buckets enter the
  // pipeline while input-side backward compute is still running
  // (bit-identical math either way).
  auto& st = agents_[static_cast<size_t>(agent)];
  nn::SGD opt(st.model->parameters(), r.sgd);
  // Momentum is fleet state, not round state: carry the velocity across
  // the per-round optimizer rebuilds (and through checkpoint/restore).
  if (!st.velocity.empty()) opt.load_velocity(st.velocity);
  const int64_t die_at = r.die_after_batches[static_cast<size_t>(agent)];
  const int64_t batches =
      die_at >= 0 ? std::min(options_.train.batches_per_round, die_at)
                  : options_.train.batches_per_round;
  for (int64_t b = 0; b < batches; ++b) {
    const auto batch = next_batch(agent, rng);
    float loss = 0.0f;
    if (r.publish_in_task && b == batches - 1 && die_at < 0 &&
        r.late[static_cast<size_t>(agent)] == 0) {
      std::vector<tensor::Tensor*> ptrs;
      st.model->collect_state(ptrs);
      nn::BucketReadyTracker tracker(*bucket_plan_);
      loss = nn::train_batch_full_notify(
                 *st.model, opt, batch.x, batch.y,
                 bucket_plan_->unit_param_counts(),
                 [&](size_t u) {
                   tracker.unit_done(u, [&](int64_t bk) {
                     publish_bucket(r, agent, ptrs, bk);
                   });
                 })
                 .loss;
    } else {
      loss = nn::train_batch_full(*st.model, opt, batch.x, batch.y).loss;
    }
    out.loss_sum += loss;
    ++out.loss_count;
  }
  st.velocity = opt.velocity();
  // Died after its batch quota: nothing published this round.
  if (die_at >= 0) kill_agent(agent);
}

void RealFleet::train_pair(Round& r, const OffloadDecision& pair,
                           tensor::Rng& rng, TaskResult& out) {
  // Local-loss split training of the *slow* agent's replica (the fast side
  // physically runs on the fast agent; state-wise it is the slow replica's
  // suffix), while the fast agent also trains its own replica.
  auto& slow = agents_[static_cast<size_t>(pair.slow_agent)];
  const int64_t batches = options_.train.batches_per_round;
  const int64_t slow_die =
      r.die_after_batches[static_cast<size_t>(pair.slow_agent)];
  const int64_t slow_batches =
      slow_die >= 0 ? std::min(batches, slow_die) : batches;
  nn::LocalLossSplitTrainer split(*slow.model, pair.cut, in_shape_, classes_,
                                  rng, r.sgd);
  for (int64_t b = 0; b < slow_batches; ++b) {
    const auto batch = next_batch(pair.slow_agent, rng);
    nn::LocalLossSplitTrainer::StepStats step;
    if (r.publish_in_task && b == batches - 1 && slow_die < 0) {
      // Final batch: per-unit finalization publishes the slow replica's
      // buckets layer-by-layer during the split backward — prefix-side
      // buckets enter the pipeline before the fast-side backward even
      // starts, and every bucket ships before the fast agent's own
      // full-model training below (bit-identical math either way).
      std::vector<tensor::Tensor*> ptrs;
      slow.model->collect_state(ptrs);
      nn::BucketReadyTracker tracker(*bucket_plan_);
      const size_t total_units = slow.model->size();
      size_t units_done = 0;
      step = split.train_batch_notify(
          batch.x, batch.y, bucket_plan_->unit_param_counts(), [&](size_t u) {
            ++units_done;
            tracker.unit_done(u, [&](int64_t bk) {
              publish_bucket(r, pair.slow_agent, ptrs, bk);
              // Published while split units were still pending: the
              // widened overlap window, as a number.
              if (units_done < total_units) ++out.split_early_buckets;
            });
          });
    } else {
      step = split.train_batch(batch.x, batch.y);
    }
    out.slow_loss_sum += step.slow_loss;
    out.loss_sum += step.fast_loss;
    ++out.loss_count;
    if (b == 0) {
      // Privacy leakage across the cut, measured on real activations, and
      // the actually-achieved wire compression of the same payload.
      const auto h = slow.model->forward_range(batch.x, 0, pair.cut, false);
      out.dcor += privacy::distance_correlation(batch.x, h);
      out.wire_compression += comm::compression_ratio(h);
      ++out.dcor_count;
    }
  }
  if (slow_die >= 0) kill_agent(pair.slow_agent);
  train_full(r, pair.fast_agent, rng, out);
}

void RealFleet::exchange(Round& r) {
  // Multi-process: gather every worker's owned TaskResults into the full
  // vector so the serial fold in finalize() stays one code path — every
  // worker folds identical slots and lands on the same mean_loss, dcor, and
  // plateau trajectory. Pair tasks trained a borrowed fast replica on the
  // slow agent's owner; those replicas ship home here, and every worker
  // imports every borrowed blob so owners post current state into the
  // collective. Agents whose worker crashed mid-training come back in
  // `died`: they leave the fleet before the collective forms, so the
  // survivors aggregate exactly like a from-scratch survivor-only fleet
  // (the dead workers' zero TaskResult slots fold harmlessly).
  if (!dist_ || !dist_->exchange) return;
  ExchangeIO io;
  io.task_agent = &r.task_agent;
  io.results = &r.results;
  for (const OffloadDecision& p : r.plan.pairs)
    if (dist_->owner[static_cast<size_t>(p.slow_agent)] == dist_->shard &&
        dist_->owner[static_cast<size_t>(p.fast_agent)] != dist_->shard)
      io.state_out.emplace_back(p.fast_agent, export_agent(p.fast_agent));
  dist_->exchange(io);
  for (const AgentBlob& blob : io.state_in)
    import_agent(blob.first, blob.second);
  for (const int64_t a : io.died)
    if (agents_[static_cast<size_t>(a)].alive) kill_agent(a);
}

void RealFleet::publish_all(Round& r) {
  // Every on-time live agent publishes all of its buckets, from the
  // DP-noised snapshot or straight from its replica (untouched until the
  // write-back, so a multi-process retry can publish again). An armed
  // publish budget kills its agent mid-publication, like the in-task path.
  for (size_t i = 0; i < agents_.size(); ++i) {
    if (!agents_[i].alive || r.late[i] != 0) continue;
    const auto publish = [&](const auto& state) {
      for (int64_t bk = 0; bk < bucket_plan_->buckets(); ++bk)
        publish_bucket(r, static_cast<int64_t>(i), state, bk);
    };
    if (r.dp) {
      publish(dp_states_[i]);
      continue;
    }
    std::vector<tensor::Tensor*> ptrs;
    agents_[i].model->collect_state(ptrs);
    publish(ptrs);
  }
}

void RealFleet::aggregate(Round& r) {
  if (!r.publish_in_task) {
    if (r.dp) {
      // Snapshot + noise every agent (dead ones included, so the fleet
      // rng sequence does not depend on the failure pattern) in agent
      // order with the fleet Rng.
      dp_states_.resize(agents_.size());
      for (size_t i = 0; i < agents_.size(); ++i)
        nn::copy_state_into(*agents_[i].model, dp_states_[i]);
      for (auto& s : dp_states_)
        privacy::laplace_mechanism(s, options_.privacy.dp_epsilon,
                                   options_.privacy.dp_sensitivity, rng_);
    }
    publish_all(r);
  }
  // Overlapped rounds drained inside the training fan-out; sequential
  // rounds reduce here, in ready order on this thread.
  if (dist_) {
    reduce_across_processes(r);
  } else if (!r.overlap) {
    pipeline_->drain();
  }

  // Mid-collective victims died during the reduce; take them out before
  // the write-back (their slots hold pre-recovery payloads, not means)
  // and disarm the transport faults so the next round's reset step
  // counters do not re-kill them against the survivors.
  for (const int64_t v : r.collective_victims)
    if (agents_[static_cast<size_t>(v)].alive) set_membership(v, false);
  if (!r.collective_victims.empty()) pipeline_->clear_endpoint_failures();

  // Every on-time live agent's slots now hold the bucket means; write
  // them back. Deferred stragglers stage their late update, fold
  // (late - consensus) into their residual so the work re-enters the
  // stream next round, and adopt the consensus so the fleet stays
  // synchronized.
  int64_t src = -1;
  for (size_t i = 0; i < agents_.size(); ++i)
    if (agents_[i].alive && r.late[i] == 0) {
      src = static_cast<int64_t>(i);
      break;
    }
  for (size_t i = 0; i < agents_.size(); ++i) {
    if (!agents_[i].alive) continue;
    const auto a = static_cast<int64_t>(i);
    std::vector<tensor::Tensor*> ptrs;
    agents_[i].model->collect_state(ptrs);
    if (r.late[i] != 0) {
      COMDML_REQUIRE(src >= 0,
                     "straggler deferral lost every on-time agent this round");
      pipeline_->stage_state(a, ptrs);
      pipeline_->absorb_late(a, src);
    }
    pipeline_->restore_state(a, ptrs);
  }
}

void RealFleet::reduce_across_processes(Round& r) {
  // The survivor schedule runs rank-partitioned over the shared (socket)
  // data mesh: identical message pattern, merge order and arithmetic, so
  // every worker lands on the single-process consensus bit for bit.
  //
  // A worker crash mid-collective surfaces as EndpointDownError on some
  // (not necessarily all — schedules don't touch every pair every step)
  // survivors. Recovery: after every attempt the collective_sync barrier
  // reconciles the survivors' views, the dead worker's agents leave the
  // fleet, the data mesh is rebuilt (a fresh transport cannot carry stale
  // frames from the aborted schedule), and the survivors publish again —
  // exactly the schedule a from-scratch survivor-only fleet would run.
  for (;;) {
    const std::vector<int64_t> parts = live_agents();
    bool ok = true;
    try {
      pipeline_->drain();
    } catch (const comm::EndpointDownError&) {
      ok = false;
    }
    // This worker's view of the survivors: the attempted participants
    // minus the endpoints the transport has declared dead.
    std::vector<int64_t> view;
    for (const int64_t p : parts)
      if (dist_->transport->endpoint_alive(p)) view.push_back(p);
    if (dist_->collective_sync) {
      auto [agreed, fresh] = dist_->collective_sync(view, ok);
      std::sort(agreed.begin(), agreed.end());
      for (const int64_t p : parts)
        if (!std::binary_search(agreed.begin(), agreed.end(), p) &&
            agents_[static_cast<size_t>(p)].alive)
          kill_agent(p);
      COMDML_REQUIRE(!agreed.empty(),
                     "collective recovery lost every live agent");
      if (fresh == nullptr) return;  // settled everywhere
      use_dist_transport(fresh);
    } else {
      if (ok) return;
      // No coordinator to arbitrate (single-worker context in tests):
      // trust the local view, drop in-flight frames, and retry.
      for (const int64_t p : parts)
        if (!dist_->transport->endpoint_alive(p) &&
            agents_[static_cast<size_t>(p)].alive)
          kill_agent(p);
      COMDML_REQUIRE(!view.empty(),
                     "collective recovery lost every live agent");
      dist_->transport->clear_pending();
    }
    pipeline_->begin_round();
    publish_all(r);
  }
}

RealFleet::RoundStats RealFleet::finalize(Round& r) {
  RoundStats& stats = r.stats;
  float slow_loss_sum = 0.0f, loss_sum = 0.0f;
  int64_t loss_count = 0, dcor_count = 0;
  double dcor_sum = 0.0;
  for (const TaskResult& t : r.results) {
    slow_loss_sum += t.slow_loss_sum;
    loss_sum += t.loss_sum;
    loss_count += t.loss_count;
    dcor_sum += t.dcor;
    stats.mean_wire_compression += t.wire_compression;
    dcor_count += t.dcor_count;
    stats.split_early_buckets += t.split_early_buckets;
  }
  stats.mean_slow_loss =
      r.plan.pairs.empty()
          ? 0.0f
          : slow_loss_sum / static_cast<float>(r.plan.pairs.size() *
                                               options_.train.batches_per_round);
  stats.mean_loss =
      loss_count == 0 ? 0.0f : loss_sum / static_cast<float>(loss_count);
  stats.mean_dcor =
      dcor_count == 0 ? 0.0 : dcor_sum / static_cast<double>(dcor_count);
  if (dcor_count > 0)
    stats.mean_wire_compression /= static_cast<double>(dcor_count);
  model_clock(r);

  // Plateau LR schedule (paper §V-A): decay when the fleet loss stalls.
  if (plateau_) {
    const float mult = plateau_->observe(-stats.mean_loss);
    if (mult < 1.0f) current_lr_ *= mult;
  }
  stats.dropped_agents =
      r.live_before - static_cast<int64_t>(live_agents().size());
  ++round_;
  ++rounds_since_checkpoint_;
  if (options_.faults.checkpoint_every > 0 &&
      round_ % options_.faults.checkpoint_every == 0)
    auto_checkpoint();
  return stats;
}

void RealFleet::model_clock(Round& r) {
  // The modeled compute span of the round. With deferral the straggler no
  // longer gates the barrier: the span is the slowest *on-time*
  // participant (pair completion times and on-time solo times).
  double t_comp = r.plan.estimated_round_time;
  if (r.stats.late_agents > 0) {
    t_comp = 0.0;
    for (const OffloadDecision& p : r.plan.pairs)
      t_comp = std::max(t_comp, p.estimated_time);
    for (const int64_t id : r.plan.solo)
      if (r.late[static_cast<size_t>(id)] == 0)
        t_comp = std::max(t_comp, r.infos[static_cast<size_t>(id)].tau_solo);
  }
  const PipelineStats ps = pipeline_->stats();
  RoundStats& stats = r.stats;
  stats.aggregation_seconds = ps.comm_seconds;
  stats.aggregation_bytes = ps.max_bytes_sent;
  stats.buckets = ps.buckets;
  stats.retransmit_bytes = ps.retransmit_bytes;

  // Overlapped: bucket b is producible no earlier than the fastest agent's
  // backward tail allows (the last agent to finalize a bucket gates it,
  // and agents finish the balanced round together), so ready(b) = t_comp -
  // tau_batch_min * back_frac(b). Sequential: everything is ready at the
  // training barrier. Either way the bucket collectives serialize on the
  // shared link from their ready times — the same composition the parity
  // tests run on SimTransport-predicted bucket costs.
  std::vector<double> ready(static_cast<size_t>(ps.buckets), t_comp);
  if (r.overlap) {
    double tau_min = 1e300;
    for (const AgentInfo& a : r.infos)
      tau_min = std::min(tau_min, 1.0 / a.proc_speed);
    for (int64_t b = 0; b < ps.buckets; ++b)
      ready[static_cast<size_t>(b)] = std::max(
          0.0, t_comp - tau_min * bucket_back_frac_[static_cast<size_t>(b)]);
  }
  const OverlapTimeline timeline =
      compose_overlap_timeline(ready, ps.bucket_seconds);
  stats.sim_time = std::max(t_comp, timeline.span);
  stats.exposed_comm_seconds = stats.sim_time - t_comp;
}

float RealFleet::evaluate(const data::Dataset& test) {
  test.validate();
  return nn::evaluate_accuracy(*agents_[static_cast<size_t>(first_live())].model,
                               test.images, test.labels);
}

nn::Sequential& RealFleet::model(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  return *agents_[static_cast<size_t>(agent)].model;
}

bool RealFleet::agent_alive(int64_t agent) const {
  COMDML_CHECK(agent >= 0 && agent < agents());
  return agents_[static_cast<size_t>(agent)].alive;
}

std::vector<int64_t> RealFleet::live_agents() const {
  std::vector<int64_t> out;
  for (int64_t a = 0; a < agents(); ++a)
    if (agents_[static_cast<size_t>(a)].alive) out.push_back(a);
  return out;
}

int64_t RealFleet::first_live() const {
  for (int64_t a = 0; a < agents(); ++a)
    if (agents_[static_cast<size_t>(a)].alive) return a;
  COMDML_REQUIRE(false, "fleet has no live agent");
  return -1;
}

void RealFleet::kill_agent(int64_t agent) {
  agents_[static_cast<size_t>(agent)].alive = false;
  pipeline_->deactivate(agent);
}

void RealFleet::set_membership(int64_t agent, bool alive) {
  agents_[static_cast<size_t>(agent)].alive = alive;
  if (alive) {
    pipeline_->rejoin(agent);
  } else {
    pipeline_->leave(agent);
  }
}

void RealFleet::leave(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  set_membership(agent, false);
}

void RealFleet::rejoin(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  AgentState& st = agents_[static_cast<size_t>(agent)];
  if (st.alive) return;
  // Initialize from the consensus state: after aggregation every live
  // replica is identical, so any live agent's model is the fleet model.
  const int64_t src = first_live();
  nn::load_state(*st.model, nn::state_of(*agents_[static_cast<size_t>(src)].model));
  st.velocity.clear();
  set_membership(agent, true);
}

namespace {
constexpr uint32_t kCheckpointMagic = 0x434D444C;  // "CMDL"
constexpr uint32_t kCheckpointVersion = 3;
constexpr uint32_t kShardMagic = 0x434D4453;  // "CMDS"
constexpr uint32_t kShardVersion = 1;
constexpr size_t kFrameHeader = 2 * sizeof(uint32_t) + sizeof(uint64_t);

/// [magic | version | fnv1a(payload) | payload]. The reader verifies the
/// checksum before parsing a single payload field, so truncation and bit
/// rot surface as CheckpointError up front.
std::vector<uint8_t> frame(uint32_t magic, uint32_t version,
                           const std::vector<uint8_t>& payload) {
  tensor::ByteWriter w;
  w.u32(magic);
  w.u32(version);
  w.u64(tensor::fnv1a(payload.data(), payload.size()));
  w.raw(payload);
  return w.bytes();
}

/// Validates a frame() envelope and returns a reader at its payload. Every
/// defect is a CheckpointError naming `what`: the caller handed us an
/// unusable blob, not a programming error.
tensor::ByteReader unframe(const std::vector<uint8_t>& bytes, uint32_t magic,
                           uint32_t version, const std::string& what) {
  if (bytes.size() < kFrameHeader)
    throw CheckpointError(what + " truncated: " +
                          std::to_string(bytes.size()) +
                          " bytes is smaller than the header");
  tensor::ByteReader r(bytes);
  if (r.u32() != magic)
    throw CheckpointError("not a fleet " + what + " (bad magic)");
  const uint32_t got = r.u32();
  if (got != version)
    throw CheckpointError("unsupported " + what + " version " +
                          std::to_string(got) + " (expected " +
                          std::to_string(version) + ")");
  const uint64_t want_sum = r.u64();
  if (tensor::fnv1a(bytes.data() + kFrameHeader,
                    bytes.size() - kFrameHeader) != want_sum)
    throw CheckpointError(what +
                          " checksum mismatch (truncated or corrupted blob)");
  return r;
}

void write_plateau(tensor::ByteWriter& w,
                   const std::optional<nn::PlateauScheduler>& plateau) {
  w.u8(plateau.has_value() ? 1 : 0);
  if (!plateau) return;
  const nn::PlateauScheduler::State s = plateau->save();
  w.f32(s.best);
  w.i64(s.stale);
}

std::optional<nn::PlateauScheduler::State> read_plateau(
    tensor::ByteReader& r) {
  if (r.u8() == 0) return std::nullopt;
  nn::PlateauScheduler::State s;
  s.best = r.f32();
  s.stale = static_cast<int>(r.i64());
  return s;
}

/// One worker's checkpoint shard, parsed (see checkpoint_shard()).
struct ParsedShard {
  int64_t agents_total = 0;
  int64_t round = 0;
  int64_t shard = 0;
  int64_t shards = 0;
  float lr = 0.0f;
  std::string rng;
  std::optional<nn::PlateauScheduler::State> plateau;
  std::vector<std::pair<int64_t, std::string>> blobs;
};

ParsedShard parse_shard(const std::vector<uint8_t>& bytes) {
  tensor::ByteReader r =
      unframe(bytes, kShardMagic, kShardVersion, "checkpoint shard");
  try {
    ParsedShard p;
    p.agents_total = static_cast<int64_t>(r.u32());
    p.round = r.i64();
    p.shard = r.i64();
    p.shards = r.i64();
    p.lr = r.f32();
    p.rng = r.str();
    p.plateau = read_plateau(r);
    const uint32_t count = r.u32();
    for (uint32_t i = 0; i < count; ++i) {
      const int64_t a = r.i64();
      p.blobs.emplace_back(a, r.str());
    }
    r.expect_done();
    return p;
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(std::string("malformed checkpoint shard: ") +
                          e.what());
  }
}
}  // namespace

void RealFleet::write_agent(tensor::ByteWriter& w, int64_t agent) {
  AgentState& st = agents_[static_cast<size_t>(agent)];
  w.u8(st.alive ? 1 : 0);
  w.tensors(nn::state_of(*st.model));
  w.tensors(st.velocity);
  const data::Batcher::State bs = st.batcher->save();
  w.i64s(bs.order);
  w.i64(bs.cursor);
  w.i64(bs.epoch);
  w.str(bs.rng);
}

void RealFleet::read_agent(tensor::ByteReader& r, int64_t agent) {
  AgentState& st = agents_[static_cast<size_t>(agent)];
  const bool alive = r.u8() != 0;
  if (alive != st.alive) set_membership(agent, alive);
  nn::load_state(*st.model, r.tensors());
  st.velocity = r.tensors();
  data::Batcher::State bs;
  bs.order = r.i64s();
  bs.cursor = r.i64();
  bs.epoch = r.i64();
  bs.rng = r.str();
  st.batcher->load(bs);
}

std::vector<uint8_t> RealFleet::checkpoint() {
  tensor::ByteWriter body;
  body.u32(static_cast<uint32_t>(agents()));
  body.i64(round_);
  body.f32(current_lr_);
  body.str(rng_.state());
  write_plateau(body, plateau_);
  for (int64_t a = 0; a < agents(); ++a) write_agent(body, a);
  body.f64s(pipeline_->residuals());
  return frame(kCheckpointMagic, kCheckpointVersion, body.bytes());
}

void RealFleet::restore(const std::vector<uint8_t>& bytes) {
  tensor::ByteReader r =
      unframe(bytes, kCheckpointMagic, kCheckpointVersion, "checkpoint");
  // The body parse cannot run off the end (the checksum covered every
  // byte), but a malformed length field could still ask for more than is
  // there; surface that as a CheckpointError too.
  try {
    const auto k = static_cast<int64_t>(r.u32());
    if (k > agents())
      throw CheckpointError(
          "checkpoint holds " + std::to_string(k) +
          " agents but this fleet only has " + std::to_string(agents()) +
          " — restore needs a fleet at least as wide as the checkpoint");
    round_ = r.i64();
    current_lr_ = r.f32();
    rng_.set_state(r.str());
    const auto plateau = read_plateau(r);
    if (plateau.has_value() != plateau_.has_value())
      throw CheckpointError("checkpoint plateau-schedule config mismatch");
    if (plateau_) plateau_->load(*plateau);
    // Liveness changes also sync the pipeline's membership (a rejoin
    // zeroes the agent's residual row, so the slab loads after).
    for (int64_t a = 0; a < k; ++a) read_agent(r, a);
    // A narrower checkpoint restores into a wider fleet: the agents beyond
    // the checkpointed set come up as left (the consensus does not include
    // them) and can rejoin from a live agent's post-aggregation state.
    for (int64_t a = k; a < agents(); ++a) {
      set_membership(a, false);
      agents_[static_cast<size_t>(a)].velocity.clear();
    }
    std::vector<double> residuals = r.f64s();
    const size_t want = pipeline_->residuals().size();
    if (want > 0) {
      // The checkpointed slab covers k agents; rows for the extra agents
      // of a wider fleet start zeroed (no residual history).
      const size_t per_agent = want / static_cast<size_t>(agents());
      if (residuals.size() != per_agent * static_cast<size_t>(k))
        throw CheckpointError(
            "checkpoint residual slab mismatch: holds " +
            std::to_string(residuals.size()) + " values, expected " +
            std::to_string(per_agent * static_cast<size_t>(k)));
      residuals.resize(want, 0.0);
      pipeline_->load_residuals(residuals);
    } else if (!residuals.empty()) {
      throw CheckpointError(
          "checkpoint carries error-feedback residuals but this fleet "
          "has no residual slab (codec/straggler config mismatch)");
    }
    r.expect_done();
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(std::string("malformed checkpoint body: ") +
                          e.what());
  }
  rounds_since_checkpoint_ = 0;
}

void RealFleet::set_dist_context(DistContext ctx) {
  COMDML_REQUIRE(round_ == 0,
                 "set_dist_context must run before the first step()");
  COMDML_REQUIRE(ctx.shards >= 1 && ctx.shard >= 0 && ctx.shard < ctx.shards,
                 "bad shard index " << ctx.shard << " of " << ctx.shards);
  COMDML_REQUIRE(ctx.transport != nullptr, "multi-process mode needs a "
                                           "transport");
  COMDML_REQUIRE(ctx.transport->endpoints() == agents(),
                 "transport hosts " << ctx.transport->endpoints()
                                    << " endpoints, fleet has " << agents()
                                    << " agents");
  COMDML_REQUIRE(static_cast<int64_t>(ctx.owner.size()) == agents(),
                 "owner map covers " << ctx.owner.size() << " agents of "
                                     << agents());
  bool owns_one = false;
  for (const int64_t o : ctx.owner) {
    COMDML_REQUIRE(o >= 0 && o < ctx.shards, "owner " << o << " out of range");
    if (o == ctx.shard) owns_one = true;
  }
  COMDML_REQUIRE(owns_one, "shard " << ctx.shard << " owns no agent");
  COMDML_REQUIRE(ctx.shards == 1 || static_cast<bool>(ctx.exchange),
                 "multi-worker fleets need a TaskResult exchange");
  // Constraints the partitioned round cannot honor yet: more than one
  // bucket or a lossy codec on the shared mesh (the cross-process wire
  // carries one fp32 collective per round), overlap (the exchange barrier
  // sits between training and aggregation), mid-round deaths (every worker
  // must see the same live set at every point), straggler deferral, and
  // message loss on the aggregation wire (the NACK path retransmits, but
  // the per-step histories then desynchronize across workers).
  COMDML_REQUIRE(options_.comms.bucket_bytes == 0,
                 "multi-process fleets aggregate in one bucket "
                 "(bucket_bytes 0)");
  COMDML_REQUIRE(!options_.comms.overlap,
                 "multi-process fleets do not overlap aggregation");
  COMDML_REQUIRE(
      options_.comms.codec == FleetOptions::CommOptions::Codec::kFp32,
      "multi-process fleets need the fp32 aggregation wire");
  for (const FleetOptions::FaultOptions::AgentFailure& f :
       options_.faults.failures)
    COMDML_REQUIRE(f.after_batches < 0 && f.after_buckets < 0 &&
                       f.at_collective_step < 0,
                   "multi-process fleets support leave-mode failures only");
  COMDML_REQUIRE(options_.faults.deadline_sec == 0.0,
                 "multi-process fleets do not support straggler deadlines");
  COMDML_REQUIRE(options_.faults.message_drop_prob == 0.0,
                 "multi-process fleets need a loss-free aggregation wire");
  comm::Transport* transport = ctx.transport;
  dist_ = std::move(ctx);
  use_dist_transport(transport);
}

void RealFleet::use_dist_transport(comm::Transport* transport) {
  dist_->transport = transport;
  std::vector<char> owned(agents_.size());
  for (size_t a = 0; a < owned.size(); ++a)
    owned[a] = dist_->owner[a] == dist_->shard ? 1 : 0;
  pipeline_->use_shared_transport(transport, std::move(owned));
}

void RealFleet::set_dist_transport(comm::Transport* transport) {
  COMDML_REQUIRE(dist_.has_value(),
                 "set_dist_transport needs an engaged dist context");
  COMDML_REQUIRE(transport != nullptr, "null transport");
  COMDML_REQUIRE(transport->endpoints() == agents(),
                 "transport hosts " << transport->endpoints()
                                    << " endpoints, fleet has " << agents()
                                    << " agents");
  use_dist_transport(transport);
}

std::vector<uint8_t> RealFleet::export_agent(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  tensor::ByteWriter w;
  write_agent(w, agent);
  return w.bytes();
}

void RealFleet::import_agent(int64_t agent, const std::vector<uint8_t>& bytes) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  tensor::ByteReader r(bytes);
  read_agent(r, agent);
  r.expect_done();
}

std::vector<uint8_t> RealFleet::checkpoint_shard(
    int64_t shard, int64_t shards, const std::vector<int64_t>& owned_agents) {
  COMDML_REQUIRE(shards >= 1 && shard >= 0 && shard < shards,
                 "bad shard index " << shard << " of " << shards);
  tensor::ByteWriter body;
  body.u32(static_cast<uint32_t>(agents()));
  body.i64(round_);
  body.i64(shard);
  body.i64(shards);
  body.f32(current_lr_);
  // Fleet-level rng travels in EVERY shard: all workers fork task rngs for
  // all tasks every round, so their fleet rng states are identical and any
  // shard can seed the restored fleet.
  body.str(rng_.state());
  write_plateau(body, plateau_);
  body.u32(static_cast<uint32_t>(owned_agents.size()));
  for (const int64_t a : owned_agents) {
    COMDML_CHECK(a >= 0 && a < agents());
    body.i64(a);
    const std::vector<uint8_t> blob = export_agent(a);
    body.str(std::string(blob.begin(), blob.end()));
  }
  return frame(kShardMagic, kShardVersion, body.bytes());
}

void RealFleet::restore_shards(
    const std::vector<std::vector<uint8_t>>& shards) {
  COMDML_REQUIRE(pipeline_->residuals().empty(),
                 "shard restore needs a fleet without an error-feedback "
                 "residual slab (shards carry no residuals)");
  if (shards.empty())
    throw CheckpointError("shard restore got zero shards");
  std::vector<ParsedShard> parsed;
  parsed.reserve(shards.size());
  for (const std::vector<uint8_t>& bytes : shards)
    parsed.push_back(parse_shard(bytes));

  // Cross-shard consistency: every shard must describe the same fleet at
  // the same round, and no two shards may carry the same worker slot or
  // the same agent.
  const ParsedShard& head = parsed.front();
  if (head.agents_total > agents())
    throw CheckpointError(
        "checkpoint shards hold " + std::to_string(head.agents_total) +
        " agents but this fleet only has " + std::to_string(agents()));
  if (head.plateau.has_value() != plateau_.has_value())
    throw CheckpointError("checkpoint shard plateau-schedule config mismatch");
  std::vector<char> slot_seen(static_cast<size_t>(head.shards), 0);
  for (const ParsedShard& p : parsed) {
    if (p.agents_total != head.agents_total || p.round != head.round ||
        p.shards != head.shards ||
        p.plateau.has_value() != head.plateau.has_value())
      throw CheckpointError(
          "inconsistent checkpoint shards: mixed fleets or rounds");
    if (p.shard < 0 || p.shard >= p.shards)
      throw CheckpointError("checkpoint shard index out of range");
    if (slot_seen[static_cast<size_t>(p.shard)] != 0)
      throw CheckpointError("duplicate checkpoint shard " +
                            std::to_string(p.shard));
    slot_seen[static_cast<size_t>(p.shard)] = 1;
  }

  // Fleet-level state from the lowest shard index present (all shards
  // carry identical copies; the choice only pins determinism).
  const ParsedShard* lead = &head;
  for (const ParsedShard& p : parsed)
    if (p.shard < lead->shard) lead = &p;
  round_ = lead->round;
  current_lr_ = lead->lr;
  rng_.set_state(lead->rng);
  if (plateau_) plateau_->load(*lead->plateau);

  // Start everyone as left, then bring covered agents up with their exact
  // state. Agents of absent shards stay left — rejoinable from consensus.
  for (int64_t a = 0; a < agents(); ++a) {
    set_membership(a, false);
    agents_[static_cast<size_t>(a)].velocity.clear();
  }
  std::vector<char> agent_seen(static_cast<size_t>(agents()), 0);
  int64_t live = 0;
  for (const ParsedShard& p : parsed) {
    for (const auto& entry : p.blobs) {
      const int64_t a = entry.first;
      if (a < 0 || a >= agents())
        throw CheckpointError("checkpoint shard covers agent " +
                              std::to_string(a) + " outside this fleet");
      if (agent_seen[static_cast<size_t>(a)] != 0)
        throw CheckpointError("agent " + std::to_string(a) +
                              " covered by two checkpoint shards");
      agent_seen[static_cast<size_t>(a)] = 1;
      try {
        import_agent(a, std::vector<uint8_t>(entry.second.begin(),
                                             entry.second.end()));
      } catch (const std::invalid_argument& e) {
        throw CheckpointError(std::string("malformed agent blob in "
                                          "checkpoint shard: ") +
                              e.what());
      }
      if (agents_[static_cast<size_t>(a)].alive) ++live;
    }
  }
  if (live == 0)
    throw CheckpointError(
        "checkpoint shards restore zero live agents; need a quorum "
        "covering at least one");
  rounds_since_checkpoint_ = 0;
}

void RealFleet::auto_checkpoint() {
  namespace fs = std::filesystem;
  const fs::path dir(options_.faults.checkpoint_dir);
  fs::create_directories(dir);
  char name[32];
  std::snprintf(name, sizeof(name), "fleet_r%06lld.cmdl",
                static_cast<long long>(round_));
  const std::vector<uint8_t> bytes = checkpoint();
  {
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    COMDML_REQUIRE(out.good(), "cannot write checkpoint " << (dir / name));
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    COMDML_REQUIRE(out.good(),
                   "short write on checkpoint " << (dir / name));
  }
  rounds_since_checkpoint_ = 0;
  // Retention: keep the newest checkpoint_retain auto-checkpoints. The
  // round number is zero-padded, so lexicographic order is round order.
  std::vector<fs::path> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("fleet_r", 0) == 0 &&
        entry.path().extension() == ".cmdl")
      found.push_back(entry.path());
  }
  std::sort(found.begin(), found.end());
  const auto retain = static_cast<size_t>(options_.faults.checkpoint_retain);
  for (size_t i = 0; i + retain < found.size(); ++i)
    fs::remove(found[i]);
}

}  // namespace comdml::core
