#include "probes.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/collective.hpp"
#include "comm/socket_io.hpp"
#include "core/pairing.hpp"
#include "data/batcher.hpp"
#include "nn/loss.hpp"
#include "nn/split.hpp"
#include "tensor/gemm.hpp"

namespace roundbench {
namespace {

using namespace comdml;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calls per probe at most, which also bounds the trace file's size.
constexpr size_t kMaxCalls = 2000;

/// Median seconds of one `fn()` call: at least `min_reps` calls, then more
/// until `budget` seconds have passed. Every call is a span.
double median_call(Tracer& tracer, const char* span, double budget,
                   int min_reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         (since(start) < budget && samples.size() < kMaxCalls)) {
    ScopedSpan s(tracer, span);
    const auto t0 = Clock::now();
    fn();
    samples.push_back(since(t0));
  }
  return median(std::move(samples));
}

std::vector<double> random_payload(int64_t elems, uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(elems));
  for (double& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

comm::LinkGrid grid_of(const AggGeometry& g) {
  return comm::LinkGrid::uniform(g.agents, g.mbps, g.latency_sec);
}

void probe_gemm(const ProbeContext& ctx, Tracer& tracer, RunResult& out) {
  ScopedSpan probe(tracer, "probe.tensor.gemm");
  const GemmShape s = ctx.gemm;
  const auto a = random_payload(s.m * s.k, 1), b = random_payload(s.n * s.k, 2);
  std::vector<float> af(a.begin(), a.end()), bf(b.begin(), b.end());
  std::vector<float> c(static_cast<size_t>(s.m * s.n));
  const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
  // Enough calls per sample that one sample is ~50 MFLOP.
  const auto inner = std::max<int64_t>(1, static_cast<int64_t>(5e7 / flops));
  const double sec = median_call(tracer, "tensor.gemm_nt", 0.4, 5, [&] {
    for (int64_t i = 0; i < inner; ++i)
      tensor::gemm_nt(af.data(), bf.data(), c.data(), s.m, s.k, s.n);
  });
  out.add("tensor.gemm_gflops",
          flops * static_cast<double>(inner) / sec * 1e-9, "GFLOP/s");
}

void probe_nn(const ProbeContext& ctx, Tracer& tracer, RunResult& out) {
  ScopedSpan probe(tracer, "probe.nn");
  tensor::Rng rng(11);
  data::Batcher batcher(*ctx.data, ctx.batch, tensor::Rng(12));
  const data::Batch batch = batcher.next();

  auto model = ctx.factory(rng);
  nn::SGD opt(model->parameters(), ctx.sgd);
  std::vector<double> fwd, bwd, sgd;
  const auto start = Clock::now();
  while (fwd.size() < 5 || (since(start) < 0.6 && fwd.size() < kMaxCalls)) {
    auto t0 = Clock::now();
    tensor::Tensor logits;
    {
      ScopedSpan s(tracer, "nn.forward");
      logits = model->forward(batch.x, /*train=*/true);
    }
    fwd.push_back(since(t0));
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.y);
    t0 = Clock::now();
    {
      ScopedSpan s(tracer, "nn.backward");
      (void)model->backward(loss.grad_logits);
    }
    bwd.push_back(since(t0));
    t0 = Clock::now();
    {
      ScopedSpan s(tracer, "nn.sgd_step");
      opt.step();
    }
    sgd.push_back(since(t0));
    opt.zero_grad();
  }
  out.add("nn.forward_s", median(fwd), "s");
  out.add("nn.backward_s", median(bwd), "s");
  out.add("nn.sgd_step_s", median(sgd), "s");

  // Split training at the cut the pairing chose, on a fresh replica.
  auto split_model = ctx.factory(rng);
  nn::LocalLossSplitTrainer trainer(*split_model, ctx.split_cut,
                                    ctx.data->sample_shape(), ctx.classes,
                                    rng, ctx.sgd);
  const double split = median_call(tracer, "nn.split.train_batch", 0.5, 5,
                                   [&] {
    (void)trainer.train_batch(batch.x, batch.y);
  });
  out.add("nn.split_train_s", split, "s");
}

void probe_pairing(const ProbeContext& ctx, Tracer& tracer, RunResult& out) {
  ScopedSpan probe(tracer, "probe.core.pairing");
  std::vector<int64_t> participants(ctx.infos.size());
  for (size_t i = 0; i < participants.size(); ++i)
    participants[i] = static_cast<int64_t>(i);
  size_t pairs = 0;
  const double sec = median_call(tracer, "core.pair_agents", 0.4, 3, [&] {
    pairs = core::pair_agents(*ctx.profile, ctx.infos, *ctx.topology,
                              ctx.pairing_batch, participants)
                .pairs.size();
  });
  out.add("core.pairing.call_s", sec, "s");
  out.add("core.pairing.pairs", static_cast<double>(pairs), "count");
}

void probe_sim_collective(const ProbeContext& ctx, Tracer& tracer,
                          RunResult& out) {
  ScopedSpan probe(tracer, "probe.comm.sim_collective");
  const double sec = median_call(tracer, "comm.SimTransport.collective", 0.3,
                                 3, [&] {
    (void)model_aggregation(ctx.modeled);
  });
  out.add("comm.sim_collective_s", sec, "s");
}

void probe_codec(const ProbeContext& ctx, Tracer& tracer, RunResult& out) {
  ScopedSpan probe(tracer, "probe.comm.codec");
  // The bucket codec of the repository: int8 quantization. Workloads that
  // ship fp32 still probe it at their own bucket sizes (bypassed there).
  const comm::Codec& codec = comm::quantized_codec();
  int64_t elems = 0;
  std::vector<std::vector<double>> buckets;
  for (const int64_t e : ctx.executed.bucket_elems) {
    buckets.push_back(random_payload(e, 3 + buckets.size()));
    elems += e;
  }
  // encode() quantizes and dequantizes in place in one pass (the library
  // has no separate decode), so one figure covers the codec. Re-encoding
  // an already quantized payload costs the same pass.
  const double sec = median_call(tracer, "comm.codec.encode", 0.3, 5, [&] {
    for (auto& b : buckets)
      (void)codec.encode(b.data(), static_cast<int64_t>(b.size()));
  });
  out.add("comm.codec.encode_gbps",
          static_cast<double>(elems) * sizeof(double) / sec * 1e-9, "GB/s");
}

/// InProc run of the executed collective; returns the per-message payload
/// size (fp32 elements) the other wire probes use.
int64_t probe_collective(const ProbeContext& ctx, Tracer& tracer,
                         RunResult& out) {
  ScopedSpan probe(tracer, "probe.comm.collective");
  const AggGeometry& g = ctx.executed;
  std::vector<std::vector<std::vector<double>>> bufs;  // bucket, agent
  for (const int64_t e : g.bucket_elems) {
    bufs.emplace_back();
    for (int64_t a = 0; a < g.agents; ++a)
      bufs.back().push_back(random_payload(e, 100 + bufs.size() * 7 + a));
  }
  int64_t steps = 0, messages = 0, wire = 0, retransmits = 0;
  std::vector<int64_t> sent(static_cast<size_t>(g.agents), 0);
  const double sec = median_call(tracer, "comm.InProc.collective", 0.5, 3, [&] {
    steps = messages = wire = retransmits = 0;
    std::fill(sent.begin(), sent.end(), 0);
    for (size_t b = 0; b < g.bucket_elems.size(); ++b) {
      comm::InProcTransport t(grid_of(g), g.codec);
      comm::CollectiveRequest req;
      req.elems = g.bucket_elems[b];
      for (auto& v : bufs[b]) req.buffers.push_back(v.data());
      comm::AsyncCollective op(comm::Protocol::kHalvingDoublingAllReduce, t,
                               std::move(req));
      op.wait();
      const comm::TransportStats& st = t.stats();
      steps += st.steps;
      messages += st.messages;
      wire += st.total_wire_bytes;
      retransmits += st.retransmit_messages;
      for (size_t a = 0; a < sent.size(); ++a) sent[a] += st.bytes_sent[a];
    }
  });
  out.add("comm.collective.call_s", sec, "s");
  out.add("comm.collective.steps", static_cast<double>(steps), "count");
  out.add("comm.collective.bytes",
          static_cast<double>(*std::max_element(sent.begin(), sent.end())),
          "B");
  out.add("comm.transport.msgs_per_round", static_cast<double>(messages),
          "count");
  out.add("comm.transport.retransmits", static_cast<double>(retransmits),
          "count");
  return messages > 0 ? std::max<int64_t>(1, wire / messages / 4) : 1;
}

void probe_transport(const ProbeContext& ctx, int64_t msg_elems,
                     Tracer& tracer, RunResult& out) {
  ScopedSpan probe(tracer, "probe.comm.transport");
  comm::InProcTransport t(
      comm::LinkGrid::uniform(2, ctx.executed.mbps, ctx.executed.latency_sec),
      ctx.executed.codec);
  const auto payload = random_payload(msg_elems, 5);
  const double sec = median_call(tracer, "comm.InProc.send_recv", 0.3, 20,
                                 [&] {
    (void)t.send(0, 1, msg_elems, payload.data());
    (void)t.recv(1, 0);
  });
  out.add("comm.transport.msg_us", sec * 1e6, "us");
}

/// Echoes every frame back until the peer closes; joined on destruction.
class FrameEcho {
 public:
  FrameEcho() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
      throw std::runtime_error("socketpair failed");
    thread_ = std::thread([fd = fds_[1]] {
      while (auto f = comm::recv_frame(fd))
        if (!comm::send_frame(fd, f->type, f->body)) break;
    });
  }
  ~FrameEcho() {
    ::shutdown(fds_[0], SHUT_RDWR);
    thread_.join();
    comm::close_fd(fds_[0]);
    comm::close_fd(fds_[1]);
  }
  FrameEcho(const FrameEcho&) = delete;
  FrameEcho& operator=(const FrameEcho&) = delete;

  [[nodiscard]] int fd() const noexcept { return fds_[0]; }

 private:
  int fds_[2] = {-1, -1};
  std::thread thread_;
};

void probe_socket(int64_t frame_bytes, Tracer& tracer, RunResult& out) {
  ScopedSpan probe(tracer, "probe.comm.socket");
  FrameEcho echo;
  const std::vector<uint8_t> body(static_cast<size_t>(frame_bytes), 0x5a);
  const double sec = median_call(tracer, "comm.socket.frame_rtt", 0.3, 20,
                                 [&] {
    if (!comm::send_frame(echo.fd(), 1, body) ||
        !comm::recv_frame(echo.fd()).has_value())
      throw std::runtime_error("socket echo failed");
  });
  out.add("comm.socket.frame_rtt_us", sec * 1e6, "us");
}

void probe_daemon(const ProbeContext& ctx, Tracer& tracer, RunResult& out) {
  ScopedSpan probe(tracer, "probe.daemon");
  daemon::FleetClient& client = *ctx.client;
  const double stats = median_call(tracer, "daemon.FleetClient.stats", 0.3,
                                   10, [&] { (void)client.stats(); });
  out.add("daemon.stats_rpc_s", stats, "s");
  const double ckpt = median_call(tracer, "daemon.FleetClient.checkpoint",
                                  0.3, 3, [&] { (void)client.checkpoint(); });
  out.add("daemon.checkpoint_rpc_s", ckpt, "s");
}

}  // namespace

ModeledAggregation model_aggregation(const AggGeometry& g) {
  ModeledAggregation m;
  std::vector<int64_t> sent(static_cast<size_t>(g.agents), 0);
  for (const int64_t elems : g.bucket_elems) {
    comm::SimTransport sim(grid_of(g), g.codec);
    comm::CollectiveRequest req;
    req.elems = elems;
    comm::AsyncCollective op(comm::Protocol::kHalvingDoublingAllReduce, sim,
                             std::move(req));
    op.wait();
    const comm::TransportStats& st = sim.stats();
    m.seconds += st.seconds;
    m.steps += st.steps;
    m.messages += st.messages;
    for (size_t a = 0; a < sent.size(); ++a) sent[a] += st.bytes_sent[a];
  }
  m.max_bytes_sent = *std::max_element(sent.begin(), sent.end());
  return m;
}

void run_probes(const ProbeContext& ctx, Tracer& tracer, RunResult& result) {
  if (ctx.client == nullptr)
    throw std::invalid_argument("the daemon probes need a fleetd client");
  probe_gemm(ctx, tracer, result);
  probe_nn(ctx, tracer, result);
  probe_pairing(ctx, tracer, result);
  probe_sim_collective(ctx, tracer, result);
  probe_codec(ctx, tracer, result);
  const int64_t msg_elems = probe_collective(ctx, tracer, result);
  probe_transport(ctx, msg_elems, tracer, result);
  probe_socket(msg_elems * 4, tracer, result);
  probe_daemon(ctx, tracer, result);
}

}  // namespace roundbench
