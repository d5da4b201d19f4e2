//===- ServeMt.cpp - Workload serve_mt -------------------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-tenant serving: an InferenceServer<RnsCkksBackend> with three
/// tenants, each holding its own keys, sharing a small conv -> act -> pool
/// -> FC circuit defined here (RNS-CKKS, 128-bit security, scales
/// 2^30/2^30/2^30/2^16). A closed loop keeps a fixed number of requests
/// outstanding, interleaved across tenants, until the window has lasted
/// the run's seconds (and, in a traced run, until TailRequests were sent).
/// Two lanes and a two-thread pool use the host's four cores. Every completed response is
/// decrypted with its tenant's keys and checked against the benchmark's
/// own reference.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Layers.h"
#include "Reference.h"

#include "ckks/Serialization.h"
#include "hisa/ProfilingBackend.h"
#include "server/Server.h"
#include "support/LimbPool.h"
#include "support/MemoryGovernor.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <deque>
#include <memory>
#include <random>

using namespace chet;

namespace e2e {
namespace {

constexpr unsigned Lanes = 2;
constexpr unsigned PoolThreads = 2;
constexpr int Tenants = 3;
constexpr int Outstanding = 4;
/// Requests the traced run's untraced window sends at least, so the p90
/// it reports has ten samples beyond it.
constexpr uint64_t TailRequests = 100;
constexpr int ImagesPerTenant = 4;
/// Absolute error a decrypted output may have (measured: about 5e-4).
constexpr double Tolerance = 4e-3;

/// The shared tenant circuit: 1x8x8 input, 3x3 conv to 2 channels,
/// degree-2 activation, 2x2 average pool, FC to 4 outputs. Weights are
/// fixed; only the inputs depend on the run's seed.
TensorCircuit makeServeCircuit() {
  std::mt19937_64 Rng(0x5e77e);
  std::normal_distribution<double> Normal(0.0, 1.0);
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Normal(Rng) * 0.5 * std::sqrt(2.0 / 9);
  for (double &V : Conv.Bias)
    V = Normal(Rng) * 0.05;
  FcWeights Fc(4, 2 * 4 * 4);
  for (double &V : Fc.W)
    V = Normal(Rng) * 0.5 * std::sqrt(2.0 / Fc.In);
  for (double &V : Fc.Bias)
    V = Normal(Rng) * 0.05;
  TensorCircuit Circ("serve-small");
  int X = Circ.input(1, 8, 8);
  X = Circ.conv2d(X, Conv, /*Stride=*/1, /*Pad=*/1);
  X = Circ.polyActivation(X, 0.125, 0.5);
  X = Circ.averagePool(X, 2, 2);
  X = Circ.fullyConnected(X, Fc);
  Circ.output(X);
  return Circ;
}

std::string tenantName(int T) { return "tenant" + std::to_string(T); }

template <typename To>
CipherTensor<To> retag(const CipherTensor<RnsCkksBackend> &T) {
  static_assert(std::is_same_v<typename To::Ct, RnsCkksBackend::Ct>);
  CipherTensor<To> Out;
  Out.L = T.L;
  Out.Cts = T.Cts;
  return Out;
}

/// Everything the client side holds: keys, encrypted inputs, references.
struct Fixture {
  TensorCircuit Circ = makeServeCircuit();
  CompiledCircuit C;
  std::vector<std::unique_ptr<RnsCkksBackend>> Keys;
  std::vector<std::vector<CipherTensor<RnsCkksBackend>>> Inputs;
  std::vector<std::vector<Tensor3>> Refs;
};

struct Sent {
  RequestTicket Ticket;
  int Tenant = 0, Image = 0;
  double SubmitAt = 0;
};

struct Window {
  std::vector<Sent> Done;
  double Wall = 0;
  ServerReport Report;
  std::vector<double> latencies() const {
    std::vector<double> L;
    for (const Sent &S : Done)
      if (S.Ticket.wait().Status == RequestStatus::Completed)
        L.push_back(S.Ticket.wait().LatencySeconds);
    return L;
  }
};

/// A server with the three tenants registered on \p Backends.
template <typename B>
std::unique_ptr<InferenceServer<B>> makeServer(const Fixture &F,
                                               const std::vector<B *> &Backends) {
  ServerConfig Cfg;
  Cfg.Lanes = Lanes;
  Cfg.QueueHighWater = 64;
  auto Server = std::make_unique<InferenceServer<B>>(Cfg);
  for (int T = 0; T < Tenants; ++T) {
    TenantOptions TO;
    TO.Scales = F.C.Scales;
    TO.Policy = F.C.Policy;
    TO.PredictedPeakBytes = F.C.Footprint.PeakBytes;
    Server->registerTenant(tenantName(T), *Backends[T], F.Circ, TO);
  }
  return Server;
}

/// Serves one closed-loop window of at least \p Seconds and
/// \p MinRequests, then shuts the server down. Traced runs record each
/// request's queue and service spans under \p Name.
template <typename B>
Window serve(Run &R, const Fixture &F, InferenceServer<B> &Server,
             double Seconds, uint64_t MinRequests, const std::string &Name) {
  Window W;
  std::deque<Sent> InFlight;
  uint64_t Seq = 0;
  auto Submit = [&] {
    Sent S;
    S.Tenant = static_cast<int>(Seq % Tenants);
    S.Image = static_cast<int>((Seq / Tenants) % ImagesPerTenant);
    S.SubmitAt = sinceStart();
    S.Ticket = Server.submit(tenantName(S.Tenant),
                             retag<B>(F.Inputs[S.Tenant][S.Image]));
    ++R.Attempted;
    ++Seq;
    InFlight.push_back(std::move(S));
  };
  double Start = sinceStart();
  while (InFlight.size() < Outstanding)
    Submit();
  while (!InFlight.empty()) {
    Sent S = std::move(InFlight.front());
    InFlight.pop_front();
    S.Ticket.wait();
    W.Done.push_back(std::move(S));
    if (sinceStart() - Start < Seconds || Seq < MinRequests)
      Submit();
  }
  W.Wall = sinceStart() - Start;
  W.Report = Server.shutdown();

  int Parent = R.beginSpan(Name);
  R.endSpan(Parent);
  for (const Sent &S : W.Done) {
    const ServerResponse &Resp = S.Ticket.wait();
    R.addSpan("request:" + tenantName(S.Tenant), S.SubmitAt,
              S.SubmitAt + Resp.LatencySeconds, Parent, Resp.Id);
    R.addSpan("server.queue", S.SubmitAt, S.SubmitAt + Resp.QueueSeconds,
              Parent, Resp.Id);
    R.addSpan("server.service", S.SubmitAt + Resp.QueueSeconds,
              S.SubmitAt + Resp.LatencySeconds, Parent, Resp.Id);
  }
  return W;
}

/// Decrypts every completed response with its tenant's keys and checks
/// it against the reference; counts the requests that did not complete.
void checkWindow(Run &R, Fixture &F, const Window &W) {
  for (const Sent &S : W.Done) {
    const ServerResponse &Resp = S.Ticket.wait();
    std::string What = "serve_mt request " + std::to_string(Resp.Id) +
                       " (" + tenantName(S.Tenant) + ")";
    if (Resp.Status != RequestStatus::Completed) {
      ++R.Failed;
      std::fprintf(stderr, "%s %s: %s\n", What.c_str(),
                   requestStatusName(Resp.Status), Resp.Message.c_str());
      continue;
    }
    CipherTensor<RnsCkksBackend> Out;
    Out.L = Resp.OutLayout;
    Out.Cts.resize(Resp.Output.size());
    for (size_t I = 0; I < Resp.Output.size(); ++I)
      deserializeOrThrow(Resp.Output[I], Out.Cts[I]);
    Tensor3 Got = decryptTensor(*F.Keys[S.Tenant], Out);
    double Err = 0;
    std::string Why = checkOutput(Got, F.Refs[S.Tenant][S.Image], Tolerance,
                                  F.C.Noise.ErrorBound, Err);
    if (!Why.empty())
      R.fail(What + ": " + Why);
  }
}

} // namespace

void runServeMt(Run &R) {
  const RunOptions &O = R.options();
  setGlobalThreadCount(PoolThreads);

  Fixture F;
  CompilerOptions CO;
  CO.Scheme = SchemeKind::RnsCkks;
  CO.Security = SecurityLevel::Classical128;
  CO.Scales = ScaleConfig::fromExponents(30, 30, 30, 16);
  {
    SpanScope S(R, "compile");
    F.C = compileCircuit(F.Circ, CO);
  }
  uint64_t RssBefore = currentRssBytes();
  double KeygenStart = sinceStart();
  for (int T = 0; T < Tenants; ++T) {
    SpanScope S(R, "keygen:" + tenantName(T));
    F.Keys.push_back(std::make_unique<RnsCkksBackend>(
        makeRnsBackend(F.C, 0x5ea1 + uint64_t(T))));
  }
  double Keygen = sinceStart() - KeygenStart;
  uint64_t RssAfter = currentRssBytes();
  std::vector<RnsCkksBackend *> Raw;
  for (auto &K : F.Keys)
    Raw.push_back(K.get());
  auto Server = makeServer(F, Raw);
  double Setup = sinceStart();

  // Client side, untimed: seeded inputs, their encryptions, references.
  for (int T = 0; T < Tenants; ++T) {
    F.Inputs.emplace_back();
    F.Refs.emplace_back();
    TensorLayout L =
        circuitInputLayout(F.Circ, F.C.Policy, F.Keys[T]->slotCount());
    for (int I = 0; I < ImagesPerTenant; ++I) {
      Tensor3 Image = seededImage(F.Circ, O.Seed,
                                  uint64_t(T) * ImagesPerTenant + I,
                                  2 * Tolerance);
      F.Refs[T].push_back(referenceForward(F.Circ, Image));
      F.Inputs[T].push_back(
          encryptTensor(*F.Keys[T], Image, L, F.C.Scales));
    }
  }
  std::fprintf(stderr,
               "serve_mt: N=2^%d, %zu chain primes, policy %s; setup %.2f s "
               "(keygen %.2f s)\n",
               F.C.LogN, F.C.Rns->ChainPrimes.size(),
               layoutPolicyName(F.C.Policy), Setup, Keygen);

  // Untraced window (the only one of an untraced run).
  LimbPool::instance().resetStats();
  MemoryGovernor::instance().resetStats();
  Window W = serve(R, F, *Server, O.Seconds,
                   R.traced() ? TailRequests : 0, "window.untraced");
  LimbPool::Stats Pool = LimbPool::instance().stats();
  MemoryGovernorStats Gov = MemoryGovernor::instance().stats();
  checkWindow(R, F, W);
  std::vector<double> Latency = W.latencies();
  std::fprintf(stderr,
               "serve_mt: %zu requests in %.2f s, p50 %.3f s, p90 %.3f s\n",
               W.Done.size(), W.Wall, median(Latency),
               latencyPercentile(Latency, 90));

  if (!R.traced()) {
    R.metric("setup_s", Setup);
    R.metric("op_p50_s", median(Latency));
    R.metric("ops_per_s", Latency.size() / W.Wall);
    R.metric("peak_rss_mb", peakRssMb());
    return;
  }

  std::vector<double> Queue, Service;
  for (const Sent &S : W.Done) {
    const ServerResponse &Resp = S.Ticket.wait();
    if (Resp.Status != RequestStatus::Completed)
      continue;
    Queue.push_back(Resp.QueueSeconds);
    Service.push_back(Resp.LatencySeconds - Resp.QueueSeconds);
  }
  double PerRequest = Latency.empty() ? 0 : 1.0 / Latency.size();
  R.metric("server.queue_p50_s", median(Queue));
  R.metric("server.service_p50_s", median(Service));
  R.metric("server.latency_p90_s", latencyPercentile(Latency, 90));
  R.metric("server.lane_busy", sum(Service) / (W.Wall * Lanes));
  R.metric("server.queue_high_water", double(W.Report.QueueHighWater));
  R.metric("support.pool_misses", double(Pool.Misses) * PerRequest);
  R.metric("support.pool_high_water_mb", toMb(Pool.HighWaterBytes));
  R.metric("support.governor_high_water_mb", toMb(Gov.HighWaterBytes));
  reportKeys(R, F.C, F.Keys[0]->rotationKeyCount(), Keygen,
             RssAfter > RssBefore ? RssAfter - RssBefore : 0);
  CoreTimes Core;
  Core.add(R, F.Circ, CO, F.C);
  Core.report(R);

  // Traced window: the same traffic through an op profiler per tenant.
  using Prof = ProfilingBackend<RnsCkksBackend>;
  std::vector<std::unique_ptr<Prof>> Profiled;
  std::vector<Prof *> ProfRaw;
  for (auto &K : F.Keys) {
    K->resetKeySwitchNttStats();
    Profiled.push_back(std::make_unique<Prof>(*K));
    ProfRaw.push_back(Profiled.back().get());
  }
  auto TracedServer = makeServer(F, ProfRaw);
  Window TW = serve(R, F, *TracedServer, O.Seconds, 0, "window.profiled");
  checkWindow(R, F, TW);
  std::vector<double> TracedLatency = TW.latencies();
  double TracedPerRequest =
      TracedLatency.empty() ? 0 : 1.0 / TracedLatency.size();
  LayerSamples Layers;
  std::map<std::string, std::pair<uint64_t, double>> Ops;
  for (const auto &P : Profiled)
    for (const auto &S : P->stats()) {
      Ops[S.Name].first += S.Count;
      Ops[S.Name].second += S.Seconds;
    }
  for (const auto &[Name, CountSeconds] : Ops) {
    Layers.add("hisa." + Name + ".count",
               double(CountSeconds.first) * TracedPerRequest);
    Layers.add("hisa." + Name + "_s", CountSeconds.second * TracedPerRequest);
  }
  RnsCkksBackend::KeySwitchNttStats Ks;
  for (auto &K : F.Keys) {
    auto S = K->keySwitchNttStats();
    Ks.ForwardNtts += S.ForwardNtts;
    Ks.InverseNtts += S.InverseNtts;
    Ks.Rotations += S.Rotations;
    Ks.HoistedAmounts += S.HoistedAmounts;
  }
  Layers.addKeySwitch(Ks, TracedPerRequest);
  Layers.report(R);
  R.metric("trace.overhead", median(TracedLatency) / median(Latency));
}

} // namespace e2e
