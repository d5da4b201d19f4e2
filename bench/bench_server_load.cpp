//===- bench_server_load.cpp - Multi-tenant server load generator ---------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded open-loop load generator for the multi-tenant inference server
/// (server/Server.h), mirroring bench_session_overhead's shape:
///
///  1. Correctness gates (always run; the only thing that runs under
///     --check-only):
///       a. Chaos byte-identity: four RNS-CKKS tenants -- healthy,
///          transient-fault, bit-flip, and one with a permanently broken
///          key set (its rotation keys were dropped after compilation) --
///          share one server at 1/2/8 worker lanes. Every *completed*
///          response must be byte-identical to a fault-free single-session
///          run (whose decrypted outputs must match the plain reference
///          on argmax and within 5e-3 at the 2^30/2^16 serving scales),
///          per-tenant counters must be lane-count-invariant, the
///          broken tenant must trip its circuit breaker and never
///          complete, and no request may end without a typed outcome.
///       b. Throughput isolation: three healthy tenants are timed alone,
///          then again with the broken tenant's requests interleaved
///          (its breaker trips on the first failures). Healthy-tenant
///          throughput must degrade by < 10%.
///
///  2. A timing sweep (without --check-only): requests/second and
///     p50/p99 latency across worker-lane counts, as a table and as
///     JSON lines.
///
/// Usage: bench_server_load [--threads N] [--json FILE] [--check-only]
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ckks/Serialization.h"
#include "hisa/FaultInjectionBackend.h"
#include "hisa/IntegrityBackend.h"
#include "server/Server.h"
#include "support/Prng.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace chet;
using namespace chet::bench;

namespace {

using RnsInteg = IntegrityBackend<RnsCkksBackend>;
using RnsChaos = FaultInjectionBackend<RnsInteg>;

constexpr uint64_t BackendSeed = 991;

/// The small conv -> act -> pool -> FC circuit the session benches use.
TensorCircuit tinyCircuit(uint64_t Seed = 50) {
  Prng Rng(Seed);
  TensorCircuit Circ("server-load-tiny");
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Rng.nextDouble(-0.5, 0.5);
  FcWeights Fc(4, 2 * 4 * 4);
  for (double &V : Fc.W)
    V = Rng.nextDouble(-0.3, 0.3);
  int X = Circ.input(1, 8, 8);
  X = Circ.conv2d(X, Conv, 1, 1);
  X = Circ.polyActivation(X, 0.25, 0.5);
  X = Circ.averagePool(X, 2, 2);
  X = Circ.fullyConnected(X, Fc);
  Circ.output(X);
  return Circ;
}

CompiledCircuit compileTiny(const TensorCircuit &Circ) {
  CompilerOptions O;
  O.Scheme = SchemeKind::RnsCkks;
  O.Security = SecurityLevel::Classical128;
  O.Scales = servingScales();
  return compileCircuit(Circ, O);
}

template <typename To, typename From>
CipherTensor<To> retag(CipherTensor<From> T) {
  static_assert(std::is_same_v<typename To::Ct, typename From::Ct>);
  CipherTensor<To> Out;
  Out.L = T.L;
  Out.Cts = std::move(T.Cts);
  return Out;
}

[[noreturn]] void failGate(const char *Gate, const std::string &What) {
  std::fprintf(stderr, "bench_server_load: %s gate FAILED: %s\n", Gate,
               What.c_str());
  std::exit(1);
}

/// One tenant's backend stack plus its seeded fault plan and inputs.
/// The raw/integrity/chaos layers are heap-held so the stack can live in
/// a vector without invalidating the server's backend references.
struct TenantStack {
  std::string Id;
  FaultPlan Plan;
  bool BrokenKeys = false; ///< Drop rotation keys: every request fails.
  std::vector<Tensor3> Images;
  std::unique_ptr<RnsCkksBackend> Raw;
  std::unique_ptr<RnsInteg> Integ;
  std::unique_ptr<RnsChaos> Chaos;
  std::unique_ptr<MemoryCheckpointStore> Store;

  void build(const CompiledCircuit &C) {
    CompiledCircuit Keys = C;
    if (BrokenKeys)
      Keys.RotationKeys.clear(); // backend generates no Galois keys
    Raw = std::make_unique<RnsCkksBackend>(makeRnsBackend(Keys, BackendSeed));
    Integ = std::make_unique<RnsInteg>(*Raw);
    Chaos = std::make_unique<RnsChaos>(*Integ, Plan);
    Chaos->setFaultScope("tenant:" + Id);
    Store = std::make_unique<MemoryCheckpointStore>();
  }
};

/// Fault-free reference bytes for each of a tenant's requests (broken
/// tenants have none: every request must fail).
std::vector<std::vector<ByteBuffer>>
referenceBytes(const TensorCircuit &Circ, const CompiledCircuit &C,
               const TenantStack &T) {
  std::vector<std::vector<ByteBuffer>> Out;
  if (T.BrokenKeys)
    return Out;
  RnsCkksBackend Raw = makeRnsBackend(C, BackendSeed);
  RnsInteg Integ(Raw);
  TensorLayout L = circuitInputLayout(Circ, C.Policy, Integ.slotCount());
  for (const Tensor3 &Image : T.Images) {
    auto Enc = encryptTensor(Integ, Image, L, C.Scales);
    auto Res = evaluateCircuit(Integ, Circ, Enc, C.Scales, C.Policy);
    requirePlainAgreement("bench_server_load", Circ, Image,
                          decryptTensor(Integ, Res));
    std::vector<ByteBuffer> Bytes;
    for (const auto &Ct : Res.Cts)
      Bytes.push_back(serialize(Ct));
    Out.push_back(std::move(Bytes));
  }
  return Out;
}

ServerConfig chaosServerConfig(unsigned Lanes) {
  ServerConfig Cfg;
  Cfg.Lanes = Lanes;
  Cfg.Retry.MaxAttempts = 4;
  Cfg.Retry.BackoffBaseSeconds = 1e-6;
  Cfg.Retry.BackoffMaxSeconds = 1e-5;
  Cfg.Checkpoint = CheckpointPolicy::everyN(2);
  Cfg.IntegrityCheckEveryNodes = 1;
  Cfg.Breaker.WindowSize = 4;
  Cfg.Breaker.MinSamples = 2;
  Cfg.Breaker.FailureThreshold = 0.5;
  Cfg.Breaker.CooldownRejections = 2;
  return Cfg;
}

/// Submit every tenant's requests in a seeded interleaved order (open
/// loop: the schedule does not react to responses), wait for all of
/// them, and return (responses in submission order, final report).
struct LoadResult {
  /// (tenant index, per-tenant request index, response).
  struct Entry {
    size_t Tenant;
    size_t Index;
    ServerResponse Response;
  };
  std::vector<Entry> Entries;
  ServerReport Report;
  double WallSeconds = 0;
};

LoadResult runLoad(const TensorCircuit &Circ, const CompiledCircuit &C,
                   std::vector<TenantStack> &Tenants, unsigned Lanes,
                   uint64_t ScheduleSeed) {
  for (TenantStack &T : Tenants)
    T.build(C);

  InferenceServer<RnsChaos> Server(chaosServerConfig(Lanes));
  TensorLayout L;
  for (TenantStack &T : Tenants) {
    TenantOptions TO;
    TO.Scales = C.Scales;
    TO.Policy = C.Policy;
    TO.Store = T.Store.get();
    Server.registerTenant(T.Id, *T.Chaos, Circ, TO);
    L = circuitInputLayout(Circ, C.Policy, T.Chaos->slotCount());
  }

  // Seeded interleaving: repeatedly pick a random tenant that still has
  // requests left. Encryption happens up front so the timed window is
  // pure server work.
  struct Pending {
    size_t Tenant;
    size_t Index;
    CipherTensor<RnsChaos> Input;
  };
  std::vector<Pending> Schedule;
  std::vector<size_t> Next(Tenants.size(), 0);
  size_t Left = 0;
  for (size_t TI = 0; TI < Tenants.size(); ++TI)
    Left += Tenants[TI].Images.size();
  Prng Rng(ScheduleSeed);
  while (Left > 0) {
    size_t TI = size_t(Rng.nextBounded(uint64_t(Tenants.size())));
    if (Next[TI] >= Tenants[TI].Images.size())
      continue;
    // Encrypt through the *integrity* layer: the chaos wrapper must not
    // burn fault-plan randomness on input encryption.
    auto Enc = retag<RnsChaos>(encryptTensor(*Tenants[TI].Integ,
                                             Tenants[TI].Images[Next[TI]], L,
                                             C.Scales));
    Schedule.push_back({TI, Next[TI], std::move(Enc)});
    ++Next[TI];
    --Left;
  }

  LoadResult Out;
  Timer Wall;
  std::vector<std::pair<size_t, RequestTicket>> Tickets;
  std::vector<size_t> Indices;
  for (Pending &P : Schedule) {
    Tickets.emplace_back(P.Tenant,
                         Server.submit(Tenants[P.Tenant].Id,
                                       std::move(P.Input)));
    Indices.push_back(P.Index);
  }
  for (size_t I = 0; I < Tickets.size(); ++I) {
    const ServerResponse &R = Tickets[I].second.wait();
    Out.Entries.push_back({Tickets[I].first, Indices[I], R});
  }
  Out.WallSeconds = Wall.seconds();
  Out.Report = Server.shutdown();
  return Out;
}

std::vector<TenantStack> chaosTenants(const TensorCircuit &Circ) {
  std::vector<TenantStack> Tenants(4);
  Tenants[0].Id = "healthy";
  Tenants[1].Id = "transient";
  Tenants[1].Plan.Seed = 0x10ad;
  Tenants[1].Plan.TransientRate = 0.01;
  Tenants[1].Plan.MaxTransientFaults = 4;
  Tenants[2].Id = "bitflip";
  Tenants[2].Plan.Seed = 0xb17;
  Tenants[2].Plan.BitFlipRate = 0.004;
  Tenants[2].Plan.MaxBitFlips = 2;
  Tenants[3].Id = "broken";
  Tenants[3].BrokenKeys = true;
  for (size_t TI = 0; TI < Tenants.size(); ++TI)
    for (uint64_t S = 0; S < 3; ++S)
      Tenants[TI].Images.push_back(
          randomImageFor(Circ, 300 + 10 * TI + S));
  return Tenants;
}

/// Gate (a): chaos byte-identity and lane-invariant isolation counters.
void gateChaosByteIdentity(const TensorCircuit &Circ,
                           const CompiledCircuit &C) {
  std::vector<TenantStack> Tenants = chaosTenants(Circ);
  std::vector<std::vector<std::vector<ByteBuffer>>> Refs;
  for (const TenantStack &T : Tenants)
    Refs.push_back(referenceBytes(Circ, C, T));

  std::vector<TenantReport> PrevTenants;
  for (unsigned Lanes : {1u, 2u, 8u}) {
    LoadResult Res = runLoad(Circ, C, Tenants, Lanes, /*ScheduleSeed=*/42);

    for (const LoadResult::Entry &E : Res.Entries) {
      const TenantStack &T = Tenants[E.Tenant];
      const ServerResponse &R = E.Response;
      if (T.BrokenKeys) {
        if (R.Status == RequestStatus::Completed)
          failGate("chaos", "broken-key tenant completed a request");
        if (R.Status == RequestStatus::Failed &&
            R.Code != ErrorCode::MissingRotationKey)
          failGate("chaos", std::string("broken-key tenant failed with '") +
                               errorCodeName(R.Code) +
                               "', expected MissingRotationKey");
        continue;
      }
      if (R.Status != RequestStatus::Completed)
        failGate("chaos", "tenant '" + T.Id + "' request did not complete (" +
                              std::string(requestStatusName(R.Status)) +
                              "): " + R.Message);
      const std::vector<ByteBuffer> &Want = Refs[E.Tenant][E.Index];
      if (R.Output.size() != Want.size())
        failGate("chaos", "tenant '" + T.Id + "': output count differs");
      for (size_t B = 0; B < Want.size(); ++B)
        if (R.Output[B] != Want[B])
          failGate("chaos", "tenant '" + T.Id +
                                "': completed response != fault-free bytes "
                                "at lanes=" +
                                std::to_string(Lanes));
    }

    // The broken tenant's breaker must have tripped; per-tenant counters
    // must not depend on the lane count.
    for (const TenantReport &T : Res.Report.Tenants) {
      if (T.Tenant == "broken" && T.BreakerTrips < 1)
        failGate("chaos", "broken tenant never tripped its breaker");
      if (T.Tenant != "broken" && T.Completed != 3)
        failGate("chaos", "tenant '" + T.Tenant + "' completed " +
                              std::to_string(T.Completed) + "/3");
    }
    if (!PrevTenants.empty()) {
      for (size_t I = 0; I < Res.Report.Tenants.size(); ++I) {
        const TenantReport &Now = Res.Report.Tenants[I];
        const TenantReport &Was = PrevTenants[I];
        if (Now.Completed != Was.Completed || Now.Failed != Was.Failed ||
            Now.Retries != Was.Retries || Now.Restarts != Was.Restarts ||
            Now.BreakerTrips != Was.BreakerTrips ||
            Now.RejectedBreaker != Was.RejectedBreaker)
          failGate("chaos", "tenant '" + Now.Tenant +
                                "' counters changed with lane count");
      }
    }
    PrevTenants = Res.Report.Tenants;

    // The chaos plans actually exercised the recovery paths.
    if (Tenants[1].Chaos->stats().TransientFaults < 1)
      failGate("chaos", "transient plan never fired");
    if (Tenants[2].Chaos->stats().BitFlips < 1)
      failGate("chaos", "bit-flip plan never fired");
  }
}

/// Gate (b): one tripped tenant must cost healthy tenants < 10%
/// throughput. Three healthy tenants timed alone, then with the broken
/// tenant's requests interleaved into the same seeded schedule.
double gateThroughputIsolation(const TensorCircuit &Circ,
                               const CompiledCircuit &C, unsigned Lanes,
                               int RequestsPerTenant) {
  auto HealthyTenants = [&](bool WithBroken) {
    std::vector<TenantStack> Tenants(WithBroken ? 4 : 3);
    for (size_t TI = 0; TI < 3; ++TI) {
      Tenants[TI].Id = "healthy-" + std::to_string(TI);
      for (int S = 0; S < RequestsPerTenant; ++S)
        Tenants[TI].Images.push_back(
            randomImageFor(Circ, 400 + 10 * TI + uint64_t(S)));
    }
    if (WithBroken) {
      Tenants[3].Id = "broken";
      Tenants[3].BrokenKeys = true;
      for (int S = 0; S < RequestsPerTenant; ++S)
        Tenants[3].Images.push_back(randomImageFor(Circ, 490 + uint64_t(S)));
    }
    return Tenants;
  };

  auto HealthySeconds = [&](LoadResult &Res) {
    // Wall clock is shared; healthy throughput = healthy completions over
    // the window in which they all finished. The broken tenant's requests
    // fail fast, so the full-run wall clock is the fair comparison.
    size_t Completed = 0;
    for (const LoadResult::Entry &E : Res.Entries)
      if (E.Response.Status == RequestStatus::Completed)
        ++Completed;
    if (Completed != size_t(3 * RequestsPerTenant))
      failGate("isolation", "expected every healthy request to complete");
    return Res.WallSeconds;
  };

  std::vector<TenantStack> Alone = HealthyTenants(false);
  LoadResult ResAlone = runLoad(Circ, C, Alone, Lanes, /*ScheduleSeed=*/43);
  double SecsAlone = HealthySeconds(ResAlone);

  std::vector<TenantStack> Mixed = HealthyTenants(true);
  LoadResult ResMixed = runLoad(Circ, C, Mixed, Lanes, /*ScheduleSeed=*/43);
  double SecsMixed = HealthySeconds(ResMixed);
  bool Tripped = false;
  for (const TenantReport &T : ResMixed.Report.Tenants)
    if (T.Tenant == "broken" && T.BreakerTrips >= 1)
      Tripped = true;
  if (!Tripped)
    failGate("isolation", "broken tenant never tripped its breaker");

  double LossPct = 100.0 * (SecsMixed - SecsAlone) / SecsAlone;
  std::printf("throughput isolation: healthy tenants alone %.3fs, with one "
              "tripped tenant %.3fs -> %.1f%% loss (budget: <10%%)\n",
              SecsAlone, SecsMixed, LossPct);
  if (LossPct >= 10.0)
    failGate("isolation",
             "healthy-tenant throughput degraded " +
                 std::to_string(LossPct) + "% with one tripped tenant");
  return LossPct;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Threads = applyThreadsFlag(Argc, Argv);
  std::string JsonPath = stripJsonFlag(Argc, Argv);
  bool CheckOnly = false;
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--check-only"))
      CheckOnly = true;
  (void)Threads; // the server owns its lanes; kernels stay single-threaded
  setGlobalThreadCount(1);

  TensorCircuit Circ = tinyCircuit();
  CompiledCircuit C = compileTiny(Circ);

  gateChaosByteIdentity(Circ, C);
  std::printf("chaos gate passed: completed responses byte-identical to "
              "fault-free runs at lanes {1,2,8}; broken-key tenant tripped "
              "its breaker; per-tenant counters lane-invariant\n");

  double LossPct =
      gateThroughputIsolation(Circ, C, /*Lanes=*/2, /*RequestsPerTenant=*/3);
  if (!JsonPath.empty())
    appendLine(JsonPath,
               "{\"bench\":\"server_load\",\"gate\":\"isolation\","
               "\"lanes\":2,\"healthy_tenants\":3,\"loss_pct\":" +
                   std::to_string(LossPct) + "}");
  if (CheckOnly)
    return 0;

  // --- Timing sweep: throughput and latency vs worker lanes. ---
  printHeader("Multi-tenant server load (RNS-CKKS, 3 healthy tenants)");
  std::printf("%-8s %10s %12s %12s %12s\n", "lanes", "requests", "req/s",
              "p50 (ms)", "p99 (ms)");
  for (unsigned Lanes : {1u, 2u, 4u, 8u}) {
    std::vector<TenantStack> Tenants(3);
    for (size_t TI = 0; TI < Tenants.size(); ++TI) {
      Tenants[TI].Id = "tenant-" + std::to_string(TI);
      for (uint64_t S = 0; S < 4; ++S)
        Tenants[TI].Images.push_back(
            randomImageFor(Circ, 500 + 10 * TI + S));
    }
    LoadResult Res = runLoad(Circ, C, Tenants, Lanes, /*ScheduleSeed=*/44);
    size_t Requests = Res.Entries.size();
    double Rps = double(Requests) / Res.WallSeconds;
    std::vector<double> Latencies;
    for (const LoadResult::Entry &E : Res.Entries)
      Latencies.push_back(E.Response.LatencySeconds);
    double P50 = latencyPercentile(Latencies, 50.0) * 1e3;
    double P99 = latencyPercentile(Latencies, 99.0) * 1e3;
    std::printf("%-8u %10zu %12.2f %12.1f %12.1f\n", Lanes, Requests, Rps,
                P50, P99);
    std::ostringstream JS;
    JS << "{\"bench\":\"server_load\",\"gate\":\"sweep\",\"lanes\":" << Lanes
       << ",\"requests\":" << Requests << ",\"req_per_s\":" << Rps
       << ",\"p50_ms\":" << P50 << ",\"p99_ms\":" << P99
       << ",\"queue_high_water\":" << Res.Report.QueueHighWater << "}";
    appendLine(JsonPath, JS.str());
  }
  if (!JsonPath.empty())
    std::printf("appended JSON lines to %s\n", JsonPath.c_str());
  return 0;
}
