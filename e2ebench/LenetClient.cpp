//===- LenetClient.cpp - Workload lenet_client -----------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole client pipeline for LeNet-5-small(1/4) with RNS-CKKS at
/// 128-bit security and scales 2^30/2^30/2^30/2^16: compile, generate
/// keys, then encrypt -> evaluate -> decrypt repeatedly with one shared
/// EncodedPlaintextCache, bypassing the server. Every output is checked
/// against the benchmark's own reference, and every evaluation's limb-pool
/// high-water against the compiler's static footprint bound.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Layers.h"
#include "Observer.h"
#include "Reference.h"

#include "hisa/ProfilingBackend.h"
#include "nn/Networks.h"
#include "runtime/PlaintextCache.h"
#include "support/LimbPool.h"
#include "support/MemoryGovernor.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <optional>
#include <utility>

using namespace chet;

namespace e2e {
namespace {

constexpr unsigned Threads = 4;
/// Absolute error a decrypted LeNet output may have. Measured errors are
/// about 1.1e-3 on outputs of magnitude <= 0.07.
constexpr double Tolerance = 5e-3;

struct Inference {
  Tensor3 Out;
  double Encrypt = 0, Evaluate = 0, Decrypt = 0;
  uint64_t PoolHighWater = 0, PoolMisses = 0;
  double total() const { return Encrypt + Evaluate + Decrypt; }
};

/// One encrypt -> evaluate -> decrypt. Limb-pool counters are reset
/// between encryption and evaluation, so the high-water and misses are
/// the evaluation's own.
template <typename B>
Inference infer(B &Bk, const TensorCircuit &Circ, const CompiledCircuit &C,
                const Tensor3 &Image, EncodedPlaintextCache<B> &Cache,
                Run &R, int Parent) {
  Inference I;
  TensorLayout L = circuitInputLayout(Circ, C.Policy, Bk.slotCount());
  double T0 = sinceStart();
  CipherTensor<B> Enc = encryptTensor(Bk, Image, L, C.Scales);
  double T1 = sinceStart();
  LimbPool::instance().resetStats();
  double T2 = sinceStart();
  CipherTensor<B> Out = evaluateCircuit(Bk, Circ, Enc, C.Scales, C.Policy,
                                        FcAlgorithm::Auto, &Cache);
  double T3 = sinceStart();
  LimbPool::Stats Pool = LimbPool::instance().stats();
  I.PoolHighWater = Pool.HighWaterBytes;
  I.PoolMisses = Pool.Misses;
  double T4 = sinceStart();
  I.Out = decryptTensor(Bk, Out);
  double T5 = sinceStart();
  I.Encrypt = T1 - T0;
  I.Evaluate = T3 - T2;
  I.Decrypt = T5 - T4;
  if (Parent >= 0) {
    R.addSpan("runtime.encrypt", T0, T1, Parent);
    R.addSpan("runtime.evaluate", T2, T3, Parent);
    R.addSpan("runtime.decrypt", T4, T5, Parent);
  }
  return I;
}

} // namespace

void runLenetClient(Run &R) {
  const RunOptions &O = R.options();
  setGlobalThreadCount(Threads);

  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/4);
  CompilerOptions CO;
  CO.Scheme = SchemeKind::RnsCkks;
  CO.Security = SecurityLevel::Classical128;
  CO.Scales = ScaleConfig::fromExponents(30, 30, 30, 16);

  int Span = R.beginSpan("compile");
  CompiledCircuit C = compileCircuit(Circ, CO);
  R.endSpan(Span);
  uint64_t RssBefore = currentRssBytes();
  double KeygenStart = sinceStart();
  Span = R.beginSpan("keygen");
  RnsCkksBackend Bk = makeRnsBackend(C);
  R.endSpan(Span);
  double Keygen = sinceStart() - KeygenStart;
  uint64_t RssAfter = currentRssBytes();
  uint64_t KeyBytes = RssAfter > RssBefore ? RssAfter - RssBefore : 0;
  double Setup = sinceStart();
  std::fprintf(stderr,
               "lenet_client: N=2^%d, %zu chain primes, %zu rotation keys, "
               "policy %s; setup %.2f s (keygen %.2f s, %.0f MiB)\n",
               C.LogN, C.Rns->ChainPrimes.size(), Bk.rotationKeyCount(),
               layoutPolicyName(C.Policy), Setup, Keygen, toMb(KeyBytes));

  uint64_t NextImage = 0;
  // Attempts one checked inference on the next seeded image.
  auto Attempt = [&](auto &Backend, auto &Cache,
                     int Parent) -> std::optional<Inference> {
    Tensor3 Image = seededImage(Circ, O.Seed, NextImage, 2 * Tolerance);
    Tensor3 Want = referenceForward(Circ, Image);
    uint64_t Index = NextImage++;
    ++R.Attempted;
    try {
      Inference I = infer(Backend, Circ, C, Image, Cache, R, Parent);
      double Err = 0;
      std::string Why =
          checkOutput(I.Out, Want, Tolerance, C.Noise.ErrorBound, Err);
      if (!Why.empty())
        R.fail("lenet_client image " + std::to_string(Index) + ": " + Why);
      if (I.PoolHighWater > C.Footprint.PeakBytes)
        R.fail("lenet_client image " + std::to_string(Index) +
               ": limb-pool high-water " + std::to_string(I.PoolHighWater) +
               " B exceeds the static footprint bound " +
               std::to_string(C.Footprint.PeakBytes) + " B");
      std::fprintf(stderr,
                   "lenet_client: image %llu: %.3f s, max error %.3g\n",
                   static_cast<unsigned long long>(Index), I.total(), Err);
      return I;
    } catch (const ChetError &E) {
      ++R.Failed;
      std::fprintf(stderr, "lenet_client: image %llu failed: %s\n",
                   static_cast<unsigned long long>(Index), E.what());
      return std::nullopt;
    }
  };

  EncodedPlaintextCache<RnsCkksBackend> Cache;
  Attempt(Bk, Cache, -1); // warm-up: fills the cache; checked, not timed

  if (!R.traced()) {
    std::vector<double> Times;
    double Start = sinceStart();
    while (sinceStart() - Start < O.Seconds)
      if (std::optional<Inference> I = Attempt(Bk, Cache, -1))
        Times.push_back(I->total());
    R.metric("setup_s", Setup);
    R.metric("op_p50_s", median(Times));
    R.metric("ops_per_s", Times.empty() ? 0 : Times.size() / sum(Times));
    R.metric("peak_rss_mb", peakRssMb());
    return;
  }

  // Traced: the same inference through a node clock and an op profiler,
  // alternating with untraced inferences for the overhead ratio.
  std::vector<std::pair<std::string, double>> Marks;
  Observer<RnsCkksBackend> Clock(
      Bk, {[&](int, const std::string &Label) {
             Marks.emplace_back(Label, sinceStart());
           },
           nullptr});
  ProfilingBackend<Observer<RnsCkksBackend>> Prof(Clock);
  EncodedPlaintextCache<ProfilingBackend<Observer<RnsCkksBackend>>>
      ProfCache;
  Attempt(Prof, ProfCache, -1); // warm-up of the traced stack's cache

  LayerSamples Layers;
  std::vector<double> Untraced, Traced;
  double Start = sinceStart();
  while (sinceStart() - Start < O.Seconds || Traced.empty()) {
    if (std::optional<Inference> I = Attempt(Bk, Cache, -1))
      Untraced.push_back(I->total());

    Prof.reset();
    Bk.resetKeySwitchNttStats();
    Marks.clear();
    uint64_t Hits = ProfCache.hits(), Misses = ProfCache.misses();
    Span = R.beginSpan("inference", -1, NextImage);
    std::optional<Inference> I = Attempt(Prof, ProfCache, Span);
    R.endSpan(Span);
    if (!I)
      continue;
    Traced.push_back(I->total());
    Layers.add("runtime.encrypt_s", I->Encrypt);
    Layers.add("runtime.evaluate_s", I->Evaluate);
    Layers.add("runtime.decrypt_s", I->Decrypt);
    Layers.add("runtime.ptcache_hits", double(ProfCache.hits() - Hits));
    Layers.add("runtime.ptcache_misses", double(ProfCache.misses() - Misses));
    Layers.add("support.pool_misses", double(I->PoolMisses));
    Layers.add("support.pool_high_water_mb", toMb(I->PoolHighWater));
    // Each mark starts a node; the next one (the output node's last)
    // ends it.
    for (size_t K = 0; K + 1 < Marks.size(); ++K) {
      Layers.add("node." + Marks[K].first + "_s",
                 Marks[K + 1].second - Marks[K].second);
      R.addSpan("node." + Marks[K].first, Marks[K].second,
                Marks[K + 1].second, Span);
    }
    Layers.addHisa(Prof.stats());
    Layers.addKeySwitch(Bk.keySwitchNttStats(), 1.0);
  }
  Layers.report(R);

  CoreTimes Core;
  Core.add(R, Circ, CO, C);
  Core.report(R);
  reportKeys(R, C, Bk.rotationKeyCount(), Keygen, KeyBytes);
  R.metric("support.governor_high_water_mb",
           toMb(MemoryGovernor::instance().stats().HighWaterBytes));
  R.metric("trace.overhead", median(Traced) / median(Untraced));
}

} // namespace e2e
