//===- Layers.h - Per-layer measurements shared by the workloads -*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers the traced runs use to read each layer of the program from its
/// public interface: timing the core analyses, and folding ProfilingBackend
/// op tables, key-switch counters and key facts into per-layer samples.
/// A LayerSamples map collects one value per metric per repetition and
/// reports the median, so repeated counts read exactly and times are
/// robust to one slow repetition.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_E2EBENCH_LAYERS_H
#define CHET_E2EBENCH_LAYERS_H

#include "Harness.h"

#include "core/Compiler.h"
#include "core/FootprintAnalysis.h"
#include "core/NoiseAnalysis.h"
#include "core/Validate.h"
#include "core/Verifier.h"

#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Per-layer samples: metric name -> one value per repetition.
class LayerSamples {
public:
  void add(const std::string &Name, double Value) {
    Values[Name].push_back(Value);
  }
  /// Adds one repetition of a ProfilingBackend op table.
  template <typename OpStatsVec> void addHisa(const OpStatsVec &Stats) {
    for (const auto &S : Stats) {
      add("hisa." + S.Name + ".count", double(S.Count));
      add("hisa." + S.Name + "_s", S.Seconds);
    }
  }
  void addKeySwitch(const chet::RnsCkksBackend::KeySwitchNttStats &K,
                    double PerOp) {
    add("ckks.ks_forward_ntts", double(K.ForwardNtts) * PerOp);
    add("ckks.ks_inverse_ntts", double(K.InverseNtts) * PerOp);
    add("ckks.ks_rotations", double(K.Rotations) * PerOp);
    add("ckks.ks_hoisted_amounts", double(K.HoistedAmounts) * PerOp);
  }
  /// Sets the median of every metric sampled.
  void report(Run &R) const {
    for (const auto &[Name, V] : Values)
      R.metric(Name, median(V));
  }

private:
  std::map<std::string, std::vector<double>> Values;
};

/// Summed wall time of the four core analyses over every circuit added.
struct CoreTimes {
  double Validate = 0, Verify = 0, Noise = 0, Footprint = 0;

  void add(Run &R, const chet::TensorCircuit &Circ,
           const chet::CompilerOptions &Options,
           const chet::CompiledCircuit &Compiled) {
    auto Timed = [&](const char *Name, double &Into, auto &&Fn) {
      SpanScope S(R, std::string("core.") + Name + ":" + Circ.name());
      double T = sinceStart();
      Fn();
      Into += sinceStart() - T;
    };
    Timed("validate", Validate,
          [&] { (void)chet::validateCircuit(Circ, Options); });
    Timed("verify", Verify,
          [&] { (void)chet::verifyCircuit(Circ, Compiled); });
    Timed("noise", Noise, [&] { (void)chet::analyzeNoise(Circ, Compiled); });
    Timed("footprint", Footprint,
          [&] { (void)chet::analyzeFootprint(Circ, Compiled); });
  }

  void report(Run &R) const {
    R.metric("core.validate_s", Validate);
    R.metric("core.verify_s", Verify);
    R.metric("core.noise_s", Noise);
    R.metric("core.footprint_s", Footprint);
  }
};

/// The key facts of one RNS-CKKS key set.
inline void reportKeys(Run &R, const chet::CompiledCircuit &C,
                       size_t RotationKeys, double KeygenSeconds,
                       uint64_t KeyBytes) {
  R.metric("ckks.keygen_s", KeygenSeconds);
  R.metric("ckks.key_mb", toMb(KeyBytes));
  R.metric("ckks.rotation_keys", double(RotationKeys));
  R.metric("ckks.chain_primes", double(C.Rns->ChainPrimes.size()));
  R.metric("ckks.log_n", C.LogN);
}

} // namespace e2e

#endif // CHET_E2EBENCH_LAYERS_H
