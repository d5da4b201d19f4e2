//===- FootprintBackend.h - Static memory-footprint abstract HISA -*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory analysis' interpretation of the HISA: a value-agnostic
/// backend (sibling of RangeNoiseBackend) whose "ciphertext" is just the
/// scale/level state needed to size it. One pass over a compiled circuit
/// yields, per node, the worst-case bytes of pooled kernel scratch and
/// transient ciphertext copies the node's instructions can materialize;
/// the driving pass (core/FootprintAnalysis.h) combines these with a
/// liveness frontier over the evaluator's value table into a static peak
/// footprint for the whole circuit.
///
/// Sizing model. A ciphertext at ring degree N with K active RNS limbs
/// per component occupies 2*K*N words (two polynomial components); the
/// big-modulus scheme stores coefficients as fixed-capacity BigInts, so
/// its ciphertexts are 2*N*sizeof(BigInt) at every level. Scratch is
/// modeled per instruction class from the real backends' pooled
/// allocations (a key switch holds its ModUp basis of d(K) digits times
/// K + k moduli; everything else is linear), multiplied by the configured
/// worst-case kernel concurrency and a safety factor that absorbs
/// pool-bucket rounding. The model is intentionally generous: its
/// contract, enforced by test_memory_governor and bench_memory, is to
/// upper-bound the LimbPool high-water ever measured, not to be tight.
///
/// The scale/modulus arithmetic replicates RangeNoiseBackend (and
/// therefore AnalysisBackend) bit for bit -- same candidate-list
/// consumption -- so the analysis walks exactly the level schedule the
/// compiler built, and per-level ciphertext sizes are exact.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_FOOTPRINTBACKEND_H
#define CHET_HISA_FOOTPRINTBACKEND_H

#include "hisa/Hisa.h"
#include "math/BigInt.h"
#include "math/KeySwitchLayout.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace chet {

/// Abstract machine the footprint analysis interprets against, extracted
/// from a CompiledCircuit (FootprintAnalysis.cpp) or hand-built by tests.
struct FootprintBackendConfig {
  /// RNS-CKKS (true) or big-modulus CKKS (false) rescale semantics.
  bool Rns = true;
  int LogN = 13;
  /// RNS: scaling moduli in consumption order (compiled chain's tail
  /// reversed), exactly as the other analysis backends consume them.
  std::vector<uint64_t> ScalePrimeCandidates;
  /// RNS: total primes in the compiled chain (fresh ciphertexts carry
  /// one limb per prime and shed them as rescales consume candidates).
  int ChainLen = 1;
  /// RNS: the compiled key-switching digit layout.
  KeySwitchLayout KeySwitch;
  /// Worst-case concurrent kernel lanes to model: each lane holds its
  /// own pooled scratch, so per-op scratch scales linearly with it.
  unsigned Threads = 8;
  /// Multiplier absorbing pool-bucket rounding (powers of two) and
  /// minor allocations the per-class model does not itemize.
  double ScratchSafety = 1.5;
};

/// Per-node activity in evaluation order, for hotspot reports. Row 0 is
/// the synthetic "input packing" node.
struct FootprintNodeStats {
  int NodeId = -1;
  std::string Label;
  /// Worst single-instruction pooled scratch, already multiplied by the
  /// modeled lane count and safety factor.
  uint64_t ScratchPeakBytes = 0;
  /// Worst-case transient ciphertext bytes an instruction materializes
  /// beyond the evaluator's value table (hoisted rotation fan-out,
  /// kernel-local copies and accumulators).
  uint64_t TransientPeakBytes = 0;
  /// Instructions interpreted in this node.
  uint64_t Ops = 0;
};

/// HISA implementation over footprint metadata; see the file comment.
class FootprintBackend {
public:
  struct Ct {
    double Scale = 1.0;
    int ConsumedPrimes = 0;   ///< RNS: index into the candidate list.
    double LogConsumed = 0.0; ///< CKKS: log2 of the divisor product.
  };
  struct Pt {
    double Scale = 1.0;
  };

  explicit FootprintBackend(const FootprintBackendConfig &ConfigIn)
      : Config(ConfigIn), Degree(size_t(1) << ConfigIn.LogN) {
    Stats.push_back({-1, "input packing", 0, 0, 0});
  }

  //===--------------------------------------------------------------===//
  // Provenance sink.
  //===--------------------------------------------------------------===//

  void beginNode(int NodeId, const std::string &Label) {
    Stats.push_back({NodeId, Label, 0, 0, 0});
  }

  //===--------------------------------------------------------------===//
  // Sizing queries (used by the driving pass).
  //===--------------------------------------------------------------===//

  /// Worst-case bytes of one ciphertext in this state.
  uint64_t ctBytes(const Ct &C) const {
    if (!Config.Rns)
      // Fixed-capacity coefficients: size is level-independent.
      return 2 * static_cast<uint64_t>(Degree) * sizeof(BigInt);
    uint64_t Limbs = static_cast<uint64_t>(
        std::max(1, Config.ChainLen - C.ConsumedPrimes));
    return 2 * Limbs * static_cast<uint64_t>(Degree) * sizeof(uint64_t);
  }

  const std::vector<FootprintNodeStats> &nodeStats() const { return Stats; }

  //===--------------------------------------------------------------===//
  // HISA instructions.
  //===--------------------------------------------------------------===//

  size_t slotCount() const { return Degree / 2; }

  Pt encode(const std::vector<double> &Values, double Scale) {
    (void)Values; // value-agnostic
    noteOp(scratchWords(kEncode, activeLimbs(0)), 0);
    return Pt{Scale};
  }
  std::vector<double> decode(const Pt &P) const {
    (void)P;
    return {};
  }
  Ct encrypt(const Pt &P) {
    Ct C;
    C.Scale = P.Scale;
    noteOp(scratchWords(kEncrypt, activeLimbs(0)), ctBytes(C));
    return C;
  }
  Pt decrypt(const Ct &C) {
    noteOp(scratchWords(kEncrypt, activeLimbs(C.ConsumedPrimes)), 0);
    return Pt{C.Scale};
  }
  Ct copy(const Ct &C) {
    noteOp(0, ctBytes(C));
    return C;
  }
  void freeCt(Ct &C) const { (void)C; }

  void rotLeftAssign(Ct &C, int Steps) {
    if (Steps % static_cast<int64_t>(slotCount()) == 0)
      return; // complete no-op, exactly as the real backends treat it
    noteOp(scratchWords(kKeySwitch, activeLimbs(C.ConsumedPrimes)),
           2 * ctBytes(C));
  }
  void rotRightAssign(Ct &C, int Steps) { rotLeftAssign(C, -Steps); }

  /// Hoisted fan-out: one shared decomposition, but all results are live
  /// at once -- the dominant transient of rotation-heavy kernels -- and
  /// each amount holds its special-prime accumulator tails until its
  /// ModDown.
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
    uint64_t Tails = Config.Rns ? 2 * Config.KeySwitch.SpecialPrimes *
                                      static_cast<uint64_t>(Degree) *
                                      sizeof(uint64_t)
                                : 0;
    noteOp(scratchWords(kKeySwitch, activeLimbs(C.ConsumedPrimes)),
           (Steps.size() + 1) * ctBytes(C) + Steps.size() * Tails);
    return std::vector<Ct>(Steps.size(), C);
  }

  void addAssign(Ct &C, const Ct &Other) {
    alignBinary(C, Other);
    noteOp(scratchWords(kLight, activeLimbs(C.ConsumedPrimes)), ctBytes(C));
  }
  void subAssign(Ct &C, const Ct &Other) { addAssign(C, Other); }
  void addPlainAssign(Ct &C, const Pt &P) {
    (void)P;
    noteOp(scratchWords(kLight, activeLimbs(C.ConsumedPrimes)), ctBytes(C));
  }
  void subPlainAssign(Ct &C, const Pt &P) { addPlainAssign(C, P); }
  void addScalarAssign(Ct &C, double X) {
    (void)X;
    noteOp(scratchWords(kLight, activeLimbs(C.ConsumedPrimes)), ctBytes(C));
  }
  void subScalarAssign(Ct &C, double X) { addScalarAssign(C, X); }

  void mulAssign(Ct &C, const Ct &Other) {
    alignBinary(C, Other);
    C.Scale *= Other.Scale;
    // Tensor product + relinearization: the key-switch class dominates.
    noteOp(scratchWords(kKeySwitch, activeLimbs(C.ConsumedPrimes)),
           3 * ctBytes(C));
  }
  void mulPlainAssign(Ct &C, const Pt &P) {
    C.Scale *= P.Scale;
    noteOp(scratchWords(kMulPlain, activeLimbs(C.ConsumedPrimes)),
           ctBytes(C));
  }
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) {
    (void)X;
    C.Scale *= static_cast<double>(Scale);
    noteOp(scratchWords(kMulPlain, activeLimbs(C.ConsumedPrimes)),
           ctBytes(C));
  }

  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const {
    if (!Config.Rns) {
      if (UpperBound < 2)
        return 1;
      int Bits = 63 - __builtin_clzll(UpperBound);
      return uint64_t(1) << Bits;
    }
    uint64_t Divisor = 1;
    size_t Index = static_cast<size_t>(C.ConsumedPrimes);
    while (Index < Config.ScalePrimeCandidates.size()) {
      uint64_t Q = Config.ScalePrimeCandidates[Index];
      if (Divisor > UpperBound / Q)
        break;
      Divisor *= Q;
      ++Index;
    }
    return Divisor;
  }

  void rescaleAssign(Ct &C, uint64_t Divisor) {
    if (Divisor <= 1)
      return;
    if (!Config.Rns) {
      C.LogConsumed += std::log2(static_cast<double>(Divisor));
      C.Scale /= static_cast<double>(Divisor);
    } else {
      while (Divisor > 1) {
        if (C.ConsumedPrimes >=
            static_cast<int>(Config.ScalePrimeCandidates.size()))
          break; // chain exhausted; the verifier reports this, not us
        uint64_t Q = Config.ScalePrimeCandidates[C.ConsumedPrimes];
        if (Divisor % Q != 0)
          break; // divisor not from maxRescale; nothing sane to shed
        Divisor /= Q;
        C.Scale /= static_cast<double>(Q);
        ++C.ConsumedPrimes;
      }
    }
    noteOp(scratchWords(kMulPlain, activeLimbs(C.ConsumedPrimes)),
           ctBytes(C));
  }

  double scaleOf(const Ct &C) const { return C.Scale; }

private:
  /// Instruction classes of the pooled-scratch model.
  enum OpClass { kLight, kMulPlain, kKeySwitch, kEncode, kEncrypt };

  /// Active limbs per ciphertext component at this consumption depth.
  /// The big-modulus scheme stages through an RNS basis wide enough for
  /// its full modulus plus key-switch headroom; approximate that basis
  /// from sizeof(BigInt) capacity (generous by construction).
  uint64_t activeLimbs(int ConsumedPrimes) const {
    if (!Config.Rns)
      return static_cast<uint64_t>(BigInt::MaxLimbs) / 4;
    return static_cast<uint64_t>(
        std::max(1, Config.ChainLen - ConsumedPrimes));
  }

  /// Worst-case pooled scratch of one instruction, in words. K is the
  /// active limb count. A key switch holds its ModUp basis -- d(K)
  /// active digits of K + k limbs -- beside the coefficient-form input,
  /// the K-limb outputs and 2k special-prime tails; the other classes
  /// allocate a bounded number of limb-vectors.
  uint64_t scratchWords(OpClass Class, uint64_t K) const {
    uint64_t N = Degree;
    switch (Class) {
    case kLight:
      return (K + 2) * N;
    case kMulPlain:
      return (2 * K + 6) * N;
    case kKeySwitch: {
      if (!Config.Rns)
        return ((K + 2) * (K + 2) * 2 + 16) * N;
      uint64_t S = Config.KeySwitch.SpecialPrimes;
      uint64_t D = Config.KeySwitch.activeDigits(K);
      return ((D * (K + S) + 3 * K + 2 * S) * 2 + 16) * N;
    }
    case kEncode:
      return (K + 8) * N;
    case kEncrypt:
      return (2 * K + 8) * N;
    }
    return 8 * N;
  }

  /// Folds one instruction into the current node's peaks.
  void noteOp(uint64_t ScratchW, uint64_t TransientBytes) {
    FootprintNodeStats &S = Stats.back();
    double Scaled = static_cast<double>(ScratchW) * sizeof(uint64_t) *
                    static_cast<double>(std::max(1u, Config.Threads)) *
                    Config.ScratchSafety;
    S.ScratchPeakBytes =
        std::max(S.ScratchPeakBytes, static_cast<uint64_t>(Scaled));
    S.TransientPeakBytes = std::max(S.TransientPeakBytes, TransientBytes);
    ++S.Ops;
  }

  /// Level alignment of binary ops: the deeper history dominates
  /// (AnalysisBackend semantics).
  static void alignBinary(Ct &C, const Ct &Other) {
    if (Other.ConsumedPrimes > C.ConsumedPrimes)
      C.ConsumedPrimes = Other.ConsumedPrimes;
    if (Other.LogConsumed > C.LogConsumed)
      C.LogConsumed = Other.LogConsumed;
  }

  FootprintBackendConfig Config;
  size_t Degree;
  std::vector<FootprintNodeStats> Stats;
};

/// The abstract domain ignores slot contents; skipping the weight/mask
/// vector builds keeps the analysis an O(ops) pass.
template <>
inline constexpr bool BackendEncodeIsValueAgnostic<FootprintBackend> = true;

static_assert(HisaBackend<FootprintBackend>,
              "FootprintBackend must satisfy the HISA concept");
static_assert(HisaProvenanceSink<FootprintBackend>,
              "FootprintBackend must receive node provenance");
static_assert(BackendHasRotLeftMany<FootprintBackend>,
              "FootprintBackend must model hoisted rotation fan-out");

} // namespace chet

#endif // CHET_HISA_FOOTPRINTBACKEND_H
