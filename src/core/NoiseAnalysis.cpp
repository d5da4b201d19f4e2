//===- NoiseAnalysis.cpp - Static range/noise-budget analysis -------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/NoiseAnalysis.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

using namespace chet;

namespace {

double maxAbs(const std::vector<double> &V) {
  double M = 0;
  for (double X : V)
    M = std::max(M, std::fabs(X));
  return M;
}

} // namespace

std::map<int, RangeNoiseNodeEnv>
chet::rangeEnvelopes(const TensorCircuit &Circ, double InputAbs) {
  std::map<int, RangeNoiseNodeEnv> Env;
  const auto &Ops = Circ.ops();
  // Output-magnitude bound per node, in topological order.
  std::vector<double> Out(Ops.size(), 0);
  for (const OpNode &N : Ops) {
    RangeNoiseNodeEnv E;
    switch (N.Kind) {
    case OpKind::Input: {
      E.OutAbs = InputAbs;
      E.CapAbs = InputAbs;
      break;
    }
    case OpKind::Conv2d: {
      double Xin = Out[N.Inputs[0]];
      // L1 norm of the worst output channel: the exact supremum of the
      // convolution over |x| <= Xin (padding only drops taps).
      double L1 = 0;
      double Wmax = 0;
      for (int Co = 0; Co < N.Conv.Cout; ++Co) {
        double Sum = 0;
        for (int Ci = 0; Ci < N.Conv.Cin; ++Ci)
          for (int Dy = 0; Dy < N.Conv.Kh; ++Dy)
            for (int Dx = 0; Dx < N.Conv.Kw; ++Dx) {
              double W = std::fabs(N.Conv.at(Co, Ci, Dy, Dx));
              Sum += W;
              Wmax = std::max(Wmax, W);
            }
        L1 = std::max(L1, Sum);
      }
      E.WeightAbs = Wmax;
      E.BiasAbs = maxAbs(N.Conv.Bias);
      E.OutAbs = Xin * L1 + E.BiasAbs;
      // Intermediates: rotated inputs (<= Xin), tap partial sums
      // (subsums of the L1 bound), masked copies, the bias add; the
      // ConvHW layout conversions around the kernel stay within the
      // same two bounds (masked extracts of the input, disjoint-channel
      // accumulations of the output).
      E.CapAbs = std::max(Xin, Xin * L1) + E.BiasAbs;
      break;
    }
    case OpKind::AveragePool:
    case OpKind::GlobalAveragePool: {
      double Xin = Out[N.Inputs[0]];
      double K = static_cast<double>(N.PoolK);
      E.OutAbs = Xin; // an average never exceeds its window's max
      E.CapAbs = Xin * K * K; // the window sum before the 1/K^2 scalar
      break;
    }
    case OpKind::PolyActivation: {
      double Xin = Out[N.Inputs[0]];
      // y = x * (A2*x + A1), evaluated as U = A2*x + A1; y = x*U
      // (Kernels.h); A2 == 0 collapses to one scalar multiply.
      double U = std::fabs(N.A2) * Xin + std::fabs(N.A1);
      E.OutAbs = N.A2 == 0 ? std::fabs(N.A1) * Xin : Xin * U;
      E.CapAbs = std::max({Xin, U, E.OutAbs});
      break;
    }
    case OpKind::FullyConnected: {
      double Xin = Out[N.Inputs[0]];
      double L1 = 0;
      double Wmax = 0;
      for (int O = 0; O < N.Fc.Out; ++O) {
        double Sum = 0;
        for (int I = 0; I < N.Fc.In; ++I) {
          double W = std::fabs(N.Fc.at(O, I));
          Sum += W;
          Wmax = std::max(Wmax, W);
        }
        L1 = std::max(L1, Sum);
      }
      E.WeightAbs = Wmax;
      E.BiasAbs = maxAbs(N.Fc.Bias);
      E.OutAbs = Xin * L1 + E.BiasAbs;
      // Replicate partial dot products and BSGS giant-step folds are
      // subsums of sum_i |w_i x_i| <= L1 * Xin per slot; baby-step
      // rotations stay at Xin; slot masks only shrink values.
      E.CapAbs = std::max(Xin, Xin * L1) + E.BiasAbs;
      break;
    }
    case OpKind::ConcatChannels: {
      double A = Out[N.Inputs[0]];
      double B = Out[N.Inputs[1]];
      // Channel supports are disjoint: per slot the result holds one
      // input's value, never a sum.
      E.OutAbs = std::max(A, B);
      E.CapAbs = E.OutAbs;
      break;
    }
    case OpKind::Output: {
      double Xin = Out[N.Inputs[0]];
      E.OutAbs = Xin;
      E.CapAbs = Xin;
      break;
    }
    }
    Out[N.Id] = E.OutAbs;
    Env[N.Id] = E;
  }
  return Env;
}

namespace {

/// Extracts the analysis' abstract machine from a compiled artifact,
/// mirroring the verifier's configFor (Verifier.cpp).
RangeNoiseBackendConfig configFor(const CompiledCircuit &Compiled,
                                  const NoiseAnalysisOptions &Options) {
  RangeNoiseBackendConfig C;
  C.Rns = Compiled.Scheme == SchemeKind::RnsCkks;
  C.LogN = Compiled.LogN;
  if (Compiled.Rns) {
    const auto &Chain = Compiled.Rns->ChainPrimes;
    // The backends rescale from the chain's tail, so the consumption
    // order the analysis sees is the tail reversed.
    C.ScalePrimeCandidates.assign(Chain.rbegin(),
                                  Chain.rend() - (Chain.empty() ? 0 : 1));
    C.Noise = NoiseModel::create(Compiled.Scheme, Compiled.LogN, Chain,
                                 Compiled.Rns->SpecialPrimes,
                                 Compiled.Rns->DigitBounds, Compiled.LogQ);
  } else {
    C.Noise = NoiseModel::create(Compiled.Scheme, Compiled.LogN, {}, {}, {},
                                 Compiled.LogQ);
  }
  C.WeightScale = Compiled.Scales.Weight;
  C.MaskScale = Compiled.Scales.Mask;
  C.InputAbs = Options.InputAbs;
  return C;
}

} // namespace

std::vector<NoiseNodeReport> NoiseReport::hotspots(size_t K) const {
  std::vector<NoiseNodeReport> Rows = PerNode;
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const NoiseNodeReport &A, const NoiseNodeReport &B) {
                     return A.PeakErr > B.PeakErr;
                   });
  if (Rows.size() > K)
    Rows.resize(K);
  return Rows;
}

std::string NoiseReport::str() const {
  std::ostringstream OS;
  OS << "static precision analysis (" << layoutPolicyName(Policy)
     << "): |output| <= " << std::scientific << std::setprecision(3)
     << MessageBound << ", worst-case error <= " << ErrorBound
     << " (quantization " << QuantBound << ", noise " << NoiseBound << ")";
  for (const NoiseNodeReport &Row : hotspots()) {
    OS << "\n  layer '" << Row.Label << "' (node #" << Row.NodeId
       << "): peak error " << Row.PeakErr << ", noise introduced "
       << Row.NoiseIntroduced << ", peak |value| " << Row.PeakAbs;
  }
  return OS.str();
}

NoiseReport chet::analyzeNoise(const TensorCircuit &Circ,
                               const CompiledCircuit &Compiled,
                               const NoiseAnalysisOptions &Options) {
  CHET_CHECK(!Circ.ops().empty(), InvalidArgument,
             "cannot analyze an empty circuit");
  CHET_CHECK(Compiled.LogN >= 2 && Compiled.LogN <= 17, InvalidArgument,
             "compiled artifact carries an unusable ring dimension LogN = ",
             Compiled.LogN);

  RangeNoiseBackendConfig Config = configFor(Compiled, Options);
  Config.NodeEnv = rangeEnvelopes(Circ, Options.InputAbs);
  RangeNoiseBackend Backend(Config);

  const OpNode &In = Circ.ops().front();
  Tensor3 Dummy(In.C, In.H, In.W);
  TensorLayout L =
      circuitInputLayout(Circ, Compiled.Policy, Backend.slotCount());
  auto Enc = encryptTensor(Backend, Dummy, L, Compiled.Scales);
  auto Out = evaluateCircuit(Backend, Circ, Enc, Compiled.Scales,
                             Compiled.Policy);

  NoiseReport Report;
  Report.Policy = Compiled.Policy;
  for (const auto &Ct : Out.Cts) {
    double Err = Ct.QuantErr + Ct.NoiseErr;
    Report.MessageBound = std::max(Report.MessageBound, Ct.Abs);
    if (Err > Report.ErrorBound) {
      Report.ErrorBound = Err;
      Report.QuantBound = Ct.QuantErr;
      Report.NoiseBound = Ct.NoiseErr;
    }
  }
  for (const RangeNoiseNodeStats &S : Backend.nodeStats())
    Report.PerNode.push_back(
        {S.NodeId, S.Label, S.PeakAbs, S.PeakErr, S.NoiseIntroduced});
  return Report;
}
