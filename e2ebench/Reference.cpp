//===- Reference.cpp - Independent plain reference and output checks ------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include "support/Error.h"

#include <cmath>
#include <random>
#include <sstream>
#include <vector>

using chet::OpKind;
using chet::OpNode;
using chet::Tensor3;

namespace e2e {
namespace {

using Acc = std::vector<long double>;

size_t idx(int C, int Y, int X, int H, int W) {
  return (static_cast<size_t>(C) * H + Y) * W + X;
}

Tensor3 fromAcc(const Acc &A, int C, int H, int W) {
  Tensor3 T(C, H, W);
  for (size_t I = 0; I < A.size(); ++I)
    T.Data[I] = static_cast<double>(A[I]);
  return T;
}

/// Cross-correlation, written input-stationary: every input pixel
/// scatters its contribution to each output position whose window covers
/// it, so the loop order differs from a per-output gather.
Tensor3 conv(const Tensor3 &In, const OpNode &N) {
  const chet::ConvWeights &Wt = N.Conv;
  CHET_CHECK(In.C == Wt.Cin, InvalidArgument, "reference conv: ", In.C,
             " input channels, weights expect ", Wt.Cin);
  int OutH = (In.H + 2 * N.Pad - Wt.Kh) / N.Stride + 1;
  int OutW = (In.W + 2 * N.Pad - Wt.Kw) / N.Stride + 1;
  Acc Out(static_cast<size_t>(Wt.Cout) * OutH * OutW, 0.0L);
  for (int Ci = 0; Ci < In.C; ++Ci)
    for (int Y = 0; Y < In.H; ++Y)
      for (int X = 0; X < In.W; ++X) {
        long double V = In.Data[idx(Ci, Y, X, In.H, In.W)];
        for (int Dy = 0; Dy < Wt.Kh; ++Dy) {
          int Ny = Y + N.Pad - Dy; // = OutY * Stride
          if (Ny < 0 || Ny % N.Stride || Ny / N.Stride >= OutH)
            continue;
          for (int Dx = 0; Dx < Wt.Kw; ++Dx) {
            int Nx = X + N.Pad - Dx;
            if (Nx < 0 || Nx % N.Stride || Nx / N.Stride >= OutW)
              continue;
            for (int Co = 0; Co < Wt.Cout; ++Co)
              Out[idx(Co, Ny / N.Stride, Nx / N.Stride, OutH, OutW)] +=
                  V * Wt.W[((static_cast<size_t>(Co) * Wt.Cin + Ci) * Wt.Kh +
                            Dy) * Wt.Kw + Dx];
          }
        }
      }
  for (int Co = 0; Co < Wt.Cout; ++Co)
    for (int P = 0; P < OutH * OutW; ++P)
      Out[static_cast<size_t>(Co) * OutH * OutW + P] += Wt.Bias[Co];
  return fromAcc(Out, Wt.Cout, OutH, OutW);
}

Tensor3 averagePool(const Tensor3 &In, int K, int Stride) {
  int OutH = (In.H - K) / Stride + 1;
  int OutW = (In.W - K) / Stride + 1;
  Acc Out(static_cast<size_t>(In.C) * OutH * OutW, 0.0L);
  for (int C = 0; C < In.C; ++C)
    for (int Oy = 0; Oy < OutH; ++Oy)
      for (int Ox = 0; Ox < OutW; ++Ox) {
        long double S = 0;
        for (int Y = Oy * Stride; Y < Oy * Stride + K; ++Y)
          for (int X = Ox * Stride; X < Ox * Stride + K; ++X)
            S += In.Data[idx(C, Y, X, In.H, In.W)];
        Out[idx(C, Oy, Ox, OutH, OutW)] = S / (K * K);
      }
  return fromAcc(Out, In.C, OutH, OutW);
}

Tensor3 globalAveragePool(const Tensor3 &In) {
  Acc Out(In.C, 0.0L);
  size_t Plane = static_cast<size_t>(In.H) * In.W;
  for (int C = 0; C < In.C; ++C) {
    for (size_t P = 0; P < Plane; ++P)
      Out[C] += In.Data[C * Plane + P];
    Out[C] /= static_cast<long double>(Plane);
  }
  return fromAcc(Out, In.C, 1, 1);
}

Tensor3 fullyConnected(const Tensor3 &In, const chet::FcWeights &Wt) {
  CHET_CHECK(In.Data.size() == static_cast<size_t>(Wt.In), InvalidArgument,
             "reference fc: ", In.Data.size(), " features, weights expect ",
             Wt.In);
  Acc Out(Wt.Bias.begin(), Wt.Bias.end());
  for (int I = 0; I < Wt.In; ++I)
    for (int O = 0; O < Wt.Out; ++O)
      Out[O] += static_cast<long double>(In.Data[I]) *
                Wt.W[static_cast<size_t>(O) * Wt.In + I];
  return fromAcc(Out, Wt.Out, 1, 1);
}

Tensor3 polynomial(Tensor3 T, double A2, double A1) {
  for (double &V : T.Data) {
    long double X = V;
    V = static_cast<double>(A2 * X * X + A1 * X);
  }
  return T;
}

Tensor3 concat(const Tensor3 &A, const Tensor3 &B) {
  CHET_CHECK(A.H == B.H && A.W == B.W, InvalidArgument,
             "reference concat: spatial shapes differ");
  Tensor3 Out(A.C + B.C, A.H, A.W);
  std::copy(A.Data.begin(), A.Data.end(), Out.Data.begin());
  std::copy(B.Data.begin(), B.Data.end(), Out.Data.begin() + A.Data.size());
  return Out;
}

} // namespace

Tensor3 referenceForward(const chet::TensorCircuit &Circ,
                         const Tensor3 &Image) {
  std::vector<Tensor3> Vals(Circ.ops().size());
  for (const OpNode &N : Circ.ops()) {
    const Tensor3 *In = N.Inputs.empty() ? nullptr : &Vals[N.Inputs[0]];
    switch (N.Kind) {
    case OpKind::Input:
      Vals[N.Id] = Image;
      break;
    case OpKind::Conv2d:
      Vals[N.Id] = conv(*In, N);
      break;
    case OpKind::AveragePool:
      Vals[N.Id] = averagePool(*In, N.PoolK, N.PoolStride);
      break;
    case OpKind::GlobalAveragePool:
      Vals[N.Id] = globalAveragePool(*In);
      break;
    case OpKind::PolyActivation:
      Vals[N.Id] = polynomial(*In, N.A2, N.A1);
      break;
    case OpKind::FullyConnected:
      Vals[N.Id] = fullyConnected(*In, N.Fc);
      break;
    case OpKind::ConcatChannels:
      Vals[N.Id] = concat(*In, Vals[N.Inputs[1]]);
      break;
    case OpKind::Output:
      return *In;
    }
  }
  throw chet::InvalidArgumentError("reference: circuit has no output node");
}

int argmaxOf(const Tensor3 &Logits) {
  int Best = 0;
  for (size_t I = 1; I < Logits.Data.size(); ++I)
    if (Logits.Data[I] > Logits.Data[Best])
      Best = static_cast<int>(I);
  return Best;
}

double top2Margin(const Tensor3 &Logits) {
  int Best = argmaxOf(Logits);
  double Second = -INFINITY;
  for (size_t I = 0; I < Logits.Data.size(); ++I)
    if (static_cast<int>(I) != Best)
      Second = std::max(Second, Logits.Data[I]);
  return Logits.Data[Best] - Second;
}

Tensor3 seededImage(const chet::TensorCircuit &Circ, uint64_t Seed,
                    uint64_t Index, double MinMargin) {
  const OpNode &In = Circ.ops().front();
  std::seed_seq Seq{uint32_t(Seed), uint32_t(Seed >> 32), uint32_t(Index),
                    uint32_t(Index >> 32)};
  std::mt19937_64 Rng(Seq);
  std::uniform_real_distribution<double> U(-0.5, 0.5);
  for (int Draw = 0; Draw < 1000; ++Draw) {
    Tensor3 Img(In.C, In.H, In.W);
    for (double &V : Img.Data)
      V = U(Rng);
    if (top2Margin(referenceForward(Circ, Img)) >= MinMargin)
      return Img;
  }
  throw chet::InvalidArgumentError(chet::formatError(
      "no input image with a top-2 margin of at least ", MinMargin,
      " in 1000 draws"));
}

std::string checkOutput(const Tensor3 &Got, const Tensor3 &Want,
                        double Tolerance, double StaticBound,
                        double &MaxErr) {
  MaxErr = INFINITY;
  if (Got.Data.size() != Want.Data.size())
    return "output has " + std::to_string(Got.Data.size()) +
           " values, reference has " + std::to_string(Want.Data.size());
  MaxErr = 0;
  for (size_t I = 0; I < Got.Data.size(); ++I)
    MaxErr = std::max(MaxErr, std::fabs(Got.Data[I] - Want.Data[I]));
  std::ostringstream Why;
  if (argmaxOf(Got) != argmaxOf(Want))
    Why << "argmax " << argmaxOf(Got) << " != reference "
        << argmaxOf(Want) << "; ";
  if (!(MaxErr <= Tolerance))
    Why << "max error " << MaxErr << " > tolerance " << Tolerance << "; ";
  if (!(MaxErr <= StaticBound))
    Why << "max error " << MaxErr << " > static ErrorBound " << StaticBound
        << "; ";
  return Why.str();
}

} // namespace e2e
