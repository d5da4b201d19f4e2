//===- FootprintAnalysis.cpp - Static peak-memory analysis ----------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FootprintAnalysis.h"

#include "core/Evaluate.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

using namespace chet;

namespace {

/// Extracts the analysis' abstract machine from a compiled artifact,
/// mirroring the precision pass' configFor (NoiseAnalysis.cpp).
FootprintBackendConfig configFor(const CompiledCircuit &Compiled,
                                 const FootprintAnalysisOptions &Options) {
  FootprintBackendConfig C;
  C.Rns = Compiled.Scheme == SchemeKind::RnsCkks;
  C.LogN = Compiled.LogN;
  if (Compiled.Rns) {
    const auto &Chain = Compiled.Rns->ChainPrimes;
    // The backends rescale from the chain's tail, so the consumption
    // order the analysis sees is the tail reversed.
    C.ScalePrimeCandidates.assign(Chain.rbegin(),
                                  Chain.rend() - (Chain.empty() ? 0 : 1));
    C.ChainLen = static_cast<int>(Chain.size());
    C.KeySwitch = Compiled.Rns->keySwitchLayout();
  }
  C.Threads = Options.Threads;
  return C;
}

/// Key material makeRnsBackend generates for \p Compiled, word for word
/// as RnsCkksBackend::keyBytes() counts it: the ternary secret, its NTT
/// form over every chain and special prime, the public key, and each
/// key-switching key -- d(l+1) digits of l+1+k limbs for both
/// polynomials at its level l -- with an N-entry permutation table per
/// Galois key.
uint64_t rnsKeyBytes(const CompiledCircuit &Compiled) {
  const RnsCkksParams &P = *Compiled.Rns;
  const KeySwitchLayout Layout = P.keySwitchLayout();
  const uint64_t N = uint64_t(1) << Compiled.LogN;
  const int Top = P.levels();
  const uint64_t Chain = P.ChainPrimes.size(), K = Layout.SpecialPrimes;
  auto KeyWords = [&](int Level) {
    uint64_t Limbs = uint64_t(Level) + 1;
    return 2 * Layout.activeDigits(Limbs) * (Limbs + K) * N;
  };
  uint64_t Words = (Chain + K) * N + 2 * Chain * N;
  Words += KeyWords(Compiled.RelinKeyLevel < 0 ? Top : Compiled.RelinKeyLevel);
  // Galois keys by normalized step, at the highest level requested.
  const int Slots = static_cast<int>(N / 2);
  std::map<int, int> Galois;
  auto Add = [&](int Step, int Level) {
    int Norm = ((Step % Slots) + Slots) % Slots;
    if (Norm == 0)
      return;
    auto [It, New] = Galois.emplace(Norm, Level);
    if (!New)
      It->second = std::max(It->second, Level);
  };
  if (P.StockPow2Keys)
    for (int Step = 1; Step < Slots; Step <<= 1) {
      Add(Step, Top);
      Add(-Step, Top);
    }
  for (int Step : Compiled.RotationKeys) {
    auto It = Compiled.RotationKeyLevels.find(Step);
    Add(Step, It == Compiled.RotationKeyLevels.end() ? Top : It->second);
  }
  for (const auto &[Step, Level] : Galois)
    Words += KeyWords(Level);
  return N * sizeof(int8_t) + Galois.size() * N * sizeof(uint32_t) +
         Words * sizeof(uint64_t);
}

uint64_t tensorBytes(const FootprintBackend &Backend,
                     const CipherTensor<FootprintBackend> &T) {
  uint64_t Bytes = 0;
  for (const auto &Ct : T.Cts)
    Bytes += Backend.ctBytes(Ct);
  return Bytes;
}

double asMb(uint64_t Bytes) {
  return static_cast<double>(Bytes) / (1024.0 * 1024.0);
}

} // namespace

std::vector<FootprintNodeReport> FootprintReport::hotspots(size_t K) const {
  std::vector<FootprintNodeReport> Rows = PerNode;
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const FootprintNodeReport &A,
                      const FootprintNodeReport &B) {
                     return A.PeakBytes > B.PeakBytes;
                   });
  if (Rows.size() > K)
    Rows.resize(K);
  return Rows;
}

std::string FootprintReport::str() const {
  std::ostringstream OS;
  OS << "static footprint analysis (" << layoutPolicyName(Policy)
     << "): peak " << std::fixed << std::setprecision(1) << asMb(PeakBytes)
     << " MB (live ciphertexts " << asMb(PeakLiveCtBytes) << " MB, scratch "
     << asMb(PeakScratchBytes) << " MB) at layer '" << PeakLabel
     << "' (node #" << PeakNodeId << "); input " << asMb(InputBytes)
     << " MB, output " << asMb(OutputBytes) << " MB";
  if (KeyBytes)
    OS << "; resident key material " << asMb(KeyBytes) << " MB";
  for (const FootprintNodeReport &Row : hotspots()) {
    OS << "\n  layer '" << Row.Label << "' (node #" << Row.NodeId
       << "): peak " << asMb(Row.PeakBytes) << " MB (live "
       << asMb(Row.LiveCtBytes) << " MB, scratch " << asMb(Row.ScratchBytes)
       << " MB, transient " << asMb(Row.TransientBytes) << " MB)";
  }
  return OS.str();
}

FootprintReport chet::analyzeFootprint(const TensorCircuit &Circ,
                                       const CompiledCircuit &Compiled,
                                       const FootprintAnalysisOptions
                                           &Options) {
  CHET_CHECK(!Circ.ops().empty(), InvalidArgument,
             "cannot analyze an empty circuit");
  CHET_CHECK(Compiled.LogN >= 2 && Compiled.LogN <= 17, InvalidArgument,
             "compiled artifact carries an unusable ring dimension LogN = ",
             Compiled.LogN);

  FootprintBackend Backend(configFor(Compiled, Options));

  const auto &Ops = Circ.ops();
  const OpNode &In = Ops.front();
  Tensor3 Dummy(In.C, In.H, In.W);
  TensorLayout L =
      circuitInputLayout(Circ, Compiled.Policy, Backend.slotCount());
  auto Enc = encryptTensor(Backend, Dummy, L, Compiled.Scales);

  FootprintReport Report;
  Report.Policy = Compiled.Policy;
  Report.InputBytes = tensorBytes(Backend, Enc);
  if (Compiled.Rns)
    Report.KeyBytes = rnsKeyBytes(Compiled);

  auto pushRow = [&](int NodeId, const std::string &Label, uint64_t Live,
                     const FootprintNodeStats &S) {
    FootprintNodeReport Row;
    Row.NodeId = NodeId;
    Row.Label = Label;
    Row.LiveCtBytes = Live;
    Row.ScratchBytes = S.ScratchPeakBytes;
    Row.TransientBytes = S.TransientPeakBytes;
    Row.PeakBytes = Live + S.ScratchPeakBytes + S.TransientPeakBytes;
    Report.PerNode.push_back(Row);
    if (Row.PeakBytes > Report.PeakBytes) {
      Report.PeakBytes = Row.PeakBytes;
      Report.PeakLiveCtBytes = Row.LiveCtBytes;
      Report.PeakScratchBytes = Row.ScratchBytes;
      Report.PeakNodeId = Row.NodeId;
      Report.PeakLabel = Row.Label;
    }
  };

  // Row 0: input packing (encryption runs before the first kernel).
  pushRow(-1, "input packing", Report.InputBytes,
          Backend.nodeStats().front());

  // The evaluator's own loop, with the same liveness frontier it keeps
  // (Evaluate.h): live bytes are measured *before* dead operands of the
  // just-executed node are released, because they are held across the
  // node's kernels.
  std::vector<bool> NeedsMask = detail::computeMaskNeeds(Circ, Compiled.Policy);
  std::vector<std::optional<CipherTensor<FootprintBackend>>> Vals(Ops.size());
  std::vector<int> LastUse(Ops.size(), -1);
  for (const OpNode &Node : Ops)
    for (int InId : Node.Inputs)
      LastUse[InId] = std::max(LastUse[InId], Node.Id);

  for (const OpNode &Node : Ops) {
    if (Node.Kind == OpKind::Output) {
      Backend.beginNode(Node.Id, Node.Label);
      const auto &Out = *Vals[Node.Inputs[0]];
      Report.OutputBytes = tensorBytes(Backend, Out);
      pushRow(Node.Id, Node.Label, Report.InputBytes + Report.OutputBytes,
              Backend.nodeStats().back());
      break;
    }
    detail::evaluateNode(Backend, Node, Vals, NeedsMask, Enc,
                         Compiled.Scales, Compiled.Policy);
    uint64_t Live = Report.InputBytes;
    for (const auto &V : Vals)
      if (V)
        Live += tensorBytes(Backend, *V);
    pushRow(Node.Id, Node.Label, Live, Backend.nodeStats().back());
    for (int J = 0; J <= Node.Id; ++J)
      if (Vals[J] && LastUse[J] <= Node.Id)
        Vals[J].reset();
  }
  return Report;
}
