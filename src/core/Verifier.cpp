//===- Verifier.cpp - Post-compile static verification ---------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

using namespace chet;

std::string VerificationReport::str() const {
  std::ostringstream OS;
  OS << "circuit verification found " << errors() << " error"
     << (errors() == 1 ? "" : "s") << ", " << warnings() << " warning"
     << (warnings() == 1 ? "" : "s") << ", " << notes() << " note"
     << (notes() == 1 ? "" : "s") << ":";
  int N = 0;
  for (const VerifierDiagnostic &D : Diagnostics) {
    OS << "\n  " << ++N << ". " << severityName(D.Sev) << " "
       << errorCodeName(D.Code) << " [";
    if (D.NodeId >= 0)
      OS << "layer '" << D.Layer << "', node " << D.NodeId;
    else
      OS << D.Layer;
    if (!D.HisaOp.empty())
      OS << ", " << D.HisaOp;
    OS << "]: " << D.Message;
  }
  return OS.str();
}

std::string VerificationReport::depthTableStr() const {
  std::ostringstream OS;
  OS << "per-layer multiply depth and level consumption ("
     << layoutPolicyName(Policy) << "):\n";
  OS << std::left << std::setw(24) << "layer" << std::right << std::setw(9)
     << "ct-mul" << std::setw(9) << "pt-mul" << std::setw(9) << "sc-mul"
     << std::setw(9) << "rotate" << std::setw(8) << "levels" << std::setw(7)
     << "depth" << "\n";
  for (const VerifierNodeStats &Row : LayerDepth) {
    if (Row.CtMuls == 0 && Row.PtMuls == 0 && Row.ScalarMuls == 0 &&
        Row.Rotations == 0 && Row.LevelsConsumed == 0 &&
        Row.LogConsumed == 0)
      continue; // skip pass-through rows (input, output, concat)
    OS << std::left << std::setw(24) << Row.Label << std::right
       << std::setw(9) << Row.CtMuls << std::setw(9) << Row.PtMuls
       << std::setw(9) << Row.ScalarMuls << std::setw(9) << Row.Rotations;
    if (Row.LogConsumed > 0)
      OS << std::setw(8) << std::fixed << std::setprecision(0)
         << Row.LogConsumed;
    else
      OS << std::setw(8) << Row.LevelsConsumed;
    OS << std::setw(7) << Row.MaxDepth << "\n";
  }
  return OS.str();
}

namespace {

int severityRank(Severity S) {
  switch (S) {
  case Severity::Error:
    return 0;
  case Severity::Warning:
    return 1;
  case Severity::Note:
    return 2;
  }
  return 3;
}

std::string layerOf(const TensorCircuit &Circ, int NodeId) {
  if (NodeId >= 0 && NodeId < static_cast<int>(Circ.ops().size()))
    return Circ.label(NodeId);
  return "input packing";
}

/// Extracts the verifier's abstract machine from a compiled artifact.
VerifierBackendConfig configFor(const CompiledCircuit &Compiled,
                                const VerifierOptions &Options) {
  VerifierBackendConfig C;
  C.Rns = Compiled.Scheme == SchemeKind::RnsCkks;
  C.LogN = Compiled.LogN;
  if (Compiled.Rns) {
    // The backend rescales from the chain's tail, so the consumption
    // order the analysis (and the verifier) sees is the tail reversed.
    const auto &Chain = Compiled.Rns->ChainPrimes;
    C.ScalePrimeCandidates.assign(Chain.rbegin(),
                                  Chain.rend() - (Chain.empty() ? 0 : 1));
    C.StockPow2Keys = Compiled.Rns->StockPow2Keys;
    C.RotationKeyLevels = Compiled.RotationKeyLevels;
    C.RelinKeyLevel = Compiled.RelinKeyLevel;
  } else if (Compiled.Big) {
    C.LogQBudget = Compiled.LogQ;
    C.StockPow2Keys = Compiled.Big->StockPow2Keys;
  } else {
    C.LogQBudget = Compiled.LogQ;
    C.StockPow2Keys = Compiled.RotationKeys.empty();
  }
  C.AvailableRotationSteps.insert(Compiled.RotationKeys.begin(),
                                  Compiled.RotationKeys.end());
  C.ScaleTolerance = Options.ScaleTolerance;
  C.MinScaleFloor = std::min(
      std::min(Compiled.Scales.Image, Compiled.Scales.Weight),
      std::min(Compiled.Scales.Scalar, Compiled.Scales.Mask));
  return C;
}

/// Nodes whose value can reach the circuit output (reverse reachability
/// over the DAG; ops are topologically ordered).
std::vector<bool> liveNodes(const TensorCircuit &Circ) {
  const auto &Ops = Circ.ops();
  std::vector<bool> Live(Ops.size(), false);
  if (Ops.empty())
    return Live;
  Live[Circ.outputId()] = true;
  for (int Id = static_cast<int>(Ops.size()) - 1; Id >= 0; --Id)
    if (Live[Id])
      for (int In : Ops[Id].Inputs)
        Live[In] = true;
  return Live;
}

} // namespace

VerificationReport chet::verifyCircuit(const TensorCircuit &Circ,
                                       const CompiledCircuit &Compiled,
                                       const VerifierOptions &Options) {
  CHET_CHECK(!Circ.ops().empty(), InvalidArgument,
             "cannot verify an empty circuit");
  CHET_CHECK(Compiled.LogN >= 2 && Compiled.LogN <= 17, InvalidArgument,
             "compiled artifact carries an unusable ring dimension LogN = ",
             Compiled.LogN);

  VerificationReport Report;
  Report.Policy = Compiled.Policy;

  VerifierBackend Backend(configFor(Compiled, Options));
  const OpNode &In = Circ.ops().front();
  Tensor3 Dummy(In.C, In.H, In.W);
  try {
    TensorLayout L =
        circuitInputLayout(Circ, Compiled.Policy, Backend.slotCount());
    auto Enc = encryptTensor(Backend, Dummy, L, Compiled.Scales);
    (void)evaluateCircuit(Backend, Circ, Enc, Compiled.Scales,
                          Compiled.Policy);
  } catch (const ChetError &E) {
    // Structural misuse a kernel rejects outright (layout/shape); the
    // abstract interpretation cannot continue past it.
    Report.Diagnostics.push_back(
        {Severity::Error, E.code(), "", -1, "evaluation", E.what()});
  }
  if (Options.CheckRedundantRotations)
    Backend.finishAudits();
  Report.LayerDepth = Backend.nodeStats();

  for (const VerifierEvent &E : Backend.events()) {
    std::string Message = E.Message;
    if (E.Count > 1)
      Message += formatError(" (", E.Count, " occurrences)");
    Report.Diagnostics.push_back({E.Sev, E.Code, E.HisaOp, E.NodeId,
                                  layerOf(Circ, E.NodeId),
                                  std::move(Message)});
  }

  if (Options.CheckDeadNodes) {
    std::vector<bool> Live = liveNodes(Circ);
    for (const OpNode &Node : Circ.ops())
      if (!Live[Node.Id])
        Report.Diagnostics.push_back(
            {Severity::Warning, ErrorCode::DeadCiphertext, "", Node.Id,
             Circ.label(Node.Id),
             formatError("layer '", Circ.label(Node.Id),
                         "' is computed but its result never reaches the "
                         "circuit output; the FHE work is wasted")});
  }

  // Depth hotspots: layers eating a disproportionate share of the chain.
  // Measured per ciphertext (DeepestLevels), not summed across the many
  // ciphertexts a layer touches -- 16 parallel FC rows shedding one prime
  // each cost the chain one level, not sixteen.
  double ImageBits = std::log2(Compiled.Scales.Image);
  for (const VerifierNodeStats &Row : Report.LayerDepth) {
    if (Row.NodeId < 0)
      continue;
    int Levels = Row.DeepestLevels;
    if (Row.DeepestLog > 0 && ImageBits > 0)
      Levels = static_cast<int>(Row.DeepestLog / ImageBits + 0.5);
    if (Levels < Options.DepthHotspotLevels)
      continue;
    Report.Diagnostics.push_back(
        {Severity::Note, ErrorCode::DepthHotspot, "", Row.NodeId,
         Row.Label,
         formatError("layer '", Row.Label, "' consumes ", Levels,
                     " levels of the modulus chain on its deepest "
                     "ciphertext (multiply-depth hotspot)")});
  }

  std::stable_sort(Report.Diagnostics.begin(), Report.Diagnostics.end(),
                   [](const VerifierDiagnostic &A,
                      const VerifierDiagnostic &B) {
                     return severityRank(A.Sev) < severityRank(B.Sev);
                   });
  return Report;
}

VerificationReport chet::verifyCircuit(const TensorCircuit &Circ,
                                       const CompilerOptions &Options,
                                       const VerifierOptions &VOptions) {
  CompilerOptions Opts = Options;
  Opts.PostCompileVerify = false; // this call *is* the verification
  try {
    CompiledCircuit Compiled = compileCircuit(Circ, Opts);
    return verifyCircuit(Circ, Compiled, VOptions);
  } catch (const ChetError &E) {
    VerificationReport Report;
    Report.Diagnostics.push_back(
        {Severity::Error, E.code(), "", -1, "compilation", E.what()});
    return Report;
  }
}
