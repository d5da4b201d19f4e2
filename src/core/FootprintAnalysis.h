//===- FootprintAnalysis.h - Static peak-memory analysis -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time memory pass, the byte-space sibling of the precision
/// pass (NoiseAnalysis.h): one value-agnostic evaluation of the compiled
/// circuit over FootprintBackend (hisa/FootprintBackend.h) yields a
/// worst-case bound on the bytes a single inference holds live at once,
/// with per-layer provenance for hotspot reports.
///
/// Unlike analyzeNoise, which hands the whole loop to evaluateCircuit,
/// this pass drives the node loop itself (detail::evaluateNode) so it
/// can maintain the same liveness frontier the evaluator uses: after
/// each node it sums the sizes of every value still in the table --
/// including operands of the node just executed, which are live *during*
/// it even when it is their last use -- then releases dead entries
/// exactly as evaluateCircuit does. The per-node peak adds the node's
/// worst-instruction pooled scratch (scaled by the modeled kernel
/// concurrency) and transient-ciphertext terms from the backend.
///
/// Soundness contract, enforced by test_memory_governor and the
/// bench_memory gate: for every zoo network and both schemes, PeakBytes
/// must upper-bound the LimbPool high-water measured over a real
/// inference. The model is generous rather than tight (ciphertext
/// vectors are counted in full, scratch constants round up); the bench
/// reports the looseness ratio so regressions in either direction are
/// visible.
///
/// compileCircuit runs the pass after the noise analysis and records the
/// headline numbers on CompiledCircuit::Footprint; the serving layer
/// passes that bound as TenantOptions::PredictedPeakBytes so admission
/// can reserve it against the process MemoryGovernor budget.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_FOOTPRINTANALYSIS_H
#define CHET_CORE_FOOTPRINTANALYSIS_H

#include "core/Compiler.h"
#include "hisa/FootprintBackend.h"

#include <string>
#include <vector>

namespace chet {

struct FootprintAnalysisOptions {
  /// Worst-case concurrent kernel lanes to model (see
  /// FootprintBackendConfig::Threads).
  unsigned Threads = 8;
};

/// Per-layer row of the footprint report, in evaluation order. Row 0 is
/// the synthetic "input packing" node.
struct FootprintNodeReport {
  int NodeId = -1;
  std::string Label;
  uint64_t LiveCtBytes = 0;   ///< Value-table bytes while the node ran.
  uint64_t ScratchBytes = 0;  ///< Worst-instruction pooled scratch.
  uint64_t TransientBytes = 0; ///< Worst-instruction transient copies.
  uint64_t PeakBytes = 0;     ///< Sum of the above: the node's bound.
};

/// Full result of the static footprint analysis.
struct FootprintReport {
  LayoutPolicy Policy = LayoutPolicy::AllHW;
  uint64_t InputBytes = 0;  ///< Encrypted input (live throughout).
  uint64_t OutputBytes = 0; ///< Encrypted output.
  uint64_t PeakBytes = 0;   ///< max over nodes of PeakBytes.
  uint64_t PeakLiveCtBytes = 0;  ///< Live-ciphertext share at the peak.
  uint64_t PeakScratchBytes = 0; ///< Scratch share at the peak.
  int PeakNodeId = -1;           ///< Node owning the peak.
  /// RNS: resident key material makeRnsBackend generates (reported
  /// beside the per-inference peak, not inside it).
  uint64_t KeyBytes = 0;
  std::string PeakLabel;
  std::vector<FootprintNodeReport> PerNode;

  /// The K layers with the largest peak bytes, worst first.
  std::vector<FootprintNodeReport> hotspots(size_t K = 3) const;
  FootprintSummary summary() const {
    return {true,       PeakBytes,  PeakLiveCtBytes, PeakScratchBytes,
            InputBytes, OutputBytes, KeyBytes};
  }
  std::string str() const;
};

/// Runs the full analysis of \p Circ as compiled by \p Compiled.
/// Value-agnostic and cheap (no encryption, no slot vectors); safe to
/// run on every compile.
FootprintReport analyzeFootprint(const TensorCircuit &Circ,
                                 const CompiledCircuit &Compiled,
                                 const FootprintAnalysisOptions &Options = {});

} // namespace chet

#endif // CHET_CORE_FOOTPRINTANALYSIS_H
