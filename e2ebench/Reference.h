//===- Reference.h - Independent plain reference and output checks -*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own double-precision model of a tensor circuit, written
/// from the layer definitions and sharing no code with the program's
/// reference engine (runtime/ReferenceOps, TensorCircuit::evaluatePlain):
/// a wrong kernel or a wrong reference in the program cannot make the
/// two agree by construction. It also generates the seeded input images
/// and checks a decrypted output against the reference.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_E2EBENCH_REFERENCE_H
#define CHET_E2EBENCH_REFERENCE_H

#include "core/Ir.h"

#include <cstdint>
#include <string>

namespace e2e {

/// Evaluates \p Circ on \p Image layer by layer (conv with stride and
/// zero padding, average and global-average pooling, polynomial
/// activation, fully connected, channel concatenation), accumulating in
/// long double.
chet::Tensor3 referenceForward(const chet::TensorCircuit &Circ,
                               const chet::Tensor3 &Image);

/// Largest minus second-largest output value.
double top2Margin(const chet::Tensor3 &Logits);

/// Index of the largest output value (lowest index on ties).
int argmaxOf(const chet::Tensor3 &Logits);

/// A seeded input image for \p Circ with values uniform in [-0.5, 0.5]
/// (the input range the compiler's noise analysis assumes). Image
/// \p Index of run seed \p Seed is a pure function of the two. Images
/// whose reference output has a top-2 margin below \p MinMargin are
/// redrawn, so an argmax comparison against the reference is decided by
/// the output error and not by a near-tie.
chet::Tensor3 seededImage(const chet::TensorCircuit &Circ, uint64_t Seed,
                          uint64_t Index, double MinMargin);

/// Compares a decrypted output with the reference. Returns "" when the
/// argmax agrees, the largest absolute error is at most \p Tolerance, and
/// also at most the compiler's static worst-case bound \p StaticBound;
/// otherwise a description of what failed. \p MaxErr receives the error.
std::string checkOutput(const chet::Tensor3 &Got, const chet::Tensor3 &Want,
                        double Tolerance, double StaticBound,
                        double &MaxErr);

} // namespace e2e

#endif // CHET_E2EBENCH_REFERENCE_H
