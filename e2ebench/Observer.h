//===- Observer.h - HISA pass-through adapter with hooks -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forwards every HISA instruction to an inner backend unchanged and tells
/// two optional hooks what went by: each tensor-circuit node boundary
/// (the evaluator's beginNode call) and each rotation amount. The traced
/// lenet_client run uses the node hook to time every LeNet layer; the
/// compile_zoo property check uses the rotation hook to collect the
/// amounts a plain run issues. The benchmark observes the program from
/// outside, so this adapter lives here and not in src/hisa.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_E2EBENCH_OBSERVER_H
#define CHET_E2EBENCH_OBSERVER_H

#include "hisa/Hisa.h"

#include <functional>
#include <string>
#include <vector>

namespace e2e {

template <chet::HisaBackend B> class Observer {
public:
  using Ct = typename B::Ct;
  using Pt = typename B::Pt;

  struct Hooks {
    /// Called from the evaluator's thread before each node's kernel.
    std::function<void(int, const std::string &)> Node;
    /// Called with each rotation amount (left positive), possibly from
    /// several kernel threads at once.
    std::function<void(int)> Rotation;
  };

  Observer(B &Inner, Hooks H) : Inner(&Inner), H(std::move(H)) {}

  void beginNode(int NodeId, const std::string &Label) const {
    if (H.Node)
      H.Node(NodeId, Label);
    if constexpr (chet::HisaProvenanceSink<B>)
      Inner->beginNode(NodeId, Label);
  }

  size_t slotCount() const { return Inner->slotCount(); }
  Pt encode(const std::vector<double> &V, double Scale) const {
    return Inner->encode(V, Scale);
  }
  std::vector<double> decode(const Pt &P) const { return Inner->decode(P); }
  Ct encrypt(const Pt &P) const { return Inner->encrypt(P); }
  Pt decrypt(const Ct &C) const { return Inner->decrypt(C); }
  Ct copy(const Ct &C) const { return Inner->copy(C); }
  void freeCt(Ct &C) const { Inner->freeCt(C); }

  void rotLeftAssign(Ct &C, int Steps) const {
    rotated(Steps);
    Inner->rotLeftAssign(C, Steps);
  }
  void rotRightAssign(Ct &C, int Steps) const {
    rotated(-Steps);
    Inner->rotRightAssign(C, Steps);
  }
  std::vector<Ct> rotLeftMany(const Ct &C,
                              const std::vector<int> &Steps) const
    requires chet::BackendHasRotLeftMany<B>
  {
    for (int S : Steps)
      rotated(S);
    return Inner->rotLeftMany(C, Steps);
  }

  void addAssign(Ct &C, const Ct &O) const { Inner->addAssign(C, O); }
  void subAssign(Ct &C, const Ct &O) const { Inner->subAssign(C, O); }
  void addPlainAssign(Ct &C, const Pt &P) const {
    Inner->addPlainAssign(C, P);
  }
  void subPlainAssign(Ct &C, const Pt &P) const {
    Inner->subPlainAssign(C, P);
  }
  void addScalarAssign(Ct &C, double X) const { Inner->addScalarAssign(C, X); }
  void subScalarAssign(Ct &C, double X) const { Inner->subScalarAssign(C, X); }
  void mulAssign(Ct &C, const Ct &O) const { Inner->mulAssign(C, O); }
  void mulPlainAssign(Ct &C, const Pt &P) const {
    Inner->mulPlainAssign(C, P);
  }
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) const {
    Inner->mulScalarAssign(C, X, Scale);
  }
  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const {
    return Inner->maxRescale(C, UpperBound);
  }
  void rescaleAssign(Ct &C, uint64_t Divisor) const {
    Inner->rescaleAssign(C, Divisor);
  }
  double scaleOf(const Ct &C) const { return Inner->scaleOf(C); }

private:
  void rotated(int Steps) const {
    if (H.Rotation)
      H.Rotation(Steps);
  }

  B *Inner;
  Hooks H;
};

} // namespace e2e

namespace chet {
/// Kernels may run an Observer's instructions in parallel exactly when
/// they may run the inner backend's.
template <HisaBackend B>
inline constexpr bool BackendSupportsParallelKernels<e2e::Observer<B>> =
    BackendSupportsParallelKernels<B>;
} // namespace chet

#endif // CHET_E2EBENCH_OBSERVER_H
