//===- CompileZoo.cpp - Workload compile_zoo -------------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles all five zoo networks at paper size (Reduction 1) for both
/// CKKS schemes at 128-bit security, with the default verify, noise and
/// footprint passes, over and over. Pure compiler work: no keys and no
/// ciphertexts. After the timed passes, every compiled artifact of the
/// last pass is checked for three properties the compiler promises:
///   - the chosen layout policy has the lowest EstimatedCost of PerPolicy;
///   - log(QP) fits the HE-standard 128-bit budget for the chosen N;
///   - every rotation amount a plain-backend run of the circuit under the
///     chosen policy issues has a key in RotationKeys.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Layers.h"
#include "Observer.h"

#include "hisa/PlainBackend.h"
#include "nn/Networks.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>

using namespace chet;

namespace e2e {
namespace {

constexpr unsigned Threads = 4;

/// Largest log2(Q*P) at 128-bit classical security for a ternary secret,
/// as tabulated by the Homomorphic Encryption Security Standard (Chase et
/// al., 2018) for N = 2^10 .. 2^15. The standard stops at 2^15; for 2^16
/// the benchmark takes twice the 2^15 figure, the doubling every row of
/// the table follows (27, 54, 109, 218, 438, 881).
int heStandardMaxLogQP(int LogN) {
  switch (LogN) {
  case 10:
    return 27;
  case 11:
    return 54;
  case 12:
    return 109;
  case 13:
    return 218;
  case 14:
    return 438;
  case 15:
    return 881;
  case 16:
    return 2 * 881;
  default:
    return 0;
  }
}

struct Job {
  const TensorCircuit *Circ;
  CompilerOptions Options;
};

/// The rotation amounts (normalized to [1, Slots-1]) a plain run of the
/// compiled circuit issues.
std::set<int> rotationsOfPlainRun(const TensorCircuit &Circ,
                                  const CompiledCircuit &C) {
  PlainBackend Plain(C.LogN);
  int Slots = static_cast<int>(Plain.slotCount());
  std::mutex Mu;
  std::set<int> Amounts;
  Observer<PlainBackend> Rec(Plain, {nullptr, [&](int Steps) {
                                       int A = ((Steps % Slots) + Slots) %
                                               Slots;
                                       std::lock_guard<std::mutex> L(Mu);
                                       if (A)
                                         Amounts.insert(A);
                                     }});
  const OpNode &In = Circ.ops().front();
  TensorLayout L = circuitInputLayout(Circ, C.Policy, Rec.slotCount());
  auto Enc = encryptTensor(Rec, Tensor3(In.C, In.H, In.W), L, C.Scales);
  (void)evaluateCircuit(Rec, Circ, Enc, C.Scales, C.Policy);
  return Amounts;
}

void checkProperties(Run &R, const Job &J, const CompiledCircuit &C) {
  std::string What = J.Circ->name() + " (" + schemeName(J.Options.Scheme) +
                     ")";
  double Cheapest = INFINITY;
  for (const PolicyAnalysis &P : C.PerPolicy)
    Cheapest = std::min(Cheapest, P.EstimatedCost);
  if (!(C.EstimatedCost <= Cheapest))
    R.fail(What + ": chosen policy " + layoutPolicyName(C.Policy) +
           " costs " + std::to_string(C.EstimatedCost) +
           ", another policy costs " + std::to_string(Cheapest));

  double LogQP = C.Rns ? C.Rns->logQP() : C.Big->logQP();
  int Limit = heStandardMaxLogQP(C.LogN);
  if (!(LogQP <= Limit))
    R.fail(What + ": logQP " + std::to_string(LogQP) + " at N = 2^" +
           std::to_string(C.LogN) + " exceeds the HE-standard limit " +
           std::to_string(Limit));

  int Slots = 1 << (C.LogN - 1);
  std::set<int> Keys;
  for (int K : C.RotationKeys)
    Keys.insert(((K % Slots) + Slots) % Slots);
  std::set<int> Used = rotationsOfPlainRun(*J.Circ, C);
  for (int A : Used)
    if (!Keys.count(A)) {
      R.fail(What + ": the plain run rotates by " + std::to_string(A) +
             " but RotationKeys has no key for it");
      break;
    }
  std::fprintf(stderr,
               "compile_zoo: %s: N=2^%d logQP=%.1f (limit %d) policy %s, "
               "%zu keys cover %zu used amounts\n",
               What.c_str(), C.LogN, LogQP, Limit,
               layoutPolicyName(C.Policy), Keys.size(), Used.size());
}

/// Compiles every job once; returns the pass's wall time, or a negative
/// value when a compile threw.
double compilePass(Run &R, const std::vector<Job> &Jobs,
                   std::vector<CompiledCircuit> &Out, int Parent) {
  Out.assign(Jobs.size(), {});
  bool Ok = true;
  double Start = sinceStart();
  for (size_t I = 0; I < Jobs.size(); ++I) {
    ++R.Attempted;
    SpanScope S(R, "compile:" + Jobs[I].Circ->name() + ":" +
                       schemeName(Jobs[I].Options.Scheme),
                Parent);
    try {
      Out[I] = compileCircuit(*Jobs[I].Circ, Jobs[I].Options);
    } catch (const ChetError &E) {
      ++R.Failed;
      Ok = false;
      std::fprintf(stderr, "compile_zoo: %s failed: %s\n",
                   Jobs[I].Circ->name().c_str(), E.what());
    }
  }
  double Seconds = sinceStart() - Start;
  return Ok ? Seconds : -1;
}

} // namespace

void runCompileZoo(Run &R) {
  const RunOptions &O = R.options();
  setGlobalThreadCount(Threads);

  std::vector<TensorCircuit> Zoo;
  {
    SpanScope S(R, "build_zoo");
    for (const NetworkEntry &E : networkZoo())
      Zoo.push_back(E.Build(1));
  }
  std::vector<Job> Jobs;
  for (const TensorCircuit &Circ : Zoo)
    for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
      Job J{&Circ, {}};
      J.Options.Scheme = Scheme;
      J.Options.Security = SecurityLevel::Classical128;
      // The bench harness's fast-mode scales: the largest power-of-two
      // scales at which all ten paper-size compiles fit 128-bit security.
      J.Options.Scales = ScaleConfig::fromExponents(25, 25, 25, 12);
      Jobs.push_back(J);
    }
  double Setup = sinceStart();

  std::vector<CompiledCircuit> Compiled;
  std::vector<double> Passes;
  double Start = sinceStart();
  do {
    double T = compilePass(R, Jobs, Compiled, -1);
    if (T > 0)
      Passes.push_back(T);
  } while (sinceStart() - Start < O.Seconds);
  // Compilation is single-threaded; the property checks below run plain
  // evaluations on the thread pool, so the peak is read before them.
  double PeakRss = peakRssMb();

  if (R.traced()) {
    int Span = R.beginSpan("traced_pass");
    double Traced = compilePass(R, Jobs, Compiled, Span);
    R.endSpan(Span);
    CoreTimes Core;
    for (size_t I = 0; I < Jobs.size(); ++I)
      if (Compiled[I].LogN)
        Core.add(R, *Jobs[I].Circ, Jobs[I].Options, Compiled[I]);
    Core.report(R);
    R.metric("trace.overhead", Traced / median(Passes));
  }

  for (size_t I = 0; I < Jobs.size(); ++I)
    if (Compiled[I].LogN)
      checkProperties(R, Jobs[I], Compiled[I]);

  if (!R.traced()) {
    R.metric("setup_s", Setup);
    R.metric("op_p50_s", median(Passes));
    R.metric("ops_per_s", Passes.empty() ? 0 : Passes.size() / sum(Passes));
    R.metric("peak_rss_mb", PeakRss);
  }
}

} // namespace e2e
