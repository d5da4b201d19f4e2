//===- bench_session_overhead.cpp - Checkpointed-session cost and soak ----===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two jobs in one binary, mirroring bench_rotation_hoisting's shape:
///
///  1. A chaos-soak correctness gate (always runs; the only thing that
///     runs under --check-only): on both CKKS schemes, at 1 and 8
///     threads, with checkpointing off and on, a seeded fault schedule
///     (transient op failures plus a mid-circuit simulated crash) is
///     driven into a checkpointed InferenceSession and the recovered
///     output is compared -- serialized ciphertext bytes -- against the
///     fault-free run, whose decrypted output must match the plain
///     reference (argmax and 5e-3 absolute; the tiny circuit runs at the
///     2^30/2^16 serving scales). Any divergence aborts with exit 1. The
///     gate also asserts the default checkpoint policy costs < 10% wall
///     clock over an uncheckpointed session.
///
///  2. A timing sweep (without --check-only): checkpoint-off /
///     every-node / every-4-nodes session modes over LeNet workloads,
///     reporting wall clock, checkpoint counts/bytes/seconds, and the
///     overhead relative to checkpoint-off, as a table and as JSON lines.
///
/// Usage: bench_session_overhead [--threads N] [--json FILE] [--check-only]
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ckks/Serialization.h"
#include "hisa/FaultInjectionBackend.h"
#include "hisa/IntegrityBackend.h"
#include "runtime/Session.h"
#include "support/Prng.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

using namespace chet;
using namespace chet::bench;

namespace {

/// The small conv -> act -> pool -> FC circuit the session tests use:
/// fast under real encryption, still exercises every kernel family.
TensorCircuit tinyCircuit(uint64_t Seed = 50) {
  Prng Rng(Seed);
  TensorCircuit Circ("session-tiny");
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Rng.nextDouble(-0.5, 0.5);
  FcWeights Fc(4, 2 * 4 * 4);
  for (double &V : Fc.W)
    V = Rng.nextDouble(-0.3, 0.3);
  int X = Circ.input(1, 8, 8);
  X = Circ.conv2d(X, Conv, 1, 1);
  X = Circ.polyActivation(X, 0.25, 0.5);
  X = Circ.averagePool(X, 2, 2);
  X = Circ.fullyConnected(X, Fc);
  Circ.output(X);
  return Circ;
}

CompiledCircuit compileFor(const TensorCircuit &Circ, SchemeKind Scheme,
                           const ScaleConfig &Scales = servingScales()) {
  CompilerOptions O;
  O.Scheme = Scheme;
  O.Security = SecurityLevel::Classical128;
  O.Scales = Scales;
  return compileCircuit(Circ, O);
}

template <typename To, typename From>
CipherTensor<To> retag(CipherTensor<From> T) {
  static_assert(std::is_same_v<typename To::Ct, typename From::Ct>);
  CipherTensor<To> Out;
  Out.L = T.L;
  Out.Cts = std::move(T.Cts);
  return Out;
}

[[noreturn]] void failGate(const char *Scheme, unsigned Threads,
                           const char *Mode, const char *What) {
  std::fprintf(stderr,
               "bench_session_overhead: chaos-soak gate FAILED (%s, "
               "threads=%u, checkpoint %s): %s\n",
               Scheme, Threads, Mode, What);
  std::exit(1);
}

/// Chaos-soak gate for one scheme: fault-free reference, then seeded
/// transient + crash schedules with checkpointing off and on, at 1 and 8
/// threads, all byte-compared against the reference.
template <typename SchemeT, typename MakeFn>
void chaosGate(const TensorCircuit &Circ, const CompiledCircuit &C,
               MakeFn Make, const char *Scheme) {
  using IB = IntegrityBackend<SchemeT>;
  using FB = FaultInjectionBackend<IB>;
  Tensor3 Image = randomImageFor(Circ, 777);

  setGlobalThreadCount(1);
  std::vector<ByteBuffer> Ref;
  {
    SchemeT Raw = Make();
    IB Integ(Raw);
    TensorLayout L = circuitInputLayout(Circ, C.Policy, Integ.slotCount());
    auto Enc = encryptTensor(Integ, Image, L, C.Scales);
    auto Out = evaluateCircuit(Integ, Circ, Enc, C.Scales, C.Policy);
    requirePlainAgreement("bench_session_overhead", Circ, Image,
                          decryptTensor(Integ, Out));
    for (const auto &Ct : Out.Cts)
      Ref.push_back(serialize(Ct));
  }

  // Probe the clean homomorphic op count so the crash lands late.
  long TotalOps;
  {
    SchemeT Raw = Make();
    IB Integ(Raw);
    FB Chaos(Integ, FaultPlan{});
    TensorLayout L = circuitInputLayout(Circ, C.Policy, Chaos.slotCount());
    auto Enc = retag<FB>(encryptTensor(Integ, Image, L, C.Scales));
    InferenceSession<FB> Sess(Chaos, Circ, SessionConfig{});
    (void)Sess.run(Enc, C.Scales, C.Policy);
    TotalOps = Chaos.stats().OpsSeen;
  }

  FaultPlan Plan;
  Plan.Seed = 0x50a4;
  Plan.TransientRate = 0.004;
  Plan.MaxTransientFaults = 2;
  Plan.CrashAtOps = {(TotalOps * 3) / 4};

  for (unsigned Threads : {1u, 8u}) {
    for (bool Checkpointed : {false, true}) {
      setGlobalThreadCount(Threads);
      const char *Mode = Checkpointed ? "on" : "off";
      MemoryCheckpointStore Store;
      SessionConfig Cfg;
      if (Checkpointed) {
        Cfg.Checkpoint = CheckpointPolicy::everyN(2);
        Cfg.Store = &Store;
      }
      Cfg.Retry.BackoffBaseSeconds = 1e-6;
      SchemeT Raw = Make();
      IB Integ(Raw);
      FB Chaos(Integ, Plan);
      TensorLayout L = circuitInputLayout(Circ, C.Policy, Chaos.slotCount());
      auto Enc = retag<FB>(encryptTensor(Integ, Image, L, C.Scales));
      InferenceSession<FB> Sess(Chaos, Circ, Cfg);
      auto Out = Sess.run(Enc, C.Scales, C.Policy);
      if (Out.Cts.size() != Ref.size())
        failGate(Scheme, Threads, Mode, "output ciphertext count differs");
      for (size_t I = 0; I < Ref.size(); ++I)
        if (serialize(Out.Cts[I]) != Ref[I])
          failGate(Scheme, Threads, Mode,
                   "recovered output != fault-free bytes");
      if (Chaos.stats().Crashes < 1)
        failGate(Scheme, Threads, Mode, "scheduled crash never fired");
      if (Sess.report().Restarts < 1)
        failGate(Scheme, Threads, Mode, "session never restarted");
      if (Checkpointed && Sess.report().CheckpointsRestored < 1)
        failGate(Scheme, Threads, Mode, "checkpoint never restored");
    }
  }
  setGlobalThreadCount(0);
}

/// Wall clock of one session run under \p Policy; best of \p Repeats.
double timedSession(RnsCkksBackend &Backend, const TensorCircuit &Circ,
                    const CompiledCircuit &C,
                    const CipherTensor<RnsCkksBackend> &Enc,
                    CheckpointPolicy Policy, MemoryCheckpointStore *Store,
                    int Repeats, SessionReport *RepOut = nullptr) {
  double Best = 1e300;
  for (int R = 0; R < Repeats; ++R) {
    if (Store)
      Store->clear();
    SessionConfig Cfg;
    Cfg.Checkpoint = Policy;
    Cfg.Store = Store;
    InferenceSession<RnsCkksBackend> Sess(Backend, Circ, Cfg);
    Timer T;
    (void)Sess.run(Enc, C.Scales, C.Policy);
    Best = std::min(Best, T.seconds());
    if (RepOut)
      *RepOut = Sess.report();
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Threads = applyThreadsFlag(Argc, Argv);
  std::string JsonPath = stripJsonFlag(Argc, Argv);
  bool CheckOnly = false;
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--check-only"))
      CheckOnly = true;

  TensorCircuit Tiny = tinyCircuit();

  // --- Gate 1: chaos-soak byte identity, both schemes. ---
  {
    CompiledCircuit RC = compileFor(Tiny, SchemeKind::RnsCkks);
    chaosGate<RnsCkksBackend>(
        Tiny, RC, [&] { return makeRnsBackend(RC, 991); }, "rns-ckks");
    CompiledCircuit BC = compileFor(Tiny, SchemeKind::BigCkks);
    chaosGate<BigCkksBackend>(
        Tiny, BC, [&] { return makeBigBackend(BC, 991); }, "big-ckks");
  }
  std::printf("chaos-soak gate passed: recovered outputs byte-identical "
              "to fault-free runs (both schemes, threads {1,8}, "
              "checkpointing {off,on})\n");

  // --- Gate 2: default checkpoint policy costs < 10% wall clock. ---
  double BaseSec, CkptSec;
  SessionReport CkptRep;
  {
    setGlobalThreadCount(Threads);
    CompiledCircuit C = compileFor(Tiny, SchemeKind::RnsCkks);
    RnsCkksBackend Backend = makeRnsBackend(C, 991);
    TensorLayout L = circuitInputLayout(Tiny, C.Policy, Backend.slotCount());
    Tensor3 Image = randomImageFor(Tiny, 778);
    auto Enc = encryptTensor(Backend, Image, L, C.Scales);
    MemoryCheckpointStore Store;
    BaseSec = timedSession(Backend, Tiny, C, Enc, CheckpointPolicy::off(),
                           nullptr, /*Repeats=*/3);
    CkptSec = timedSession(Backend, Tiny, C, Enc,
                           CheckpointPolicy::everyN(CheckpointPolicy{}.N),
                           &Store, /*Repeats=*/3, &CkptRep);
  }
  double OverheadPct = 100.0 * (CkptSec - BaseSec) / BaseSec;
  std::printf("default checkpoint policy (every %d nodes): %.3fs vs %.3fs "
              "uncheckpointed -> %.1f%% overhead (%d checkpoints, %llu "
              "bytes)\n",
              CheckpointPolicy{}.N, CkptSec, BaseSec, OverheadPct,
              CkptRep.CheckpointsTaken,
              static_cast<unsigned long long>(CkptRep.CheckpointBytes));
  if (OverheadPct >= 10.0) {
    std::fprintf(stderr,
                 "bench_session_overhead: FAIL: default checkpoint policy "
                 "costs %.1f%% (budget: <10%%)\n",
                 OverheadPct);
    return 1;
  }
  if (CheckOnly)
    return 0;

  // --- Timing sweep: checkpoint modes over LeNet workloads. ---
  printHeader("Checkpointed-session overhead (RNS-CKKS)");
  std::printf("threads=%u   (wall seconds, best of 2; overhead vs "
              "checkpoint-off)\n\n",
              Threads);
  std::printf("%-18s %-12s %10s %10s %8s %12s %10s\n", "network", "mode",
              "wall (s)", "ckpt (s)", "count", "bytes", "overhead");

  // Timing only: LeNet keeps the fast-mode scales, whose outputs are not
  // checked here.
  struct Workload {
    std::string Label;
    TensorCircuit Circ;
    ScaleConfig Scales;
  };
  std::vector<Workload> Workloads;
  Workloads.push_back({"tiny", Tiny, servingScales()});
  Workloads.push_back(
      {"LeNet-5-small(1/8)", makeLeNet5Small(8), benchScales()});

  for (Workload &W : Workloads) {
    setGlobalThreadCount(Threads);
    CompiledCircuit C = compileFor(W.Circ, SchemeKind::RnsCkks, W.Scales);
    RnsCkksBackend Backend = makeRnsBackend(C, 991);
    TensorLayout L =
        circuitInputLayout(W.Circ, C.Policy, Backend.slotCount());
    Tensor3 Image = randomImageFor(W.Circ, 779);
    auto Enc = encryptTensor(Backend, Image, L, C.Scales);
    MemoryCheckpointStore Store;

    struct ModeSpec {
      const char *Name;
      CheckpointPolicy Policy;
      bool Stored;
    };
    const ModeSpec Modes[] = {
        {"off", CheckpointPolicy::off(), false},
        {"every-node", CheckpointPolicy::everyNode(), true},
        {"every-4", CheckpointPolicy::everyN(4), true},
    };
    double OffSec = 0;
    for (const ModeSpec &M : Modes) {
      SessionReport Rep;
      double Sec =
          timedSession(Backend, W.Circ, C, Enc, M.Policy,
                       M.Stored ? &Store : nullptr, /*Repeats=*/2, &Rep);
      if (!M.Stored)
        OffSec = Sec;
      double Pct = OffSec > 0 ? 100.0 * (Sec - OffSec) / OffSec : 0.0;
      std::printf("%-18s %-12s %10.3f %10.3f %8d %12llu %9.1f%%\n",
                  W.Label.c_str(), M.Name, Sec, Rep.CheckpointSeconds,
                  Rep.CheckpointsTaken,
                  static_cast<unsigned long long>(Rep.CheckpointBytes), Pct);
      std::ostringstream JS;
      JS << "{\"bench\":\"session_overhead\",\"scheme\":\"rns-ckks\""
         << ",\"net\":\"" << W.Label << "\",\"mode\":\"" << M.Name
         << "\",\"threads\":" << Threads << ",\"wall_s\":" << Sec
         << ",\"checkpoint_s\":" << Rep.CheckpointSeconds
         << ",\"checkpoints\":" << Rep.CheckpointsTaken
         << ",\"checkpoint_bytes\":" << Rep.CheckpointBytes
         << ",\"overhead_pct\":" << Pct << "}";
      appendLine(JsonPath, JS.str());
    }
  }
  if (!JsonPath.empty())
    std::printf("appended JSON lines to %s\n", JsonPath.c_str());
  return 0;
}
