//===- test_key_switching.cpp - Hybrid and level-aware key switching ------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hybrid RNS key switching (dnum digits under a k-prime special modulus)
/// and level-aware keys: the per-prime layout reproduces the classic
/// single-special-prime ciphertexts byte for byte (golden hash), every
/// layout decrypts within the static key-switch noise bound, the hoisted
/// and naive rotation paths agree at any thread count and with the limb
/// pool off, keys truncated to a level refuse higher levels with a typed
/// error, and the compiler picks the expected layout for LeNet.
///
//===----------------------------------------------------------------------===//

#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "core/Compiler.h"
#include "core/CostModel.h"
#include "nn/Networks.h"
#include "support/Error.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace chet;

namespace {

struct PoolGuard {
  bool WasEnabled = LimbPool::instance().enabled();
  ~PoolGuard() {
    LimbPool::instance().setEnabled(WasEnabled);
    setGlobalThreadCount(0);
  }
};

uint64_t fnv(uint64_t H, const ByteBuffer &B) {
  for (uint8_t C : B) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::vector<double> wave(size_t N, double Freq, double Amp) {
  std::vector<double> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = Amp * std::sin(Freq * static_cast<double>(I) + 0.3);
  return V;
}

/// Six-prime chain (60 + 5 x 40 bits) with the requested digit bounds
/// under just enough 60-bit special primes to cover the widest digit.
RnsCkksParams layoutParams(std::vector<uint32_t> Bounds, int Specials) {
  RnsCkksParams P = RnsCkksParams::create(12, 5, 60, 40, SecurityLevel::None);
  P.StockPow2Keys = false;
  P.Seed = 0x4b5;
  P.SpecialPrimes =
      RnsCkksParams::candidateSpecials(Specials, 60, P.ChainPrimes);
  P.DigitBounds = std::move(Bounds);
  return P;
}

RnsCkksParams hybridParams() { return layoutParams({0, 3, 6}, 3); }

/// Serialized relinearized, rotated and hoisted-rotated ciphertexts over
/// one backend, concatenated.
std::vector<ByteBuffer> keySwitchOutputs(const RnsCkksParams &P,
                                         bool Hoisting) {
  RnsCkksBackend B(P);
  B.setRotationHoisting(Hoisting);
  B.generateRotationKeys({1, 3, -2, 5});
  double S = std::ldexp(1.0, 40);
  auto X = B.encrypt(B.encode(wave(B.slotCount(), 0.01, 1.0), S));
  auto Y = B.encrypt(B.encode(wave(B.slotCount(), 0.02, 0.5), S));
  std::vector<ByteBuffer> Out;
  auto M = X;
  B.mulAssign(M, Y);
  Out.push_back(serialize(M));
  for (const auto &O : B.rotLeftMany(X, {1, 3, -2, 5, 0}))
    Out.push_back(serialize(O));
  B.rescaleAssign(M, B.maxRescale(M, uint64_t(1) << 41));
  for (const auto &O : B.rotLeftMany(M, {3, 5}))
    Out.push_back(serialize(O));
  B.rotLeftAssign(M, -2);
  Out.push_back(serialize(M));
  return Out;
}

} // namespace

TEST(KeySwitching, PerPrimeLayoutMatchesTheGoldenCiphertexts) {
  // Recorded from the single-special-prime implementation this hybrid
  // path generalizes: one prime per digit must reproduce it bit for bit.
  PoolGuard Guard;
  RnsCkksParams P = RnsCkksParams::create(12, 3, 60, 40, SecurityLevel::None);
  P.StockPow2Keys = false;
  P.Seed = 0x901d;
  for (unsigned Threads : {1u, 4u}) {
    setGlobalThreadCount(Threads);
    RnsCkksBackend B(P);
    B.generateRotationKeys({1, 3, -2, 5});
    std::vector<double> X(B.slotCount()), Y(B.slotCount());
    for (size_t I = 0; I < X.size(); ++I) {
      X[I] = std::sin(0.01 * double(I));
      Y[I] = std::cos(0.02 * double(I)) * 0.5;
    }
    double S = std::ldexp(1.0, 40);
    auto CX = B.encrypt(B.encode(X, S));
    auto CY = B.encrypt(B.encode(Y, S));
    uint64_t H = 0xcbf29ce484222325ULL;
    auto M = CX;
    B.mulAssign(M, CY);
    H = fnv(H, serialize(M));
    auto R = CX;
    B.rotLeftAssign(R, 3);
    H = fnv(H, serialize(R));
    for (const auto &O : B.rotLeftMany(CX, {1, 3, -2, 5, 0}))
      H = fnv(H, serialize(O));
    auto L = M;
    B.rescaleAssign(L, B.maxRescale(L, uint64_t(1) << 41));
    B.rotLeftAssign(L, -2);
    H = fnv(H, serialize(L));
    B.mulAssign(L, L);
    H = fnv(H, serialize(L));
    EXPECT_EQ(H, 0x9d4130fac499571aULL) << Threads << " threads";
  }
}

TEST(KeySwitching, EveryDigitCountDecryptsWithinTheStaticNoiseBound) {
  struct Layout {
    std::vector<uint32_t> Bounds;
    int Specials;
  };
  // dnum = 1 (P covers all 260 bits), 2 and 3.
  for (const Layout &Lay : {Layout{{0, 6}, 5}, Layout{{0, 3, 6}, 3},
                            Layout{{0, 2, 4, 6}, 2}}) {
    RnsCkksParams P = layoutParams(Lay.Bounds, Lay.Specials);
    RnsCkksBackend B(P);
    B.generateRotationKeys({7});
    NoiseModel Model =
        NoiseModel::create(SchemeKind::RnsCkks, P.LogN, P.ChainPrimes,
                           P.SpecialPrimes, P.DigitBounds, 0);
    const size_t Slots = B.slotCount();
    const double S = std::ldexp(1.0, 40);
    std::vector<double> X = wave(Slots, 0.013, 1.0);
    std::vector<double> Y = wave(Slots, 0.007, 0.8);
    auto CX = B.encrypt(B.encode(X, S));
    auto CY = B.encrypt(B.encode(Y, S));

    // Rotation: fresh noise plus one key switch, in slot units at S.
    auto R = CX;
    B.rotLeftAssign(R, 7);
    std::vector<double> Got = B.decode(B.decrypt(R));
    double RotErr = 0;
    for (size_t I = 0; I < Slots; ++I)
      RotErr = std::max(RotErr, std::fabs(Got[I] - X[(I + 7) % Slots]));
    EXPECT_LE(RotErr * S, Model.freshNoise() + Model.keySwitchNoise())
        << "dnum " << P.digitCount();

    // Relinearization at scale S^2: cross terms of the two fresh noises,
    // their product, and one key switch.
    auto M = CX;
    B.mulAssign(M, CY);
    Got = B.decode(B.decrypt(M));
    double MulErr = 0;
    for (size_t I = 0; I < Slots; ++I)
      MulErr = std::max(MulErr, std::fabs(Got[I] - X[I] * Y[I]));
    double Fresh = Model.freshNoise();
    EXPECT_LE(MulErr * S * S,
              2 * Fresh * S + Fresh * Fresh + Model.keySwitchNoise())
        << "dnum " << P.digitCount();
    EXPECT_GT(RotErr, 0.0);
  }
}

TEST(KeySwitching, HybridHoistedMatchesNaiveAtEveryThreadCountAndPoolMode) {
  PoolGuard Guard;
  RnsCkksParams P = hybridParams();
  setGlobalThreadCount(1);
  LimbPool::instance().setEnabled(true);
  std::vector<ByteBuffer> Ref = keySwitchOutputs(P, /*Hoisting=*/true);
  EXPECT_EQ(keySwitchOutputs(P, /*Hoisting=*/false), Ref)
      << "hoisted and per-rotation paths diverge";
  for (unsigned Threads : {2u, 8u}) {
    setGlobalThreadCount(Threads);
    EXPECT_EQ(keySwitchOutputs(P, true), Ref) << Threads << " threads";
  }
  LimbPool::instance().setEnabled(false);
  for (unsigned Threads : {1u, 8u}) {
    setGlobalThreadCount(Threads);
    EXPECT_EQ(keySwitchOutputs(P, true), Ref)
        << "unpooled reference kernels at " << Threads << " threads";
  }
}

TEST(KeySwitching, KeysTruncatedToALevelRefuseHigherLevels) {
  RnsCkksParams P = hybridParams();
  RnsCkksBackend B(P, /*RelinKeyLevel=*/2);
  B.generateRotationKeys({1, 4}, {2, 5});
  EXPECT_EQ(B.rotationKeyLevel(1), 2);
  EXPECT_EQ(B.rotationKeyLevel(4), 5);
  EXPECT_EQ(B.rotationKeyLevel(9), -1);
  EXPECT_EQ(B.relinKeyLevel(), 2);

  const size_t Slots = B.slotCount();
  const double S = std::ldexp(1.0, 40);
  std::vector<double> X = wave(Slots, 0.011, 1.0);
  auto C = B.encrypt(B.encode(X, S)); // level 5
  auto Untouched = C;
  auto expectMissingKey = [](auto &&Op, const char *What) {
    try {
      Op();
      ADD_FAILURE() << What << " ran above its key's level";
    } catch (const MissingRotationKeyError &E) {
      EXPECT_EQ(E.code(), ErrorCode::MissingRotationKey) << E.what();
    }
  };
  expectMissingKey([&] { B.rotLeftAssign(C, 1); }, "rotation");
  expectMissingKey([&] { (void)B.rotLeftMany(C, {4, 1}); }, "hoisted rotation");
  expectMissingKey([&] { B.mulAssign(C, C); }, "relinearization");
  EXPECT_EQ(C.C0, Untouched.C0) << "a refused key switch modified its input";
  EXPECT_EQ(C.C1, Untouched.C1);

  // The full-level key still serves level 5; the truncated ones serve
  // everything at or below their level.
  auto R4 = C;
  B.rotLeftAssign(R4, 4);
  while (C.Level > 2) {
    // Multiply by 1 at the next prime's scale and rescale it away: the
    // level drops, the scale stays.
    uint64_t Q = P.ChainPrimes[C.Level];
    B.mulScalarAssign(C, 1.0, Q);
    B.rescaleAssign(C, Q);
  }
  auto Sq = C;
  B.mulAssign(Sq, C);
  auto R1 = B.rotLeftMany(C, {1, 4});
  std::vector<double> Got = B.decode(B.decrypt(R1[0]));
  for (size_t I = 0; I < Slots; ++I)
    ASSERT_NEAR(Got[I], X[(I + 1) % Slots], 1e-6) << "slot " << I;
  Got = B.decode(B.decrypt(Sq));
  for (size_t I = 0; I < Slots; ++I)
    ASSERT_NEAR(Got[I], X[I] * X[I], 1e-6) << "slot " << I;
}

TEST(KeySwitching, CompilerPicksTheHybridLayoutForLeNet) {
  // LeNet-5-small(1/4) at 2^30 scales: N = 2^15 and a 19-prime chain
  // (q_0 of 60 bits plus 18 of 30 bits, logQ ~ 600) under an 881-bit
  // budget. Three digits (q0-q6, q7-q14, q15-q18) under four 60-bit
  // special primes is the fewest digits whose P fits.
  TensorCircuit Circ = makeLeNet5Small(4);
  CompilerOptions O;
  O.Scales = ScaleConfig::fromExponents(30, 30, 30, 16);
  CompiledCircuit C = compileCircuit(Circ, O);
  ASSERT_TRUE(C.Rns.has_value());
  EXPECT_EQ(C.LogN, 15);
  EXPECT_EQ(C.Rns->ChainPrimes.size(), 19u);
  EXPECT_EQ(C.Rns->digitCount(), 3u);
  EXPECT_EQ(C.Rns->SpecialPrimes.size(), 4u);
  EXPECT_EQ(C.Rns->DigitBounds, (std::vector<uint32_t>{0, 7, 15, 19}));
  EXPECT_LE(C.Rns->logQP(), 881.0);
  // Every selected key has a recorded level, none above the chain top,
  // and the relinearization key stops below it.
  EXPECT_EQ(C.RotationKeyLevels.size(), C.RotationKeys.size());
  for (int Step : C.RotationKeys) {
    ASSERT_TRUE(C.RotationKeyLevels.count(Step)) << Step;
    EXPECT_LE(C.RotationKeyLevels.at(Step), C.Rns->levels());
  }
  EXPECT_GE(C.RelinKeyLevel, 0);
  EXPECT_LT(C.RelinKeyLevel, C.Rns->levels());
}
