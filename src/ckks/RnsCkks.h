//===- RnsCkks.h - RNS-CKKS (SEAL-style) HISA backend ----------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch implementation of the RNS variant of the CKKS approximate
/// FHE scheme (Cheon-Han-Kim-Kim-Song, SAC 2018), the scheme SEAL v3.1
/// implements and one of CHET's two compilation targets. Implements the
/// full HISA of Table 2.
///
/// Representation. The ciphertext modulus is a chain of NTT-friendly
/// primes q_0 .. q_L; a ciphertext at level l holds two polynomials with
/// RNS components modulo q_0..q_l, kept in NTT (evaluation) form.
/// Rescaling divides by the last active prime and drops it (Section 2.2 of
/// the CHET paper: maxRescale returns the product of the next moduli in
/// the chain that fits under the requested bound).
///
/// Key switching is hybrid (Han-Ki): the chain primes are grouped into
/// dnum contiguous digits Q_0..Q_{dnum-1} (RnsCkksParams::DigitBounds)
/// and the special modulus P is a product of k primes
/// (RnsCkksParams::SpecialPrimes). The evaluation key for a target t is,
/// for each digit j, an RLWE sample (b_j, a_j) modulo Q*P with
/// b_j = -(a_j s) + e_j + P * T_j * t, where T_j is the CRT idempotent
/// of the digit (1 mod every prime of Q_j, 0 mod the other chain
/// primes). Switching a polynomial c at level l
///   - ModUp: extends each active digit [c]_{Q_j} from its own primes to
///     every modulus of Q_l * P by fast base conversion (the few extra
///     multiples of Q_j it admits are absorbed into the noise because
///     P covers every digit),
///   - takes the inner product sum_j ModUp_j(c) * (b_j, a_j), and
///   - ModDown: divides by P, subtracting the exact centred
///     representative of the accumulator modulo P.
/// Relinearization, single rotations and the hoisted rotLeftMany fan-out
/// share this one path; rotations apply the Galois automorphism as an
/// NTT-domain permutation of the extended basis. With one prime per
/// digit and one special prime this is exactly the classic GHS/SEAL
/// per-prime construction, and reproduces it bit for bit.
///
/// Keys are level-aware: a key generated for level lk holds only the
/// digits and moduli up to q_lk (plus P), so a key used only low in the
/// chain costs a fraction of a full one. Using a key above its level is
/// a typed MissingRotationKey error. The compiler picks the digit layout
/// under the security budget and the level of every key
/// (core/Compiler.h, DESIGN.md section 5k).
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CKKS_RNSCKKS_H
#define CHET_CKKS_RNSCKKS_H

#include "ckks/Encoder.h"
#include "ckks/SecurityTable.h"
#include "hisa/Hisa.h"
#include "math/Crt.h"
#include "math/KeySwitchLayout.h"
#include "math/Ntt.h"
#include "support/LimbPool.h"
#include "support/Prng.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace chet {

/// Parameters of an RNS-CKKS instantiation: the ring dimension, the
/// explicit prime chain the compiler selected, and the key-switching
/// layout (special primes and digit grouping).
struct RnsCkksParams {
  int LogN = 13;
  /// q_0 (a wide "base" prime) followed by the scaling primes q_1..q_L.
  std::vector<uint64_t> ChainPrimes;
  /// The primes of the key-switching modulus P (count toward the
  /// security budget); disjoint from the chain.
  std::vector<uint64_t> SpecialPrimes;
  /// Key-switching digit boundaries over ChainPrimes: digit d covers
  /// chain primes [DigitBounds[d], DigitBounds[d + 1]), so the list runs
  /// from 0 to ChainPrimes.size() strictly increasing. Empty means one
  /// digit per chain prime.
  std::vector<uint32_t> DigitBounds;
  SecurityLevel Security = SecurityLevel::Classical128;
  uint64_t Seed = 0x5ea1;
  /// Generate the default power-of-two rotation keys at construction.
  /// The compiler turns this off when it supplies an exact key set
  /// (Section 5.4), saving key-generation time and memory.
  bool StockPow2Keys = true;

  /// Returns the global pre-generated candidate modulus list the
  /// parameter-selection pass consumes (Section 5.2): one \p FirstBits
  /// base prime followed by \p Count - 1 scaling primes of \p ScaleBits
  /// bits, all NTT-friendly up to LogN = 16 so the same chain is usable at
  /// any smaller ring dimension.
  static std::vector<uint64_t> candidateChain(int Count, int FirstBits = 60,
                                              int ScaleBits = 40);

  /// The candidate special prime, disjoint from candidateChain results.
  static uint64_t candidateSpecial(int Bits = 60);

  /// \p Count special primes of \p Bits bits avoiding \p Chain; the
  /// first is candidateSpecial(Bits) whenever the chain came from
  /// candidateChain.
  static std::vector<uint64_t>
  candidateSpecials(int Count, int Bits, const std::vector<uint64_t> &Chain);

  /// Convenience constructor from the candidate lists, with the per-prime
  /// key-switching layout (one special prime, one digit per chain prime).
  static RnsCkksParams create(int LogN, int Levels, int FirstBits = 60,
                              int ScaleBits = 40,
                              SecurityLevel Security =
                                  SecurityLevel::Classical128);

  /// Bits of the full ciphertext modulus q_0..q_L (excluding P).
  double logQ() const;
  /// Bits of the special modulus P.
  double logP() const;
  /// Bits of the total modulus including every special prime.
  double logQP() const { return logQ() + logP(); }
  /// Number of rescale levels L (ChainPrimes.size() - 1).
  int levels() const { return static_cast<int>(ChainPrimes.size()) - 1; }
  /// The key-switching layout with DigitBounds spelled out (the
  /// per-prime layout when DigitBounds is empty).
  KeySwitchLayout keySwitchLayout() const;
  /// Number of key-switching digits.
  size_t digitCount() const {
    return DigitBounds.empty() ? ChainPrimes.size() : DigitBounds.size() - 1;
  }
  /// Empty when the special primes and digit bounds are well formed;
  /// otherwise says what is wrong (a missing special prime, one that is
  /// also a chain prime, digits that do not cover the chain in order, or
  /// an empty digit).
  std::string keySwitchLayoutError() const;

  /// Chooses the hybrid key-switching layout for this chain: the smallest
  /// digit count whose special modulus -- just enough \p SpecialBits-bit
  /// primes to cover the widest digit -- keeps logQP within \p MaxLogQP.
  /// Digits are filled greedily from q_0 by nominal bit width. Writes
  /// SpecialPrimes and DigitBounds and returns true, or returns false and
  /// leaves the parameters untouched when not even one special prime
  /// fits.
  bool selectKeySwitchLayout(double MaxLogQP, int SpecialBits = 60);
};

/// The RNS-CKKS scheme exposed through the HISA. Constructing an instance
/// generates a secret key, a public encryption key, a relinearization key,
/// and (by default) rotation keys for all power-of-two step counts -- the
/// stock key configuration CHET's rotation-key-selection pass improves on.
class RnsCkksBackend {
public:
  /// Ciphertext: two RNS/NTT-form polynomials plus level and scale.
  struct Ct {
    std::vector<uint64_t> C0, C1; ///< (Level+1) components of N words each.
    int Level = 0;
    double Scale = 1.0;
  };

  /// Plaintext: rounded integer coefficients (exact in doubles) plus a
  /// per-prime NTT cache filled lazily on first multiplication (servers
  /// encode model weights once; Section 3.2 keeps weights unencrypted).
  struct Pt {
    std::vector<double> Coeffs;
    double Scale = 1.0;
    struct Cache {
      std::vector<std::vector<uint64_t>> PerPrime;
      /// Per-prime publication flags: readers check Ready[J] (acquire)
      /// before touching PerPrime[J]; fillers serialize on FillMu. Keeps
      /// the lazy fill safe when ops sharing one Pt run on the pool.
      std::unique_ptr<std::atomic<bool>[]> Ready;
      std::mutex FillMu;
    };
    std::shared_ptr<Cache> NttCache;
  };

  /// \p RelinKeyLevel truncates the relinearization key to the digits
  /// and moduli up to that level (-1: the full chain).
  explicit RnsCkksBackend(const RnsCkksParams &Params,
                          int RelinKeyLevel = -1);

  //===--------------------------------------------------------------===//
  // HISA instructions (Table 2).
  //===--------------------------------------------------------------===//

  size_t slotCount() const { return Degree / 2; }
  Pt encode(const std::vector<double> &Values, double Scale) const;
  std::vector<double> decode(const Pt &P) const;
  Ct encrypt(const Pt &P);
  Pt decrypt(const Ct &C) const;
  Ct copy(const Ct &C) const { return C; }
  void freeCt(Ct &C) const;

  void rotLeftAssign(Ct &C, int Steps);
  void rotRightAssign(Ct &C, int Steps) { rotLeftAssign(C, -Steps); }

  /// Rotation fan-out (Halevi-Shoup hoisting): rotates \p C left by every
  /// amount in \p Steps, returning one ciphertext per amount in order.
  /// The key-switch digit decomposition and its per-modulus forward NTTs
  /// are computed once and shared across all amounts with a dedicated
  /// Galois key; each amount then only permutes the shared base in the
  /// NTT domain and runs the per-key inner product. Amounts of zero
  /// return copies; amounts without a dedicated key fall back to
  /// rotLeftAssign (power-of-two hop chains cannot share a base).
  /// Bit-identical to per-amount rotLeftAssign at any thread count.
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps);

  /// Disables/enables hoisting inside rotLeftMany (on by default); when
  /// off every amount runs the per-rotation path. Benchmarks use this to
  /// compare the two implementations over identical call sites.
  void setRotationHoisting(bool Enabled) { Hoisting = Enabled; }
  bool rotationHoisting() const { return Hoisting; }

  void addAssign(Ct &C, const Ct &Other) const;
  void subAssign(Ct &C, const Ct &Other) const;
  void addPlainAssign(Ct &C, const Pt &P) const;
  void subPlainAssign(Ct &C, const Pt &P) const;
  void addScalarAssign(Ct &C, double X) const;
  void subScalarAssign(Ct &C, double X) const { addScalarAssign(C, -X); }

  void mulAssign(Ct &C, const Ct &Other);
  void mulPlainAssign(Ct &C, const Pt &P) const;
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) const;

  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const;
  void rescaleAssign(Ct &C, uint64_t Divisor) const;
  double scaleOf(const Ct &C) const { return C.Scale; }

  //===--------------------------------------------------------------===//
  // Key management and introspection.
  //===--------------------------------------------------------------===//

  /// Generates full-level Galois keys for exactly these rotation steps
  /// (the output of CHET's rotation-key-selection pass, Section 5.4).
  void generateRotationKeys(const std::vector<int> &Steps);

  /// Level-aware variant: the key for Steps[i] covers only the digits and
  /// moduli up to level Levels[i] (the highest level the circuit rotates
  /// by that amount at). An empty \p Levels means full-level keys. A key
  /// that already exists is regenerated only if it is too short.
  void generateRotationKeys(const std::vector<int> &Steps,
                            const std::vector<int> &Levels);

  /// Drops every rotation key, including the default power-of-two set.
  /// Used by benchmarks to isolate key-set configurations.
  void clearRotationKeys();

  bool hasRotationKey(int Steps) const;

  /// Highest ciphertext level the Galois key for \p Steps serves, or -1
  /// when there is no such key.
  int rotationKeyLevel(int Steps) const;
  /// Highest ciphertext level the relinearization key serves.
  int relinKeyLevel() const { return RelinKey.Level; }

  /// Bytes of key material this instance holds: the secret key (ternary
  /// and per-modulus NTT forms), the public key, the relinearization key
  /// and every Galois key with its NTT-domain permutation table.
  uint64_t keyBytes() const;

  /// Number of rotation keys currently held.
  size_t rotationKeyCount() const { return GaloisKeys.size(); }

  /// The left-rotation steps (normalized to [1, slots-1]) a key exists
  /// for; reported by MissingRotationKey diagnostics.
  const std::set<int> &availableRotationSteps() const {
    return RotationSteps;
  }

  const RnsCkksParams &params() const { return Params; }
  const CkksEncoder &encoder() const { return Encoder; }
  int maxLevel() const { return static_cast<int>(ChainLen) - 1; }
  int levelOf(const Ct &C) const { return C.Level; }

  /// Running tally of number-theoretic transforms executed inside
  /// key-switching paths (relinearization and rotation), plus rotation
  /// hoisting activity. Profiling reads this to show where key-switch
  /// work went; counts are derived analytically at the call sites, so
  /// they cost nothing on the hot path.
  struct KeySwitchNttStats {
    uint64_t ForwardNtts = 0;
    uint64_t InverseNtts = 0;
    uint64_t Rotations = 0;      ///< single rotations served (incl. hops)
    uint64_t HoistedBatches = 0; ///< rotLeftMany calls that shared a base
    uint64_t HoistedAmounts = 0; ///< amounts served from a shared base
  };
  KeySwitchNttStats keySwitchNttStats() const;
  void resetKeySwitchNttStats();

private:
  struct KSwitchKey {
    /// Highest ciphertext level the key serves.
    int Level = -1;
    /// B[d] and A[d] hold, for each digit d active at Level, one N-word
    /// NTT polynomial per key row: chain primes q_0..q_Level, then the
    /// special primes.
    std::vector<std::vector<uint64_t>> B, A;
  };

  /// Global modulus index: chain primes 0..ChainLen-1, then the special
  /// primes ChainLen..ChainLen+SpecialLen-1.
  const Modulus &modAt(size_t J) const {
    return J < ChainLen ? ChainMods[J] : SpecialMods[J - ChainLen];
  }
  const NttTables &nttAt(size_t J) const {
    return J < ChainLen ? *ChainNtt[J] : *SpecialNtt[J - ChainLen];
  }

  std::vector<int8_t> sampleTernaryCoeffs();
  std::vector<int64_t> sampleErrorCoeffs();
  /// Reduces small signed coefficients modulo modulus \p J and transforms
  /// to NTT form, writing the Degree-word result into \p Out.
  void smallToNttInto(const int64_t *Coeffs, size_t J, uint64_t *Out) const;
  /// Vector-returning convenience over smallToNttInto (keygen paths).
  std::vector<uint64_t> smallToNtt(const std::vector<int64_t> &Coeffs,
                                   size_t J) const;
  std::vector<uint64_t> uniformNtt(size_t J);
  void uniformNttInto(size_t J, uint64_t *Out);

  /// Global modulus index of row \p Row of a key at \p Level.
  size_t keyRowModulus(size_t Row, int Level) const {
    size_t Chain = size_t(Level) + 1;
    return Row < Chain ? Row : ChainLen + (Row - Chain);
  }
  /// First chain prime of digit \p D / last chain prime + 1.
  size_t digitBegin(size_t D) const { return DigitBounds[D]; }
  size_t digitEnd(size_t D) const { return DigitBounds[D + 1]; }
  size_t activeDigits(int Level) const {
    return DigitOf[size_t(Level)] + 1;
  }

  /// Builds a key-switching key for the target polynomial \p Target
  /// given in NTT form per global modulus index (only the rows of a key
  /// at \p Level are read).
  KSwitchKey makeKSwitchKey(const std::vector<std::vector<uint64_t>> &Target,
                            int Level);
  /// Galois key for element \p Elt at \p Level (target sigma_Elt(s)).
  KSwitchKey makeGaloisKey(uint64_t Elt, int Level);

  /// The ModUp output of one polynomial at \p Level: for every active
  /// digit, one NTT-form limb per modulus of Q_l * P (chain rows 0..l,
  /// then the special primes). Rows inside the digit's own primes point
  /// at the caller's NTT-form input; the rest live in Storage.
  struct ExtendedBasis {
    int Level = 0;
    size_t Digits = 0;
    size_t Rows = 0; ///< Level + 1 + SpecialLen.
    std::vector<const uint64_t *> Row; ///< [Digit * Rows + Row].
    LimbBuffer Storage;
    const uint64_t *at(size_t D, size_t R) const { return Row[D * Rows + R]; }
  };

  /// ModUp: \p Ntt is the polynomial's NTT form and \p Coeff its
  /// coefficient form (both (Level+1) * N words); \p Coeff is consumed as
  /// scratch. \p Ntt must outlive the returned basis.
  ExtendedBasis modUp(const uint64_t *Ntt, uint64_t *Coeff, int Level) const;

  /// One key-switch job over a shared extended basis: the key, the
  /// optional NTT-domain Galois permutation applied to the basis, and
  /// the (Level+1) * N word chain outputs.
  struct KeySwitchJob {
    const KSwitchKey *Key = nullptr;
    const std::vector<uint32_t> *Perm = nullptr;
    uint64_t *OutB = nullptr;
    uint64_t *OutA = nullptr;
  };

  /// Inner products of \p Ext with every job's key (in parallel over
  /// (job, modulus) pairs) followed by each job's ModDown. Results are
  /// bit-identical at any thread count: every output element is the
  /// canonical residue of the same sum.
  void keySwitchJobs(const ExtendedBasis &Ext,
                     const std::vector<KeySwitchJob> &Jobs) const;

  /// ModDown of two accumulated values: divides the chain parts by P in
  /// place, subtracting the exact centred representative of each value
  /// modulo P (held in the SpecialLen-limb NTT-form tails, consumed).
  void modDownPair(uint64_t *BChain, uint64_t *BSpecial, uint64_t *AChain,
                   uint64_t *ASpecial, int Level) const;

  /// Throws MissingRotationKey unless \p Key serves \p Level. \p Steps
  /// names the rotation the key is for; 0 means the relinearization key.
  void requireKeyLevel(const KSwitchKey &Key, int Level, int Steps) const;

  /// Drops the last active prime of \p C, dividing by it (one rescale
  /// step).
  void dropLastPrime(Ct &C) const;

  /// Reduces \p C in place to \p Level by discarding RNS components.
  void modSwitchTo(Ct &C, int Level) const;

  /// Rotates \p C by the Galois element whose key and NTT-domain
  /// permutation are given.
  void rotateByElement(Ct &C, const KSwitchKey &Key,
                       const std::vector<uint32_t> &Perm);

  /// Returns P's NTT representation modulo chain prime \p J, computing and
  /// caching it on first use.
  const std::vector<uint64_t> &plainNtt(const Pt &P, size_t J) const;

  const CrtBasis &crtForLevel(int Level) const;

  RnsCkksParams Params;
  int LogN;
  size_t Degree;
  size_t ChainLen;   ///< Number of chain primes (levels + 1).
  size_t SpecialLen; ///< Number of special primes k.
  std::vector<Modulus> ChainMods;
  std::vector<Modulus> SpecialMods;
  std::vector<std::unique_ptr<NttTables>> ChainNtt;
  std::vector<std::unique_ptr<NttTables>> SpecialNtt;
  /// Normalized digit boundaries (dnum + 1 entries) and the digit of
  /// every chain prime.
  std::vector<uint32_t> DigitBounds;
  std::vector<uint32_t> DigitOf;
  CkksEncoder Encoder;
  Prng Rng;

  std::vector<int8_t> SecretTernary;          ///< s in coefficient form.
  std::vector<std::vector<uint64_t>> SecretNtt; ///< s per global modulus.
  std::vector<std::vector<uint64_t>> PkB, PkA;  ///< per chain prime, NTT.
  KSwitchKey RelinKey;
  std::map<uint64_t, KSwitchKey> GaloisKeys; ///< keyed by Galois element.
  std::set<int> RotationSteps; ///< normalized steps with a key, for errors.
  /// NTT-domain index permutation realizing sigma_Elt, per Galois element;
  /// built alongside each key at keygen (single-threaded) so the hoisted
  /// rotation path reads them without locking.
  std::map<uint64_t, std::vector<uint32_t>> GaloisPerms;
  bool Hoisting = true;

  struct KsCounters {
    std::atomic<uint64_t> ForwardNtts{0};
    std::atomic<uint64_t> InverseNtts{0};
    std::atomic<uint64_t> Rotations{0};
    std::atomic<uint64_t> HoistedBatches{0};
    std::atomic<uint64_t> HoistedAmounts{0};
  };
  /// Heap-held (atomics are immovable) so the backend stays movable.
  mutable std::unique_ptr<KsCounters> KsStats =
      std::make_unique<KsCounters>();

  /// Fast base conversion constants of one digit slice
  /// [Begin, End) of the chain: HatInv[i] = (Q'/q_i)^{-1} mod q_i and
  /// HatMod[i * Moduli + m] = (Q'/q_i) mod modulus m (global index),
  /// where Q' is the product of the slice's primes.
  struct ModUpSlice {
    size_t Begin = 0, End = 0;
    std::vector<uint64_t> HatInv, HatInvShoup;
    std::vector<uint64_t> HatMod;
  };
  /// Indexed by the slice's last prime l: the primes of l's digit up to
  /// q_l. A full digit d is SliceByTop[digitEnd(d) - 1].
  std::vector<ModUpSlice> SliceByTop;
  /// ModDown constants: (P/p_s)^{-1} mod p_s, (P/p_s) mod q_j at
  /// [s * ChainLen + j], P mod q_j and P^{-1} mod q_j.
  std::vector<uint64_t> PHatInvModP;
  std::vector<uint64_t> PHatModChain;
  std::vector<uint64_t> PModChain;
  std::vector<uint64_t> PInvModChain;
  mutable std::vector<std::unique_ptr<CrtBasis>> CrtByLevel;
  /// Guards the lazy CrtByLevel fill. Heap-held so the backend stays
  /// movable (factories return it by value).
  mutable std::unique_ptr<std::mutex> CrtMu =
      std::make_unique<std::mutex>();
};

/// HISA ops on distinct ciphertexts are thread-safe: key material is
/// immutable after keygen and the lazy plaintext-NTT / CRT caches are
/// internally synchronized (Pt::Cache, CrtMu).
template <>
inline constexpr bool BackendSupportsParallelKernels<RnsCkksBackend> = true;

} // namespace chet

#endif // CHET_CKKS_RNSCKKS_H
