// Differential battery: the specialised secp256k1 layer in src/crypto
// against the textbook reference in testkit/ec_reference. The math is the
// same, so keys, signatures, points and verdicts must agree byte for byte:
// on random inputs, on edge scalars (including every input the comb and
// wNAF treat specially), and on points decoded with a coordinate >= p.
// A handful of vectors recorded from the original implementation pin the
// reference itself.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/secp256k1.hpp"
#include "testkit/ec_reference.hpp"

namespace cia {
namespace {

using crypto::Point;
using crypto::U256;
namespace ecref = testkit::ecref;

U256 random_u256(Rng& rng) {
  U256 v;
  for (auto& limb : v.limb) limb = rng.next_u64();
  return v;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

std::string hex_of(const Point& p) { return to_hex(crypto::encode_point(p)); }

U256 plus(const U256& a, const U256& b) {
  U256 out;
  crypto::add_with_carry(a, b, out);
  return out;
}

U256 minus(const U256& a, const U256& b) {
  U256 out;
  crypto::sub_with_borrow(a, b, out);
  return out;
}

// Every verdict the two verifiers reach on one signed message.
void expect_same_verdicts(const crypto::KeyPair& key, const Bytes& message,
                          const crypto::Signature& sig,
                          const crypto::PublicKey& other_key) {
  const auto agree = [](const crypto::PublicKey& pub, const Bytes& msg,
                        const crypto::Signature& s, bool expected,
                        const char* what) {
    EXPECT_EQ(crypto::verify(pub, msg, s), expected) << what;
    EXPECT_EQ(ecref::verify(pub, msg, s), expected) << what;
  };
  agree(key.pub, message, sig, true, "valid");

  Bytes tampered = message;
  tampered.push_back(0x01);
  agree(key.pub, tampered, sig, false, "tampered message");

  crypto::Signature bad_s = sig;
  bad_s.s.limb[0] ^= 1;
  agree(key.pub, message, bad_s, false, "tampered s");

  crypto::Signature bad_r = sig;
  bad_r.r = crypto::add(sig.r, crypto::generator());
  agree(key.pub, message, bad_r, false, "tampered R");

  agree(other_key, message, sig, false, "wrong key");
}

class EcDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcDiffTest, RandomKeysSignaturesAndMultiplesMatchReference) {
  Rng rng(GetParam());
  constexpr int kCases = 200;
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const Bytes seed = random_bytes(rng, 1 + rng.uniform(48));
    const std::string label = "label-" + std::to_string(rng.next_u64());
    const Bytes message = random_bytes(rng, rng.uniform(96));

    const crypto::KeyPair key = crypto::derive_keypair(seed, label);
    const crypto::KeyPair ref_key = ecref::derive_keypair(seed, label);
    ASSERT_EQ(key.secret, ref_key.secret);
    ASSERT_EQ(to_hex(key.pub.encode()), to_hex(ref_key.pub.encode()));

    const crypto::Signature sig = crypto::sign(key, message);
    ASSERT_EQ(to_hex(sig.encode()), to_hex(ecref::sign(key, message).encode()));

    // Verdicts are the costly reference call; a quarter of the cases
    // covers every tamper class many times over.
    if (i % 4 == 0) {
      const crypto::KeyPair other =
          crypto::derive_keypair(seed, label + "-other");
      expect_same_verdicts(key, message, sig, other.pub);
    }

    const U256 k = random_u256(rng);
    const Point kg = crypto::scalar_mul_base(k);
    EXPECT_EQ(hex_of(kg), hex_of(ecref::scalar_mul_base(k)));
    const Point kp = crypto::scalar_mul(k, key.pub.point);
    EXPECT_EQ(hex_of(kp), hex_of(ecref::scalar_mul(k, key.pub.point)));
    EXPECT_EQ(hex_of(crypto::add(kg, kp)), hex_of(ecref::add(kg, kp)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcDiffTest, ::testing::Values(1u, 2u, 3u));

// Scalars the comb and wNAF paths treat specially: zero digits, a single
// window, k == n (the comb's last addition is P + (-P)), k > n, and
// scalars whose top wNAF window is negative, so the carry produces a
// 257th digit.
std::vector<U256> edge_scalars() {
  const U256 n = crypto::order_modulus().p;
  U256 all_ones;
  for (auto& limb : all_ones.limb) limb = ~0ULL;
  U256 top_five;  // bits 255..251: the window at bit 251 reads 31
  top_five.limb[3] = 0xF8ULL << 56;
  U256 top_and_251;  // bits 255 and 251: the window at bit 251 reads 17
  top_and_251.limb[3] = 0x88ULL << 56;
  return {U256::zero(),
          U256::one(),
          U256::from_u64(2),
          U256::from_u64(15),
          U256::from_u64(16),
          minus(n, U256::one()),
          n,
          plus(n, U256::one()),
          all_ones,
          top_five,
          top_and_251,
          plus(top_five, U256::from_u64(0x1F))};
}

TEST(EcDiffEdgeTest, EdgeScalarsMatchReference) {
  const crypto::KeyPair key =
      crypto::derive_keypair(to_bytes("edge-seed"), "edge");
  const Point g = crypto::generator();
  for (const U256& k : edge_scalars()) {
    SCOPED_TRACE(k.to_hex());
    const Point kg = crypto::scalar_mul_base(k);
    EXPECT_EQ(hex_of(kg), hex_of(ecref::scalar_mul_base(k)));
    EXPECT_EQ(hex_of(crypto::scalar_mul(k, g)), hex_of(kg));
    const Point kp = crypto::scalar_mul(k, key.pub.point);
    EXPECT_EQ(hex_of(kp), hex_of(ecref::scalar_mul(k, key.pub.point)));
    EXPECT_EQ(hex_of(crypto::add(kg, kp)), hex_of(ecref::add(kg, kp)));

    // The scalar as s in the verification equation: the comb reads all
    // 256 bits, so an unreduced s means what it means to the reference.
    const Bytes message = to_bytes("edge message");
    const crypto::Signature forged{kg, k};
    EXPECT_EQ(crypto::verify(key.pub, message, forged),
              ecref::verify(key.pub, message, forged));
  }
  EXPECT_TRUE(crypto::scalar_mul_base(crypto::order_modulus().p).infinity);
  EXPECT_TRUE(crypto::scalar_mul(U256::zero(), key.pub.point).infinity);
}

TEST(EcDiffEdgeTest, VerificationEquationTakesAnyScalarS) {
  // Signing never yields s >= n or s == 0, so the equation is driven
  // directly: R is built by the reference as s*G - e*P, and the Jacobian
  // comparison must accept it for every edge s, including s == 0 (mod n)
  // and unreduced 256-bit values, and reject its neighbour R + G.
  const crypto::KeyPair key =
      crypto::derive_keypair(to_bytes("equation"), "key");
  Rng rng(5);
  for (const U256& s : edge_scalars()) {
    SCOPED_TRACE(s.to_hex());
    const U256 e = crypto::reduce(random_u256(rng), crypto::order_modulus());
    const Point r =
        ecref::add(ecref::scalar_mul_base(s),
                   crypto::negate(ecref::scalar_mul(e, key.pub.point)));
    EXPECT_TRUE(crypto::base_mul_sub_equals(s, e, key.pub.point, r));
    EXPECT_FALSE(crypto::base_mul_sub_equals(
        s, e, key.pub.point, crypto::add(r, crypto::generator())));
  }
}

// (x + p, y) for an on-curve point with small x: decode_point accepts the
// encoding, and every operation must treat it as (x, y).
std::vector<Point> non_canonical_points() {
  const auto& fp = crypto::field_modulus();
  // (p + 1) / 4: p == 3 (mod 4), so a^((p+1)/4) is a square root of a.
  U256 sqrt_exp = plus(fp.p, U256::one());
  for (int i = 0; i < 2; ++i) {
    for (std::size_t l = 0; l < 4; ++l) {
      sqrt_exp.limb[l] =
          (sqrt_exp.limb[l] >> 1) | (l < 3 ? sqrt_exp.limb[l + 1] << 63 : 0);
    }
  }
  std::vector<Point> points;
  for (std::uint64_t x : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const U256 xx = U256::from_u64(x);
    const U256 rhs = crypto::add_mod(
        crypto::mul_mod(crypto::mul_mod(xx, xx, fp), xx, fp),
        U256::from_u64(7), fp);
    const U256 y = crypto::pow_mod(rhs, sqrt_exp, fp);
    Bytes encoded = plus(xx, fp.p).to_be_bytes();
    append(encoded, y.to_be_bytes());
    const auto decoded = crypto::decode_point(encoded);
    EXPECT_TRUE(decoded.has_value()) << "x = " << x << " is on the curve";
    if (decoded) points.push_back(*decoded);
  }
  return points;
}

TEST(EcDiffEdgeTest, NonCanonicalPointsBehaveAsTheirCanonicalTwins) {
  const auto& fp = crypto::field_modulus();
  const std::vector<Point> points = non_canonical_points();
  ASSERT_EQ(points.size(), 6u);
  Rng rng(77);
  for (const Point& p : points) {
    SCOPED_TRACE(hex_of(p));
    ASSERT_GE(p.x, fp.p);
    EXPECT_TRUE(crypto::on_curve(p));
    Point twin = p;
    twin.x = crypto::reduce(p.x, fp);

    for (const U256& k : {U256::one(), U256::from_u64(2), random_u256(rng),
                          crypto::order_modulus().p}) {
      const Point kp = crypto::scalar_mul(k, p);
      EXPECT_EQ(hex_of(kp), hex_of(ecref::scalar_mul(k, p)));
      EXPECT_EQ(hex_of(kp), hex_of(crypto::scalar_mul(k, twin)));
    }
    const Point g = crypto::generator();
    const Point neg = crypto::negate(p);
    for (const Point& q : {p, twin, neg, g, Point::make_infinity()}) {
      EXPECT_EQ(hex_of(crypto::add(p, q)), hex_of(ecref::add(p, q)));
      EXPECT_EQ(hex_of(crypto::add(q, p)), hex_of(ecref::add(q, p)));
    }

    // As a public key or as R, with a scalar the equation does not hold
    // for: both reject. The challenge hashes the raw encoding, x >= p.
    const Bytes message = to_bytes("non-canonical");
    const crypto::Signature as_r{p, random_u256(rng)};
    const crypto::PublicKey honest =
        crypto::derive_keypair(to_bytes("nc"), "key").pub;
    EXPECT_EQ(crypto::verify(honest, message, as_r),
              ecref::verify(honest, message, as_r));
    const crypto::KeyPair signer = crypto::derive_keypair(to_bytes("nc"), "s");
    const crypto::Signature sig = crypto::sign(signer, message);
    EXPECT_FALSE(crypto::verify(crypto::PublicKey{p}, message, sig));
    EXPECT_FALSE(ecref::verify(crypto::PublicKey{p}, message, sig));

    // The Jacobian comparison itself, with P non-canonical: R is built by
    // the reference as s*G - e*P.
    const U256 s = random_u256(rng);
    const U256 e = crypto::reduce(random_u256(rng), crypto::order_modulus());
    const Point r = ecref::add(ecref::scalar_mul_base(s),
                               crypto::negate(ecref::scalar_mul(e, p)));
    EXPECT_TRUE(crypto::base_mul_sub_equals(s, e, p, r));
    EXPECT_FALSE(crypto::base_mul_sub_equals(s, e, p, crypto::add(r, g)));
  }
}

// Recorded from the original textbook implementation before the EC layer
// was specialised; both sides must still produce exactly these bytes.
struct PinnedVector {
  const char* seed;
  const char* label;
  const char* message;
  const char* pub_hex;
  const char* sig_hex;
};

constexpr PinnedVector kPinned[] = {
    {"pin-seed-1", "ak:node0", "TPMS_ATTEST/quote:node0",
     "3626e6f35d86f9056af240036815e2c7c810b12c7904d7c8aab08baf66e7c411"
     "d0b936ff8face6f9f68562cbfa95aa79bb7bb59b9a04813010a56b03c2e2cbc3",
     "169bc6163d0457e01297f8c369bdb7b830fba8e63438117193cd4f1b7fe861b6"
     "60198fdfdfbe26d04b60450d5c738ad211d2977875fc1485fc9dfdfb68cafb1b"
     "d0a682e1f6ea9d2b04147651bb2414e3ec7f13fe18de8205e041ba481b8f1144"},
    {"pin-seed-2", "verifier-audit", "record",
     "d31ff3ec10897e8964ea374467f53e46384f3caba399b94fa16c19b2a4e244ec"
     "0637a37b4db7bd8581c04b0e7a7ce9b4edba6b7d7acfcb3abe3d35defe263c10",
     "d93ad6dea77cc5330094c2a0ae586f5336c7c93a5086cb3557353706b1acd8de"
     "356e62d63b53c3f67fda177f0c9bc35fc1b0286741580f3dc932dd9efa416551"
     "93ec1abdeddff38fb7223a0732b6bcb7f1adcf8d37cbc96d30ef6f65fcb2022d"},
    {"pin-seed-3", "ek:edge-7", "",
     "64b045a797a6ddda11997026d8388d015a5eee06e7616a4ccb7abf67c3bae6e4"
     "951eaa7f3c59b65551914049203a2203c870a0b4476a9a7c2d6704ec78ab5504",
     "75aae4e80b86541e5f62f3c638314d320c1ceac5e6919137126efefb5cf7baf5"
     "281a869d596b88724681aa7f3099019f4740b787433a1dfe9791886ca94ed3d0"
     "2d70adfb2f849325616f67b3d586ccc6b19ba56801df03da8ae0faf937540eee"},
};

TEST(EcDiffEdgeTest, PinnedVectorsFromTheOriginalImplementation) {
  for (const PinnedVector& v : kPinned) {
    SCOPED_TRACE(v.label);
    const Bytes seed = to_bytes(v.seed);
    const Bytes message = to_bytes(v.message);
    const crypto::KeyPair key = crypto::derive_keypair(seed, v.label);
    const crypto::KeyPair ref_key = ecref::derive_keypair(seed, v.label);
    EXPECT_EQ(to_hex(key.pub.encode()), v.pub_hex);
    EXPECT_EQ(to_hex(ref_key.pub.encode()), v.pub_hex);
    EXPECT_EQ(to_hex(crypto::sign(key, message).encode()), v.sig_hex);
    EXPECT_EQ(to_hex(ecref::sign(ref_key, message).encode()), v.sig_hex);
  }
}

// Every shard worker reads the comb table, so its first use can come from
// several threads at once. Run alone (its own process, as ctest and the
// TSan script do), the table is cold when the threads start.
TEST(EcConcurrencyTest, ColdCombTableFromFourThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  struct Output {
    std::string pub;
    std::string sig;
    bool verified = false;
  };
  const auto work = [](int t, int i) {
    const crypto::KeyPair key = crypto::derive_keypair(
        to_bytes("concurrent"), std::to_string(t) + "/" + std::to_string(i));
    const Bytes message = to_bytes("poll " + std::to_string(i));
    const crypto::Signature sig = crypto::sign(key, message);
    return Output{to_hex(key.pub.encode()), to_hex(sig.encode()),
                  crypto::verify(key.pub, message, sig)};
  };

  std::vector<std::vector<Output>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& out = concurrent[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPerThread; ++i) out.push_back(work(t, i));
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const Output serial = work(t, i);
      const Output& got = concurrent[static_cast<std::size_t>(t)]
                                    [static_cast<std::size_t>(i)];
      EXPECT_EQ(got.pub, serial.pub);
      EXPECT_EQ(got.sig, serial.sig);
      EXPECT_TRUE(got.verified);
      if (i == 0) {
        const crypto::KeyPair ref = ecref::derive_keypair(
            to_bytes("concurrent"), std::to_string(t) + "/0");
        EXPECT_EQ(got.pub, to_hex(ref.pub.encode()));
      }
    }
  }
}

}  // namespace
}  // namespace cia
