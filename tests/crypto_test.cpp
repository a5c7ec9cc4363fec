// Unit tests for the crypto substrate: SHA-256 known-answer vectors,
// HMAC vectors, bignum arithmetic, secp256k1 group laws, Schnorr
// sign/verify, and certificate chains.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/hex.hpp"
#include "crypto/cert.hpp"
#include "crypto/hmac.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace cia::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(digest_hex(sha256(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(digest_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(sha256(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(digest_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ResetReproducesAFreshContext) {
  Sha256 ctx;
  ctx.update(std::string("poison the state"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(std::string("abc"));
  EXPECT_EQ(digest_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // And again mid-message: reset before finish must also discard state.
  ctx.reset();
  ctx.update(std::string("partial inp"));
  ctx.reset();
  EXPECT_EQ(digest_hex(ctx.finish()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, ScalarAndDispatchedBackendsAgree) {
  // Every length class that exercises a distinct padding/block path:
  // empty, sub-block, exact block, block+1, multi-block, and the 55/56/57
  // boundary where the length field forces a second padding block.
  std::vector<std::size_t> lens = {0, 1, 31, 55, 56, 57, 63, 64, 65, 127, 128, 1000};
  for (std::size_t len : lens) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) {
      msg[i] = static_cast<std::uint8_t>(i * 131 + len);
    }
    // Pad the way finish() does, then run both compressors directly.
    Bytes padded = msg;
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
    for (int i = 0; i < 8; ++i) {
      padded.push_back(static_cast<std::uint8_t>(bits >> (56 - 8 * i)));
    }
    std::uint32_t scalar_state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                     0xa54ff53a, 0x510e527f, 0x9b05688c,
                                     0x1f83d9ab, 0x5be0cd19};
    std::uint32_t dispatched_state[8];
    std::memcpy(dispatched_state, scalar_state, sizeof(scalar_state));
    detail::sha256_compress_scalar(scalar_state, padded.data(),
                                   padded.size() / 64);
    detail::sha256_compress(dispatched_state, padded.data(),
                            padded.size() / 64);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(scalar_state[i], dispatched_state[i])
          << "len " << len << " word " << i
          << (sha256_hw_accelerated() ? " (sha-ni)" : " (scalar)");
    }
  }
}

TEST(Sha256Test, PairAndTemplateHelpersMatchStreaming) {
  const Digest file_hash = sha256(std::string("file content"));
  const std::string path = "/usr/bin/env";
  Sha256 ctx;
  ctx.update(digest_bytes(file_hash));
  ctx.update(path);
  const Digest expected = ctx.finish();
  EXPECT_EQ(template_hash_of(file_hash, path), expected);

  const Digest acc = sha256(std::string("acc"));
  ctx.reset();
  ctx.update(acc.data(), acc.size());
  ctx.update(expected.data(), expected.size());
  EXPECT_EQ(pcr_fold(acc, expected), ctx.finish());
}

TEST(Sha256Test, DigestFromHexInvertsDigestHexAndNothingElse) {
  for (int i = 0; i < 64; ++i) {
    const Digest d = sha256("digest-" + std::to_string(i));
    const std::string hex = digest_hex(d);
    Digest decoded{};
    ASSERT_TRUE(digest_from_hex(hex, decoded)) << hex;
    EXPECT_EQ(decoded, d);
    EXPECT_TRUE(is_digest_hex(hex));
  }
  // Every byte value at every position: only 0-9 and a-f decode.
  const std::string base = digest_hex(sha256(std::string("base")));
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    const bool lower_hex = (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f');
    for (std::size_t pos : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
      std::string hex = base;
      hex[pos] = ch;
      Digest decoded{};
      EXPECT_EQ(digest_from_hex(hex, decoded), lower_hex) << c << "@" << pos;
      EXPECT_EQ(is_digest_hex(hex), lower_hex) << c << "@" << pos;
    }
  }
  Digest decoded{};
  EXPECT_FALSE(digest_from_hex(base.substr(1), decoded));
  EXPECT_FALSE(digest_from_hex(base + "0", decoded));
  EXPECT_FALSE(digest_from_hex("", decoded));
}

TEST(Sha256Test, BatchMatchesOneShots) {
  const std::string a0 = "alpha", b0 = "/bin/sh";
  const std::string a1 = "", b1 = "solo-second-segment";
  const std::string a2 = std::string(200, 'x');
  HashInput in[3] = {
      {reinterpret_cast<const std::uint8_t*>(a0.data()), a0.size(),
       reinterpret_cast<const std::uint8_t*>(b0.data()), b0.size()},
      {nullptr, 0, reinterpret_cast<const std::uint8_t*>(b1.data()), b1.size()},
      {reinterpret_cast<const std::uint8_t*>(a2.data()), a2.size(), nullptr, 0},
  };
  Digest out[3];
  sha256_batch(in, 3, out);
  EXPECT_EQ(out[0], sha256(a0 + b0));
  EXPECT_EQ(out[1], sha256(a1 + b1));
  EXPECT_EQ(out[2], sha256(a2));
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 ctx;
    ctx.update(msg.substr(0, cut));
    ctx.update(msg.substr(cut));
    EXPECT_EQ(digest_hex(ctx.finish()), digest_hex(sha256(msg)))
        << "cut at " << cut;
  }
}

TEST(Sha256Test, BoundaryLengths) {
  // Lengths around the 64-byte block boundary exercise padding paths.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 127u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    Sha256 b;
    for (char c : msg) b.update(std::string(1, c));
    EXPECT_EQ(digest_hex(a.finish()), digest_hex(b.finish())) << "len " << len;
  }
}

// ------------------------------------------------------------------ HMAC

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = to_bytes("Jefe");
  const Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);  // longer than the block size
  const Bytes data = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ----------------------------------------------------------------- U256

TEST(U256Test, HexRoundTrip) {
  const std::string h =
      "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";
  EXPECT_EQ(U256::from_hex(h).to_hex(), h);
}

TEST(U256Test, BytesRoundTrip) {
  const std::string h =
      "00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff";
  const U256 v = U256::from_hex(h);
  EXPECT_EQ(U256::from_be_bytes(v.to_be_bytes()), v);
}

TEST(U256Test, AddCarry) {
  U256 max;
  max.limb = {~0ull, ~0ull, ~0ull, ~0ull};
  U256 out;
  EXPECT_EQ(add_with_carry(max, U256::one(), out), 1u);
  EXPECT_TRUE(out.is_zero());
}

TEST(U256Test, SubBorrow) {
  U256 out;
  EXPECT_EQ(sub_with_borrow(U256::zero(), U256::one(), out), 1u);
  U256 max;
  max.limb = {~0ull, ~0ull, ~0ull, ~0ull};
  EXPECT_EQ(out, max);
}

TEST(U256Test, MulWideSimple) {
  const U256 a = U256::from_u64(0xffffffffffffffffull);
  const U512 p = mul_wide(a, a);
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(p[0], 1u);
  EXPECT_EQ(p[1], 0xfffffffffffffffeull);
  EXPECT_EQ(p[2], 0u);
}

TEST(U256Test, ModularArithmeticAgainstKnownPrime) {
  const auto& fp = field_modulus();
  // (p-1) + 2 == 1 (mod p)
  U256 pm1;
  sub_with_borrow(fp.p, U256::one(), pm1);
  EXPECT_EQ(add_mod(pm1, U256::from_u64(2), fp), U256::one());
  // (p-1) * (p-1) == 1 (mod p)   [since p-1 == -1]
  EXPECT_EQ(mul_mod(pm1, pm1, fp), U256::one());
}

TEST(U256Test, FermatInverse) {
  const auto& fp = field_modulus();
  const U256 a = U256::from_hex(
      "00000000000000000000000000000000000000000000000000000000deadbeef");
  const U256 ainv = inv_mod(a, fp);
  EXPECT_EQ(mul_mod(a, ainv, fp), U256::one());
}

TEST(U256Test, PowModSmallCases) {
  const auto& fp = field_modulus();
  EXPECT_EQ(pow_mod(U256::from_u64(2), U256::from_u64(10), fp),
            U256::from_u64(1024));
  EXPECT_EQ(pow_mod(U256::from_u64(7), U256::zero(), fp), U256::one());
}

// ------------------------------------------------------------- secp256k1

TEST(Secp256k1Test, GeneratorOnCurve) {
  EXPECT_TRUE(on_curve(generator()));
}

TEST(Secp256k1Test, KnownMultiple2G) {
  const Point p2 = scalar_mul_base(U256::from_u64(2));
  EXPECT_EQ(p2.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(p2.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Secp256k1Test, AdditionAgreesWithScalarMul) {
  const Point g = generator();
  const Point g2 = add(g, g);
  const Point g3 = add(g2, g);
  EXPECT_EQ(g3, scalar_mul_base(U256::from_u64(3)));
}

TEST(Secp256k1Test, OrderTimesGIsInfinity) {
  EXPECT_TRUE(scalar_mul_base(order_modulus().p).infinity);
}

TEST(Secp256k1Test, PointPlusNegationIsInfinity) {
  const Point g5 = scalar_mul_base(U256::from_u64(5));
  EXPECT_TRUE(add(g5, negate(g5)).infinity);
}

TEST(Secp256k1Test, ScalarMulDistributes) {
  // (a+b)G == aG + bG
  const U256 a = U256::from_u64(123456789);
  const U256 b = U256::from_u64(987654321);
  const auto& n = order_modulus();
  const Point lhs = scalar_mul_base(add_mod(a, b, n));
  const Point rhs = add(scalar_mul_base(a), scalar_mul_base(b));
  EXPECT_EQ(lhs, rhs);
}

TEST(Secp256k1Test, EncodeDecodeRoundTrip) {
  const Point p = scalar_mul_base(U256::from_u64(42));
  auto decoded = decode_point(encode_point(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
}

TEST(Secp256k1Test, DecodeRejectsOffCurvePoint) {
  Bytes bad(64, 0x01);
  EXPECT_FALSE(decode_point(bad).has_value());
}

// --------------------------------------------------------------- Schnorr

TEST(SchnorrTest, SignVerifyRoundTrip) {
  const KeyPair key = derive_keypair(to_bytes("seed"), "test");
  const Bytes msg = to_bytes("attestation quote");
  const Signature sig = sign(key, msg);
  EXPECT_TRUE(verify(key.pub, msg, sig));
}

TEST(SchnorrTest, RejectsTamperedMessage) {
  const KeyPair key = derive_keypair(to_bytes("seed"), "test");
  const Signature sig = sign(key, to_bytes("original"));
  EXPECT_FALSE(verify(key.pub, to_bytes("tampered"), sig));
}

TEST(SchnorrTest, RejectsWrongKey) {
  const KeyPair key1 = derive_keypair(to_bytes("seed1"), "a");
  const KeyPair key2 = derive_keypair(to_bytes("seed2"), "b");
  const Bytes msg = to_bytes("message");
  EXPECT_FALSE(verify(key2.pub, msg, sign(key1, msg)));
}

TEST(SchnorrTest, RejectsTamperedSignature) {
  const KeyPair key = derive_keypair(to_bytes("seed"), "test");
  const Bytes msg = to_bytes("message");
  Signature sig = sign(key, msg);
  sig.s = add_mod(sig.s, U256::one(), order_modulus());
  EXPECT_FALSE(verify(key.pub, msg, sig));
}

TEST(SchnorrTest, DeterministicSignatures) {
  const KeyPair key = derive_keypair(to_bytes("seed"), "test");
  const Bytes msg = to_bytes("message");
  EXPECT_EQ(sign(key, msg).encode(), sign(key, msg).encode());
}

TEST(SchnorrTest, SignatureEncodingRoundTrip) {
  const KeyPair key = derive_keypair(to_bytes("seed"), "test");
  const Signature sig = sign(key, to_bytes("m"));
  auto decoded = Signature::decode(sig.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
}

// ----------------------------------------------------------- Certificates

TEST(CertTest, IssueAndVerify) {
  const CertificateAuthority ca("manufacturer-sim", to_bytes("ca-seed"));
  const KeyPair ek = derive_keypair(to_bytes("tpm-seed"), "ek");
  const Certificate cert = ca.issue("tpm:ek:device0", ek.pub, 0, kDay * 365);
  EXPECT_TRUE(verify_certificate(cert, ca.public_key(), kDay));
}

TEST(CertTest, RejectsExpired) {
  const CertificateAuthority ca("manufacturer-sim", to_bytes("ca-seed"));
  const KeyPair ek = derive_keypair(to_bytes("tpm-seed"), "ek");
  const Certificate cert = ca.issue("tpm:ek:device0", ek.pub, 0, kDay);
  EXPECT_FALSE(verify_certificate(cert, ca.public_key(), kDay * 2));
}

TEST(CertTest, RejectsWrongIssuerKey) {
  const CertificateAuthority ca("real", to_bytes("ca-seed"));
  const CertificateAuthority rogue("rogue", to_bytes("rogue-seed"));
  const KeyPair ek = derive_keypair(to_bytes("tpm-seed"), "ek");
  const Certificate cert = rogue.issue("tpm:ek:device0", ek.pub, 0, kDay * 365);
  EXPECT_FALSE(verify_certificate(cert, ca.public_key(), kDay));
}

TEST(CertTest, EncodingRoundTrip) {
  const CertificateAuthority ca("manufacturer-sim", to_bytes("ca-seed"));
  const KeyPair ek = derive_keypair(to_bytes("tpm-seed"), "ek");
  const Certificate cert = ca.issue("tpm:ek:device0", ek.pub, 100, 200);
  auto decoded = Certificate::decode(cert.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->subject, cert.subject);
  EXPECT_EQ(decoded->issuer, cert.issuer);
  EXPECT_EQ(decoded->not_before, 100);
  EXPECT_EQ(decoded->not_after, 200);
  EXPECT_TRUE(verify_certificate(*decoded, ca.public_key(), 150));
}

TEST(CertTest, DecodeRejectsTruncated) {
  const CertificateAuthority ca("manufacturer-sim", to_bytes("ca-seed"));
  const KeyPair ek = derive_keypair(to_bytes("tpm-seed"), "ek");
  Bytes enc = ca.issue("s", ek.pub, 0, 1).encode();
  enc.pop_back();
  EXPECT_FALSE(Certificate::decode(enc).has_value());
}

}  // namespace
}  // namespace cia::crypto
