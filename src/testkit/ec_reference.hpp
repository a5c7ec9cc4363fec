// Reference secp256k1 point arithmetic and Schnorr signatures: the
// textbook implementation the crypto layer started from, kept as the
// oracle for the specialised EC layer in src/crypto.
//
// Everything here runs on the public generic u256 operations (mul_mod,
// Fermat inv_mod): Jacobian double and add, affine conversion by one
// inversion per point, double-and-add scalar multiplication, a 256-entry
// doubling table for G, and a verify that compares s*G with R + e*P in
// affine coordinates. Every output must be byte-identical to the
// library's; ec_diff_test checks that over random and edge inputs, and
// bench_hotpath runs the two side by side. Not for production paths: it
// is several times slower than the library.
#pragma once

#include <string>

#include "crypto/schnorr.hpp"

namespace cia::testkit::ecref {

crypto::Point add(const crypto::Point& a, const crypto::Point& b);

/// k * P by double-and-add over all 256 bits of k.
crypto::Point scalar_mul(const crypto::U256& k, const crypto::Point& p);

/// k * G by adding entries of a table of G's 256 doublings.
crypto::Point scalar_mul_base(const crypto::U256& k);

crypto::KeyPair derive_keypair(const Bytes& seed, const std::string& label);

crypto::Signature sign(const crypto::KeyPair& key, const Bytes& message);

/// Accepts iff s*G == R + e*P, both sides taken to affine coordinates.
bool verify(const crypto::PublicKey& pub, const Bytes& message,
            const crypto::Signature& sig);

}  // namespace cia::testkit::ecref
