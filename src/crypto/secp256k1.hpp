// secp256k1 elliptic-curve group arithmetic (y^2 = x^3 + 7 over F_p).
//
// Provides the group operations needed by Schnorr signatures: scalar
// multiplication, point addition, encoding. Internally the arithmetic is
// specialised to p = 2^256 - 0x1000003D1 (one-limb folding reduction,
// addition-chain inversion) and works in Jacobian coordinates, so a
// result pays one field inversion when it returns to affine form.
// Affine outputs are canonical (coordinates < p); inputs with a
// coordinate >= p are reduced on the way in.
#pragma once

#include <optional>

#include "crypto/u256.hpp"

namespace cia::crypto {

/// Field prime p = 2^256 - 2^32 - 977.
const SpecialModulus& field_modulus();

/// Group order n.
const SpecialModulus& order_modulus();

/// An affine point; infinity is represented separately.
struct Point {
  U256 x;
  U256 y;
  bool infinity = true;

  static Point make_infinity() { return Point{}; }
  bool operator==(const Point&) const = default;
};

/// Generator point G.
const Point& generator();

/// Is `pt` on the curve (or infinity)?
bool on_curve(const Point& pt);

/// Point addition (complete, handles doubling and infinity).
Point add(const Point& a, const Point& b);

/// Scalar multiplication k * P for any 256-bit k (width-5 wNAF).
Point scalar_mul(const U256& k, const Point& p);

/// k * G for any 256-bit k: one addition per nonzero 4-bit digit of k
/// from a comb table of j * 16^i * G, built on first use.
Point scalar_mul_base(const U256& k);

/// Is s * G - e * P == R? Decided in Jacobian coordinates, without a
/// field inversion; the Schnorr verification equation.
bool base_mul_sub_equals(const U256& s, const U256& e, const Point& p,
                         const Point& r);

/// Negate a point.
Point negate(const Point& p);

/// Encode a point as 64 bytes (x || y big-endian); infinity is all-zero.
Bytes encode_point(const Point& p);

/// Decode 64-byte encoding; validates curve membership.
std::optional<Point> decode_point(const Bytes& b);

}  // namespace cia::crypto
