#include "testkit/ec_reference.hpp"

#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace cia::testkit::ecref {

namespace {

using crypto::field_modulus;
using crypto::order_modulus;
using crypto::Point;
using crypto::U256;

// Jacobian coordinates: (X, Y, Z) represents affine (X/Z^2, Y/Z^3).
struct Jacobian {
  U256 x;
  U256 y;
  U256 z;
  bool infinity = true;
};

Jacobian to_jacobian(const Point& p) {
  if (p.infinity) return Jacobian{};
  return Jacobian{p.x, p.y, U256::one(), false};
}

Point to_affine(const Jacobian& j) {
  if (j.infinity) return Point::make_infinity();
  const auto& fp = field_modulus();
  const U256 zinv = inv_mod(j.z, fp);
  const U256 zinv2 = mul_mod(zinv, zinv, fp);
  const U256 zinv3 = mul_mod(zinv2, zinv, fp);
  return Point{mul_mod(j.x, zinv2, fp), mul_mod(j.y, zinv3, fp), false};
}

Jacobian jacobian_double(const Jacobian& p) {
  if (p.infinity || p.y.is_zero()) return Jacobian{};
  const auto& fp = field_modulus();
  // Standard dbl-2007-bl-ish formulas for a = 0.
  const U256 a = mul_mod(p.x, p.x, fp);                 // X^2
  const U256 b = mul_mod(p.y, p.y, fp);                 // Y^2
  const U256 c = mul_mod(b, b, fp);                     // Y^4
  U256 d = mul_mod(p.x, b, fp);                         // X*Y^2
  d = add_mod(d, d, fp);
  d = add_mod(d, d, fp);                                // 4*X*Y^2
  U256 e = add_mod(a, add_mod(a, a, fp), fp);           // 3*X^2
  const U256 f = mul_mod(e, e, fp);                     // e^2
  U256 x3 = sub_mod(f, add_mod(d, d, fp), fp);          // f - 2d
  U256 c8 = add_mod(c, c, fp);
  c8 = add_mod(c8, c8, fp);
  c8 = add_mod(c8, c8, fp);                             // 8*Y^4
  const U256 y3 = sub_mod(mul_mod(e, sub_mod(d, x3, fp), fp), c8, fp);
  const U256 z3 = add_mod(mul_mod(p.y, p.z, fp), mul_mod(p.y, p.z, fp), fp);
  return Jacobian{x3, y3, z3, false};
}

Jacobian jacobian_add(const Jacobian& p, const Jacobian& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const auto& fp = field_modulus();
  const U256 z1z1 = mul_mod(p.z, p.z, fp);
  const U256 z2z2 = mul_mod(q.z, q.z, fp);
  const U256 u1 = mul_mod(p.x, z2z2, fp);
  const U256 u2 = mul_mod(q.x, z1z1, fp);
  const U256 s1 = mul_mod(p.y, mul_mod(z2z2, q.z, fp), fp);
  const U256 s2 = mul_mod(q.y, mul_mod(z1z1, p.z, fp), fp);
  if (u1 == u2) {
    if (s1 == s2) return jacobian_double(p);
    return Jacobian{};  // P + (-P) = infinity
  }
  const U256 h = sub_mod(u2, u1, fp);
  const U256 hh = mul_mod(h, h, fp);
  const U256 hhh = mul_mod(hh, h, fp);
  const U256 r = sub_mod(s2, s1, fp);
  const U256 v = mul_mod(u1, hh, fp);
  U256 x3 = sub_mod(mul_mod(r, r, fp), hhh, fp);
  x3 = sub_mod(x3, add_mod(v, v, fp), fp);
  const U256 y3 =
      sub_mod(mul_mod(r, sub_mod(v, x3, fp), fp), mul_mod(s1, hhh, fp), fp);
  const U256 z3 = mul_mod(mul_mod(p.z, q.z, fp), h, fp);
  return Jacobian{x3, y3, z3, false};
}

U256 hash_to_scalar(const Bytes& data) {
  const crypto::Digest d = crypto::sha256(data);
  U256 v = U256::from_be_bytes(crypto::digest_bytes(d));
  v = reduce(v, order_modulus());
  if (v.is_zero()) v = U256::one();
  return v;
}

U256 challenge(const Point& r, const crypto::PublicKey& pub,
               const Bytes& message) {
  Bytes buf = crypto::encode_point(r);
  append(buf, pub.encode());
  append(buf, message);
  return hash_to_scalar(buf);
}

}  // namespace

Point add(const Point& a, const Point& b) {
  return to_affine(jacobian_add(to_jacobian(a), to_jacobian(b)));
}

Point scalar_mul(const U256& k, const Point& p) {
  Jacobian result;  // infinity
  Jacobian base = to_jacobian(p);
  for (int limb_idx = 0; limb_idx < 4; ++limb_idx) {
    std::uint64_t bits = k.limb[static_cast<std::size_t>(limb_idx)];
    for (int bit = 0; bit < 64; ++bit) {
      if (bits & 1) result = jacobian_add(result, base);
      base = jacobian_double(base);
      bits >>= 1;
    }
  }
  return to_affine(result);
}

Point scalar_mul_base(const U256& k) {
  static const std::vector<Jacobian> kDoublings = [] {
    std::vector<Jacobian> table;
    table.reserve(256);
    Jacobian g = to_jacobian(crypto::generator());
    for (int i = 0; i < 256; ++i) {
      table.push_back(g);
      g = jacobian_double(g);
    }
    return table;
  }();

  Jacobian result;  // infinity
  for (int limb_idx = 0; limb_idx < 4; ++limb_idx) {
    std::uint64_t bits = k.limb[static_cast<std::size_t>(limb_idx)];
    for (int bit = 0; bit < 64; ++bit) {
      if (bits & 1) {
        result = jacobian_add(
            result, kDoublings[static_cast<std::size_t>(limb_idx * 64 + bit)]);
      }
      bits >>= 1;
    }
  }
  return to_affine(result);
}

crypto::KeyPair derive_keypair(const Bytes& seed, const std::string& label) {
  const crypto::Digest d = crypto::kdf(seed, "keypair:" + label);
  U256 secret = U256::from_be_bytes(crypto::digest_bytes(d));
  secret = reduce(secret, order_modulus());
  if (secret.is_zero()) secret = U256::one();
  return crypto::KeyPair{secret,
                         crypto::PublicKey{ecref::scalar_mul_base(secret)}};
}

crypto::Signature sign(const crypto::KeyPair& key, const Bytes& message) {
  const crypto::Digest nd =
      crypto::hmac_sha256(key.secret.to_be_bytes(), message);
  U256 k = U256::from_be_bytes(crypto::digest_bytes(nd));
  k = reduce(k, order_modulus());
  if (k.is_zero()) k = U256::one();

  const Point r = ecref::scalar_mul_base(k);
  const U256 e = challenge(r, key.pub, message);
  const auto& n = order_modulus();
  const U256 s = add_mod(k, mul_mod(e, key.secret, n), n);
  return crypto::Signature{r, s};
}

bool verify(const crypto::PublicKey& pub, const Bytes& message,
            const crypto::Signature& sig) {
  if (sig.r.infinity || pub.point.infinity) return false;
  if (!on_curve(sig.r) || !on_curve(pub.point)) return false;
  const U256 e = challenge(sig.r, pub, message);
  const Point lhs = ecref::scalar_mul_base(sig.s);
  const Point rhs = ecref::add(sig.r, ecref::scalar_mul(e, pub.point));
  return lhs == rhs;
}

}  // namespace cia::testkit::ecref
