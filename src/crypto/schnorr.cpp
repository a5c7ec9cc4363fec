#include "crypto/schnorr.hpp"

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace cia::crypto {

namespace {

/// Hash arbitrary bytes onto the scalar field [1, n-1]. Rejection is
/// unnecessary in practice: a reduction bias of ~2^-128 is irrelevant for
/// the simulation, but zero is remapped to one to keep scalars valid.
U256 hash_to_scalar(const Bytes& data) {
  const Digest d = sha256(data);
  U256 v = U256::from_be_bytes(digest_bytes(d));
  v = reduce(v, order_modulus());
  if (v.is_zero()) v = U256::one();
  return v;
}

U256 challenge(const Point& r, const PublicKey& pub, const Bytes& message) {
  Bytes buf = encode_point(r);
  append(buf, pub.encode());
  append(buf, message);
  return hash_to_scalar(buf);
}

}  // namespace

std::optional<PublicKey> PublicKey::decode(const Bytes& b) {
  auto pt = decode_point(b);
  if (!pt || pt->infinity) return std::nullopt;
  return PublicKey{*pt};
}

Bytes Signature::encode() const {
  Bytes out = encode_point(r);
  append(out, s.to_be_bytes());
  return out;
}

std::optional<Signature> Signature::decode(const Bytes& b) {
  if (b.size() != 96) return std::nullopt;
  auto r = decode_point(Bytes(b.begin(), b.begin() + 64));
  if (!r) return std::nullopt;
  Signature sig;
  sig.r = *r;
  sig.s = U256::from_be_bytes(Bytes(b.begin() + 64, b.end()));
  return sig;
}

KeyPair derive_keypair(const Bytes& seed, const std::string& label) {
  const Digest d = kdf(seed, "keypair:" + label);
  U256 secret = U256::from_be_bytes(digest_bytes(d));
  secret = reduce(secret, order_modulus());
  if (secret.is_zero()) secret = U256::one();
  return KeyPair{secret, PublicKey{scalar_mul_base(secret)}};
}

Signature sign(const KeyPair& key, const Bytes& message) {
  // Deterministic nonce: HMAC(secret, message).
  const Digest nd = hmac_sha256(key.secret.to_be_bytes(), message);
  U256 k = U256::from_be_bytes(digest_bytes(nd));
  k = reduce(k, order_modulus());
  if (k.is_zero()) k = U256::one();

  const Point r = scalar_mul_base(k);
  const U256 e = challenge(r, key.pub, message);
  const auto& n = order_modulus();
  const U256 s = add_mod(k, mul_mod(e, key.secret, n), n);
  return Signature{r, s};
}

bool verify(const PublicKey& pub, const Bytes& message, const Signature& sig) {
  if (sig.r.infinity || pub.point.infinity) return false;
  if (!on_curve(sig.r) || !on_curve(pub.point)) return false;
  const U256 e = challenge(sig.r, pub, message);
  // s*G == R + e*P, checked as s*G - e*P == R.
  return base_mul_sub_equals(sig.s, e, pub.point, sig.r);
}

}  // namespace cia::crypto
