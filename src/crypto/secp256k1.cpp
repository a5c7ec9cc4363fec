#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace cia::crypto {

namespace {

using u128 = unsigned __int128;

// ------------------------------------------------------------------ field
// Arithmetic modulo p = 2^256 - c with c = 0x1000003D1. Every function
// takes and returns canonical values (< p); coordinates are canonicalised
// where an affine point enters Jacobian coordinates.

constexpr std::uint64_t kFoldC = 0x1000003D1ULL;

// x mod p for any 256-bit x. x < 2^256 < 2p, so one subtraction is
// enough, and x >= p exactly when x + c carries out of 256 bits.
U256 fe_canon(const U256& x) {
  U256 t;
  u128 acc = kFoldC;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += x.limb[i];
    t.limb[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  return acc != 0 ? t : x;
}

U256 fe_add(const U256& a, const U256& b) {
  U256 sum;
  U256 minus_p;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += static_cast<u128>(a.limb[i]) + b.limb[i];
    sum.limb[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  const std::uint64_t carry = static_cast<std::uint64_t>(acc);
  // a + b >= p iff the sum carried or sum + c carries; a + b - p is
  // sum + c modulo 2^256 either way.
  acc = kFoldC;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += sum.limb[i];
    minus_p.limb[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  return (carry | static_cast<std::uint64_t>(acc)) != 0 ? minus_p : sum;
}

U256 fe_sub(const U256& a, const U256& b) {
  U256 diff;
  u128 borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.limb[i]) - b.limb[i] - borrow;
    diff.limb[i] = static_cast<std::uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  if (borrow == 0) return diff;
  // a - b + p == diff - c modulo 2^256, and diff > c here.
  borrow = kFoldC;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(diff.limb[i]) - borrow;
    diff.limb[i] = static_cast<std::uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return diff;
}

U256 fe_neg(const U256& a) { return fe_sub(U256::zero(), a); }

// A 512-bit product t (little-endian limbs) reduced mod p:
// t = lo + hi * 2^256 == lo + hi * c, folded in with one 64x64 multiply
// per limb, which leaves a carry limb below 2^34.
U256 fe_reduce_wide(const std::uint64_t (&t)[8]) {
  U256 r;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += static_cast<u128>(t[i + 4]) * kFoldC + t[i];
    r.limb[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  // Fold the carry limb the same way; a second pass runs only when that
  // wraps past 2^256, and then with a carry of one.
  std::uint64_t top = static_cast<std::uint64_t>(acc);
  while (top != 0) {
    acc = static_cast<u128>(top) * kFoldC;
    for (std::size_t i = 0; i < 4; ++i) {
      acc += r.limb[i];
      r.limb[i] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
    top = static_cast<std::uint64_t>(acc);
  }
  return fe_canon(r);
}

U256 fe_mul(const U256& a, const U256& b) {
  std::uint64_t t[8] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    u128 acc = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      acc += static_cast<u128>(a.limb[i]) * b.limb[j] + t[i + j];
      t[i + j] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
    t[i + 4] = static_cast<std::uint64_t>(acc);
  }
  return fe_reduce_wide(t);
}

U256 fe_sqr(const U256& a) { return fe_mul(a, a); }

U256 fe_sqr_n(U256 a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sqr(a);
  return a;
}

// a^(p-2) by the standard addition chain: p - 2 is, from the top, 223
// ones, a zero, 22 ones, four zeros, then 101101. Each xN below is
// a^(2^N - 1); 255 squarings and 15 multiplications in all.
U256 fe_inv(const U256& a) {
  const U256 x2 = fe_mul(fe_sqr(a), a);
  const U256 x3 = fe_mul(fe_sqr(x2), a);
  const U256 x6 = fe_mul(fe_sqr_n(x3, 3), x3);
  const U256 x9 = fe_mul(fe_sqr_n(x6, 3), x3);
  const U256 x11 = fe_mul(fe_sqr_n(x9, 2), x2);
  const U256 x22 = fe_mul(fe_sqr_n(x11, 11), x11);
  const U256 x44 = fe_mul(fe_sqr_n(x22, 22), x22);
  const U256 x88 = fe_mul(fe_sqr_n(x44, 44), x44);
  const U256 x176 = fe_mul(fe_sqr_n(x88, 88), x88);
  const U256 x220 = fe_mul(fe_sqr_n(x176, 44), x44);
  const U256 x223 = fe_mul(fe_sqr_n(x220, 3), x3);
  U256 t = fe_mul(fe_sqr_n(x223, 23), x22);
  t = fe_mul(fe_sqr_n(t, 5), a);
  t = fe_mul(fe_sqr_n(t, 3), x2);
  return fe_mul(fe_sqr_n(t, 2), a);
}

// ----------------------------------------------------------------- points

// Jacobian coordinates: (X, Y, Z) represents affine (X/Z^2, Y/Z^3).
struct Jacobian {
  U256 x;
  U256 y;
  U256 z;
  bool infinity = true;
};

Jacobian to_jacobian(const Point& p) {
  if (p.infinity) return Jacobian{};
  return Jacobian{fe_canon(p.x), fe_canon(p.y), U256::one(), false};
}

Point to_affine(const Jacobian& j) {
  if (j.infinity) return Point::make_infinity();
  const U256 zinv = fe_inv(j.z);
  const U256 zinv2 = fe_sqr(zinv);
  return Point{fe_mul(j.x, zinv2), fe_mul(j.y, fe_mul(zinv2, zinv)), false};
}

Jacobian jacobian_neg(const Jacobian& p) {
  if (p.infinity) return p;
  return Jacobian{p.x, fe_neg(p.y), p.z, false};
}

Jacobian jacobian_double(const Jacobian& p) {
  if (p.infinity || p.y.is_zero()) return Jacobian{};
  // Jacobian doubling for a = 0: 3 multiplications, 4 squarings.
  const U256 a = fe_sqr(p.x);                           // X^2
  const U256 b = fe_sqr(p.y);                           // Y^2
  const U256 c = fe_sqr(b);                             // Y^4
  U256 d = fe_mul(p.x, b);
  d = fe_add(d, d);
  d = fe_add(d, d);                                     // 4*X*Y^2
  const U256 e = fe_add(a, fe_add(a, a));               // 3*X^2
  const U256 x3 = fe_sub(fe_sqr(e), fe_add(d, d));      // e^2 - 2d
  U256 c8 = fe_add(c, c);
  c8 = fe_add(c8, c8);
  c8 = fe_add(c8, c8);                                  // 8*Y^4
  const U256 y3 = fe_sub(fe_mul(e, fe_sub(d, x3)), c8);
  const U256 yz = fe_mul(p.y, p.z);
  return Jacobian{x3, y3, fe_add(yz, yz), false};
}

// Shared tail of the full and mixed additions once u1 != u2:
// h = u2 - u1, r = s2 - s1, and z3 = zz * h.
Jacobian add_finish(const U256& u1, const U256& s1, const U256& h,
                    const U256& r, const U256& zz) {
  const U256 hh = fe_sqr(h);
  const U256 hhh = fe_mul(hh, h);
  const U256 v = fe_mul(u1, hh);
  const U256 x3 = fe_sub(fe_sub(fe_sqr(r), hhh), fe_add(v, v));
  const U256 y3 = fe_sub(fe_mul(r, fe_sub(v, x3)), fe_mul(s1, hhh));
  return Jacobian{x3, y3, fe_mul(zz, h), false};
}

Jacobian jacobian_add(const Jacobian& p, const Jacobian& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const U256 z1z1 = fe_sqr(p.z);
  const U256 z2z2 = fe_sqr(q.z);
  const U256 u1 = fe_mul(p.x, z2z2);
  const U256 u2 = fe_mul(q.x, z1z1);
  const U256 s1 = fe_mul(p.y, fe_mul(z2z2, q.z));
  const U256 s2 = fe_mul(q.y, fe_mul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 == s2) return jacobian_double(p);
    return Jacobian{};  // P + (-P) = infinity
  }
  return add_finish(u1, s1, fe_sub(u2, u1), fe_sub(s2, s1),
                    fe_mul(p.z, q.z));
}

// p + q for a finite q with canonical coordinates (Z = 1): 11 field
// multiplications, squarings included, against a full addition's 16.
Jacobian jacobian_add_affine(const Jacobian& p, const Point& q) {
  if (p.infinity) return Jacobian{q.x, q.y, U256::one(), false};
  const U256 z1z1 = fe_sqr(p.z);
  const U256 u2 = fe_mul(q.x, z1z1);
  const U256 s2 = fe_mul(q.y, fe_mul(z1z1, p.z));
  if (p.x == u2) {
    if (p.y == s2) return jacobian_double(p);
    return Jacobian{};  // P + (-P) = infinity
  }
  return add_finish(p.x, p.y, fe_sub(u2, p.x), fe_sub(s2, p.y), p.z);
}

// ------------------------------------------------------ scalar multiples

// Fixed-window comb for G: entry 15*i + (j - 1) is j * 16^i * G, so k * G
// is one table addition per nonzero 4-bit digit of k and no doublings.
// No entry is infinity: j * 16^i < n for every j <= 15, i < 64.
constexpr int kCombWindows = 64;
constexpr int kCombDigits = 15;

// Affine forms of finite Jacobian points for one field inversion
// (Montgomery's trick): invert the product of every Z, then peel each
// point's 1/Z off it with two multiplications.
std::vector<Point> to_affine_batch(const std::vector<Jacobian>& points) {
  std::vector<U256> prefix(points.size());  // Z_0 * ... * Z_(i-1)
  U256 acc = U256::one();
  for (std::size_t i = 0; i < points.size(); ++i) {
    prefix[i] = acc;
    acc = fe_mul(acc, points[i].z);
  }
  U256 inv = fe_inv(acc);  // 1 / (Z_0 * ... * Z_i) as i walks down
  std::vector<Point> out(points.size());
  for (std::size_t i = points.size(); i-- > 0;) {
    const U256 zinv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, points[i].z);
    const U256 zinv2 = fe_sqr(zinv);
    out[i] = Point{fe_mul(points[i].x, zinv2),
                   fe_mul(points[i].y, fe_mul(zinv2, zinv)), false};
  }
  return out;
}

const std::vector<Point>& comb_table() {
  static const std::vector<Point> table = [] {
    std::vector<Jacobian> entries;
    entries.reserve(kCombWindows * kCombDigits);
    Jacobian base = to_jacobian(generator());  // 16^i * G
    for (int i = 0; i < kCombWindows; ++i) {
      Jacobian multiple = base;
      for (int j = 1; j <= kCombDigits; ++j) {
        entries.push_back(multiple);
        multiple = jacobian_add(multiple, base);
      }
      base = multiple;
    }
    return to_affine_batch(entries);
  }();
  return table;
}

Jacobian mul_base(const U256& k) {
  const std::vector<Point>& table = comb_table();
  Jacobian acc;
  for (int i = 0; i < kCombWindows; ++i) {
    const auto digit = static_cast<int>(
        (k.limb[static_cast<std::size_t>(i / 16)] >> (4 * (i % 16))) & 15);
    if (digit != 0) {
      acc = jacobian_add_affine(
          acc, table[static_cast<std::size_t>(i * kCombDigits + digit - 1)]);
    }
  }
  return acc;
}

// `count` (<= 5) bits of k starting at bit `pos`.
int bits_at(const U256& k, int pos, int count) {
  const auto limb = static_cast<std::size_t>(pos / 64);
  const int shift = pos % 64;
  std::uint64_t v = k.limb[limb] >> shift;
  if (shift + count > 64 && limb < 3) v |= k.limb[limb + 1] << (64 - shift);
  return static_cast<int>(v & ((1u << count) - 1));
}

// Width-5 NAF: k = sum of digits[i] * 2^i with every digit zero or odd in
// [-15, 15], and at least four zeros above each nonzero digit. A negative
// digit carries into the bits above it, so a 256-bit k can need a 257th
// digit. Returns the number of digits up to the highest nonzero one.
constexpr int kWnafWidth = 5;
using Wnaf = std::array<int, 257>;

int wnaf(const U256& k, Wnaf& digits) {
  digits.fill(0);
  int carry = 0;
  int len = 0;
  for (int bit = 0; bit < 256;) {
    if (bits_at(k, bit, 1) == carry) {  // this bit plus the carry is even
      ++bit;
      continue;
    }
    const int now = std::min(kWnafWidth, 256 - bit);
    int word = bits_at(k, bit, now) + carry;  // odd, below 2^now
    carry = word >> (kWnafWidth - 1);
    word -= carry << kWnafWidth;
    digits[static_cast<std::size_t>(bit)] = word;
    len = bit + 1;
    bit += now;
  }
  if (carry != 0) {
    digits[256] = 1;
    len = 257;
  }
  return len;
}

Jacobian mul(const U256& k, const Jacobian& p) {
  if (p.infinity) return p;
  // Odd multiples P, 3P, ..., 15P.
  std::array<Jacobian, 8> odd;
  odd[0] = p;
  const Jacobian twice = jacobian_double(p);
  for (std::size_t i = 1; i < odd.size(); ++i) {
    odd[i] = jacobian_add(odd[i - 1], twice);
  }
  Wnaf digits;
  const int len = wnaf(k, digits);
  Jacobian acc;
  for (int i = len - 1; i >= 0; --i) {
    acc = jacobian_double(acc);
    const int d = digits[static_cast<std::size_t>(i)];
    if (d > 0) {
      acc = jacobian_add(acc, odd[static_cast<std::size_t>(d / 2)]);
    } else if (d < 0) {
      acc = jacobian_add(acc,
                         jacobian_neg(odd[static_cast<std::size_t>(-d / 2)]));
    }
  }
  return acc;
}

}  // namespace

const SpecialModulus& field_modulus() {
  static const SpecialModulus m = SpecialModulus::make(U256::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
  return m;
}

const SpecialModulus& order_modulus() {
  static const SpecialModulus m = SpecialModulus::make(U256::from_hex(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));
  return m;
}

const Point& generator() {
  static const Point g{
      U256::from_hex(
          "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
      U256::from_hex(
          "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
      false};
  return g;
}

bool on_curve(const Point& pt) {
  if (pt.infinity) return true;
  const auto& fp = field_modulus();
  const U256 y2 = mul_mod(pt.y, pt.y, fp);
  const U256 x3 =
      add_mod(mul_mod(mul_mod(pt.x, pt.x, fp), pt.x, fp), U256::from_u64(7), fp);
  return y2 == x3;
}

Point add(const Point& a, const Point& b) {
  return to_affine(jacobian_add(to_jacobian(a), to_jacobian(b)));
}

Point scalar_mul(const U256& k, const Point& p) {
  return to_affine(mul(k, to_jacobian(p)));
}

Point scalar_mul_base(const U256& k) { return to_affine(mul_base(k)); }

bool base_mul_sub_equals(const U256& s, const U256& e, const Point& p,
                         const Point& r) {
  const Jacobian q =
      jacobian_add(mul_base(s), jacobian_neg(mul(e, to_jacobian(p))));
  const Jacobian rj = to_jacobian(r);
  if (q.infinity || rj.infinity) return q.infinity && rj.infinity;
  // Q == R  iff  X_Q == x_R * Z_Q^2  and  Y_Q == y_R * Z_Q^3.
  const U256 z2 = fe_sqr(q.z);
  return q.x == fe_mul(rj.x, z2) && q.y == fe_mul(rj.y, fe_mul(z2, q.z));
}

Point negate(const Point& p) {
  if (p.infinity) return p;
  const auto& fp = field_modulus();
  return Point{p.x, sub_mod(U256::zero(), p.y, fp), false};
}

Bytes encode_point(const Point& p) {
  if (p.infinity) return Bytes(64, 0);
  Bytes out = p.x.to_be_bytes();
  const Bytes y = p.y.to_be_bytes();
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<Point> decode_point(const Bytes& b) {
  if (b.size() != 64) return std::nullopt;
  bool all_zero = true;
  for (auto v : b) {
    if (v != 0) {
      all_zero = false;
      break;
    }
  }
  if (all_zero) return Point::make_infinity();
  Point p;
  p.x = U256::from_be_bytes(Bytes(b.begin(), b.begin() + 32));
  p.y = U256::from_be_bytes(Bytes(b.begin() + 32, b.end()));
  p.infinity = false;
  if (!on_curve(p)) return std::nullopt;
  return p;
}

}  // namespace cia::crypto
