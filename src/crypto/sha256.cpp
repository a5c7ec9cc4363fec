#include "crypto/sha256.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "crypto/sha256_internal.hpp"

#if CIA_SHA256_X86
#include <immintrin.h>
#endif

namespace cia::crypto {

namespace {

using detail::kSha256Init;
using detail::kSha256K;

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if CIA_SHA256_X86

// SHA-NI transform (the standard Intel/Walton sequence). State lives in
// two xmm registers in the ABEF/CDGH lane order the sha256rnds2
// instruction expects; the message schedule is computed four words at a
// time with sha256msg1/msg2.
__attribute__((target("sha,sse4.1,ssse3")))
void sha256_compress_sha_ni(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t blocks) {
  const __m128i kSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);               // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);         // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8); // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);      // CDGH

  while (blocks > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i msgs[4];
    __m128i msg;
    // Rounds 0-15: straight message words.
    for (int g = 0; g < 4; ++g) {
      msgs[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
          kSwap);
      msg = _mm_add_epi32(
          msgs[g],
          _mm_load_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    }
    // Rounds 16-63: W[4g..4g+3] from the schedule recurrence,
    //   msg2(msg1(W[g-4], W[g-3]) + alignr(W[g-1], W[g-2], 4), W[g-1])
    // where W[g-4] is the register slot being replaced.
    for (int g = 4; g < 16; ++g) {
      const __m128i w1 = msgs[(g + 3) % 4];  // W of group g-1
      const __m128i w2 = msgs[(g + 2) % 4];  // W of group g-2
      const __m128i w3 = msgs[(g + 1) % 4];  // W of group g-3
      msgs[g % 4] = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(msgs[g % 4], w3),
                        _mm_alignr_epi8(w1, w2, 4)),
          w1);
      msg = _mm_add_epi32(
          msgs[g % 4],
          _mm_load_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
    --blocks;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool detect_sha_ni() { return __builtin_cpu_supports("sha") != 0; }
bool detect_avx2() { return __builtin_cpu_supports("avx2") != 0; }

#else

bool detect_sha_ni() { return false; }
bool detect_avx2() { return false; }

#endif  // CIA_SHA256_X86

const bool kHaveShaNi = detect_sha_ni();
const bool kHaveAvx2 = detect_avx2();

// ---------------------------------------------------------------------------
// Backend resolution: force_backend() pin > CIA_SHA256_BACKEND > best
// supported hardware. The pin is a relaxed atomic — the only writers are
// benches and tests pinning a lane implementation before a run.

std::atomic<int> g_forced{static_cast<int>(Sha256Backend::kAuto)};

Sha256Backend best_backend() {
  if (kHaveShaNi) return Sha256Backend::kShaNi2;
  if (kHaveAvx2) return Sha256Backend::kAvx2;
  return Sha256Backend::kScalar;
}

Sha256Backend parse_backend_env() {
  const char* v = std::getenv("CIA_SHA256_BACKEND");
  if (v == nullptr) return Sha256Backend::kAuto;
  const std::string_view s(v);
  Sha256Backend b = Sha256Backend::kAuto;
  if (s == "scalar") b = Sha256Backend::kScalar;
  else if (s == "shani") b = Sha256Backend::kShaNi;
  else if (s == "shani2") b = Sha256Backend::kShaNi2;
  else if (s == "avx2") b = Sha256Backend::kAvx2;
  // Unknown or unsupported values fall back to auto instead of aborting:
  // a CI job pinning avx2 must not take down a host without it.
  return sha256_backend_supported(b) ? b : Sha256Backend::kAuto;
}

Sha256Backend resolve_backend() {
  const auto forced = static_cast<Sha256Backend>(
      g_forced.load(std::memory_order_relaxed));
  if (forced != Sha256Backend::kAuto) return forced;
  static const Sha256Backend env = parse_backend_env();
  if (env != Sha256Backend::kAuto) return env;
  return best_backend();
}

bool use_sha_ni_compress() {
  return kHaveShaNi && resolve_backend() != Sha256Backend::kScalar;
}

}  // namespace

bool sha256_backend_supported(Sha256Backend b) {
  switch (b) {
    case Sha256Backend::kAuto:
    case Sha256Backend::kScalar:
      return true;
    case Sha256Backend::kShaNi:
    case Sha256Backend::kShaNi2:
      return kHaveShaNi;
    case Sha256Backend::kAvx2:
      return kHaveAvx2;
  }
  return false;
}

bool force_backend(Sha256Backend b) {
  if (!sha256_backend_supported(b)) return false;
  g_forced.store(static_cast<int>(b), std::memory_order_relaxed);
  return true;
}

Sha256Backend sha256_active_backend() { return resolve_backend(); }

const char* sha256_backend_name() {
  switch (resolve_backend()) {
    case Sha256Backend::kScalar: return "scalar";
    case Sha256Backend::kShaNi: return "shani";
    case Sha256Backend::kShaNi2: return "shani2";
    case Sha256Backend::kAvx2: return "avx2";
    case Sha256Backend::kAuto: break;  // resolve_backend never returns kAuto
  }
  return "scalar";
}

bool sha256_hw_accelerated() {
  return resolve_backend() != Sha256Backend::kScalar;
}

namespace detail {

void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void sha256_compress(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t blocks) {
#if CIA_SHA256_X86
  if (use_sha_ni_compress()) {
    sha256_compress_sha_ni(state, data, blocks);
    return;
  }
#endif
  sha256_compress_scalar(state, data, blocks);
}

}  // namespace detail

Sha256::Sha256() { std::memcpy(state_, kSha256Init, sizeof(state_)); }

void Sha256::reset() {
  std::memcpy(state_, kSha256Init, sizeof(state_));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      detail::sha256_compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    const std::size_t blocks = len / 64;
    detail::sha256_compress(state_, data, blocks);
    data += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::finish() {
  // Pad in place: 0x80, zeros to the next 56-byte boundary, then the
  // big-endian bit length — at most two compressions, no byte-at-a-time
  // re-entry into update().
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    detail::sha256_compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  detail::sha256_compress(state_, buffer_, 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(const Bytes& data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest sha256(const std::string& data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest sha256_pair(const std::uint8_t* a, std::size_t a_len,
                   const std::uint8_t* b, std::size_t b_len) {
  Sha256 ctx;
  ctx.update(a, a_len);
  ctx.update(b, b_len);
  return ctx.finish();
}

Digest template_hash_of(const Digest& file_hash, std::string_view path) {
  return sha256_pair(file_hash.data(), file_hash.size(),
                     reinterpret_cast<const std::uint8_t*>(path.data()),
                     path.size());
}

Digest pcr_fold(const Digest& acc, const Digest& t) {
  Digest out;
#if CIA_SHA256_X86
  if (use_sha_ni_compress()) {
    detail::pcr_fold_shani(acc.data(), t.data(), out.data());
    return out;
  }
#endif
  detail::pcr_fold_scalar_fused(acc.data(), t.data(), out.data());
  return out;
}

// ---------------------------------------------------------------------------
// Batch harness. The lane kernels want `lane_width` equal-length padded
// streams; real batches are neither equal-length nor lane-aligned. The
// harness bridges the gap:
//
//  - every message up to kMaxLaneBlocks padded blocks is padded into a
//    per-lane scratch buffer and bucketed by block count; a bucket
//    flushes through the kernel whenever it holds lane_width messages,
//  - a partial bucket at the end flushes with its remaining lane slots
//    aliased to the first message (one kernel pass costs about one
//    single-stream pass over the same block count, so aliasing beats
//    falling back as soon as two real lanes are present — and ties when
//    there is one),
//  - everything longer, and every message on a non-lane backend,
//    takes the retained single-stream loop.
//
// Every route computes real SHA-256, so digests are identical no matter
// how a message was grouped.

namespace {

constexpr std::size_t kMaxLaneBlocks = 8;  // payloads up to 8*64-9 = 503 bytes

std::size_t padded_blocks(const HashInput& in) {
  return (in.a_len + in.b_len + 9 + 63) / 64;
}

// Assemble in's fully padded message (a || b || 0x80 || zeros || bitlen)
// into dst. dst must hold padded_blocks(in) * 64 bytes.
void pad_message(const HashInput& in, std::uint8_t* dst) {
  const std::size_t total = in.a_len + in.b_len;
  if (in.a_len > 0) std::memcpy(dst, in.a, in.a_len);
  if (in.b_len > 0) std::memcpy(dst + in.a_len, in.b, in.b_len);
  const std::size_t padded = padded_blocks(in) * 64;
  dst[total] = 0x80;
  std::memset(dst + total + 1, 0, padded - total - 1 - 8);
  const std::uint64_t bit_len = static_cast<std::uint64_t>(total) * 8;
  for (int i = 0; i < 8; ++i) {
    dst[padded - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
}

void serialize_state(const std::uint32_t state[8], Digest& out) {
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

void hash_one(const HashInput& in, Digest& out) {
  Sha256 ctx;
  if (in.a_len > 0) ctx.update(in.a, in.a_len);
  if (in.b_len > 0) ctx.update(in.b, in.b_len);
  out = ctx.finish();
}

#if CIA_SHA256_X86

void run_group_x2(const HashInput* in, Digest* out, const std::size_t idx[2],
                  std::size_t blocks) {
  alignas(64) std::uint8_t lanes[2][kMaxLaneBlocks * 64];
  std::uint32_t st[2][8];
  for (int l = 0; l < 2; ++l) {
    pad_message(in[idx[l]], lanes[l]);
    std::memcpy(st[l], kSha256Init, sizeof(st[l]));
  }
  detail::sha256_ni_x2(st, lanes[0], lanes[1], blocks);
  for (int l = 0; l < 2; ++l) serialize_state(st[l], out[idx[l]]);
}

void run_group_x8(const HashInput* in, Digest* out, const std::size_t idx[8],
                  std::size_t blocks) {
  alignas(64) std::uint8_t lanes[8][kMaxLaneBlocks * 64];
  const std::uint8_t* ptrs[8];
  std::uint32_t st[8][8];
  for (int l = 0; l < 8; ++l) {
    pad_message(in[idx[l]], lanes[l]);
    ptrs[l] = lanes[l];
    std::memcpy(st[l], kSha256Init, sizeof(st[l]));
  }
  detail::sha256_avx2_x8(st, ptrs, blocks);
  for (int l = 0; l < 8; ++l) serialize_state(st[l], out[idx[l]]);
}

template <std::size_t W>
void batch_lanes(const HashInput* in, std::size_t n, Digest* out) {
  std::size_t pend[kMaxLaneBlocks + 1][W];
  std::size_t pend_n[kMaxLaneBlocks + 1] = {};

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blocks = padded_blocks(in[i]);
    if (blocks <= kMaxLaneBlocks) {
      std::size_t& c = pend_n[blocks];
      pend[blocks][c++] = i;
      if (c == W) {
        if constexpr (W == 2) run_group_x2(in, out, pend[blocks], blocks);
        else run_group_x8(in, out, pend[blocks], blocks);
        c = 0;
      }
    } else {
      hash_one(in[i], out[i]);
    }
  }

  // Partial buckets: alias the unused lanes to the first message. The
  // duplicate lanes recompute (and re-store) the same digest, which is
  // harmless and cheaper than branching inside the kernels.
  for (std::size_t blocks = 1; blocks <= kMaxLaneBlocks; ++blocks) {
    const std::size_t c = pend_n[blocks];
    if (c == 0) continue;
    for (std::size_t l = c; l < W; ++l) pend[blocks][l] = pend[blocks][0];
    if constexpr (W == 2) run_group_x2(in, out, pend[blocks], blocks);
    else run_group_x8(in, out, pend[blocks], blocks);
  }
}

#endif  // CIA_SHA256_X86

}  // namespace

void sha256_batch(const HashInput* in, std::size_t n, Digest* out) {
  if (n == 0) return;
#if CIA_SHA256_X86
  const Sha256Backend backend = resolve_backend();
  if (backend == Sha256Backend::kShaNi2 && kHaveShaNi) {
    batch_lanes<2>(in, n, out);
    return;
  }
  if (backend == Sha256Backend::kAvx2 && kHaveAvx2) {
    batch_lanes<8>(in, n, out);
    return;
  }
#endif
  // Retained single-stream loop: the scalar backend, and the `shani`
  // backend that runs each message through the (dispatched) streaming
  // context exactly as the pre-lane code did.
  Sha256 ctx;
  for (std::size_t i = 0; i < n; ++i) {
    ctx.reset();
    if (in[i].a_len > 0) ctx.update(in[i].a, in[i].a_len);
    if (in[i].b_len > 0) ctx.update(in[i].b, in[i].b_len);
    out[i] = ctx.finish();
  }
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

std::string digest_hex(const Digest& d) {
  std::string out;
  append_digest_hex(out, d);
  return out;
}

void append_digest_hex(std::string& out, const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  char hex[2 * kSha256Size];
  for (std::size_t i = 0; i < kSha256Size; ++i) {
    hex[2 * i] = kHex[d[i] >> 4];
    hex[2 * i + 1] = kHex[d[i] & 0x0f];
  }
  out.append(hex, sizeof(hex));
}

namespace {

// The nibble each lowercase hex digit stands for; kNotNibble for every
// other byte. Table lookups instead of range compares: hex digits of a
// digest are random, so a compare per character mispredicts often, and
// an index build decodes one digest per policy line.
constexpr std::uint8_t kNotNibble = 0x10;
constexpr std::array<std::uint8_t, 256> kLowerHexNibble = [] {
  std::array<std::uint8_t, 256> table{};
  for (auto& v : table) v = kNotNibble;
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<std::uint8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c) {
    table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
  }
  return table;
}();

std::uint8_t nibble(char c) {
  return kLowerHexNibble[static_cast<unsigned char>(c)];
}

}  // namespace

bool digest_from_hex(std::string_view hex, Digest& out) {
  if (hex.size() != 2 * kSha256Size) return false;
  std::uint8_t seen = 0;
  for (std::size_t i = 0; i < kSha256Size; ++i) {
    const std::uint8_t hi = nibble(hex[2 * i]);
    const std::uint8_t lo = nibble(hex[2 * i + 1]);
    seen |= hi | lo;
    out[i] = static_cast<std::uint8_t>((hi << 4) | (lo & 0x0f));
  }
  return (seen & kNotNibble) == 0;
}

bool is_digest_hex(std::string_view hex) {
  Digest ignored;
  return digest_from_hex(hex, ignored);
}

Digest zero_digest() {
  Digest d{};
  return d;
}

}  // namespace cia::crypto
