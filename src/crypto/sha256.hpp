// SHA-256 (FIPS 180-4), implemented from scratch so the library is
// self-contained. Used for IMA file measurements, TPM PCR extends,
// policy hashes, and as the hash inside HMAC and Schnorr.
//
// The compression function is runtime-dispatched: on x86-64 hosts with
// the SHA extensions (most server parts since Goldmont/Zen) multi-block
// inputs go through a SHA-NI transform, everything else through the
// portable scalar path. Both produce identical digests — a crypto_test
// holds them against each other over random inputs of every length
// class, and the FIPS known-answer vectors pin the dispatched result.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace cia::crypto {

constexpr std::size_t kSha256Size = 32;
using Digest = std::array<std::uint8_t, kSha256Size>;

/// Streaming SHA-256 context.
class Sha256 {
 public:
  Sha256();

  /// Absorb more input.
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(const std::string& data) {
    update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }
  void update(std::string_view data) {
    update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  /// Finalize and return the digest. The context must not be reused
  /// after finish() until reset() is called.
  Digest finish();

  /// Return the context to its freshly-constructed state so it can hash
  /// another message. Appraisal loops hash hundreds of thousands of
  /// records per round; reset() lets them reuse one context instead of
  /// constructing a new one per record.
  void reset();

 private:
  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot digest of a byte buffer.
Digest sha256(const Bytes& data);

/// One-shot digest of a string.
Digest sha256(const std::string& data);

/// One-shot digest of two concatenated segments, sha256(a || b), with no
/// heap allocation. This is the shape of every record on the appraisal
/// hot path: the ima-ng template hash is sha256(file_hash || path) and a
/// PCR fold step is sha256(pcr || template_hash).
Digest sha256_pair(const std::uint8_t* a, std::size_t a_len,
                   const std::uint8_t* b, std::size_t b_len);

/// The ima-ng template hash of a measurement record:
/// sha256(file_hash || path). Allocation-free — use this instead of
/// `ctx.update(digest_bytes(file_hash))`, which heap-allocates a Bytes
/// copy of the digest per record.
Digest template_hash_of(const Digest& file_hash, std::string_view path);

/// One TPM extend / measurement-list replay step: sha256(acc || t).
Digest pcr_fold(const Digest& acc, const Digest& t);

/// A two-segment hashing record for sha256_batch. `b` may be empty.
struct HashInput {
  const std::uint8_t* a = nullptr;
  std::size_t a_len = 0;
  const std::uint8_t* b = nullptr;
  std::size_t b_len = 0;
};

/// Hash `n` two-segment records into `out[0..n)` with no per-record
/// allocation. Record i's digest is sha256(in[i].a || in[i].b) — n
/// independent hashes. On hosts with the SHA extensions the records are
/// driven through two interleaved SHA-NI streams; with AVX2 only,
/// through an 8-wide transposed kernel; otherwise through the scalar
/// loop. All backends produce identical digests for identical inputs —
/// the multi-lane paths are a throughput optimization, not a semantic
/// one.
void sha256_batch(const HashInput* in, std::size_t n, Digest* out);

/// Digest as Bytes.
Bytes digest_bytes(const Digest& d);

/// Lowercase hex of a digest.
std::string digest_hex(const Digest& d);

/// Append digest_hex(d) to `out` without a string of its own.
void append_digest_hex(std::string& out, const Digest& d);

/// True when `hex` is a string digest_hex can render: exactly 64
/// lowercase hex digits. Policy parsers and the delta decoder accept
/// only this form, and only a line in this form can match a measured
/// digest.
bool is_digest_hex(std::string_view hex);

/// The inverse of digest_hex: decodes `hex` into `out` and returns true
/// exactly when is_digest_hex(hex). `out` is unspecified otherwise.
bool digest_from_hex(std::string_view hex, Digest& out);

/// An all-zero digest (e.g., initial PCR value).
Digest zero_digest();

/// Selectable SHA-256 backends. kAuto resolves to the best supported
/// lane implementation (shani2 > avx2 > scalar). kShaNi is the
/// single-stream SHA-NI loop (the pre-multi-lane batch shape, kept so
/// benches can isolate the lane win from the instruction win).
enum class Sha256Backend { kAuto = 0, kScalar, kShaNi, kShaNi2, kAvx2 };

/// True when `b` can run on this host (kAuto and kScalar always can).
bool sha256_backend_supported(Sha256Backend b);

/// Pin the backend for the whole process (benches, differential tests,
/// the CI forced-scalar job). Overrides the CIA_SHA256_BACKEND
/// environment variable; kAuto clears the pin. Returns false — and
/// changes nothing — when the backend is not supported on this host.
bool force_backend(Sha256Backend b);

/// The backend every hash call is currently dispatched to, after
/// resolving the force_backend() pin, then CIA_SHA256_BACKEND, then
/// hardware auto-detection.
Sha256Backend sha256_active_backend();

/// Name of the active backend ("scalar", "shani", "shani2", "avx2") for
/// bench labelling and log lines.
const char* sha256_backend_name();

/// True when the active backend uses hardware hash/vector instructions
/// (i.e. resolves to anything other than scalar). Under a forced or
/// env-pinned scalar backend this reports false, so bench baselines
/// recorded on accelerated hosts are not compared against scalar runs.
bool sha256_hw_accelerated();

namespace detail {
/// Portable compression over `blocks` consecutive 64-byte blocks.
void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t blocks);
/// Dispatched compression (SHA-NI when available, else scalar). Exposed
/// so tests can hold the two backends against each other directly.
void sha256_compress(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t blocks);
}  // namespace detail

}  // namespace cia::crypto
