#include "common/serde.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pexeso {

namespace {

// Slice-by-8 lookup tables. table[0] is the classic byte-at-a-time table;
// table[k][b] extends it so eight input bytes fold into the running CRC with
// one table lookup each and a single shift, producing bit-identical values
// to the byte-serial loop (the polynomial and reflection are unchanged —
// only the evaluation order differs).
std::array<std::array<uint32_t, 256>, 8> BuildCrc32Tables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

#if defined(__x86_64__)
#define PEXESO_PCLMUL __attribute__((target("pclmul,sse4.1")))

/// Carry-less-multiply CRC-32 folding (the Intel CRC whitepaper scheme, as
/// shipped in zlib): four 128-bit lanes fold 64 input bytes per iteration,
/// then fold to one lane, 64 bits, and Barrett-reduce. Bit-identical to the
/// table loop — same polynomial (0xEDB88320, reflected), different
/// evaluation order. `crc` is the raw running remainder (caller handles the
/// ~crc pre/post inversion); `len` must be >= 64 and a multiple of 16.
PEXESO_PCLMUL uint32_t Crc32Clmul(const uint8_t* buf, size_t len,
                                  uint32_t crc) {
  alignas(16) static const uint64_t k1k2[] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const uint64_t k3k4[] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const uint64_t k5k0[] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const uint64_t poly[] = {0x01db710641, 0x01f7011641};
  __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8, y5, y6, y7, y8;

  x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
  x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
  x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
  x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  buf += 64;
  len -= 64;

  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    y5 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
    y6 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
    y7 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
    y8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), y5);
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), y6);
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), y7);
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), y8);
    buf += 64;
    len -= 64;
  }

  // Fold the four lanes into one.
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  while (len >= 16) {
    x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
    buf += 16;
    len -= 16;
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}
#undef PEXESO_PCLMUL

bool Crc32ClmulSupported() {
  static const bool ok = __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("sse4.1");
  return ok;
}
#endif  // __x86_64__

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t n) {
  static const auto tables = BuildCrc32Tables();
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
#if defined(__x86_64__)
  // Bulk of a large buffer goes through the carry-less-multiply folder
  // (~10x the table loop); the tail (< 64 bytes or the trailing non-16
  // remainder) falls through to the table path below.
  if (n >= 64 && Crc32ClmulSupported()) {
    const size_t chunk = n & ~size_t{15};
    crc = Crc32Clmul(p, chunk, crc);
    p += chunk;
    n -= chunk;
  }
#endif
  // The 8-byte fold assumes little-endian u32 loads; every supported target
  // (x86-64, AArch64 Linux) is LE, and the byte-serial tail below is the
  // full fallback otherwise.
  while (std::endian::native == std::endian::little && n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][(lo >> 24) & 0xFFu] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][(hi >> 24) & 0xFFu];
    p += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    crc = tables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

Result<BinaryWriter> BinaryWriter::Open(const std::string& path) {
  PEXESO_RETURN_NOT_OK(FailpointHit("serde:writer:open"));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  return BinaryWriter(std::move(out));
}

Status BinaryWriter::Close() {
  if (buf_ != nullptr) return Status::OK();
  PEXESO_RETURN_NOT_OK(FailpointHit("serde:writer:close"));
  out_.flush();
  if (!out_) return Status::IoError("flush failed");
  out_.close();
  return Status::OK();
}

Result<BinaryReader> BinaryReader::Open(const std::string& path) {
  PEXESO_RETURN_NOT_OK(FailpointHit("serde:reader:open"));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size < 0 || !in) {
    // Non-seekable source (a FIFO in tests, a pipe in a shell one-liner):
    // no size to bound length prefixes against, so fall back to a
    // plausibility cap — a mangled prefix still fails its read instead of
    // driving a huge allocation first.
    in.clear();
    in.seekg(0, std::ios::beg);
    in.clear();
    return BinaryReader(std::move(in), uint64_t{1} << 40);
  }
  return BinaryReader(std::move(in), static_cast<uint64_t>(size));
}

Status VerifyFileChecksum(const std::string& path) {
  PEXESO_RETURN_NOT_OK(FailpointHit("serde:reader:open"));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size < 0 || !in) return Status::IoError("cannot size: " + path);

  constexpr std::streamoff kFooterBytes = 2 * sizeof(uint32_t);
  if (size < kFooterBytes) {
    return Status::Corruption("snapshot checksum footer missing: " + path);
  }

  const uint64_t payload = static_cast<uint64_t>(size - kFooterBytes);
  uint32_t crc = 0;
  std::vector<char> buf(1u << 16);
  uint64_t left = payload;
  while (left > 0) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(left, buf.size()));
    in.read(buf.data(), static_cast<std::streamsize>(chunk));
    if (in.gcount() != static_cast<std::streamsize>(chunk)) {
      return Status::IoError("short read verifying: " + path);
    }
    crc = Crc32Update(crc, buf.data(), chunk);
    left -= chunk;
  }
  uint32_t magic = 0, stored = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in) return Status::IoError("short read verifying: " + path);
  if (magic != kChecksumFooterMagic) {
    return Status::Corruption("snapshot checksum footer malformed: " + path);
  }
  if (stored != crc) {
    return Status::Corruption("snapshot checksum mismatch (corrupt file): " +
                              path);
  }
  return Status::OK();
}

}  // namespace pexeso
