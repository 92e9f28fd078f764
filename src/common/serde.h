#ifndef PEXESO_COMMON_SERDE_H_
#define PEXESO_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"

namespace pexeso {

/// Incremental CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
/// `crc` is the running value, starting at 0 for a fresh stream.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t n);

/// Footer marker written after the payload by WriteChecksumFooter
/// ("1CRC" little-endian).
inline constexpr uint32_t kChecksumFooterMagic = 0x43524331u;

/// Streams the file at `path` and validates its trailing checksum footer
/// against every payload byte, WITHOUT deserializing anything — the cheap
/// integrity pass recovery and fsck run over each referenced snapshot. The
/// footer is mandatory: a file without one, one whose last 8 bytes are not
/// a footer (trailing bytes after it included) or a CRC mismatch is
/// Corruption; a failed open or read is IoError.
Status VerifyFileChecksum(const std::string& path);

/// \brief Little binary writer for the partition files used by the
/// out-of-core search path. The format is a private on-disk format (magic +
/// version header written by the owning serializer), not an interchange one.
///
/// Two backends share the Write* surface: a file stream (Open) and an
/// in-memory string (ToBuffer). The buffer backend lets section-oriented
/// formats reuse a structure's Serialize(BinaryWriter*) to fill a memory
/// section that the owning file writer then emits with WriteBytes.
///
/// Every byte written feeds a running CRC-32; serializers that want
/// end-to-end corruption detection call WriteChecksumFooter() last, and
/// their readers check it with VerifyFileChecksum (or one CRC pass over a
/// mapped buffer) before trusting the payload.
///
/// Failpoints: "serde:writer:open" (IoError on Open), "serde:writer:close"
/// (IoError on Close — a disk filling up at flush), "serde:writer:corrupt"
/// (flips one byte of a file write while the CRC keeps the original — bit
/// rot the reader's checksum must catch; buffer-backed writers model
/// in-memory serialization, not the disk, so the failpoint only fires on
/// the file backend).
class BinaryWriter {
 public:
  /// Opens `path` for truncating binary write.
  static Result<BinaryWriter> Open(const std::string& path);

  /// A writer appending to `*out` (not owned; must outlive the writer).
  static BinaryWriter ToBuffer(std::string* out) { return BinaryWriter(out); }

  /// Writes a trivially-copyable value.
  template <typename T>
  void Write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteRaw(&v, sizeof(T));
  }

  /// Writes a length-prefixed string.
  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    WriteRaw(s.data(), s.size());
  }

  /// Writes a length-prefixed vector of trivially-copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(v.size());
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  /// Writes `n` raw bytes with no length prefix. The bytes feed the running
  /// CRC like any other write; section-oriented formats use this to emit
  /// pre-serialized section images and alignment padding.
  void WriteBytes(const void* p, size_t n) { WriteRaw(p, n); }

  /// Payload bytes written so far (the current file/buffer offset).
  uint64_t bytes_written() const { return bytes_; }

  /// Appends the footer: kChecksumFooterMagic + the CRC-32 of every payload
  /// byte written so far. Must be the last write before Close().
  void WriteChecksumFooter() {
    const uint32_t payload_crc = crc_;
    Write<uint32_t>(kChecksumFooterMagic);
    Write<uint32_t>(payload_crc);
  }

  /// Flushes and reports any stream error. No-op for buffer writers.
  Status Close();

 private:
  explicit BinaryWriter(std::ofstream out) : out_(std::move(out)) {}
  explicit BinaryWriter(std::string* buf) : buf_(buf) {}

  void WriteRaw(const void* p, size_t n) {
    if (n == 0) return;  // empty write; source may be null
    crc_ = Crc32Update(crc_, p, n);
    bytes_ += n;
    if (buf_ != nullptr) {
      buf_->append(static_cast<const char*>(p), n);
      return;
    }
    if (n > 0 && FailpointCorruptFires("serde:writer:corrupt")) {
      // Bit rot between write and read-back: the CRC above covers the
      // intended bytes, the disk gets one flipped bit.
      std::string copy(static_cast<const char*>(p), n);
      copy[0] = static_cast<char>(copy[0] ^ 0x01);
      out_.write(copy.data(), static_cast<std::streamsize>(n));
      return;
    }
    out_.write(static_cast<const char*>(p),
               static_cast<std::streamsize>(n));
  }

  std::ofstream out_;
  std::string* buf_ = nullptr;  ///< non-null => buffer backend
  uint64_t bytes_ = 0;
  uint32_t crc_ = 0;
};

/// \brief Reader counterpart of BinaryWriter. All reads report corruption
/// via Status rather than crashing on truncated files: every length prefix
/// is bounded by the bytes actually remaining in the file, so a bit-flipped
/// length can never drive a multi-gigabyte allocation.
///
/// Mirrors the writer's two backends: Open reads a file, FromBuffer reads a
/// bounded memory span (e.g. one section of a mapped snapshot) — the same
/// truncation bounds apply, with `remaining_` seeded from the span length.
///
/// Failpoints: "serde:reader:open" (IoError on Open), "serde:reader:read"
/// (injected status on any read).
class BinaryReader {
 public:
  /// Opens `path` for binary read.
  static Result<BinaryReader> Open(const std::string& path);

  /// A reader over `[data, data + size)` (not owned; must outlive reads).
  static BinaryReader FromBuffer(const void* data, size_t size) {
    return BinaryReader(static_cast<const uint8_t*>(data), size);
  }

  template <typename T>
  Status Read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(v, sizeof(T), "truncated read of fixed field");
  }

  Status ReadString(std::string* s) {
    uint64_t n = 0;
    PEXESO_RETURN_NOT_OK(Read(&n));
    if (n > remaining_) return Status::Corruption("string length implausible");
    s->resize(n);
    return ReadRaw(s->data(), n, "truncated string");
  }

  template <typename T>
  Status ReadVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    PEXESO_RETURN_NOT_OK(Read(&n));
    if (n > remaining_ / sizeof(T)) {
      return Status::Corruption("vector length implausible");
    }
    v->resize(n);
    return ReadRaw(v->data(), n * sizeof(T), "truncated vector");
  }

  /// Bytes not yet consumed (buffer readers: span bytes left). Parsers
  /// bound every element count by this before sizing anything.
  uint64_t remaining() const { return remaining_; }

 private:
  BinaryReader(std::ifstream in, uint64_t size)
      : in_(std::move(in)), remaining_(size) {}
  BinaryReader(const uint8_t* data, uint64_t size)
      : bufp_(data), remaining_(size) {}

  Status ReadRaw(void* p, size_t n, const char* what) {
    if (FailpointsArmed()) {
      PEXESO_RETURN_NOT_OK(FailpointHit("serde:reader:read"));
    }
    if (n > remaining_) return Status::Corruption(what);
    if (n == 0) return Status::OK();  // empty read; dest may be null
    if (bufp_ != nullptr) {
      std::memcpy(p, bufp_, n);
      bufp_ += n;
    } else {
      in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
      if (!in_) return Status::Corruption(what);
    }
    remaining_ -= n;
    return Status::OK();
  }

  std::ifstream in_;
  const uint8_t* bufp_ = nullptr;  ///< non-null => buffer backend
  uint64_t remaining_ = 0;  ///< bytes of file/span not yet consumed
};

}  // namespace pexeso

#endif  // PEXESO_COMMON_SERDE_H_
