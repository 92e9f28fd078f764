#ifndef PEXESO_NET_WIRE_H_
#define PEXESO_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/query.h"
#include "vec/search_stats.h"

namespace pexeso::net {

/// \brief The pexeso_server wire protocol: compact length-prefixed binary
/// frames over TCP, little-endian (the library's native layout, like the
/// snapshot files), each integrity-checked with the same CRC-32 the
/// common/serde snapshot footers use.
///
/// Frame layout (kFrameOverhead = 13 bytes around the payload):
///
///   +--------+---------+------+-------------------+--------+
///   | magic  | length  | type | payload            | crc32  |
///   | u32    | u32     | u8   | `length` bytes     | u32    |
///   +--------+---------+------+-------------------+--------+
///
/// The CRC covers the type byte plus the payload. A receiver that sees a
/// wrong magic, an implausible length, an unknown type or a CRC mismatch is
/// looking at a corrupt or hostile stream; the server answers with one
/// kError frame and closes the connection (resynchronizing inside a
/// byte-corrupted stream is not worth the attack surface).
///
/// Conversation: the client opens with kHello (protocol version + tenant
/// id) and waits for kHelloAck. Afterwards it may pipeline any number of
/// kQuery frames (client-assigned ids); the server streams kChunk frames —
/// one per partition, exactly as ServeSession's chunk callback produces
/// them, racing across queries — and terminates each query with one kDone
/// frame (final status + merge flag + SearchStats). kStats at any time
/// yields one kStatsText metrics snapshot. kCancel aborts a running query
/// via its CancelToken.
///
/// Version 2 carries SearchStats in kDone as a tagged block: a u16 count,
/// then one (u16 wire id, u64 value bits) entry per nonzero field of the
/// PEXESO_SEARCH_STATS_FIELDS table. A reader skips ids it does not know
/// and leaves absent ones at zero, so adding or retiring a counter needs no
/// version bump; a peer speaking another version is refused at kHello.
inline constexpr uint32_t kFrameMagic = 0x31575850u;  // "PXW1" little-endian
inline constexpr uint32_t kProtocolVersion = 2;
/// magic + length + type before the payload, CRC after it.
inline constexpr size_t kFrameHeaderBytes = 9;
inline constexpr size_t kFrameOverhead = kFrameHeaderBytes + 4;
/// Default per-frame payload ceiling; a length beyond the receiver's limit
/// is treated as corruption, so a flipped length bit can never drive a
/// multi-gigabyte allocation.
inline constexpr size_t kDefaultMaxFramePayload = 64ull << 20;
/// Ceiling on ChunkMsg::parts_total accepted off the wire. The client
/// sizes its per-part reassembly table from this field, so an unvalidated
/// value would let a corrupt or hostile server drive an arbitrarily large
/// allocation; real lakes are orders of magnitude below this.
inline constexpr uint64_t kMaxWireParts = 1u << 16;

enum class FrameType : uint8_t {
  kHello = 1,      ///< client -> server: version + tenant
  kHelloAck = 2,   ///< server -> client: version + engine + dim + parts
  kQuery = 3,      ///< client -> server: one serialized JoinQuery
  kCancel = 4,     ///< client -> server: abort a running query by id
  kStats = 5,      ///< client -> server: request a metrics snapshot
  kChunk = 6,      ///< server -> client: one partition's result chunk
  kDone = 7,       ///< server -> client: query finished (status + stats)
  kStatsText = 8,  ///< server -> client: the metrics snapshot text
  kError = 9,      ///< server -> client: protocol-level failure, then close
  /// Both directions, kTopK only: the global k-th-best floor for a running
  /// query was raised. Coordinator -> shard: prune against this. Shard ->
  /// coordinator: my local k-th best implies this global floor. Purely an
  /// optimization hint — either side may drop or reorder it without
  /// affecting results (strict-beat pruning), so it carries no reply.
  kFloorUpdate = 10,
};

/// True for type bytes that name a known frame.
bool IsKnownFrameType(uint8_t type);

/// \brief Bounds-checked reader over one received payload. Mirrors
/// common/serde's BinaryReader contract — every length prefix is clamped by
/// the bytes actually remaining, so malformed input yields Status, never a
/// crash or an implausible allocation.
class WireReader {
 public:
  WireReader(const void* data, size_t size)
      : p_(static_cast<const uint8_t*>(data)), remaining_(size) {}

  explicit WireReader(std::string_view payload)
      : WireReader(payload.data(), payload.size()) {}

  template <typename T>
  Status Read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(v, sizeof(T), "truncated fixed field");
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

  Status ReadStatus(Status* out);

  size_t remaining() const { return remaining_; }

  /// Payloads are fixed messages: trailing bytes mean a framing bug or
  /// tampering, not forward compatibility.
  Status ExpectEnd() const {
    return remaining_ == 0 ? Status::OK()
                           : Status::Corruption("trailing payload bytes");
  }

 private:
  Status ReadRaw(void* v, size_t n, const char* what) {
    if (n > remaining_) return Status::Corruption(what);
    if (n == 0) return Status::OK();  // empty string/vector: data() is null
    std::memcpy(v, p_, n);
    p_ += n;
    remaining_ -= n;
    return Status::OK();
  }

  const uint8_t* p_;
  size_t remaining_;
};

/// \brief Append-only writer building one payload in memory (the sibling of
/// WireReader; same field formats as common/serde's BinaryWriter).
class WireWriter {
 public:
  template <typename T>
  void Write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteRaw(&v, sizeof(T));
  }

  void WriteString(std::string_view s) {
    Write<uint64_t>(s.size());
    WriteRaw(s.data(), s.size());
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(v.size());
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  void WriteStatus(const Status& s);

  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }

 private:
  void WriteRaw(const void* p, size_t n) {
    if (n == 0) return;  // an empty vector's data() may be null
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string buf_;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Appends the full wire encoding of one frame (header + payload + CRC) to
/// `out`.
void EncodeFrame(FrameType type, std::string_view payload, std::string* out);

/// \brief Incremental frame extractor over a TCP byte stream. Feed bytes as
/// they arrive; Next() yields complete frames one at a time. Any framing
/// violation (bad magic, oversized length, unknown type, CRC mismatch)
/// returns Corruption and poisons the decoder — the stream has no reliable
/// resync point past corrupt bytes, so the owner must close the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  void Append(const char* data, size_t n) { buf_.append(data, n); }

  /// On OK: `*has_frame` says whether `*out` was filled (false = need more
  /// bytes). Corruption is sticky.
  Status Next(Frame* out, bool* has_frame);

  /// Bytes buffered but not yet consumed by a complete frame.
  size_t buffered() const { return buf_.size(); }

 private:
  size_t max_payload_;
  std::string buf_;
  bool poisoned_ = false;
};

// --------------------------------------------------------------- messages
// Each message is the payload of one frame type, with Encode/Decode pairs.
// Decode validates everything (mode bytes, dimensions, length consistency)
// and returns Corruption for anything malformed.

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  std::string tenant;
  /// Who is connecting: "" = plain client, "coordinator" = a scatter-gather
  /// coordinator using this server as a shard executor (counted separately
  /// in the server metrics). Free-form so future roles need no frame bump.
  std::string role;
};

struct HelloAckMsg {
  uint32_t version = kProtocolVersion;
  std::string engine;   ///< JoinSearchEngine::name() of the served engine
  uint32_t dim = 0;     ///< repository dimensionality (0 = unknown)
  uint64_t parts = 1;   ///< partition count (1 for in-memory engines)
  /// Shard-role metadata: this server owns the parts of shard `shard_of`
  /// out of `shards_total` round-robin shards of one lake. 1/0 = an
  /// unsharded server (owns everything). `parts` stays the count this
  /// server itself serves, i.e. the OWNED subset under sharding.
  uint32_t shards_total = 1;
  uint32_t shard_of = 0;
};

struct CancelMsg {
  uint64_t query_id = 0;
};

/// One partition's result chunk — the wire image of serve::StreamChunk,
/// tagged with the client-assigned query id.
struct ChunkMsg {
  uint64_t query_id = 0;
  uint64_t part = 0;
  uint64_t parts_total = 1;
  bool last = false;
  Status status;
  std::vector<JoinableColumn> columns;
};

/// Query epilogue: the final status (ServeSession's part-status merge), the
/// counters, and whether the client must run the canonical part merge
/// (FinishQueryMerge) over the reassembled chunks — true exactly when the
/// server engine is partitioned, mirroring the in-process ServeSession.
struct DoneMsg {
  uint64_t query_id = 0;
  Status status;
  bool merge_parts = false;
  SearchStats stats;
};

struct ErrorMsg {
  Status status;
};

/// A raised global floor for one running kTopK query (see
/// FrameType::kFloorUpdate). Monotone hint; stale or duplicate frames are
/// harmless because receivers fold it in with a CAS-max.
struct FloorUpdateMsg {
  uint64_t query_id = 0;
  uint32_t floor = 0;
};

void EncodeHello(const HelloMsg& m, std::string* out);
Status DecodeHello(std::string_view payload, HelloMsg* m);

void EncodeHelloAck(const HelloAckMsg& m, std::string* out);
Status DecodeHelloAck(std::string_view payload, HelloAckMsg* m);

void EncodeCancel(const CancelMsg& m, std::string* out);
Status DecodeCancel(std::string_view payload, CancelMsg* m);

void EncodeChunk(const ChunkMsg& m, std::string* out);
Status DecodeChunk(std::string_view payload, ChunkMsg* m);

void EncodeDone(const DoneMsg& m, std::string* out);
Status DecodeDone(std::string_view payload, DoneMsg* m);

void EncodeError(const ErrorMsg& m, std::string* out);
Status DecodeError(std::string_view payload, ErrorMsg* m);

void EncodeFloorUpdate(const FloorUpdateMsg& m, std::string* out);
Status DecodeFloorUpdate(std::string_view payload, FloorUpdateMsg* m);

void EncodeStatsRequest(std::string* out);
void EncodeStatsText(std::string_view text, std::string* out);
Status DecodeStatsText(std::string_view payload, std::string* text);

/// Serializes `query` (mode, k, thresholds, mapping flag, topk floor, the
/// deadline as remaining millis, and the query vectors) under the
/// client-assigned `query_id`. Execution-local fields — cancel token, intra
/// pool/threads, ablation — do not travel: cancellation has its own verb
/// and parallelism is server policy.
void EncodeJoinQuery(uint64_t query_id, const JoinQuery& query,
                     std::string* out);

/// Decodes a kQuery payload into `*vectors` (the owned storage) and `*query`
/// (whose vectors field points at it — `vectors` must therefore outlive
/// `query`). Malformed mode bytes, a zero dim, or a vector buffer that is
/// not a whole number of vectors all return Corruption.
Status DecodeJoinQuery(std::string_view payload, uint64_t* query_id,
                       VectorStore* vectors, JoinQuery* query);

}  // namespace pexeso::net

#endif  // PEXESO_NET_WIRE_H_
