#include "net/wire.h"

#include <bit>
#include <bitset>

namespace pexeso::net {

namespace {

/// Status codes travel as a fixed u8 (the enum's numeric values have been
/// part of the wire contract since protocol version 1); a byte outside the
/// known range decodes as kInternal rather than Corruption, so a newer
/// peer's extra codes degrade instead of killing the connection.
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(
    Status::Code::kResourceExhausted);

Status StatusFromCode(uint8_t code, std::string msg) {
  if (code > kMaxStatusCode) {
    return Status::Internal("unknown remote status code: " + std::move(msg));
  }
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk: return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case Status::Code::kNotFound: return Status::NotFound(std::move(msg));
    case Status::Code::kIoError: return Status::IoError(std::move(msg));
    case Status::Code::kCorruption: return Status::Corruption(std::move(msg));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case Status::Code::kOutOfRange: return Status::OutOfRange(std::move(msg));
    case Status::Code::kInternal: return Status::Internal(std::move(msg));
    case Status::Code::kCancelled: return Status::Cancelled(std::move(msg));
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
  }
  return Status::Internal("unknown remote status code");
}

void WriteColumn(WireWriter* w, const JoinableColumn& c) {
  w->Write<uint32_t>(c.column);
  w->Write<uint32_t>(c.match_count);
  w->Write<double>(c.joinability);
  w->WriteVector(c.mapping);
}

Status ReadColumn(WireReader* r, JoinableColumn* c) {
  PEXESO_RETURN_NOT_OK(r->Read(&c->column));
  PEXESO_RETURN_NOT_OK(r->Read(&c->match_count));
  PEXESO_RETURN_NOT_OK(r->Read(&c->joinability));
  return r->ReadVector(&c->mapping);
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kFloorUpdate);
}

void WireWriter::WriteStatus(const Status& s) {
  Write<uint8_t>(static_cast<uint8_t>(s.code()));
  WriteString(s.message());
}

Status WireReader::ReadStatus(Status* out) {
  uint8_t code = 0;
  std::string msg;
  PEXESO_RETURN_NOT_OK(Read(&code));
  PEXESO_RETURN_NOT_OK(ReadString(&msg));
  *out = StatusFromCode(code, std::move(msg));
  return Status::OK();
}

void EncodeFrame(FrameType type, std::string_view payload, std::string* out) {
  const uint32_t magic = kFrameMagic;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint8_t type_byte = static_cast<uint8_t>(type);
  uint32_t crc = Crc32Update(0, &type_byte, 1);
  crc = Crc32Update(crc, payload.data(), payload.size());
  out->reserve(out->size() + kFrameOverhead + payload.size());
  out->append(reinterpret_cast<const char*>(&magic), 4);
  out->append(reinterpret_cast<const char*>(&len), 4);
  out->append(reinterpret_cast<const char*>(&type_byte), 1);
  out->append(payload.data(), payload.size());
  out->append(reinterpret_cast<const char*>(&crc), 4);
}

Status FrameDecoder::Next(Frame* out, bool* has_frame) {
  *has_frame = false;
  if (poisoned_) return Status::Corruption("frame stream already corrupt");
  if (buf_.size() < kFrameHeaderBytes) return Status::OK();

  uint32_t magic = 0;
  uint32_t len = 0;
  std::memcpy(&magic, buf_.data(), 4);
  std::memcpy(&len, buf_.data() + 4, 4);
  const uint8_t type_byte = static_cast<uint8_t>(buf_[8]);
  if (magic != kFrameMagic) {
    poisoned_ = true;
    return Status::Corruption("bad frame magic");
  }
  if (len > max_payload_) {
    poisoned_ = true;
    return Status::Corruption("frame payload length implausible");
  }
  if (!IsKnownFrameType(type_byte)) {
    poisoned_ = true;
    return Status::Corruption("unknown frame type");
  }
  const size_t total = kFrameOverhead + len;
  if (buf_.size() < total) return Status::OK();

  uint32_t wire_crc = 0;
  std::memcpy(&wire_crc, buf_.data() + kFrameHeaderBytes + len, 4);
  uint32_t crc = Crc32Update(0, &type_byte, 1);
  crc = Crc32Update(crc, buf_.data() + kFrameHeaderBytes, len);
  if (crc != wire_crc) {
    poisoned_ = true;
    return Status::Corruption("frame checksum mismatch");
  }

  out->type = static_cast<FrameType>(type_byte);
  out->payload.assign(buf_, kFrameHeaderBytes, len);
  buf_.erase(0, total);
  *has_frame = true;
  return Status::OK();
}

void EncodeHello(const HelloMsg& m, std::string* out) {
  WireWriter w;
  w.Write<uint32_t>(m.version);
  w.WriteString(m.tenant);
  w.WriteString(m.role);
  EncodeFrame(FrameType::kHello, w.buffer(), out);
}

Status DecodeHello(std::string_view payload, HelloMsg* m) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.Read(&m->version));
  PEXESO_RETURN_NOT_OK(r.ReadString(&m->tenant));
  PEXESO_RETURN_NOT_OK(r.ReadString(&m->role));
  return r.ExpectEnd();
}

void EncodeHelloAck(const HelloAckMsg& m, std::string* out) {
  WireWriter w;
  w.Write<uint32_t>(m.version);
  w.WriteString(m.engine);
  w.Write<uint32_t>(m.dim);
  w.Write<uint64_t>(m.parts);
  w.Write<uint32_t>(m.shards_total);
  w.Write<uint32_t>(m.shard_of);
  EncodeFrame(FrameType::kHelloAck, w.buffer(), out);
}

Status DecodeHelloAck(std::string_view payload, HelloAckMsg* m) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.Read(&m->version));
  PEXESO_RETURN_NOT_OK(r.ReadString(&m->engine));
  PEXESO_RETURN_NOT_OK(r.Read(&m->dim));
  PEXESO_RETURN_NOT_OK(r.Read(&m->parts));
  PEXESO_RETURN_NOT_OK(r.Read(&m->shards_total));
  PEXESO_RETURN_NOT_OK(r.Read(&m->shard_of));
  if (m->shards_total == 0 || m->shard_of >= m->shards_total) {
    return Status::Corruption("shard metadata implausible");
  }
  return r.ExpectEnd();
}

void EncodeCancel(const CancelMsg& m, std::string* out) {
  WireWriter w;
  w.Write<uint64_t>(m.query_id);
  EncodeFrame(FrameType::kCancel, w.buffer(), out);
}

Status DecodeCancel(std::string_view payload, CancelMsg* m) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.Read(&m->query_id));
  return r.ExpectEnd();
}

void EncodeChunk(const ChunkMsg& m, std::string* out) {
  WireWriter w;
  w.Write<uint64_t>(m.query_id);
  w.Write<uint64_t>(m.part);
  w.Write<uint64_t>(m.parts_total);
  w.Write<uint8_t>(m.last ? 1 : 0);
  w.WriteStatus(m.status);
  w.Write<uint64_t>(m.columns.size());
  for (const JoinableColumn& c : m.columns) WriteColumn(&w, c);
  EncodeFrame(FrameType::kChunk, w.buffer(), out);
}

Status DecodeChunk(std::string_view payload, ChunkMsg* m) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.Read(&m->query_id));
  PEXESO_RETURN_NOT_OK(r.Read(&m->part));
  PEXESO_RETURN_NOT_OK(r.Read(&m->parts_total));
  // Both fields size receiver-side tables, so they get hard bounds rather
  // than the remaining-bytes heuristic (they are counts of parts, not of
  // payload bytes).
  if (m->parts_total == 0 || m->parts_total > kMaxWireParts ||
      m->part >= m->parts_total) {
    return Status::Corruption("chunk part header implausible");
  }
  uint8_t last = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&last));
  m->last = last != 0;
  PEXESO_RETURN_NOT_OK(r.ReadStatus(&m->status));
  uint64_t n = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&n));
  // Each column costs >= 24 payload bytes, so this cap rejects flipped
  // counts before the loop allocates anything implausible.
  if (n > r.remaining() / 24) {
    return Status::Corruption("chunk column count implausible");
  }
  m->columns.clear();
  m->columns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    JoinableColumn c;
    PEXESO_RETURN_NOT_OK(ReadColumn(&r, &c));
    m->columns.push_back(std::move(c));
  }
  return r.ExpectEnd();
}

void EncodeDone(const DoneMsg& m, std::string* out) {
  WireWriter w;
  w.Write<uint64_t>(m.query_id);
  w.WriteStatus(m.status);
  w.Write<uint8_t>(m.merge_parts ? 1 : 0);
  const auto bits = [](auto v) { return std::bit_cast<uint64_t>(v); };
  uint16_t count = 0;
  m.stats.ForEachField([&](const StatField&, auto v) {
    if (bits(v) != 0) ++count;
  });
  w.Write<uint16_t>(count);
  m.stats.ForEachField([&](const StatField& f, auto v) {
    if (bits(v) == 0) return;
    w.Write<uint16_t>(f.id);
    w.Write<uint64_t>(bits(v));
  });
  EncodeFrame(FrameType::kDone, w.buffer(), out);
}

Status DecodeDone(std::string_view payload, DoneMsg* m) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.Read(&m->query_id));
  PEXESO_RETURN_NOT_OK(r.ReadStatus(&m->status));
  uint8_t merge = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&merge));
  m->merge_parts = merge != 0;
  // The u16 count bounds the loop; a count past the payload's end fails on
  // the truncated read.
  uint16_t count = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&count));
  m->stats = SearchStats{};
  std::bitset<1u << 16> seen;
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t id = 0;
    uint64_t bits = 0;
    PEXESO_RETURN_NOT_OK(r.Read(&id));
    PEXESO_RETURN_NOT_OK(r.Read(&bits));
    if (seen.test(id)) return Status::Corruption("duplicate stats id");
    seen.set(id);
    // An id this build does not know is a newer peer's counter: skip it.
    m->stats.SetFieldBits(id, bits);
  }
  return r.ExpectEnd();
}

void EncodeError(const ErrorMsg& m, std::string* out) {
  WireWriter w;
  w.WriteStatus(m.status);
  EncodeFrame(FrameType::kError, w.buffer(), out);
}

Status DecodeError(std::string_view payload, ErrorMsg* m) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.ReadStatus(&m->status));
  return r.ExpectEnd();
}

void EncodeFloorUpdate(const FloorUpdateMsg& m, std::string* out) {
  WireWriter w;
  w.Write<uint64_t>(m.query_id);
  w.Write<uint32_t>(m.floor);
  EncodeFrame(FrameType::kFloorUpdate, w.buffer(), out);
}

Status DecodeFloorUpdate(std::string_view payload, FloorUpdateMsg* m) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.Read(&m->query_id));
  PEXESO_RETURN_NOT_OK(r.Read(&m->floor));
  return r.ExpectEnd();
}

void EncodeStatsRequest(std::string* out) {
  EncodeFrame(FrameType::kStats, {}, out);
}

void EncodeStatsText(std::string_view text, std::string* out) {
  WireWriter w;
  w.WriteString(text);
  EncodeFrame(FrameType::kStatsText, w.buffer(), out);
}

Status DecodeStatsText(std::string_view payload, std::string* text) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.ReadString(text));
  return r.ExpectEnd();
}

void EncodeJoinQuery(uint64_t query_id, const JoinQuery& query,
                     std::string* out) {
  WireWriter w;
  w.Write<uint64_t>(query_id);
  w.Write<uint8_t>(static_cast<uint8_t>(query.mode));
  w.Write<uint64_t>(query.k);
  w.Write<double>(query.thresholds.tau);
  w.Write<uint32_t>(query.thresholds.t_abs);
  w.Write<uint8_t>(query.collect_mappings ? 1 : 0);
  w.Write<uint32_t>(query.topk_floor);
  // The deadline travels as its remaining budget in millis (<= 0 encodes
  // "none"); the receiver re-anchors it on its own clock, which also
  // charges network transit time against the budget — the honest
  // accounting for an end-to-end deadline.
  double deadline_ms = 0.0;
  if (query.deadline.has_deadline()) {
    deadline_ms = query.deadline.remaining_seconds() * 1e3;
    // An already-expired deadline must still travel as a deadline: encode
    // the smallest positive budget so the server trips it immediately
    // instead of running without one.
    if (deadline_ms <= 0.0) deadline_ms = 1e-6;
  }
  w.Write<double>(deadline_ms);
  const VectorStore* vs = query.vectors;
  w.Write<uint32_t>(vs != nullptr ? vs->dim() : 0);
  if (vs != nullptr) {
    w.WriteVector(vs->raw());
  } else {
    w.Write<uint64_t>(0);
  }
  EncodeFrame(FrameType::kQuery, w.buffer(), out);
}

Status DecodeJoinQuery(std::string_view payload, uint64_t* query_id,
                       VectorStore* vectors, JoinQuery* query) {
  WireReader r(payload);
  PEXESO_RETURN_NOT_OK(r.Read(query_id));
  uint8_t mode = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&mode));
  if (mode > static_cast<uint8_t>(QueryMode::kTopK)) {
    return Status::Corruption("unknown query mode byte");
  }
  query->mode = static_cast<QueryMode>(mode);
  PEXESO_RETURN_NOT_OK(r.Read(&query->k));
  PEXESO_RETURN_NOT_OK(r.Read(&query->thresholds.tau));
  PEXESO_RETURN_NOT_OK(r.Read(&query->thresholds.t_abs));
  uint8_t collect = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&collect));
  query->collect_mappings = collect != 0;
  PEXESO_RETURN_NOT_OK(r.Read(&query->topk_floor));
  double deadline_ms = 0.0;
  PEXESO_RETURN_NOT_OK(r.Read(&deadline_ms));
  if (deadline_ms > 0.0) query->deadline = Deadline::AfterMillis(deadline_ms);

  uint32_t dim = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&dim));
  std::vector<float> packed;
  PEXESO_RETURN_NOT_OK(r.ReadVector(&packed));
  PEXESO_RETURN_NOT_OK(r.ExpectEnd());
  if (dim == 0) return Status::Corruption("query dimensionality is zero");
  if (packed.size() % dim != 0) {
    return Status::Corruption("query vector buffer not a multiple of dim");
  }
  *vectors = VectorStore(dim);
  if (!packed.empty()) vectors->AddBatch(packed.data(), packed.size() / dim);
  query->vectors = vectors;
  return Status::OK();
}

}  // namespace pexeso::net
