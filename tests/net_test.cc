// Networked serving tests: wire-codec round-trips for every query mode,
// DONE stats blocks from builds with more or fewer counters, refusal of an
// older protocol version at HELLO, the corruption corpus (every single-bit flip and every truncation of a
// frame must be detected or left incomplete, never mis-decoded), loopback
// byte-parity between a socket round-trip and the in-process engine,
// per-tenant admission control determinism (rejects, FIFO drain), and
// disconnect-driven server-side cancellation.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/admission.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "partition/partitioned_pexeso.h"
#include "partition/partitioner.h"
#include "test_util.h"

namespace pexeso {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::PexesoClient;
using net::PexesoServer;
using net::ServerOptions;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::MustSearch;

/// Field-by-field equality of two result sets, mapping included — the
/// "byte-identical over the wire" acceptance contract.
void ExpectIdenticalResults(const std::vector<JoinableColumn>& a,
                            const std::vector<JoinableColumn>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].column, b[j].column);
    EXPECT_EQ(a[j].match_count, b[j].match_count);
    EXPECT_EQ(a[j].joinability, b[j].joinability);
    ASSERT_EQ(a[j].mapping.size(), b[j].mapping.size());
    for (size_t m = 0; m < a[j].mapping.size(); ++m) {
      EXPECT_EQ(a[j].mapping[m].query_index, b[j].mapping[m].query_index);
      EXPECT_EQ(a[j].mapping[m].target_vec, b[j].mapping[m].target_vec);
    }
  }
}

/// Spins until `pred` holds or ~5s pass. Returns whether it held.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ------------------------------------------------------------- wire codec

VectorStore SmallQueryStore(uint32_t dim, uint32_t count) {
  VectorStore store(dim);
  std::vector<float> v(dim);
  for (uint32_t r = 0; r < count; ++r) {
    for (uint32_t d = 0; d < dim; ++d) {
      v[d] = static_cast<float>(r * dim + d) * 0.25f - 1.0f;
    }
    store.Add(v);
  }
  return store;
}

TEST(WireCodec, JoinQueryRoundTripsEveryMode) {
  const VectorStore query = SmallQueryStore(6, 5);
  const QueryMode modes[] = {QueryMode::kThreshold,
                             QueryMode::kExactJoinability, QueryMode::kTopK};
  uint64_t id = 100;
  for (QueryMode mode : modes) {
    JoinQuery jq;
    jq.vectors = &query;
    jq.mode = mode;
    jq.k = 7;
    jq.thresholds = SearchThresholds{0.125, 3};
    jq.collect_mappings = (mode == QueryMode::kThreshold);
    jq.topk_floor = (mode == QueryMode::kTopK) ? 2u : 0u;
    jq.deadline = Deadline::AfterMillis(5000);

    std::string frame_bytes;
    net::EncodeJoinQuery(++id, jq, &frame_bytes);

    FrameDecoder decoder;
    decoder.Append(frame_bytes.data(), frame_bytes.size());
    Frame frame;
    bool has_frame = false;
    ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok());
    ASSERT_TRUE(has_frame);
    ASSERT_EQ(frame.type, FrameType::kQuery);

    uint64_t decoded_id = 0;
    VectorStore vectors(1);
    JoinQuery decoded;
    ASSERT_TRUE(
        net::DecodeJoinQuery(frame.payload, &decoded_id, &vectors, &decoded)
            .ok());
    EXPECT_EQ(decoded_id, id);
    EXPECT_EQ(decoded.mode, jq.mode);
    EXPECT_EQ(decoded.k, jq.k);
    EXPECT_EQ(decoded.thresholds.tau, jq.thresholds.tau);
    EXPECT_EQ(decoded.thresholds.t_abs, jq.thresholds.t_abs);
    EXPECT_EQ(decoded.collect_mappings, jq.collect_mappings);
    EXPECT_EQ(decoded.topk_floor, jq.topk_floor);
    // The deadline crosses as remaining millis, re-anchored on receipt.
    const double remaining = decoded.deadline.remaining_seconds();
    EXPECT_GT(remaining, 0.0);
    EXPECT_LE(remaining, 5.0);
    ASSERT_EQ(decoded.vectors, &vectors);
    ASSERT_EQ(vectors.dim(), query.dim());
    ASSERT_EQ(vectors.size(), query.size());
    for (size_t i = 0; i < query.raw().size(); ++i) {
      EXPECT_EQ(vectors.raw()[i], query.raw()[i]);
    }
  }
}

TEST(WireCodec, JoinQueryWithoutDeadlineStaysUnbounded) {
  const VectorStore query = SmallQueryStore(4, 1);
  JoinQuery jq;
  jq.vectors = &query;
  std::string frame_bytes;
  net::EncodeJoinQuery(1, jq, &frame_bytes);

  FrameDecoder decoder;
  decoder.Append(frame_bytes.data(), frame_bytes.size());
  Frame frame;
  bool has_frame = false;
  ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok() && has_frame);
  uint64_t id = 0;
  VectorStore vectors(1);
  JoinQuery decoded;
  ASSERT_TRUE(net::DecodeJoinQuery(frame.payload, &id, &vectors, &decoded).ok());
  EXPECT_EQ(decoded.deadline.remaining_seconds(),
            std::numeric_limits<double>::infinity());
}

TEST(WireCodec, MessageRoundTrips) {
  // Chunk with a mapped column and a degraded status.
  net::ChunkMsg chunk;
  chunk.query_id = 9;
  chunk.part = 2;
  chunk.parts_total = 4;
  chunk.last = true;
  chunk.status = Status::Corruption("part base unreadable");
  JoinableColumn col;
  col.column = 17;
  col.match_count = 3;
  col.joinability = 0.75;
  col.mapping.push_back(RecordMatch{5, 40});
  col.mapping.push_back(RecordMatch{6, 41});
  chunk.columns.push_back(col);

  std::string bytes;
  net::EncodeChunk(chunk, &bytes);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool has_frame = false;
  ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok() && has_frame);
  ASSERT_EQ(frame.type, FrameType::kChunk);
  net::ChunkMsg chunk2;
  ASSERT_TRUE(net::DecodeChunk(frame.payload, &chunk2).ok());
  EXPECT_EQ(chunk2.query_id, chunk.query_id);
  EXPECT_EQ(chunk2.part, chunk.part);
  EXPECT_EQ(chunk2.parts_total, chunk.parts_total);
  EXPECT_EQ(chunk2.last, chunk.last);
  EXPECT_EQ(chunk2.status.code(), chunk.status.code());
  ExpectIdenticalResults(chunk.columns, chunk2.columns);

  // Done with stats.
  net::DoneMsg done;
  done.query_id = 9;
  done.status = Status::DeadlineExceeded("budget spent");
  done.merge_parts = true;
  done.stats.distance_computations = 12345;
  done.stats.deadline_expired = 2;
  done.stats.columns_pruned_topk = 7;
  bytes.clear();
  net::EncodeDone(done, &bytes);
  FrameDecoder done_decoder;
  done_decoder.Append(bytes.data(), bytes.size());
  ASSERT_TRUE(done_decoder.Next(&frame, &has_frame).ok() && has_frame);
  ASSERT_EQ(frame.type, FrameType::kDone);
  net::DoneMsg done2;
  ASSERT_TRUE(net::DecodeDone(frame.payload, &done2).ok());
  EXPECT_EQ(done2.query_id, done.query_id);
  EXPECT_EQ(done2.status.code(), done.status.code());
  EXPECT_EQ(done2.merge_parts, done.merge_parts);
  EXPECT_EQ(done2.stats.distance_computations,
            done.stats.distance_computations);
  EXPECT_EQ(done2.stats.deadline_expired, done.stats.deadline_expired);
  EXPECT_EQ(done2.stats.columns_pruned_topk, done.stats.columns_pruned_topk);

  // Hello ack and stats text.
  net::HelloAckMsg ack;
  ack.engine = "partitioned-pexeso";
  ack.dim = 32;
  ack.parts = 5;
  bytes.clear();
  net::EncodeHelloAck(ack, &bytes);
  FrameDecoder ack_decoder;
  ack_decoder.Append(bytes.data(), bytes.size());
  ASSERT_TRUE(ack_decoder.Next(&frame, &has_frame).ok() && has_frame);
  net::HelloAckMsg ack2;
  ASSERT_TRUE(net::DecodeHelloAck(frame.payload, &ack2).ok());
  EXPECT_EQ(ack2.engine, ack.engine);
  EXPECT_EQ(ack2.dim, ack.dim);
  EXPECT_EQ(ack2.parts, ack.parts);

  bytes.clear();
  net::EncodeStatsText("queries_completed 3\n", &bytes);
  FrameDecoder stats_decoder;
  stats_decoder.Append(bytes.data(), bytes.size());
  ASSERT_TRUE(stats_decoder.Next(&frame, &has_frame).ok() && has_frame);
  std::string text;
  ASSERT_TRUE(net::DecodeStatsText(frame.payload, &text).ok());
  EXPECT_EQ(text, "queries_completed 3\n");
}

// ------------------------------------------ DONE stats across schemas

using StatEntries = std::vector<std::pair<uint16_t, uint64_t>>;

/// Every table field nonzero and distinct; the doubles carry fractional
/// bits, so a lossy round trip shows.
SearchStats EveryFieldSet() {
  SearchStats s;
  uint64_t next = 1;
  SearchStats{}.ForEachField([&](const StatField& f, auto v) {
    const uint64_t bits =
        std::is_same_v<decltype(v), double>
            ? std::bit_cast<uint64_t>(0.1 * static_cast<double>(next))
            : next * 1000003;
    ++next;
    EXPECT_TRUE(s.SetFieldBits(f.id, bits));
  });
  return s;
}

/// (wire id, value bits) of every nonzero field, in table order.
StatEntries EntriesOf(const SearchStats& s) {
  StatEntries out;
  s.ForEachField([&](const StatField& f, auto v) {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    if (bits != 0) out.emplace_back(f.id, bits);
  });
  return out;
}

/// (name, value bits) of every field: a bitwise comparison, doubles too.
std::vector<std::pair<std::string, uint64_t>> BitsOf(const SearchStats& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  s.ForEachField([&](const StatField& f, auto v) {
    out.emplace_back(f.name, std::bit_cast<uint64_t>(v));
  });
  return out;
}

/// A DONE payload as a peer of another build might send it: the header,
/// then `count` and the given entries verbatim.
std::string DonePayload(uint16_t count, const StatEntries& entries) {
  net::WireWriter w;
  w.Write<uint64_t>(5);
  w.WriteStatus(Status::OK());
  w.Write<uint8_t>(1);
  w.Write<uint16_t>(count);
  for (const auto& [id, bits] : entries) {
    w.Write<uint16_t>(id);
    w.Write<uint64_t>(bits);
  }
  return w.TakeBuffer();
}

TEST(WireCodec, DoneStatsBlockInteroperatesAcrossSchemas) {
  const SearchStats full = EveryFieldSet();
  const StatEntries entries = EntriesOf(full);
  ASSERT_GE(entries.size(), 3u);

  // This build's encoder round-trips every field bit-exactly.
  net::DoneMsg done;
  done.query_id = 5;
  done.merge_parts = true;
  done.stats = full;
  std::string bytes;
  net::EncodeDone(done, &bytes);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool has_frame = false;
  ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok() && has_frame);
  net::DoneMsg decoded;
  ASSERT_TRUE(net::DecodeDone(frame.payload, &decoded).ok());
  EXPECT_EQ(BitsOf(decoded.stats), BitsOf(full));
  EXPECT_EQ(frame.payload, DonePayload(entries.size(), entries));

  // A newer peer: an id this build does not know, mid-block, is skipped.
  // So is an older peer's value under a retired id (8).
  for (const uint16_t unknown : {uint16_t{0x7ffe}, uint16_t{8}}) {
    StatEntries newer = entries;
    newer.insert(newer.begin() + 2, {unknown, 42});
    decoded = net::DoneMsg{};
    ASSERT_TRUE(
        net::DecodeDone(DonePayload(newer.size(), newer), &decoded).ok())
        << unknown;
    EXPECT_EQ(BitsOf(decoded.stats), BitsOf(full)) << unknown;
  }

  // An older peer lacking every id but the first and the last: the rest
  // read zero, even when the message decoded into held old values.
  const StatEntries older = {entries.front(), entries.back()};
  SearchStats want;
  want.SetFieldBits(older[0].first, older[0].second);
  want.SetFieldBits(older[1].first, older[1].second);
  // (This build's encoder omits zero fields, so it sends exactly that.)
  std::string sparse;
  done.stats = want;
  net::EncodeDone(done, &sparse);
  EXPECT_EQ(sparse.substr(net::kFrameHeaderBytes,
                          sparse.size() - net::kFrameOverhead),
            DonePayload(older.size(), older));
  decoded.stats = full;
  ASSERT_TRUE(
      net::DecodeDone(DonePayload(older.size(), older), &decoded).ok());
  EXPECT_EQ(BitsOf(decoded.stats), BitsOf(want));

  // A repeated id, known or unknown, is Corruption.
  StatEntries dup = entries;
  dup.push_back(entries[1]);
  EXPECT_EQ(net::DecodeDone(DonePayload(dup.size(), dup), &decoded).code(),
            Status::Code::kCorruption);
  const StatEntries dup_unknown = {{0x7ffe, 1}, {0x7ffe, 2}};
  EXPECT_EQ(net::DecodeDone(DonePayload(2, dup_unknown), &decoded).code(),
            Status::Code::kCorruption);

  // A count the remaining bytes cannot hold is Corruption.
  for (const uint16_t count : {static_cast<uint16_t>(entries.size() + 1),
                               static_cast<uint16_t>(0xffff)}) {
    EXPECT_EQ(net::DecodeDone(DonePayload(count, entries), &decoded).code(),
              Status::Code::kCorruption)
        << "count " << count;
  }

  // So is every truncated prefix of a real payload.
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    EXPECT_EQ(net::DecodeDone(std::string_view(frame.payload).substr(0, cut),
                              &decoded)
                  .code(),
              Status::Code::kCorruption)
        << "cut=" << cut;
  }
}

TEST(WireCodec, ImplausibleChunkPartHeadersAreRejected) {
  // parts_total sizes the client's reassembly table, so a flipped or
  // hostile value must be Corruption, never a huge allocation.
  net::ChunkMsg chunk;
  chunk.query_id = 1;
  chunk.part = 0;
  chunk.last = true;
  const uint64_t bad_totals[] = {0, net::kMaxWireParts + 1,
                                 ~uint64_t{0} >> 1};
  for (uint64_t total : bad_totals) {
    chunk.parts_total = total;
    std::string bytes;
    net::EncodeChunk(chunk, &bytes);
    FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    Frame frame;
    bool has_frame = false;
    ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok() && has_frame);
    net::ChunkMsg decoded;
    const Status st = net::DecodeChunk(frame.payload, &decoded);
    EXPECT_FALSE(st.ok()) << "parts_total=" << total << " decoded";
  }
  // A part index at or past parts_total is equally implausible.
  chunk.parts_total = 4;
  chunk.part = 4;
  std::string bytes;
  net::EncodeChunk(chunk, &bytes);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool has_frame = false;
  ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok() && has_frame);
  net::ChunkMsg decoded;
  EXPECT_FALSE(net::DecodeChunk(frame.payload, &decoded).ok());
}

/// A sample frame for the corruption corpus: a real query frame with a
/// non-trivial payload.
std::string CorpusFrame() {
  const VectorStore query = SmallQueryStore(5, 3);
  JoinQuery jq;
  jq.vectors = &query;
  jq.mode = QueryMode::kTopK;
  jq.k = 4;
  jq.thresholds = SearchThresholds{0.5, 2};
  std::string bytes;
  net::EncodeJoinQuery(77, jq, &bytes);
  return bytes;
}

TEST(WireCodec, TruncatedFramesAreIncompleteNeverFrames) {
  const std::string frame_bytes = CorpusFrame();
  for (size_t cut = 0; cut < frame_bytes.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Append(frame_bytes.data(), cut);
    Frame frame;
    bool has_frame = false;
    const Status st = decoder.Next(&frame, &has_frame);
    ASSERT_TRUE(st.ok()) << "cut=" << cut << ": " << st.ToString();
    ASSERT_FALSE(has_frame) << "cut=" << cut;
    // Feeding the remainder completes the frame — a partial read is a
    // normal TCP condition, not corruption.
    decoder.Append(frame_bytes.data() + cut, frame_bytes.size() - cut);
    ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok());
    ASSERT_TRUE(has_frame);
    EXPECT_EQ(frame.type, FrameType::kQuery);
  }
}

TEST(WireCodec, EverySingleBitFlipIsDetected) {
  const std::string frame_bytes = CorpusFrame();
  for (size_t i = 0; i < frame_bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = frame_bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      FrameDecoder decoder;
      decoder.Append(flipped.data(), flipped.size());
      Frame frame;
      bool has_frame = false;
      const Status st = decoder.Next(&frame, &has_frame);
      // Every flip must surface as Corruption or leave the frame
      // incomplete (a length bit flipped upward); none may decode.
      EXPECT_FALSE(st.ok() && has_frame)
          << "byte " << i << " bit " << bit << " decoded despite the flip";
    }
  }
}

TEST(WireCodec, MalformedQueryPayloadsAreRejected) {
  const std::string frame_bytes = CorpusFrame();
  FrameDecoder decoder;
  decoder.Append(frame_bytes.data(), frame_bytes.size());
  Frame frame;
  bool has_frame = false;
  ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok() && has_frame);

  // Payload layout starts: query_id u64, then the mode byte.
  {
    std::string bad = frame.payload;
    bad[8] = 99;  // no such QueryMode
    uint64_t id = 0;
    VectorStore vectors(1);
    JoinQuery decoded;
    EXPECT_FALSE(net::DecodeJoinQuery(bad, &id, &vectors, &decoded).ok());
  }
  {
    std::string bad = frame.payload;
    bad.pop_back();  // ragged vector buffer
    uint64_t id = 0;
    VectorStore vectors(1);
    JoinQuery decoded;
    EXPECT_FALSE(net::DecodeJoinQuery(bad, &id, &vectors, &decoded).ok());
  }
  {
    std::string bad = frame.payload + "x";  // trailing byte
    uint64_t id = 0;
    VectorStore vectors(1);
    JoinQuery decoded;
    EXPECT_FALSE(net::DecodeJoinQuery(bad, &id, &vectors, &decoded).ok());
  }
}

// ---------------------------------------------------------------- fixture

/// Builds one partitioned repository under a temp dir (the loopback
/// server's engine), shared read-only by every test of the fixture.
class NetTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;
  static constexpr size_t kParts = 3;

  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    dir_ = new std::string(::testing::TempDir() + "/net_parts");
    fs::remove_all(*dir_);
    metric_ = new L2Metric();
    ColumnCatalog catalog = MakeClusteredCatalog(4400, kDim, 36, 10);
    Partitioner::Options popts;
    popts.k = kParts;
    auto assign = Partitioner::Random(catalog, popts);
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    auto built =
        PartitionedPexeso::Build(catalog, assign, *dir_, metric_, opts);
    ASSERT_TRUE(built.ok());
    ASSERT_EQ(built.value().num_partitions(), kParts);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete metric_;
    dir_ = nullptr;
    metric_ = nullptr;
  }

  static PartitionedPexeso OpenParts() {
    auto opened = PartitionedPexeso::Open(*dir_, metric_);
    EXPECT_TRUE(opened.ok());
    return std::move(opened).ValueOrDie();
  }

  static JoinQuery MakeJoinQuery(size_t query_size) {
    FractionalThresholds ft{0.07, 0.4};
    JoinQuery jq;
    jq.thresholds = ft.Resolve(*metric_, kDim, query_size);
    return jq;
  }

  static std::string* dir_;
  static L2Metric* metric_;
};

std::string* NetTest::dir_ = nullptr;
L2Metric* NetTest::metric_ = nullptr;

TEST_F(NetTest, LoopbackByteParityEveryMode) {
  PartitionedPexeso parts = OpenParts();
  ServerOptions opts;
  opts.expected_dim = kDim;
  PexesoServer server(&parts, opts);
  ASSERT_TRUE(server.Start().ok());

  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "parity").ok());
  EXPECT_EQ(client.server_info().dim, kDim);
  EXPECT_EQ(client.server_info().parts, kParts);

  const VectorStore query = MakeClusteredQuery(4400, kDim, 20, 10);

  JoinQuery threshold = MakeJoinQuery(query.size());
  threshold.collect_mappings = true;  // full payload over the wire

  JoinQuery exact = MakeJoinQuery(query.size());
  exact.mode = QueryMode::kExactJoinability;

  JoinQuery topk = MakeJoinQuery(query.size());
  topk.mode = QueryMode::kTopK;
  topk.k = 5;

  for (const JoinQuery& base : {threshold, exact, topk}) {
    JoinQuery jq = base;
    jq.vectors = &query;
    const std::vector<JoinableColumn> local = MustSearch(parts, query, jq);
    const net::ClientQueryResult remote = client.Query(jq);
    ASSERT_TRUE(remote.status.ok()) << remote.status.ToString();
    EXPECT_TRUE(remote.part_statuses.empty());
    ExpectIdenticalResults(local, remote.columns);
    ASSERT_FALSE(local.empty());  // a vacuous parity check proves nothing
  }
  server.Shutdown();
}

/// Opens a raw TCP connection to the loopback server (no protocol client).
int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

/// Sends `bytes`, then reads until the server closes, appending what it
/// sent back to `received` when given. Returns true when the server hung up
/// (orderly close) within the receive timeout.
bool SendAndExpectClose(uint16_t port, const std::string& bytes,
                        std::string* received = nullptr) {
  const int fd = RawConnect(port);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // server may already have hung up: that counts
    sent += static_cast<size_t>(n);
  }
  bool closed = false;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      closed = true;
      break;
    }
    if (n < 0) break;  // timeout: the server kept the connection open
    if (received != nullptr) received->append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return closed;
}

TEST_F(NetTest, MalformedStreamsCloseTheConnectionServerSurvives) {
  PartitionedPexeso parts = OpenParts();
  ServerOptions opts;
  opts.expected_dim = kDim;
  PexesoServer server(&parts, opts);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> corpus;
  // Plain ASCII garbage (an HTTP client hitting the wrong port).
  corpus.push_back("GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  // A real frame with one flipped payload bit (CRC mismatch).
  std::string flipped = CorpusFrame();
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  corpus.push_back(flipped);
  // Valid CRC, unknown type byte.
  std::string unknown_type;
  net::EncodeFrame(static_cast<FrameType>(200), "payload", &unknown_type);
  corpus.push_back(unknown_type);
  // A header whose length field exceeds the payload ceiling.
  std::string oversized;
  {
    const uint32_t magic = net::kFrameMagic;
    const uint32_t huge = 1u << 30;
    oversized.append(reinterpret_cast<const char*>(&magic), 4);
    oversized.append(reinterpret_cast<const char*>(&huge), 4);
    oversized.push_back(3);
  }
  corpus.push_back(oversized);
  // A well-formed frame that is not HELLO, before any handshake.
  std::string premature;
  net::EncodeStatsRequest(&premature);
  corpus.push_back(premature);

  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_TRUE(SendAndExpectClose(server.port(), corpus[i]))
        << "corpus entry " << i << " did not close the connection";
  }

  // The server is still healthy: a fresh client completes a real query.
  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "healthy").ok());
  const VectorStore query = MakeClusteredQuery(4400, kDim, 16, 10);
  JoinQuery jq = MakeJoinQuery(query.size());
  jq.vectors = &query;
  const net::ClientQueryResult remote = client.Query(jq);
  ASSERT_TRUE(remote.status.ok()) << remote.status.ToString();
  const std::vector<JoinableColumn> local = MustSearch(parts, query, jq);
  ExpectIdenticalResults(local, remote.columns);
  server.Shutdown();
}

/// The value of the unlabelled metric `name` in a STATS text.
uint64_t MetricValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = ("\n" + text).find(key);
  EXPECT_NE(at, std::string::npos) << "STATS text lacks " << name;
  return at == std::string::npos
             ? 0
             : std::stoull(text.substr(at + key.size() - 1));
}

TEST_F(NetTest, OlderProtocolVersionIsRefusedAtHello) {
  PartitionedPexeso parts = OpenParts();
  ServerOptions opts;
  opts.expected_dim = kDim;
  PexesoServer server(&parts, opts);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t errors_before =
      MetricValue(server.MetricsText(), "protocol_errors");

  net::HelloMsg hello;
  hello.version = net::kProtocolVersion - 1;
  hello.tenant = "old-build";
  std::string bytes;
  net::EncodeHello(hello, &bytes);
  std::string received;
  ASSERT_TRUE(SendAndExpectClose(server.port(), bytes, &received));

  // Exactly one ERROR frame, naming both versions, then the close.
  FrameDecoder decoder;
  decoder.Append(received.data(), received.size());
  std::vector<Frame> frames;
  for (;;) {
    Frame frame;
    bool has_frame = false;
    ASSERT_TRUE(decoder.Next(&frame, &has_frame).ok());
    if (!has_frame) break;
    frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kError);
  net::ErrorMsg error;
  ASSERT_TRUE(net::DecodeError(frames[0].payload, &error).ok());
  EXPECT_EQ(error.status.code(), Status::Code::kNotSupported);
  const std::string& msg = error.status.message();
  EXPECT_NE(msg.find("v" + std::to_string(net::kProtocolVersion)),
            std::string::npos) << msg;
  EXPECT_NE(msg.find("v" + std::to_string(hello.version)), std::string::npos)
      << msg;
  EXPECT_EQ(MetricValue(server.MetricsText(), "protocol_errors"),
            errors_before + 1);
  server.Shutdown();
}

TEST_F(NetTest, DimMismatchFailsTheQueryNotTheConnection) {
  PartitionedPexeso parts = OpenParts();
  ServerOptions opts;
  opts.expected_dim = kDim;
  PexesoServer server(&parts, opts);
  ASSERT_TRUE(server.Start().ok());

  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "dims").ok());

  const VectorStore wrong = SmallQueryStore(kDim + 1, 4);
  JoinQuery bad;
  bad.vectors = &wrong;
  bad.thresholds = SearchThresholds{0.1, 2};
  const net::ClientQueryResult rejected = client.Query(bad);
  EXPECT_EQ(rejected.status.code(), Status::Code::kInvalidArgument)
      << rejected.status.ToString();

  // Same connection still serves well-formed queries.
  const VectorStore query = MakeClusteredQuery(4400, kDim, 12, 10);
  JoinQuery good = MakeJoinQuery(query.size());
  good.vectors = &query;
  EXPECT_TRUE(client.Query(good).status.ok());
  server.Shutdown();
}

TEST_F(NetTest, ExpiredDefaultDeadlineTripsTheSearch) {
  PartitionedPexeso parts = OpenParts();
  ServerOptions opts;
  opts.expected_dim = kDim;
  opts.admission.default_deadline_ms = 1e-3;  // expired on arrival
  PexesoServer server(&parts, opts);
  ASSERT_TRUE(server.Start().ok());

  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "hurried").ok());
  const VectorStore query = MakeClusteredQuery(4400, kDim, 16, 10);
  JoinQuery jq = MakeJoinQuery(query.size());
  jq.vectors = &query;
  const net::ClientQueryResult result = client.Query(jq);
  EXPECT_EQ(result.status.code(), Status::Code::kDeadlineExceeded)
      << result.status.ToString();
  EXPECT_GE(server.SearchStatsSnapshot().deadline_expired, 1u);
  server.Shutdown();
}

TEST_F(NetTest, StatsProbeReportsKeyFields) {
  PartitionedPexeso parts = OpenParts();
  ServerOptions opts;
  opts.expected_dim = kDim;
  PexesoServer server(&parts, opts);
  ASSERT_TRUE(server.Start().ok());

  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "probe").ok());
  const VectorStore query = MakeClusteredQuery(4400, kDim, 12, 10);
  JoinQuery jq = MakeJoinQuery(query.size());
  jq.vectors = &query;
  ASSERT_TRUE(client.Query(jq).status.ok());

  auto text = client.Stats();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string& stats = text.value();
  for (const char* field :
       {"uptime_seconds", "connections_active", "queries_received",
        "queries_completed 1", "admission_inflight", "admission_queue_depth",
        "tenant_admitted{tenant=\"probe\"}"}) {
    EXPECT_NE(stats.find(field), std::string::npos)
        << "STATS text lacks '" << field << "':\n"
        << stats;
  }
  // Every SearchStats field, under its table name, with its value.
  std::string want;
  AppendStatLines(server.SearchStatsSnapshot(), &want);
  EXPECT_NE(stats.find(want), std::string::npos) << stats;
  SearchStats{}.ForEachField([&](const StatField& f, auto) {
    EXPECT_NE(("\n" + stats).find("\n" + std::string(f.name) + " "),
              std::string::npos)
        << "STATS text lacks " << f.name;
  });
  EXPECT_GT(MetricValue(stats, "search_distance_computations"), 0u);
  server.Shutdown();
}

// ----------------------------------------------------- admission control

/// A JoinSearchEngine whose Execute blocks until the test opens the gate,
/// honoring the CancelToken contract meanwhile (a checkpoint that trips
/// counts one deadline_expired, like every real engine). Each query
/// reports one column whose id is the query's vector count, so tests can
/// observe execution order through the results.
class GatedEngine final : public JoinSearchEngine {
 public:
  const char* name() const override { return "gated"; }

  Status Execute(const JoinQuery& query, ResultSink* sink,
                 SearchStats* stats) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      order_.push_back(query.vectors->size());
    }
    started_.fetch_add(1);
    while (!open_.load()) {
      if (query.cancel.cancelled()) {
        if (stats != nullptr) stats->deadline_expired += 1;
        observed_cancel_.fetch_add(1);
        const Status st = Status::Cancelled("gated query cancelled");
        sink->OnDone(st);
        return st;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JoinableColumn col;
    col.column = static_cast<ColumnId>(query.vectors->size());
    col.match_count = 1;
    col.joinability = 1.0;
    sink->OnColumn(std::move(col));
    // The full search would have cost this much; a cancelled one reports
    // nothing here, which is how tests assert work stopped early.
    if (stats != nullptr) stats->distance_computations += 1000;
    sink->OnDone(Status::OK());
    return Status::OK();
  }

  void Open() { open_.store(true); }
  int started() const { return started_.load(); }
  int observed_cancel() const { return observed_cancel_.load(); }
  std::vector<size_t> ExecutionOrder() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<size_t> order_;
  mutable std::atomic<bool> open_{false};
  mutable std::atomic<int> started_{0};
  mutable std::atomic<int> observed_cancel_{0};
};

TEST(NetAdmission, OverBudgetRejectsDeterministicallyAndDrainsFifo) {
  GatedEngine engine;
  ServerOptions opts;
  opts.worker_threads = 2;
  opts.admission.default_budget.max_inflight = 1;
  opts.admission.default_budget.max_queued = 2;
  PexesoServer server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());

  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "tenant-a").ok());

  // Four pipelined queries with distinct vector counts 1..4 (the gated
  // engine echoes the count as the result column id).
  std::vector<VectorStore> stores;
  for (uint32_t n = 1; n <= 4; ++n) stores.push_back(SmallQueryStore(4, n));
  std::vector<uint64_t> ids;
  for (const VectorStore& store : stores) {
    JoinQuery jq;
    jq.vectors = &store;
    jq.thresholds = SearchThresholds{0.1, 1};
    auto id = client.SendQuery(jq);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }

  // Budget: 1 running + 2 queued; the 4th is rejected while the gate is
  // still closed — a deterministic kResourceExhausted, not a timeout.
  const net::ClientQueryResult rejected = client.AwaitDone(ids[3]);
  EXPECT_EQ(rejected.status.code(), Status::Code::kResourceExhausted)
      << rejected.status.ToString();

  // Exactly one query is executing (the admission ledger, not pool size,
  // bounds concurrency).
  ASSERT_TRUE(WaitFor([&] { return engine.started() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(engine.started(), 1);

  engine.Open();
  for (size_t i = 0; i < 3; ++i) {
    const net::ClientQueryResult r = client.AwaitDone(ids[i]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.columns.size(), 1u);
    EXPECT_EQ(r.columns[0].column, i + 1);  // echo of the vector count
  }
  // The queue drained oldest-first.
  EXPECT_EQ(engine.ExecutionOrder(), (std::vector<size_t>{1, 2, 3}));
  server.Shutdown();
}

TEST(NetAdmission, DisconnectCancelsTheRunningQuery) {
  GatedEngine engine;
  ServerOptions opts;
  opts.worker_threads = 2;
  PexesoServer server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());

  {
    PexesoClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "flaky").ok());
    const VectorStore store = SmallQueryStore(4, 2);
    JoinQuery jq;
    jq.vectors = &store;
    jq.thresholds = SearchThresholds{0.1, 1};
    ASSERT_TRUE(client.SendQuery(jq).ok());
    // The query is executing (blocked on the gate) when the client drops.
    ASSERT_TRUE(WaitFor([&] { return engine.started() == 1; }));
    client.Close();
  }

  // The disconnect propagates to the CancelToken; the engine observes it
  // at its next checkpoint and stops without doing the work.
  ASSERT_TRUE(WaitFor([&] { return engine.observed_cancel() == 1; }));
  EXPECT_GE(server.queries_cancelled_on_disconnect(), 1u);
  ASSERT_TRUE(WaitFor([&] {
    return server.SearchStatsSnapshot().deadline_expired >= 1;
  }));
  // Verification never ran: the cancelled query contributed none of the
  // 1000 distance computations a completed one reports.
  EXPECT_EQ(server.SearchStatsSnapshot().distance_computations, 0u);
  server.Shutdown();
}

TEST(NetAdmission, CancelVerbAbortsRunningAndQueuedQueries) {
  GatedEngine engine;
  ServerOptions opts;
  opts.worker_threads = 2;
  opts.admission.default_budget.max_inflight = 1;
  opts.admission.default_budget.max_queued = 2;
  PexesoServer server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());

  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "canceller").ok());
  const VectorStore a = SmallQueryStore(4, 1);
  const VectorStore b = SmallQueryStore(4, 2);
  JoinQuery jq;
  jq.thresholds = SearchThresholds{0.1, 1};
  jq.vectors = &a;
  auto running = client.SendQuery(jq);
  ASSERT_TRUE(running.ok());
  jq.vectors = &b;
  auto queued = client.SendQuery(jq);
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(WaitFor([&] { return engine.started() == 1; }));

  // Cancelling the queued query answers immediately from the queue.
  ASSERT_TRUE(client.Cancel(queued.value()).ok());
  const net::ClientQueryResult q = client.AwaitDone(queued.value());
  EXPECT_EQ(q.status.code(), Status::Code::kCancelled) << q.status.ToString();

  // Cancelling the running one trips its token at the next checkpoint.
  ASSERT_TRUE(client.Cancel(running.value()).ok());
  const net::ClientQueryResult r = client.AwaitDone(running.value());
  EXPECT_EQ(r.status.code(), Status::Code::kCancelled) << r.status.ToString();
  EXPECT_EQ(engine.started(), 1);  // the queued query never ran
  server.Shutdown();
}

TEST(NetAdmission, ShutdownWithQueuedJobsDoesNotPromoteIntoDeadSession) {
  // Regression: Shutdown drains the session while queued jobs sit in
  // admission. The running query finishes (cancelled) during the drain and
  // its completion used to promote a queued job into StartJob, which
  // dereferenced the already-reset session. Now the queue is emptied
  // before the drain, so nothing beyond the running query ever starts.
  GatedEngine engine;
  ServerOptions opts;
  opts.worker_threads = 2;
  opts.admission.default_budget.max_inflight = 1;
  opts.admission.default_budget.max_queued = 4;
  PexesoServer server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());

  PexesoClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "teardown").ok());
  std::vector<VectorStore> stores;
  for (uint32_t n = 1; n <= 3; ++n) stores.push_back(SmallQueryStore(4, n));
  for (const VectorStore& store : stores) {
    JoinQuery jq;
    jq.vectors = &store;
    jq.thresholds = SearchThresholds{0.1, 1};
    ASSERT_TRUE(client.SendQuery(jq).ok());
  }
  // One executing (blocked on the gate), two parked in admission.
  ASSERT_TRUE(WaitFor([&] { return engine.started() == 1; }));

  server.Shutdown();  // gate still closed: the drain races the completion
  EXPECT_EQ(engine.started(), 1);  // the queued queries never ran
  EXPECT_EQ(engine.observed_cancel(), 1);
}

}  // namespace
}  // namespace pexeso
