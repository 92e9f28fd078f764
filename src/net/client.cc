#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/part_runner.h"

namespace pexeso::net {

PexesoClient::~PexesoClient() { Close(); }

void PexesoClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status PexesoClient::ConnectOnce(const sockaddr_in& addr, int timeout_ms) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  // Non-blocking connect bounded by poll: a dead shard (SYN blackhole)
  // fails in `timeout_ms` instead of the kernel's minutes-long default.
  const int flags = fcntl(fd_, F_GETFL, 0);
  fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      const int err = errno;
      Close();
      return Status::IoError(std::string("connect failed: ") + strerror(err));
    }
    pollfd pfd{fd_, POLLOUT, 0};
    int rc;
    do {
      rc = poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      Close();
      return Status::IoError("connect timed out");
    }
    if (rc < 0) {
      Close();
      return Status::IoError("poll failed during connect");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (soerr != 0) {
      Close();
      return Status::IoError(std::string("connect failed: ") +
                             strerror(soerr));
    }
  }
  fcntl(fd_, F_SETFL, flags);
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status PexesoClient::Connect(const std::string& host, uint16_t port,
                             const std::string& tenant,
                             const ConnectOptions& opts) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  PEXESO_RETURN_NOT_OK(RetryTransient(opts.retry, nullptr, [&] {
    return ConnectOnce(addr, opts.connect_timeout_ms);
  }));

  std::string hello;
  EncodeHello(HelloMsg{kProtocolVersion, tenant, opts.role}, &hello);
  PEXESO_RETURN_NOT_OK(SendBytes(hello));
  Frame frame;
  PEXESO_RETURN_NOT_OK(ReadFrame(&frame));
  if (frame.type == FrameType::kError) {
    ErrorMsg err;
    const Status st = DecodeError(frame.payload, &err);
    Close();
    return st.ok() ? err.status : st;
  }
  if (frame.type != FrameType::kHelloAck) {
    Close();
    return Status::Corruption("expected HELLO ack");
  }
  const Status st = DecodeHelloAck(frame.payload, &server_info_);
  if (!st.ok()) Close();
  return st;
}

Status PexesoClient::SendBytes(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IoError("send failed (server gone?)");
  }
  bytes_sent_ += bytes.size();
  return Status::OK();
}

Status PexesoClient::ReadFrame(Frame* frame) {
  for (;;) {
    bool has_frame = false;
    PEXESO_RETURN_NOT_OK(decoder_.Next(frame, &has_frame));
    if (has_frame) return Status::OK();
    char buf[64 * 1024];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_received_ += static_cast<uint64_t>(n);
      decoder_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IoError("connection closed by server");
  }
}

Result<uint64_t> PexesoClient::SendQuery(const JoinQuery& query) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  // A query that is already cancelled or past its deadline never goes on
  // the wire (the token does not travel): same answer as a local Execute.
  PEXESO_RETURN_NOT_OK(query.CheckLive());
  const uint64_t id = next_query_id_++;
  Pending& p = pending_[id];
  p.mode = query.mode;
  p.k = query.k;
  std::string bytes;
  EncodeJoinQuery(id, query, &bytes);
  const Status st = SendBytes(bytes);
  if (!st.ok()) {
    pending_.erase(id);
    return st;
  }
  return id;
}

Status PexesoClient::Cancel(uint64_t query_id) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  std::string bytes;
  EncodeCancel(CancelMsg{query_id}, &bytes);
  return SendBytes(bytes);
}

Status PexesoClient::SendFloorUpdate(uint64_t query_id, uint32_t floor) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  std::string bytes;
  EncodeFloorUpdate(FloorUpdateMsg{query_id, floor}, &bytes);
  return SendBytes(bytes);
}

Status PexesoClient::DispatchFrame(Frame&& frame, std::string* stats_text,
                                   bool* got_stats) {
  switch (frame.type) {
    case FrameType::kChunk: {
      ChunkMsg msg;
      PEXESO_RETURN_NOT_OK(DecodeChunk(frame.payload, &msg));
      auto it = pending_.find(msg.query_id);
      if (it == pending_.end()) return Status::OK();  // stale: ignore
      Pending& p = it->second;
      if (p.part_columns.size() < msg.parts_total) {
        p.part_columns.resize(msg.parts_total);
        p.part_status.resize(msg.parts_total);
      }
      if (msg.part < p.part_columns.size()) {
        p.part_columns[msg.part] = std::move(msg.columns);
        p.part_status[msg.part] = msg.status;
      }
      return Status::OK();
    }
    case FrameType::kDone: {
      DoneMsg msg;
      PEXESO_RETURN_NOT_OK(DecodeDone(frame.payload, &msg));
      auto it = pending_.find(msg.query_id);
      if (it == pending_.end()) return Status::OK();
      it->second.done = true;
      it->second.status = msg.status;
      it->second.merge_parts = msg.merge_parts;
      it->second.stats = msg.stats;
      return Status::OK();
    }
    case FrameType::kStatsText: {
      if (stats_text != nullptr) {
        PEXESO_RETURN_NOT_OK(DecodeStatsText(frame.payload, stats_text));
        if (got_stats != nullptr) *got_stats = true;
      }
      return Status::OK();
    }
    case FrameType::kFloorUpdate: {
      FloorUpdateMsg msg;
      PEXESO_RETURN_NOT_OK(DecodeFloorUpdate(frame.payload, &msg));
      if (floor_listener_) floor_listener_(msg.query_id, msg.floor);
      return Status::OK();
    }
    case FrameType::kError: {
      ErrorMsg err;
      const Status st = DecodeError(frame.payload, &err);
      // The server hangs up after an error frame; everything pending dies.
      Close();
      return st.ok() ? err.status : st;
    }
    default:
      Close();
      return Status::Corruption("unexpected frame type from server");
  }
}

ClientQueryResult PexesoClient::TakeResult(uint64_t query_id) {
  ClientQueryResult result;
  auto it = pending_.find(query_id);
  if (it == pending_.end()) {
    result.status = Status::Internal("no such pending query");
    return result;
  }
  Pending& p = it->second;
  result.status = p.status;
  result.stats = p.stats;
  // Part order is the deterministic reassembly order regardless of how the
  // chunks raced on the wire; statuses and merge then mirror the server's
  // PartRunner exactly (a request-class failure reports no parts).
  for (size_t part = 0;
       part < p.part_status.size() && !IsFatalStatus(result.status); ++part) {
    const Status& st = p.part_status[part];
    if (!st.ok() && !st.interrupted()) {
      result.part_statuses.emplace_back(part, st);
    }
  }
  if (result.status.ok() || result.status.interrupted()) {
    for (auto& chunk : p.part_columns) {
      result.columns.insert(result.columns.end(),
                            std::make_move_iterator(chunk.begin()),
                            std::make_move_iterator(chunk.end()));
    }
    if (p.merge_parts) {
      JoinQuery merge_query;
      merge_query.mode = p.mode;
      merge_query.k = p.k;
      FinishQueryMerge(merge_query, &result.columns);
    }
  }
  pending_.erase(it);
  return result;
}

ClientQueryResult PexesoClient::AwaitDone(uint64_t query_id) {
  ClientQueryResult failed;
  for (;;) {
    {
      auto it = pending_.find(query_id);
      if (it == pending_.end()) {
        failed.status = Status::Internal("no such pending query");
        return failed;
      }
      if (it->second.done) return TakeResult(query_id);
    }
    Frame frame;
    Status st = ReadFrame(&frame);
    if (st.ok()) st = DispatchFrame(std::move(frame), nullptr, nullptr);
    if (!st.ok()) {
      pending_.erase(query_id);
      failed.status = st;
      return failed;
    }
  }
}

Status PexesoClient::ReadFrameFor(Frame* frame, int timeout_ms,
                                  bool* has_frame) {
  *has_frame = false;
  PEXESO_RETURN_NOT_OK(decoder_.Next(frame, has_frame));
  if (*has_frame) return Status::OK();
  pollfd pfd{fd_, POLLIN, 0};
  int rc;
  do {
    rc = poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Status::IoError("poll failed");
  if (rc == 0) return Status::OK();  // tick: no frame yet
  char buf[64 * 1024];
  const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
  if (n > 0) {
    bytes_received_ += static_cast<uint64_t>(n);
    decoder_.Append(buf, static_cast<size_t>(n));
    return decoder_.Next(frame, has_frame);
  }
  if (n < 0 && errno == EINTR) return Status::OK();
  return Status::IoError("connection closed by server");
}

ClientQueryResult PexesoClient::AwaitDone(uint64_t query_id, int tick_ms,
                                          const std::function<Status()>& tick) {
  ClientQueryResult failed;
  for (;;) {
    {
      auto it = pending_.find(query_id);
      if (it == pending_.end()) {
        failed.status = Status::Internal("no such pending query");
        return failed;
      }
      if (it->second.done) return TakeResult(query_id);
    }
    if (tick) {
      const Status ts = tick();
      if (!ts.ok()) {
        // The caller abandoned the wait (hedge loser / external cancel);
        // the query stays server-side until the connection closes.
        pending_.erase(query_id);
        failed.status = ts;
        return failed;
      }
    }
    Frame frame;
    bool has_frame = false;
    Status st = ReadFrameFor(&frame, tick_ms, &has_frame);
    if (st.ok() && has_frame) {
      st = DispatchFrame(std::move(frame), nullptr, nullptr);
    }
    if (!st.ok()) {
      pending_.erase(query_id);
      failed.status = st;
      return failed;
    }
  }
}

ClientQueryResult PexesoClient::Query(const JoinQuery& query) {
  Result<uint64_t> id = SendQuery(query);
  if (!id.ok()) {
    ClientQueryResult failed;
    failed.status = id.status();
    return failed;
  }
  return AwaitDone(id.value());
}

Result<std::string> PexesoClient::Stats() {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  std::string request;
  EncodeStatsRequest(&request);
  PEXESO_RETURN_NOT_OK(SendBytes(request));
  std::string text;
  bool got = false;
  while (!got) {
    Frame frame;
    PEXESO_RETURN_NOT_OK(ReadFrame(&frame));
    PEXESO_RETURN_NOT_OK(DispatchFrame(std::move(frame), &text, &got));
  }
  return text;
}

}  // namespace pexeso::net
