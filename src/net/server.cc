#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

namespace pexeso::net {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void AppendCounter(std::string* out, const char* name, uint64_t value) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s %llu\n", name,
                static_cast<unsigned long long>(value));
  out->append(line);
}

void AppendGauge(std::string* out, const char* name, double value) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s %.6f\n", name, value);
  out->append(line);
}

void AppendTenantCounter(std::string* out, const char* name,
                         const std::string& tenant, uint64_t value) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s{tenant=\"%s\"} %llu\n", name,
                tenant.c_str(), static_cast<unsigned long long>(value));
  out->append(line);
}

}  // namespace

PexesoServer::PexesoServer(const JoinSearchEngine* engine,
                           ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      merge_parts_(dynamic_cast<const PartitionedJoinEngine*>(engine) !=
                   nullptr),
      num_parts_(
          merge_parts_
              ? dynamic_cast<const PartitionedJoinEngine*>(engine)->NumParts()
              : 1),
      admission_(options_.admission) {
  serve::ServeSessionOptions session_options;
  session_options.num_threads = options_.worker_threads;
  session_options.intra_query_threads = options_.intra_query_threads;
  session_ = std::make_unique<serve::ServeSession>(engine_, session_options);
}

PexesoServer::~PexesoServer() { Shutdown(); }

Status PexesoServer::Start() {
  if (started_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.bind);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("bind failed: ") + strerror(err));
  }
  if (listen(listen_fd_, 64) != 0) {
    const int err = errno;
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("listen failed: ") + strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  SetNonBlocking(listen_fd_);

  started_at_ = std::chrono::steady_clock::now();
  // Registered before the loop thread exists, so the loop-thread-only Add
  // contract holds trivially.
  loop_.Add(listen_fd_, FdInterest{/*read=*/true, /*write=*/false},
            [this](FdInterest) { OnAcceptable(); });
  started_.store(true, std::memory_order_relaxed);
  loop_thread_ = std::thread([this] { loop_.Run(); });
  return Status::OK();
}

void PexesoServer::Shutdown() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (shut_down_.exchange(true)) return;

  // Stop the loop thread FIRST: once joined it can decode no more frames,
  // so no new query can be admitted and no STATS probe can read the
  // session while it is being torn down below.
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();

  // Empty the admission queue before draining, so a completing query's
  // OnComplete finds nothing to promote into the dying session; then
  // cancel everything still running so the drain is bounded by a
  // checkpoint interval, not by the slowest query.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (uint64_t id : admission_.DrainQueued()) jobs_.erase(id);
    for (auto& [id, job] : jobs_) job->cancel.Cancel();
  }

  // Detach the session under session_mu_ (StartJob and MetricsText
  // null-check under the same lock), then drain it OUTSIDE the lock:
  // outcome callbacks re-enter StartJob, which takes session_mu_.
  std::unique_ptr<serve::ServeSession> session;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    session = std::move(session_);
  }
  session.reset();

  // Loop thread is gone; its exclusive state is now safely ours.
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    registry_.clear();
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.clear();
  }
}

void PexesoServer::OnAcceptable() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: poll again later
    }
    SetNonBlocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(
        &loop_, fd, id, options_.max_frame_payload,
        [this](Connection* c, Frame&& f) { OnFrame(c, std::move(f)); },
        [this](Connection* c) { OnConnectionClosed(c); },
        options_.max_conn_outbuf);
    conn->Register();
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      registry_.emplace(id, conn.get());
    }
    connections_.emplace(id, std::move(conn));
    connections_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PexesoServer::OnConnectionClosed(Connection* conn) {
  const uint64_t conn_id = conn->id();
  // The peer went away: running queries get their token cancelled (the
  // search stops at its next checkpoint instead of finishing work nobody
  // will read), queued ones leave the admission queue entirely.
  std::vector<uint64_t> abandoned;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [job_id, job] : jobs_) {
      if (job->conn_id != conn_id) continue;
      if (admission_.Abandon(job_id)) {
        abandoned.push_back(job_id);
      } else {
        job->cancel.Cancel();
        cancelled_on_disconnect_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (uint64_t job_id : abandoned) jobs_.erase(job_id);
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    registry_.erase(conn_id);
    closed_bytes_in_ += conn->bytes_in();
    closed_bytes_out_ += conn->bytes_out();
    closed_frames_in_ += conn->frames_in();
  }
  // Deletion is deferred: this close handler runs inside a Connection
  // member function, so erasing (destroying) it here would free the object
  // under its own feet. The posted closure runs after the stack unwinds.
  loop_.Post([this, conn_id] { connections_.erase(conn_id); });
}

void PexesoServer::OnFrame(Connection* conn, Frame&& frame) {
  if (!conn->hello_done() && frame.type != FrameType::kHello) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->SendErrorAndClose(
        Status::InvalidArgument("expected HELLO as the first frame"));
    return;
  }
  switch (frame.type) {
    case FrameType::kHello:
      HandleHello(conn, frame);
      return;
    case FrameType::kQuery:
      HandleQuery(conn, std::move(frame));
      return;
    case FrameType::kCancel:
      HandleCancel(conn, frame);
      return;
    case FrameType::kFloorUpdate:
      HandleFloorUpdate(conn, frame);
      return;
    case FrameType::kStats: {
      std::string reply;
      EncodeStatsText(MetricsText(), &reply);
      conn->Send(std::move(reply));
      return;
    }
    default:
      // Server-to-client frame types arriving at the server: a confused or
      // hostile peer.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->SendErrorAndClose(
          Status::InvalidArgument("unexpected frame type from client"));
      return;
  }
}

void PexesoServer::HandleHello(Connection* conn, const Frame& frame) {
  HelloMsg hello;
  const Status st = DecodeHello(frame.payload, &hello);
  if (!st.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->SendErrorAndClose(st);
    return;
  }
  if (hello.version != kProtocolVersion) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->SendErrorAndClose(Status::NotSupported(
        "protocol version mismatch: server speaks v" +
        std::to_string(kProtocolVersion) + ", peer sent v" +
        std::to_string(hello.version)));
    return;
  }
  conn->set_tenant(hello.tenant);
  conn->set_hello_done();
  HelloAckMsg ack;
  ack.engine = engine_->name();
  ack.dim = options_.expected_dim;
  ack.parts = num_parts_;
  ack.shards_total = options_.shards_total;
  ack.shard_of = options_.shard_of;
  std::string reply;
  EncodeHelloAck(ack, &reply);
  conn->Send(std::move(reply));
}

void PexesoServer::HandleQuery(Connection* conn, Frame&& frame) {
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  auto job = std::make_unique<QueryJob>();
  uint64_t client_query_id = 0;
  const Status st = DecodeJoinQuery(frame.payload, &client_query_id,
                                    &job->vectors, &job->query);
  if (!st.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->SendErrorAndClose(st);
    return;
  }
  if (options_.expected_dim != 0 &&
      job->vectors.dim() != options_.expected_dim) {
    // A well-formed frame carrying the wrong repository dimensionality is a
    // per-query error, not a protocol violation: fail the query, keep the
    // connection.
    SendDone(conn->id(), client_query_id,
             Status::InvalidArgument("query dim does not match repository"),
             SearchStats{});
    return;
  }
  const uint64_t job_id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job->job_id = job_id;
  job->conn_id = conn->id();
  job->client_query_id = client_query_id;
  job->tenant = conn->tenant();
  job->cancel = CancelToken::Create();
  job->query.cancel = job->cancel;
  job->query.vectors = &job->vectors;  // heap-stable: the map moves the ptr
  if (job->query.mode == QueryMode::kTopK) {
    // The job's floor cell: part completions raise it (the session counts
    // those as sends), and a coordinator's kFloorUpdate frames raise it
    // from outside so later parts prune against the global k-th best.
    job->floor = std::make_shared<TopKFloorCell>(job->query.topk_floor);
    job->query.floor_link = job->floor;
  }
  if (!job->query.deadline.has_deadline() &&
      options_.admission.default_deadline_ms > 0) {
    // The default budget anchors at ARRIVAL: time spent parked in the
    // admission queue counts against it, so an overloaded server sheds the
    // queries it can no longer serve in time instead of running them late.
    job->query.deadline =
        Deadline::AfterMillis(options_.admission.default_deadline_ms);
  }
  const std::string tenant = job->tenant;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.emplace(job_id, std::move(job));
  }
  switch (admission_.Admit(job_id, tenant)) {
    case AdmitDecision::kRun:
      StartJob(job_id);
      return;
    case AdmitDecision::kQueue:
      return;  // a completion will promote it in FIFO order
    case AdmitDecision::kReject: {
      queries_rejected_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        jobs_.erase(job_id);
      }
      SendDone(conn->id(), client_query_id,
               Status::ResourceExhausted("tenant over admission budget"),
               SearchStats{});
      return;
    }
  }
}

void PexesoServer::HandleCancel(Connection* conn, const Frame& frame) {
  CancelMsg msg;
  const Status st = DecodeCancel(frame.payload, &msg);
  if (!st.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->SendErrorAndClose(st);
    return;
  }
  uint64_t job_id = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : jobs_) {
      if (job->conn_id == conn->id() &&
          job->client_query_id == msg.query_id) {
        job_id = id;
        job->cancel.Cancel();
        break;
      }
    }
  }
  if (job_id == 0) return;  // already finished (or never existed): no-op
  if (admission_.Abandon(job_id)) {
    // Still queued: it will never run, so the DONE comes from here.
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.erase(job_id);
    }
    SendDone(conn->id(), msg.query_id,
             Status::Cancelled("cancelled while queued"), SearchStats{});
  }
  // Running: the token is set; the outcome callback reports Cancelled.
}

void PexesoServer::HandleFloorUpdate(Connection* conn, const Frame& frame) {
  FloorUpdateMsg msg;
  const Status st = DecodeFloorUpdate(frame.payload, &msg);
  if (!st.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->SendErrorAndClose(st);
    return;
  }
  // A raise for a finished (or never-existing) query is a harmless no-op:
  // the coordinator races query completion by design.
  std::lock_guard<std::mutex> lock(jobs_mu_);
  for (auto& [id, job] : jobs_) {
    if (job->conn_id == conn->id() && job->client_query_id == msg.query_id) {
      if (job->floor != nullptr) job->floor->RaiseTo(msg.floor);
      break;
    }
  }
}

void PexesoServer::StartJob(uint64_t job_id) {
  JoinQuery query;
  uint64_t conn_id = 0;
  uint64_t client_query_id = 0;
  std::shared_ptr<TopKFloorCell> floor;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(job_id);
    if (it != jobs_.end()) {
      found = true;
      query = it->second->query;  // vectors pointer + shared cancel token
      conn_id = it->second->conn_id;
      client_query_id = it->second->client_query_id;
      floor = it->second->floor;
    }
  }
  if (!found) {
    // The job vanished between promotion and start (shouldn't happen, but
    // a lost admission slot would wedge the queue forever). Hand the slot
    // back strictly OUTSIDE jobs_mu_: re-entering StartJob with the lock
    // held would self-deadlock on the non-recursive mutex.
    for (uint64_t promoted : admission_.OnComplete(job_id)) {
      StartJob(promoted);
    }
    return;
  }
  // Submitting and tearing down exclude each other: once Shutdown has
  // detached the pointer, a late promotion lands here and drops the job
  // (jobs_/admission_ are cleared wholesale right after the drain).
  std::lock_guard<std::mutex> session_lock(session_mu_);
  if (session_ == nullptr) return;
  // Pushed-floor tracker for this query's chunk stream. Chunk callbacks of
  // one query are serialized by the session, so the load/store pair cannot
  // race itself; atomic only so TSan sees the cross-part handoff.
  auto pushed = floor == nullptr
                    ? nullptr
                    : std::make_shared<std::atomic<uint32_t>>(query.topk_floor);
  session_->Submit(
      query,
      [this, job_id, conn_id, client_query_id, floor, pushed](
          const serve::StreamChunk& chunk) {
        ChunkMsg msg;
        msg.query_id = client_query_id;
        msg.part = chunk.part;
        msg.parts_total = chunk.parts_total;
        msg.last = chunk.last;
        msg.status = chunk.status;
        msg.columns = chunk.results;
        std::string bytes;
        EncodeChunk(msg, &bytes);
        SendToConnection(conn_id, std::move(bytes));
        if (floor != nullptr) {
          // Shard -> coordinator direction: piggyback any floor raise this
          // part produced on the chunk boundary, so sibling shards can
          // tighten their bounds while this query is still running.
          const uint32_t now = floor->load();
          if (now > pushed->load(std::memory_order_relaxed)) {
            pushed->store(now, std::memory_order_relaxed);
            FloorUpdateMsg fu;
            fu.query_id = client_query_id;
            fu.floor = now;
            std::string fu_bytes;
            EncodeFloorUpdate(fu, &fu_bytes);
            SendToConnection(conn_id, std::move(fu_bytes));
          }
        }
      },
      [this, job_id](const serve::QueryOutcome& outcome) {
        FinishJob(job_id, outcome);
      });
}

void PexesoServer::FinishJob(uint64_t job_id,
                             const serve::QueryOutcome& outcome) {
  uint64_t conn_id = 0;
  uint64_t client_query_id = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(job_id);
    if (it != jobs_.end()) {
      conn_id = it->second->conn_id;
      client_query_id = it->second->client_query_id;
      jobs_.erase(it);
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    total_stats_ += outcome.stats;
  }
  if (outcome.status.ok()) {
    queries_completed_.fetch_add(1, std::memory_order_relaxed);
  } else if (outcome.status.interrupted()) {
    queries_interrupted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn_id != 0) {
    SendDone(conn_id, client_query_id, outcome.status, outcome.stats);
  }
  for (uint64_t promoted : admission_.OnComplete(job_id)) {
    StartJob(promoted);
  }
}

void PexesoServer::SendDone(uint64_t conn_id, uint64_t client_query_id,
                            const Status& status, const SearchStats& stats) {
  DoneMsg done;
  done.query_id = client_query_id;
  done.status = status;
  done.merge_parts = merge_parts_;
  done.stats = stats;
  std::string bytes;
  EncodeDone(done, &bytes);
  SendToConnection(conn_id, std::move(bytes));
}

void PexesoServer::SendToConnection(uint64_t conn_id, std::string bytes) {
  loop_.Post([this, conn_id, bytes = std::move(bytes)]() mutable {
    auto it = connections_.find(conn_id);
    if (it == connections_.end() || it->second->closed()) return;
    it->second->Send(std::move(bytes));
  });
}

SearchStats PexesoServer::SearchStatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return total_stats_;
}

std::string PexesoServer::MetricsText() const {
  std::string out;
  out.reserve(2048);
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  AppendGauge(&out, "uptime_seconds", uptime);

  uint64_t bytes_in = 0, bytes_out = 0, frames_in = 0;
  size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    active = registry_.size();
    bytes_in = closed_bytes_in_;
    bytes_out = closed_bytes_out_;
    frames_in = closed_frames_in_;
    for (const auto& [id, conn] : registry_) {
      bytes_in += conn->bytes_in();
      bytes_out += conn->bytes_out();
      frames_in += conn->frames_in();
    }
  }
  AppendCounter(&out, "connections_active", active);
  AppendCounter(&out, "connections_total",
                connections_total_.load(std::memory_order_relaxed));
  AppendCounter(&out, "bytes_in", bytes_in);
  AppendCounter(&out, "bytes_out", bytes_out);
  AppendCounter(&out, "frames_in", frames_in);
  AppendCounter(&out, "protocol_errors",
                protocol_errors_.load(std::memory_order_relaxed));

  AppendCounter(&out, "queries_received",
                queries_received_.load(std::memory_order_relaxed));
  AppendCounter(&out, "queries_rejected",
                queries_rejected_.load(std::memory_order_relaxed));
  AppendCounter(&out, "queries_completed",
                queries_completed_.load(std::memory_order_relaxed));
  AppendCounter(&out, "queries_interrupted",
                queries_interrupted_.load(std::memory_order_relaxed));
  AppendCounter(&out, "queries_failed",
                queries_failed_.load(std::memory_order_relaxed));
  AppendCounter(&out, "queries_cancelled_on_disconnect",
                cancelled_on_disconnect_.load(std::memory_order_relaxed));

  const AdmissionSnapshot adm = admission_.Snapshot();
  AppendCounter(&out, "admission_inflight", adm.inflight);
  AppendCounter(&out, "admission_queue_depth", adm.queue_depth);
  AppendCounter(&out, "admission_admitted", adm.admitted);
  AppendCounter(&out, "admission_queued_total", adm.queued);
  AppendCounter(&out, "admission_rejected", adm.rejected);
  AppendCounter(&out, "admission_completed", adm.completed);
  for (const auto& [tenant, tc] : adm.tenants) {
    AppendTenantCounter(&out, "tenant_inflight", tenant, tc.inflight);
    AppendTenantCounter(&out, "tenant_queue_depth", tenant, tc.queue_depth);
    AppendTenantCounter(&out, "tenant_admitted", tenant, tc.admitted);
    AppendTenantCounter(&out, "tenant_rejected", tenant, tc.rejected);
    AppendTenantCounter(&out, "tenant_completed", tenant, tc.completed);
  }

  {
    std::lock_guard<std::mutex> lock(session_mu_);
    if (session_ != nullptr) {
      AppendCounter(&out, "session_inflight", session_->queries_inflight());
      AppendCounter(&out, "session_submitted", session_->queries_submitted());
    }
  }

  AppendStatLines(SearchStatsSnapshot(), &out);

  if (options_.cache != nullptr) {
    const serve::IndexCacheStats cs = options_.cache->stats();
    AppendCounter(&out, "cache_hits", cs.hits);
    AppendCounter(&out, "cache_misses", cs.misses);
    AppendGauge(&out, "cache_hit_rate", cs.HitRate());
    AppendCounter(&out, "cache_evictions", cs.evictions);
    AppendCounter(&out, "cache_bytes_resident", cs.bytes_resident);
    AppendCounter(&out, "cache_bytes_mapped", cs.bytes_mapped);
    AppendCounter(&out, "cache_entries", cs.entries);
    AppendCounter(&out, "cache_pinned", cs.pinned);
  }
  return out;
}

}  // namespace pexeso::net
