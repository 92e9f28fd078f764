#ifndef PEXESO_NET_SERVER_H_
#define PEXESO_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/engine.h"
#include "net/admission.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "serve/index_cache.h"
#include "serve/serve_session.h"

namespace pexeso::net {

struct ServerOptions {
  std::string bind = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  /// ServeSession worker pool size (0 = one per hardware thread).
  size_t worker_threads = 0;
  /// Session-wide intra-query parallelism default (see ServeSessionOptions).
  size_t intra_query_threads = 0;
  AdmissionOptions admission;
  /// Repository dimensionality. Queries with a different dim fail with
  /// InvalidArgument per-query (the connection survives); 0 skips the check
  /// and is also what the HELLO ack advertises.
  uint32_t expected_dim = 0;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Per-connection cap on un-flushed reply bytes; reading pauses at half
  /// of it and the connection is dropped past it (see Connection).
  size_t max_conn_outbuf = kDefaultMaxOutbuf;
  /// Borrowed cache whose hit/miss counters feed the STATS snapshot; null
  /// when the engine runs uncached.
  serve::IndexCache* cache = nullptr;
  /// Shard-role metadata advertised in the HELLO ack. A standalone server
  /// keeps the defaults (1 shard, index 0); a `--shards N --shard-of i`
  /// shard executor sets both so a coordinator can validate its topology.
  uint32_t shards_total = 1;
  uint32_t shard_of = 0;
};

/// \brief The networked serving front-end: accepts TCP connections on one
/// poll-based event loop, decodes wire-protocol queries, pushes them
/// through per-tenant admission control into a ServeSession, and streams
/// each part's result chunk back as it completes.
///
/// Threading: the loop thread owns all connection state; ServeSession pool
/// threads run the searches and hand encoded reply bytes back to the loop
/// via Post(). A client disconnect cancels its running queries' tokens (so
/// abandoned work stops at the next verification checkpoint) and abandons
/// its queued ones.
class PexesoServer {
 public:
  /// `engine` is borrowed and must outlive the server.
  PexesoServer(const JoinSearchEngine* engine, ServerOptions options);
  ~PexesoServer();

  PexesoServer(const PexesoServer&) = delete;
  PexesoServer& operator=(const PexesoServer&) = delete;

  /// Binds, listens, and starts the loop thread. On OK the server is
  /// reachable and port() is final.
  Status Start();

  /// Cancels running queries, drains the session, stops the loop, closes
  /// every connection. Idempotent; also run by the destructor.
  void Shutdown();

  uint16_t port() const { return port_; }

  /// The STATS verb's text snapshot (also callable in-process from any
  /// thread). One "name value" pair per line, prometheus-style labels for
  /// the per-tenant counters; every SearchStats field appears under its
  /// exported name from PEXESO_SEARCH_STATS_FIELDS.
  std::string MetricsText() const;

  /// Server-lifetime totals over every completed query's SearchStats (the
  /// aggregate STATS reports; tests assert cancellation stopped work early
  /// through it).
  SearchStats SearchStatsSnapshot() const;

  uint64_t queries_cancelled_on_disconnect() const {
    return cancelled_on_disconnect_.load(std::memory_order_relaxed);
  }

 private:
  /// One admitted (running or queued) query and everything it borrows.
  struct QueryJob {
    uint64_t job_id = 0;
    uint64_t conn_id = 0;
    uint64_t client_query_id = 0;
    std::string tenant;
    VectorStore vectors;  ///< owned storage the query's vectors point at
    JoinQuery query;
    CancelToken cancel;
    /// kTopK only: the job's floor cell, linked into query.floor_link so
    /// part completions publish into it and kFloorUpdate frames from a
    /// coordinator raise it mid-flight.
    std::shared_ptr<TopKFloorCell> floor;
  };

  void OnAcceptable();
  void OnFrame(Connection* conn, Frame&& frame);
  void OnConnectionClosed(Connection* conn);
  void HandleHello(Connection* conn, const Frame& frame);
  void HandleQuery(Connection* conn, Frame&& frame);
  void HandleCancel(Connection* conn, const Frame& frame);
  void HandleFloorUpdate(Connection* conn, const Frame& frame);
  /// Submits job `job_id` to the session (admission already counts it as
  /// running). Safe from the loop thread and from pool threads.
  void StartJob(uint64_t job_id);
  void FinishJob(uint64_t job_id, const serve::QueryOutcome& outcome);
  /// Thread-safe send: posts the encoded bytes to the loop, which drops
  /// them silently if the connection is already gone.
  void SendToConnection(uint64_t conn_id, std::string bytes);
  void SendDone(uint64_t conn_id, uint64_t client_query_id,
                const Status& status, const SearchStats& stats);

  const JoinSearchEngine* engine_;
  const ServerOptions options_;
  const bool merge_parts_;  ///< engine is partitioned: clients run the merge
  const size_t num_parts_;
  AdmissionController admission_;
  EventLoop loop_;
  std::thread loop_thread_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> shut_down_{false};
  std::chrono::steady_clock::time_point started_at_;

  /// Loop-thread-only: the owning map of live connections.
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;
  /// Metrics-readable view of connections_ (erased strictly before the
  /// Connection is destroyed), plus byte totals of closed connections.
  mutable std::mutex registry_mu_;
  std::map<uint64_t, Connection*> registry_;
  uint64_t closed_bytes_in_ = 0;
  uint64_t closed_bytes_out_ = 0;
  uint64_t closed_frames_in_ = 0;

  std::mutex jobs_mu_;
  std::map<uint64_t, std::unique_ptr<QueryJob>> jobs_;
  std::atomic<uint64_t> next_job_id_{1};

  std::atomic<uint64_t> connections_total_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> queries_received_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> queries_completed_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> queries_interrupted_{0};
  std::atomic<uint64_t> cancelled_on_disconnect_{0};
  mutable std::mutex stats_mu_;
  SearchStats total_stats_;

  /// Declared last: destroyed first, so in-flight query callbacks (which
  /// touch every member above) finish before anything they use goes away.
  /// Guarded by session_mu_ for the pointer itself (Shutdown nulls it);
  /// StartJob submits and MetricsText reads queue depths under the lock,
  /// so neither can race the teardown. The drain (ServeSession destructor)
  /// runs OUTSIDE the lock: outcome callbacks re-enter StartJob.
  mutable std::mutex session_mu_;
  std::unique_ptr<serve::ServeSession> session_;
};

}  // namespace pexeso::net

#endif  // PEXESO_NET_SERVER_H_
