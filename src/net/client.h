#ifndef PEXESO_NET_CLIENT_H_
#define PEXESO_NET_CLIENT_H_

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/query.h"
#include "net/wire.h"

namespace pexeso::net {

/// How Connect establishes the TCP session. The timeout bounds each
/// connect(2) attempt (a dead shard's SYN blackhole would otherwise stall
/// the caller for the kernel's minutes-long default), and the retry policy
/// bounds how many attempts are made — only transient failures (kIoError)
/// retry, per common/retry.h.
struct ConnectOptions {
  int connect_timeout_ms = 5000;
  RetryPolicy retry;
  /// HELLO role metadata ("" = plain client, "coordinator" = scatter-gather
  /// coordinator using the server as a shard executor).
  std::string role;
};

/// Final result of one remote query, reassembled client-side: chunks are
/// slotted by part index and concatenated in part order, then (for a
/// partitioned server engine) run through the same FinishQueryMerge the
/// in-process ServeSession applies — so the columns are byte-identical to a
/// local Execute of the same query.
struct ClientQueryResult {
  Status status;  ///< the query's final status from the DONE frame
  std::vector<JoinableColumn> columns;
  SearchStats stats;  ///< server-side counters for this query
  /// Degraded parts in part order (their chunk carried a failure or a
  /// degraded-serving notice): the server-side part_statuses.
  std::vector<std::pair<size_t, Status>> part_statuses;
};

/// \brief Blocking wire-protocol client: one TCP connection, synchronous
/// conversation. Query() is the one-shot call; SendQuery()/AwaitDone() are
/// the split halves for callers that pipeline several queries onto the
/// connection before collecting any answer (frames for other queries are
/// buffered while awaiting a specific one). Not thread-safe; use one
/// client per thread.
class PexesoClient {
 public:
  PexesoClient() = default;
  ~PexesoClient();

  PexesoClient(const PexesoClient&) = delete;
  PexesoClient& operator=(const PexesoClient&) = delete;

  /// Connects (bounded by `opts`' timeout + retry policy) and runs the
  /// HELLO handshake under `tenant`.
  Status Connect(const std::string& host, uint16_t port,
                 const std::string& tenant, const ConnectOptions& opts = {});

  /// Server identity from the handshake (valid after Connect).
  const HelloAckMsg& server_info() const { return server_info_; }

  /// Submits + awaits one query.
  ClientQueryResult Query(const JoinQuery& query);

  /// Pipelining half 1: sends the query, returns its wire id immediately.
  Result<uint64_t> SendQuery(const JoinQuery& query);
  /// Pipelining half 2: blocks until that query's DONE frame (buffering
  /// other queries' frames meanwhile) and returns the reassembled result.
  ClientQueryResult AwaitDone(uint64_t query_id);
  /// Tick variant for coordinators: between reads it wakes at least every
  /// `tick_ms` and calls `tick`. A non-OK tick return abandons the wait
  /// with that status (the hedge-loser exit: the caller closes the
  /// connection, which cancels the query server-side). The floor listener
  /// fires from inside this wait as kFloorUpdate frames arrive.
  ClientQueryResult AwaitDone(uint64_t query_id, int tick_ms,
                              const std::function<Status()>& tick);

  /// Asks the server to abandon a running query.
  Status Cancel(uint64_t query_id);

  /// Pushes a raised global top-k floor for a running query (coordinator ->
  /// shard direction; fire-and-forget hint).
  Status SendFloorUpdate(uint64_t query_id, uint32_t floor);

  /// Installs the handler for server-pushed kFloorUpdate frames (shard ->
  /// coordinator direction). Invoked from whichever blocking call is
  /// reading frames when the update arrives.
  void set_floor_listener(std::function<void(uint64_t, uint32_t)> fn) {
    floor_listener_ = std::move(fn);
  }

  /// Fetches the STATS metrics snapshot.
  Result<std::string> Stats();

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Raw protocol traffic this client exchanged (for the bench's
  /// bytes-per-query figure).
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  /// In-flight reassembly state of one pipelined query.
  struct Pending {
    QueryMode mode = QueryMode::kThreshold;
    size_t k = 0;
    std::vector<std::vector<JoinableColumn>> part_columns;
    std::vector<Status> part_status;  ///< each part's chunk status
    bool done = false;
    Status status;
    bool merge_parts = false;
    SearchStats stats;
  };

  Status ConnectOnce(const sockaddr_in& addr, int timeout_ms);
  Status SendBytes(const std::string& bytes);
  /// Reads until one complete frame is available.
  Status ReadFrame(Frame* frame);
  /// Like ReadFrame but gives up after `timeout_ms` without a complete
  /// frame: OK with *has_frame=false means "tick, try again".
  Status ReadFrameFor(Frame* frame, int timeout_ms, bool* has_frame);
  /// Routes one server frame into the pending-query table (or `stats_text`
  /// for kStatsText). kError fails every pending query and closes.
  Status DispatchFrame(Frame&& frame, std::string* stats_text,
                       bool* got_stats);
  ClientQueryResult TakeResult(uint64_t query_id);

  int fd_ = -1;
  FrameDecoder decoder_;
  HelloAckMsg server_info_;
  std::function<void(uint64_t, uint32_t)> floor_listener_;
  uint64_t next_query_id_ = 1;
  std::map<uint64_t, Pending> pending_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace pexeso::net

#endif  // PEXESO_NET_CLIENT_H_
