// Part-execution conformance: one fault x control x mode matrix through
// every partitioned entry point. Each entry point runs its parts through
// the same PartRunner failure policy, so for every cell they must agree on
// the columns, the (global part id, code) list reported through
// OnPartStatus / part_statuses, and the final status:
//
//   fault    healthy | one truncated part snapshot | every part truncated
//   control  none | pre-expired deadline | pre-cancelled token
//   mode     threshold | exact | top-k (k=5)
//
//   entry    direct PartitionedPexeso, LakeManager, PartSubsetEngine over
//            all parts, ServeSession::Submit, pexeso_server + PexesoClient,
//            virtual 2-shard ShardedEngine, remote 2-shard ShardedEngine

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lake/lake_manager.h"
#include "net/client.h"
#include "net/server.h"
#include "partition/partitioned_pexeso.h"
#include "serve/serve_session.h"
#include "shard/coordinator.h"
#include "shard/part_subset.h"
#include "shard/remote.h"
#include "shard/shard_map.h"
#include "shard/virtual_node.h"
#include "test_util.h"

namespace pexeso {
namespace {

namespace fs = std::filesystem;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;

constexpr uint32_t kDim = 8;
constexpr size_t kParts = 4;
constexpr size_t kShards = 2;

enum class Fault { kHealthy, kOnePart, kAllParts };
enum class Control { kNone, kExpired, kCancelled };

/// What one entry point answered, in comparable form.
struct Answer {
  Status status;
  std::vector<JoinableColumn> columns;
  std::vector<std::pair<size_t, Status::Code>> parts;
};

Answer MakeAnswer(const Status& status, std::vector<JoinableColumn> columns,
                  const std::vector<std::pair<size_t, Status>>& parts) {
  Answer a;
  a.status = status;
  a.columns = std::move(columns);
  for (const auto& [part, st] : parts) a.parts.emplace_back(part, st.code());
  return a;
}

Answer FromEngine(const JoinSearchEngine& engine, const JoinQuery& jq) {
  CollectSink sink;
  const Status st = engine.Execute(jq, &sink, nullptr);
  EXPECT_EQ(sink.status().code(), st.code());
  return MakeAnswer(st, sink.TakeColumns(), sink.part_statuses());
}

void ExpectSameAnswer(const Answer& want, const Answer& got) {
  EXPECT_EQ(want.status.code(), got.status.code())
      << want.status.ToString() << " vs " << got.status.ToString();
  EXPECT_EQ(want.parts, got.parts);
  ASSERT_EQ(want.columns.size(), got.columns.size());
  for (size_t j = 0; j < want.columns.size(); ++j) {
    EXPECT_EQ(want.columns[j].column, got.columns[j].column);
    EXPECT_EQ(want.columns[j].match_count, got.columns[j].match_count);
    EXPECT_EQ(want.columns[j].joinability, got.columns[j].joinability);
    ASSERT_EQ(want.columns[j].mapping.size(), got.columns[j].mapping.size());
    for (size_t m = 0; m < want.columns[j].mapping.size(); ++m) {
      EXPECT_EQ(want.columns[j].mapping[m].query_index,
                got.columns[j].mapping[m].query_index);
      EXPECT_EQ(want.columns[j].mapping[m].target_vec,
                got.columns[j].mapping[m].target_vec);
    }
  }
}

/// One fault case's lake, built twice from the same catalog and assignment
/// (a partition directory and a live lake), with the fault applied to the
/// snapshot files of both, and every entry point stood up over them.
class PartConformanceTest : public ::testing::TestWithParam<Fault> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/part_conformance_" +
           std::to_string(static_cast<int>(GetParam()));
    fs::remove_all(dir_);
    const ColumnCatalog catalog = MakeClusteredCatalog(8800, kDim, 40, 10);
    PartitionAssignment assignment(catalog.num_columns());
    for (ColumnId c = 0; c < catalog.num_columns(); ++c) {
      assignment[c] = c % kParts;
    }
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;

    auto built = PartitionedPexeso::Build(catalog, assignment, dir_ + "/parts",
                                          &metric_, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    parts_ = std::make_unique<PartitionedPexeso>(std::move(built).ValueOrDie());
    ASSERT_EQ(parts_->NumParts(), kParts);
    lake::LakeOptions lopts;
    lopts.index_options = opts;
    auto created = lake::LakeManager::Create(catalog, assignment,
                                             dir_ + "/lake", &metric_, lopts);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    lake_ = std::move(created).ValueOrDie();

    for (size_t part = 0; part < kParts; ++part) {
      const bool hit = GetParam() == Fault::kAllParts ||
                       (GetParam() == Fault::kOnePart && part == 1);
      if (!hit) continue;
      for (const std::string& path :
           {parts_->PartPath(part), lake_->PartPath(part, 1)}) {
        fs::resize_file(path, fs::file_size(path) / 2);
      }
    }

    std::vector<size_t> all(kParts);
    for (size_t part = 0; part < kParts; ++part) all[part] = part;
    subset_ = std::make_unique<shard::PartSubsetEngine>(parts_.get(), all);
    session_ = std::make_unique<serve::ServeSession>(
        parts_.get(), serve::ServeSessionOptions{.num_threads = 2});

    net::ServerOptions sopts;
    sopts.expected_dim = kDim;
    sopts.worker_threads = 2;
    server_ = std::make_unique<net::PexesoServer>(parts_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port(), "conf").ok());

    virtual_router_ =
        std::make_unique<shard::VirtualShardRouter>(parts_.get(), kShards);
    virtual_ = std::make_unique<shard::ShardedEngine>(virtual_router_.get());

    const shard::ShardMap map = shard::ShardMap::RoundRobin(kParts, kShards);
    std::vector<std::vector<shard::RemoteShardRouter::Endpoint>> endpoints;
    for (size_t s = 0; s < kShards; ++s) {
      shard_engines_.push_back(std::make_unique<shard::PartSubsetEngine>(
          parts_.get(), map.OwnedParts(s)));
      net::ServerOptions shard_opts = sopts;
      shard_opts.shards_total = kShards;
      shard_opts.shard_of = static_cast<uint32_t>(s);
      shard_servers_.push_back(std::make_unique<net::PexesoServer>(
          shard_engines_.back().get(), shard_opts));
      ASSERT_TRUE(shard_servers_.back()->Start().ok());
      endpoints.push_back({{"127.0.0.1", shard_servers_.back()->port()}});
    }
    auto probed = shard::RemoteShardRouter::Probe(std::move(endpoints));
    ASSERT_TRUE(probed.ok()) << probed.status().ToString();
    remote_router_ = std::move(probed).ValueOrDie();
    remote_ = std::make_unique<shard::ShardedEngine>(remote_router_.get());
  }

  void TearDown() override {
    client_.Close();
    if (server_ != nullptr) server_->Shutdown();
    for (auto& server : shard_servers_) server->Shutdown();
    fs::remove_all(dir_);
  }

  /// Every entry point except the direct engine, which is the reference.
  std::vector<std::pair<std::string, std::function<Answer(const JoinQuery&)>>>
  EntryPoints() {
    return {
        {"lake", [&](const JoinQuery& jq) { return FromEngine(*lake_, jq); }},
        {"subset",
         [&](const JoinQuery& jq) { return FromEngine(*subset_, jq); }},
        {"session",
         [&](const JoinQuery& jq) {
           serve::QueryOutcome out = session_->Submit(jq).get();
           return MakeAnswer(out.status, std::move(out.results),
                             out.part_statuses);
         }},
        {"server+client",
         [&](const JoinQuery& jq) {
           net::ClientQueryResult out = client_.Query(jq);
           return MakeAnswer(out.status, std::move(out.columns),
                             out.part_statuses);
         }},
        {"virtual-2-shard",
         [&](const JoinQuery& jq) { return FromEngine(*virtual_, jq); }},
        {"remote-2-shard",
         [&](const JoinQuery& jq) { return FromEngine(*remote_, jq); }},
    };
  }

  static std::vector<JoinQuery> Modes(size_t query_size) {
    JoinQuery threshold;
    threshold.thresholds =
        FractionalThresholds{0.07, 0.4}.Resolve(L2Metric(), kDim, query_size);
    threshold.collect_mappings = true;
    JoinQuery exact = threshold;
    exact.mode = QueryMode::kExactJoinability;
    JoinQuery topk = threshold;
    topk.mode = QueryMode::kTopK;
    topk.k = 5;
    return {threshold, exact, topk};
  }

  L2Metric metric_;
  std::string dir_;
  std::unique_ptr<PartitionedPexeso> parts_;
  std::unique_ptr<lake::LakeManager> lake_;
  std::unique_ptr<shard::PartSubsetEngine> subset_;
  std::unique_ptr<serve::ServeSession> session_;
  std::unique_ptr<net::PexesoServer> server_;
  net::PexesoClient client_;
  std::unique_ptr<shard::VirtualShardRouter> virtual_router_;
  std::unique_ptr<shard::ShardedEngine> virtual_;
  std::vector<std::unique_ptr<shard::PartSubsetEngine>> shard_engines_;
  std::vector<std::unique_ptr<net::PexesoServer>> shard_servers_;
  std::unique_ptr<shard::RemoteShardRouter> remote_router_;
  std::unique_ptr<shard::ShardedEngine> remote_;
};

TEST_P(PartConformanceTest, EveryEntryPointAgreesInEveryCell) {
  const VectorStore query = MakeClusteredQuery(8800, kDim, 20, 10);
  const auto entries = EntryPoints();
  for (Control control :
       {Control::kNone, Control::kExpired, Control::kCancelled}) {
    for (JoinQuery jq : Modes(query.size())) {
      jq.vectors = &query;
      if (control == Control::kExpired) jq.deadline = Deadline::After(-1.0);
      if (control == Control::kCancelled) {
        jq.cancel = CancelToken::Create();
        jq.cancel.Cancel();
      }
      const std::string cell =
          "control=" + std::to_string(static_cast<int>(control)) +
          " mode=" + std::to_string(static_cast<int>(jq.mode));
      const Answer want = FromEngine(*parts_, jq);

      // The reference itself has the documented shape for the cell.
      switch (control) {
        case Control::kExpired:
          EXPECT_EQ(want.status.code(), Status::Code::kDeadlineExceeded);
          break;
        case Control::kCancelled:
          EXPECT_EQ(want.status.code(), Status::Code::kCancelled);
          break;
        case Control::kNone:
          if (GetParam() == Fault::kAllParts) {
            EXPECT_FALSE(want.status.ok()) << cell;
            EXPECT_EQ(want.parts.size(), kParts) << cell;
          } else {
            EXPECT_TRUE(want.status.ok()) << cell << want.status.ToString();
            EXPECT_FALSE(want.columns.empty()) << cell;
            EXPECT_EQ(want.parts.size(),
                      GetParam() == Fault::kOnePart ? 1u : 0u)
                << cell;
          }
          break;
      }
      if (control != Control::kNone) {
        EXPECT_TRUE(want.columns.empty()) << cell;
        EXPECT_TRUE(want.parts.empty()) << cell;
      }

      for (const auto& [name, run] : entries) {
        SCOPED_TRACE(name + " " + cell);
        ExpectSameAnswer(want, run(jq));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Faults, PartConformanceTest,
                         ::testing::Values(Fault::kHealthy, Fault::kOnePart,
                                           Fault::kAllParts));

}  // namespace
}  // namespace pexeso
