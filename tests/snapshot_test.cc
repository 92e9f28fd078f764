// Snapshot format tests: flat mmap round trips and the FIFO (heap) load,
// the byte-parity matrix over {mapped, materialized} x engines x intra-query
// thread counts, the quant pre-filter's exactness contract (identical
// results AND the counter invariant dc(on) + skips(on) == dc(off)), the
// bit-flip/truncation corpus, the CRC-valid structural-mutant corpus, the
// refusal of pre-flat (and future) disk versions, and the cache's
// mapped-bytes accounting.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/pexeso_h.h"
#include "core/pexeso_index.h"
#include "core/searcher.h"
#include "grid/cell_key.h"
#include "serve/index_cache.h"
#include "test_util.h"

namespace pexeso {
namespace {

using serve::IndexCache;
using testing::MakeClusteredCatalog;
using testing::MakeClusteredQuery;
using testing::MustSearch;
using testing::ReadFileBytes;
using testing::RefreshChecksumFooter;
using testing::WriteFileBytes;

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

/// Serves `bytes` through a fresh FIFO while `read(fifo_path)` runs; `read`
/// must open the FIFO (it blocks until the writer does, and vice versa).
template <typename Fn>
auto ThroughFifo(const std::string& fifo, const std::string& bytes, Fn read) {
  std::filesystem::remove(fifo);
  PEXESO_CHECK(mkfifo(fifo.c_str(), 0600) == 0);
  std::thread writer([&] {
    std::ofstream sink(fifo, std::ios::binary);
    sink.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  auto result = read(fifo);
  writer.join();
  std::filesystem::remove(fifo);
  return result;
}

// Header layout of the flat format, as PexesoIndex::Save writes it.
constexpr uint64_t kHdrVersion = 4;
constexpr uint64_t kHdrDim = 25;
constexpr uint64_t kHdrNumVectors = 29;
constexpr uint64_t kHdrNumVecIds = 45;
constexpr uint64_t kHdrNumSections = 54;
constexpr uint64_t kHdrTable = 58;
// On-disk section kinds used below.
constexpr uint32_t kSecColMeta = 1;
constexpr uint32_t kSecGrid = 3;
constexpr uint32_t kSecPostings = 8;
constexpr uint32_t kSecVecIds = 9;

template <typename T>
T At(const std::string& bytes, uint64_t offset) {
  T v{};
  PEXESO_CHECK(offset + sizeof(T) <= bytes.size());
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void Put(std::string* bytes, uint64_t offset, T v) {
  PEXESO_CHECK(offset + sizeof(T) <= bytes->size());
  std::memcpy(bytes->data() + offset, &v, sizeof(T));
}

/// Byte offset of section `kind`, read from the snapshot's section table.
uint64_t SectionOffset(const std::string& bytes, uint32_t kind) {
  const uint32_t n = At<uint32_t>(bytes, kHdrNumSections);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t entry = kHdrTable + 24 * uint64_t{i};
    if (At<uint32_t>(bytes, entry) == kind) {
      return At<uint64_t>(bytes, entry + 8);
    }
  }
  PEXESO_CHECK_MSG(false, "section not present");
  return 0;
}

/// One built index saved as a flat snapshot.
class SnapshotTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;

  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    dir_ = new std::string(::testing::TempDir() + "/snapshot_fmt");
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    metric_ = new L2Metric();
    ColumnCatalog catalog = MakeClusteredCatalog(7301, kDim, 40, 16);
    PexesoOptions opts;
    opts.num_pivots = 3;
    opts.levels = 4;
    built_ = new PexesoIndex(
        PexesoIndex::Build(std::move(catalog), metric_, opts));
    ASSERT_TRUE(built_->Save(FlatPath()).ok());
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete built_;
    delete metric_;
    delete dir_;
    built_ = nullptr;
    metric_ = nullptr;
    dir_ = nullptr;
  }

  static std::string FlatPath() { return *dir_ + "/flat.pxso"; }
  static std::string FifoPath() { return *dir_ + "/snapshot.fifo"; }

  static PexesoIndex MustLoad(const std::string& path) {
    auto loaded = PexesoIndex::Load(path, metric_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return std::move(loaded).ValueOrDie();
  }

  static Status LoadStatusThroughFifo(const std::string& bytes) {
    return ThroughFifo(FifoPath(), bytes, [](const std::string& fifo) {
      return PexesoIndex::Load(fifo, metric_).status();
    });
  }

  static JoinQuery MakeJoinQuery(size_t query_size, bool quant,
                                 size_t threads) {
    FractionalThresholds ft{0.07, 0.4};
    JoinQuery jq;
    jq.thresholds = ft.Resolve(*metric_, kDim, query_size);
    jq.collect_mappings = true;
    jq.ablation.use_quant_prefilter = quant;
    jq.intra_query_threads = threads;
    return jq;
  }

  static std::string* dir_;
  static L2Metric* metric_;
  static PexesoIndex* built_;
};

std::string* SnapshotTest::dir_ = nullptr;
L2Metric* SnapshotTest::metric_ = nullptr;
PexesoIndex* SnapshotTest::built_ = nullptr;

TEST_F(SnapshotTest, FlatRoundTripIsMapped) {
  PexesoIndex flat = MustLoad(FlatPath());
  EXPECT_TRUE(flat.is_mapped());
  EXPECT_EQ(flat.MappedBytes(), std::filesystem::file_size(FlatPath()));
  EXPECT_EQ(flat.catalog().num_columns(), built_->catalog().num_columns());
  EXPECT_EQ(flat.catalog().num_vectors(), built_->catalog().num_vectors());
  EXPECT_TRUE(flat.quant().valid());
}

/// A FIFO cannot be mapped: its bytes are read once, parsed by the same
/// flat loader, and materialized onto the heap.
TEST_F(SnapshotTest, FifoLoadIsMaterialized) {
  auto loaded = ThroughFifo(
      FifoPath(), ReadFileBytes(FlatPath()), [](const std::string& fifo) {
        return PexesoIndex::Load(fifo, metric_);
      });
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PexesoIndex heap = std::move(loaded).ValueOrDie();
  EXPECT_FALSE(heap.is_mapped());
  EXPECT_EQ(heap.MappedBytes(), 0u);

  VectorStore query = MakeClusteredQuery(7301, kDim, 14);
  PexesoSearcher ref_engine(built_);
  PexesoSearcher heap_engine(&heap);
  for (bool quant : {false, true}) {
    ExpectIdenticalResults(
        MustSearch(ref_engine, query, MakeJoinQuery(14, quant, 0)),
        MustSearch(heap_engine, query, MakeJoinQuery(14, quant, 0)));
  }
}

TEST_F(SnapshotTest, MaterializeDropsTheMapping) {
  PexesoIndex flat = MustLoad(FlatPath());
  ASSERT_TRUE(flat.is_mapped());
  VectorStore query = MakeClusteredQuery(7301, kDim, 12);
  PexesoSearcher before(&flat);
  auto reference = MustSearch(before, query, MakeJoinQuery(12, true, 0));

  flat.Materialize();
  EXPECT_FALSE(flat.is_mapped());
  EXPECT_EQ(flat.MappedBytes(), 0u);
  PexesoSearcher after(&flat);
  auto owned = MustSearch(after, query, MakeJoinQuery(12, true, 0));
  ExpectIdenticalResults(reference, owned);
}

/// The acceptance matrix: {mapped, materialized heap copy} x {pexeso,
/// pexeso-h} x intra thread count x quant on/off answers byte-identically
/// to the freshly-built in-memory index with everything off.
TEST_F(SnapshotTest, FormatParityMatrixAcrossEnginesAndThreads) {
  VectorStore query = MakeClusteredQuery(7301, kDim, 14);
  PexesoSearcher ref_engine(built_);
  auto reference =
      MustSearch(ref_engine, query, MakeJoinQuery(14, false, 0));
  ASSERT_FALSE(reference.empty());  // the matrix must compare real matches

  for (bool materialize : {false, true}) {
    PexesoIndex index = MustLoad(FlatPath());
    if (materialize) index.Materialize();
    ASSERT_EQ(index.is_mapped(), !materialize);
    PexesoSearcher pexeso(&index);
    PexesoHSearcher pexeso_h(&index);
    for (const JoinSearchEngine* engine :
         {static_cast<const JoinSearchEngine*>(&pexeso),
          static_cast<const JoinSearchEngine*>(&pexeso_h)}) {
      for (size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
        for (bool quant : {false, true}) {
          auto got = MustSearch(*engine, query,
                                MakeJoinQuery(14, quant, threads));
          ExpectIdenticalResults(reference, got);
        }
      }
    }
  }
}

/// The quant tier is a pure pre-filter: identical results, and every float
/// distance it skips is accounted for — dc(on) + skips(on) == dc(off).
TEST_F(SnapshotTest, QuantCounterInvariant) {
  PexesoIndex index = MustLoad(FlatPath());
  PexesoSearcher engine(&index);
  VectorStore query = MakeClusteredQuery(7301, kDim, 14);

  SearchStats off_stats;
  auto off = MustSearch(engine, query, MakeJoinQuery(14, false, 0),
                        &off_stats);
  EXPECT_EQ(off_stats.quant_tile_skips, 0u);
  ASSERT_GT(off_stats.distance_computations, 0u);

  SearchStats on_stats;
  auto on = MustSearch(engine, query, MakeJoinQuery(14, true, 0), &on_stats);
  ExpectIdenticalResults(off, on);
  EXPECT_GT(on_stats.quant_tile_skips, 0u);  // the tier must actually fire
  EXPECT_EQ(on_stats.distance_computations + on_stats.quant_tile_skips,
            off_stats.distance_computations);

  // The counters themselves are part of the determinism contract: same
  // totals at any intra-query thread count.
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SearchStats t_stats;
    auto got =
        MustSearch(engine, query, MakeJoinQuery(14, true, threads), &t_stats);
    ExpectIdenticalResults(off, got);
    EXPECT_EQ(t_stats.distance_computations, on_stats.distance_computations);
    EXPECT_EQ(t_stats.quant_tile_skips, on_stats.quant_tile_skips);
  }
}

/// Truncation / bit-flip corpus against the flat load path: every mutant
/// must be rejected (by the header gate, the CRC footer or a structural
/// check), never crash, and never load.
TEST_F(SnapshotTest, CorruptFlatSnapshotsAreRejected) {
  namespace fs = std::filesystem;
  const auto size = fs::file_size(FlatPath());
  const std::string mutant = *dir_ + "/mutant.pxso";

  // Bit flips: header, section table, early payload, mid payload, last
  // payload byte, and both footer words.
  const uint64_t flip_offsets[] = {0,        4,        16,       80,
                                   size / 3, size / 2, size - 9, size - 8,
                                   size - 1};
  for (const uint64_t off : flip_offsets) {
    fs::copy_file(FlatPath(), mutant, fs::copy_options::overwrite_existing);
    {
      std::fstream f(mutant, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(off));
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x40);
      f.seekp(static_cast<std::streamoff>(off));
      f.write(&b, 1);
    }
    auto loaded = PexesoIndex::Load(mutant, metric_);
    EXPECT_FALSE(loaded.ok()) << "bit flip at offset " << off << " loaded";
  }

  // Truncations: everywhere from "nothing" to "footer clipped".
  const uint64_t trunc_sizes[] = {0,        7,        8,       64,
                                  size / 2, size - 9, size - 8, size - 1};
  for (const uint64_t sz : trunc_sizes) {
    fs::copy_file(FlatPath(), mutant, fs::copy_options::overwrite_existing);
    fs::resize_file(mutant, sz);
    auto loaded = PexesoIndex::Load(mutant, metric_);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << sz << " loaded";
  }
  fs::remove(mutant);
}

/// A CRC proves the bytes are the ones the writer meant, not that the
/// writer meant sane ones. Each mutant rewrites one field and recomputes
/// the footer, so VerifySnapshot passes it; Load must still refuse it with
/// Corruption, and nothing may abort or over-read (the suite also runs
/// under ASan+UBSan and TSan).
TEST_F(SnapshotTest, StructuralMutantsAreCorruption) {
  namespace fs = std::filesystem;
  const std::string bytes = ReadFileBytes(FlatPath());
  ASSERT_EQ(At<uint32_t>(bytes, kHdrVersion), 3u);
  ASSERT_EQ(At<uint32_t>(bytes, kHdrDim), kDim);
  const uint64_t nvec = At<uint64_t>(bytes, kHdrNumVectors);
  const uint64_t nvecids = At<uint64_t>(bytes, kHdrNumVecIds);
  ASSERT_EQ(nvec, built_->catalog().num_vectors());

  // Column 0's record: u64 count, then u32 table_id, u32 source_id, two
  // length-prefixed strings, then VecId first.
  const uint64_t colmeta = SectionOffset(bytes, kSecColMeta);
  uint64_t col0_first = colmeta + 8 + 4 + 4;
  col0_first += 8 + At<uint64_t>(bytes, col0_first);  // table_name
  col0_first += 8 + At<uint64_t>(bytes, col0_first);  // column_name
  // Level-1 cell count follows the grid header (u32 levels, u32 pivots,
  // f64 extent, u64 vectors, u8 leaf-items flag); cell 0's children
  // vector follows its coords.
  const uint64_t grid_l1_count = SectionOffset(bytes, kSecGrid) + 25;
  const uint64_t cell0_children = grid_l1_count + 8 + sizeof(CellCoord);
  ASSERT_GT(At<uint64_t>(bytes, cell0_children), 0u);
  const uint64_t postings = SectionOffset(bytes, kSecPostings);
  const uint64_t vec_ids = SectionOffset(bytes, kSecVecIds);

  // Multi-field edit: the grid claims one more pivot axis than the pivot
  // space has, with every cell's arity rewritten to match, so the grid is
  // self-consistent and only the grid/pivot agreement check can refuse it.
  auto grid_arity = [](std::string* b) {
    const uint64_t grid = SectionOffset(*b, kSecGrid);
    const uint32_t levels = At<uint32_t>(*b, grid);
    const uint32_t arity = At<uint32_t>(*b, grid + 4) + 1;
    Put<uint32_t>(b, grid + 4, arity);
    uint64_t off = grid + 25;
    for (uint32_t l = 0; l < levels; ++l) {
      const uint64_t cells = At<uint64_t>(*b, off);
      off += 8;
      for (uint64_t c = 0; c < cells; ++c) {
        Put<uint8_t>(b, off + offsetof(CellCoord, ndims),
                     static_cast<uint8_t>(arity));
        off += sizeof(CellCoord);
        off += 8 + sizeof(uint32_t) * At<uint64_t>(*b, off);  // children
        off += 8 + sizeof(VecId) * At<uint64_t>(*b, off);     // items
      }
    }
  };
  struct Mutant {
    const char* what;
    std::function<void(std::string*)> edit;
  };
  auto put64 = [](uint64_t off, uint64_t v) {
    return [=](std::string* b) { Put<uint64_t>(b, off, v); };
  };
  auto put32 = [](uint64_t off, uint32_t v) {
    return [=](std::string* b) { Put<uint32_t>(b, off, v); };
  };
  const Mutant mutants[] = {
      {"column count 2^62", put64(colmeta, uint64_t{1} << 62)},
      {"column 0 first = 2^30", put32(col0_first, uint32_t{1} << 30)},
      {"grid level-1 cell count 2^40", put64(grid_l1_count, uint64_t{1} << 40)},
      {"grid child index out of range", put32(cell0_children + 8, 0xFFFFFFu)},
      {"vec-id pool entry >= num_vectors",
       put32(vec_ids, static_cast<uint32_t>(nvec))},
      {"posting outside the vec-id pool",
       put32(postings + 4, static_cast<uint32_t>(nvecids))},
      {"grid arity disagrees with the pivots", grid_arity},
  };
  const std::string mutant = *dir_ + "/structural.pxso";
  for (const Mutant& m : mutants) {
    SCOPED_TRACE(m.what);
    std::string image = bytes;
    m.edit(&image);
    RefreshChecksumFooter(&image);
    WriteFileBytes(mutant, image);
    ASSERT_TRUE(PexesoIndex::VerifySnapshot(mutant).ok());  // CRC-valid
    auto loaded = PexesoIndex::Load(mutant, metric_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption)
        << loaded.status().ToString();
  }
  fs::remove(mutant);
}

/// Disk versions 1 and 2 (the streamed pre-flat formats) and any future
/// version are refused with NotSupported by every entry point, over a
/// regular file and a FIFO alike, and the cache does not keep the failure.
TEST_F(SnapshotTest, OtherDiskVersionsAreNotSupported) {
  // The streamed prelude those versions began with: magic, version,
  // num_pivots, levels, seed, pivot strategy, then the store's dim.
  auto header = [](uint32_t version) {
    std::string b;
    auto put = [&b](const auto& v) {
      b.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(uint32_t{0x5058534Fu});
    put(version);
    put(uint32_t{3});
    put(uint32_t{4});
    put(uint64_t{17});
    put(uint8_t{0});
    put(uint32_t{kDim});
    b.append(200, '\x5A');  // stand-in payload
    return b;
  };
  const std::string v1 = header(1);  // v1 ended at the payload
  std::string v2 = header(2) + std::string(8, '\0');
  RefreshChecksumFooter(&v2);  // v2 carried a valid footer
  std::string v4 = header(4) + std::string(8, '\0');
  RefreshChecksumFooter(&v4);

  const std::string path = *dir_ + "/old.pxso";
  const std::pair<const char*, std::string> cases[] = {
      {"v1", v1}, {"v2", v2}, {"v4", v4}};
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    WriteFileBytes(path, bytes);
    EXPECT_EQ(PexesoIndex::Load(path, metric_).status().code(),
              Status::Code::kNotSupported);
    EXPECT_EQ(LoadStatusThroughFifo(bytes).code(),
              Status::Code::kNotSupported);
    EXPECT_EQ(PexesoIndex::PeekDim(path).status().code(),
              Status::Code::kNotSupported);
    EXPECT_EQ(PexesoIndex::VerifySnapshot(path).code(),
              Status::Code::kNotSupported);

    IndexCache cache({.budget_bytes = size_t{1} << 30, .shard_bits = 0});
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_EQ(cache.Get(path, metric_).status().code(),
                Status::Code::kNotSupported);
    }
    EXPECT_EQ(cache.stats().misses, 2u);  // retried, not served from cache
    EXPECT_EQ(cache.stats().entries, 0u);
  }
  std::filesystem::remove(path);
}

/// Cache accounting: a mapped snapshot is charged by bytes mapped, a heap
/// copy (loaded through a FIFO) by heap bytes only, and eviction returns
/// the mapped bytes.
TEST_F(SnapshotTest, CacheChargesAndReportsMappedBytes) {
  IndexCache cache({.budget_bytes = size_t{1} << 30});

  auto flat_r = cache.Get(FlatPath(), metric_);
  ASSERT_TRUE(flat_r.ok());
  IndexCache::IndexPtr flat = flat_r.value();
  ASSERT_TRUE(flat->is_mapped());
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_mapped, flat->MappedBytes());
  EXPECT_GT(stats.bytes_mapped, 0u);
  EXPECT_GE(stats.bytes_resident, stats.bytes_mapped);
  EXPECT_EQ(stats.bytes_resident, IndexCache::ResidentBytes(*flat));

  const bool heap_ok = ThroughFifo(
      FifoPath(), ReadFileBytes(FlatPath()), [&](const std::string& fifo) {
        auto heap = cache.Get(fifo, metric_);
        return heap.ok() && !heap.value()->is_mapped();
      });
  ASSERT_TRUE(heap_ok);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.bytes_mapped, flat->MappedBytes());  // unchanged

  cache.Erase(FlatPath());
  stats = cache.stats();
  EXPECT_EQ(stats.bytes_mapped, 0u);
  EXPECT_GT(stats.bytes_resident, 0u);  // the heap entry is still resident

  cache.Clear();
  stats = cache.stats();
  EXPECT_EQ(stats.bytes_resident, 0u);
  EXPECT_EQ(stats.bytes_mapped, 0u);
}

}  // namespace
}  // namespace pexeso
