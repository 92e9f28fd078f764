#include "core/pexeso_index.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "core/cost_model.h"
#include "pivot/pivot_selector.h"
#include "vec/kernels.h"

namespace pexeso {

namespace {
constexpr uint32_t kMagic = 0x5058534Fu;  // "PXSO"
// The flat section-table layout: 64-byte-aligned sections the loader mmaps
// and binds zero-copy, CRC-32 footer over every payload byte. Disk versions
// 1 and 2 were streamed layouts that are no longer read.
constexpr uint32_t kVersion = 3;

/// Section starts are aligned so every element type that is served
/// zero-copy (double, uint64_t, Posting, float, int8_t) lands on a
/// multiple of its alignment; 64 also keeps sections cache-line clean.
constexpr uint64_t kSectionAlign = 64;

/// Section kinds of the flat layout. Values are on-disk; never renumber.
enum SectionKind : uint32_t {
  kSecColMeta = 1,      ///< parsed: column metadata (no vectors)
  kSecPivots = 2,       ///< parsed: PivotSpace image
  kSecGrid = 3,         ///< parsed: HierarchicalGrid image
  kSecTombstones = 4,   ///< copied: u8 per column
  kSecVectors = 5,      ///< viewed: float[num_vectors * dim]
  kSecMapped = 6,       ///< viewed: double[num_vectors * num_pivots]
  kSecCellOffsets = 7,  ///< viewed: u64[num_cells + 1] CSR offsets
  kSecPostings = 8,     ///< viewed: Posting[num_postings]
  kSecVecIds = 9,       ///< viewed: u32[num_vec_ids]
  kSecQuantMeta = 10,   ///< parsed: quant kind/slack/per-column params
  kSecQuantCodes = 11,  ///< viewed: int8[num_vectors * dim]
  kSecQuantErr = 12,    ///< viewed: float[num_vectors]
};
constexpr uint32_t kMaxSectionKind = kSecQuantErr;

uint64_t Align64(uint64_t n) {
  return (n + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

/// The version gate every reader of snapshot bytes applies first: foreign
/// bytes are Corruption, a PXSO file of any other disk version (the
/// streamed pre-flat formats included) is NotSupported.
Status CheckHeader(uint32_t magic, uint32_t version) {
  if (magic != kMagic) return Status::Corruption("bad index magic");
  if (version != kVersion) return Status::NotSupported("index version");
  return Status::OK();
}

/// Opens `path` and applies CheckHeader to its first two words; the reader
/// is returned positioned right after them.
Result<BinaryReader> OpenChecked(const std::string& path) {
  auto rd = BinaryReader::Open(path);
  if (!rd.ok()) return rd.status();
  BinaryReader r = std::move(rd).ValueOrDie();
  uint32_t magic = 0, version = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&magic));
  PEXESO_RETURN_NOT_OK(r.Read(&version));
  PEXESO_RETURN_NOT_OK(CheckHeader(magic, version));
  return r;
}
}  // namespace

PexesoIndex PexesoIndex::Build(ColumnCatalog catalog, const Metric* metric,
                               const PexesoOptions& options) {
  PEXESO_CHECK(metric != nullptr);
  PEXESO_CHECK(catalog.num_vectors() > 0);
  PexesoIndex index;
  index.catalog_ = std::move(catalog);
  index.metric_ = metric;
  index.options_ = options;
  // The grid supports at most kMaxPivots axes; more pivots add no filtering
  // power it could exploit.
  index.options_.num_pivots =
      std::max<uint32_t>(1, std::min(options.num_pivots, kMaxPivots));

  const VectorStore& store = index.catalog_.store();
  std::vector<float> pivots;
  if (options.pivot_strategy == PexesoOptions::PivotStrategy::kPca) {
    pivots = PivotSelector::SelectPca(store.raw().data(), store.size(),
                                      store.dim(), index.options_.num_pivots,
                                      metric, options.seed);
  } else {
    pivots = PivotSelector::SelectRandom(store.raw().data(), store.size(),
                                         store.dim(),
                                         index.options_.num_pivots,
                                         options.seed);
  }
  const uint32_t actual_pivots =
      static_cast<uint32_t>(pivots.size() / store.dim());
  index.pivots_ = PivotSpace(pivots.data(), actual_pivots, store.dim(), metric);

  index.mapped_ = index.pivots_.MapAll(store.raw().data(), store.size());

  uint32_t levels = options.levels;
  if (levels == 0) {
    // Pick m by the Section III-E cost model over a sampled workload.
    CostModel model(index.mapped_.data(), store.size(), actual_pivots,
                    index.pivots_.AxisExtent());
    Rng rng(options.seed ^ 0xC057ULL);
    auto workload = CostModel::SampleWorkload(
        index.catalog_, index.mapped_.data(), actual_pivots,
        index.pivots_.AxisExtent(), /*num_queries=*/32, &rng);
    levels = model.OptimalM(workload);
    index.options_.levels = levels;
  }

  HierarchicalGrid::Options gopts;
  gopts.levels = levels;
  gopts.store_leaf_items = true;
  index.grid_.Build(index.mapped_.data(), store.size(), actual_pivots,
                    index.pivots_.AxisExtent(), gopts);
  index.inv_.Build(index.grid_, index.catalog_);
  index.tombstones_.assign(index.catalog_.num_columns(), 0);
  index.RebuildQuant();
  return index;
}

void PexesoIndex::RebuildQuant() {
  const KernelSet* ks = metric_ != nullptr ? metric_->kernels() : nullptr;
  if (ks == nullptr || !ks->QuantSupported()) {
    quant_.Clear();
    return;
  }
  quant_.Build(catalog_, ks->kind);
}

void PexesoIndex::Materialize() {
  catalog_.mutable_store()->Materialize();
  inv_.Materialize();
  quant_.Materialize();
  if (mapped_ext_ != nullptr) {
    mapped_.assign(mapped_ext_, mapped_ext_ + catalog_.num_vectors() *
                                                  pivots_.num_pivots());
    mapped_ext_ = nullptr;
  }
  mapping_.reset();
}

ColumnId PexesoIndex::AppendColumn(ColumnMeta meta, const float* packed,
                                   size_t count) {
  Materialize();  // appends mutate every structure a mapping would share
  const ColumnId col = catalog_.AddColumn(std::move(meta), packed, count);
  const uint32_t np = pivots_.num_pivots();
  const VecId first = catalog_.column(col).first;

  // Pivot-map the new vectors and insert them into the grid chain.
  std::vector<double> mapped_new(count * np);
  std::unordered_map<uint32_t, std::vector<VecId>> by_leaf;
  for (size_t i = 0; i < count; ++i) {
    const VecId v = first + static_cast<VecId>(i);
    pivots_.Map(catalog_.store().View(v), mapped_new.data() + i * np);
    mapped_.insert(mapped_.end(), mapped_new.begin() + i * np,
                   mapped_new.begin() + (i + 1) * np);
    const uint32_t leaf =
        grid_.Insert(mapped_new.data() + i * np, v, /*store_item=*/true);
    by_leaf[leaf].push_back(v);
  }
  inv_.EnsureCells(grid_.LeafCells().size());
  for (auto& [leaf, vecs] : by_leaf) {
    inv_.Append(leaf, col, vecs);
  }
  tombstones_.push_back(0);
  quant_.AppendLastColumn(catalog_);
  return col;
}

void PexesoIndex::DeleteColumn(ColumnId column) {
  PEXESO_CHECK(column < tombstones_.size());
  tombstones_[column] = 1;
}

size_t PexesoIndex::Compact() {
  size_t dropped = 0;
  for (uint8_t t : tombstones_) dropped += t;
  if (dropped == 0) return 0;

  ColumnCatalog survivors(catalog_.dim());
  for (ColumnId c = 0; c < catalog_.num_columns(); ++c) {
    if (tombstones_[c]) continue;
    const ColumnMeta& meta = catalog_.column(c);
    survivors.AddColumn(meta, catalog_.store().View(meta.first), meta.count);
  }
  PEXESO_CHECK_MSG(survivors.num_columns() > 0,
                   "compacting away every column is not supported");
  *this = Build(std::move(survivors), metric_, options_);
  return dropped;
}

size_t PexesoIndex::IndexSizeBytes() const {
  return pivots_.MemoryBytes() + mapped_.capacity() * sizeof(double) +
         grid_.MemoryBytes() + inv_.MemoryBytes() + quant_.MemoryBytes() +
         tombstones_.capacity();
}

Status PexesoIndex::Save(const std::string& path) const {
  // Pre-serialize the variable-length (parsed) sections so every section
  // length — and hence every offset — is known before the table is written;
  // the CRC is a forward-only stream, so the table cannot be patched later.
  std::string colmeta, pivots_img, grid_img, quant_meta;
  {
    BinaryWriter b = BinaryWriter::ToBuffer(&colmeta);
    catalog_.SerializeMeta(&b);
  }
  {
    BinaryWriter b = BinaryWriter::ToBuffer(&pivots_img);
    pivots_.Serialize(&b);
  }
  {
    BinaryWriter b = BinaryWriter::ToBuffer(&grid_img);
    grid_.Serialize(&b);
  }
  const bool has_quant = quant_.valid();
  if (has_quant) {
    BinaryWriter b = BinaryWriter::ToBuffer(&quant_meta);
    b.Write<uint8_t>(static_cast<uint8_t>(quant_.kind()));
    b.Write<double>(quant_.slack_rel());
    b.Write<double>(quant_.slack_abs());
    b.Write<uint64_t>(quant_.num_columns());
    for (const auto& p : quant_.params()) {
      b.Write<float>(p.scale);
      b.Write<float>(p.offset);
    }
  }

  const VectorStore& store = catalog_.store();
  const uint64_t nvec = store.size();
  const uint32_t dim = store.dim();
  const uint64_t ncells = inv_.num_cells();
  const uint64_t nvecids = inv_.vec_ids_size();
  const uint32_t np = pivots_.num_pivots();

  // Flat CSR offsets for the postings sections.
  std::vector<uint64_t> cell_offsets(ncells + 1, 0);
  for (uint64_t c = 0; c < ncells; ++c) {
    cell_offsets[c + 1] =
        cell_offsets[c] + inv_.PostingsOf(static_cast<uint32_t>(c)).size();
  }
  const uint64_t npost = cell_offsets[ncells];

  struct Section {
    uint32_t kind;
    uint64_t length;
    uint64_t offset;
  };
  std::vector<Section> sections = {
      {kSecColMeta, colmeta.size(), 0},
      {kSecPivots, pivots_img.size(), 0},
      {kSecGrid, grid_img.size(), 0},
      {kSecTombstones, tombstones_.size(), 0},
      {kSecVectors, nvec * dim * sizeof(float), 0},
      {kSecMapped, nvec * np * sizeof(double), 0},
      {kSecCellOffsets, (ncells + 1) * sizeof(uint64_t), 0},
      {kSecPostings, npost * sizeof(InvertedIndex::Posting), 0},
      {kSecVecIds, nvecids * sizeof(VecId), 0},
  };
  if (has_quant) {
    sections.push_back({kSecQuantMeta, quant_meta.size(), 0});
    sections.push_back({kSecQuantCodes, nvec * static_cast<uint64_t>(dim), 0});
    sections.push_back({kSecQuantErr, nvec * sizeof(float), 0});
  }

  // Header: magic, version, options, dim (what PeekDim reads), counts,
  // then the section table.
  const uint64_t header_bytes = 4 + 4 +            // magic, version
                                4 + 4 + 8 + 1 +    // options
                                4 +                // dim
                                8 + 8 + 8 +        // nvec, ncells, nvecids
                                1 +                // quant flag
                                4 +                // section count
                                24 * sections.size();
  uint64_t cursor = Align64(header_bytes);
  for (auto& s : sections) {
    s.offset = cursor;
    cursor = Align64(s.offset + s.length);
  }

  auto wr = BinaryWriter::Open(path);
  if (!wr.ok()) return wr.status();
  BinaryWriter w = std::move(wr).ValueOrDie();
  w.Write<uint32_t>(kMagic);
  w.Write<uint32_t>(kVersion);
  w.Write<uint32_t>(options_.num_pivots);
  w.Write<uint32_t>(options_.levels);
  w.Write<uint64_t>(options_.seed);
  w.Write<uint8_t>(
      options_.pivot_strategy == PexesoOptions::PivotStrategy::kPca ? 0 : 1);
  w.Write<uint32_t>(dim);
  w.Write<uint64_t>(nvec);
  w.Write<uint64_t>(ncells);
  w.Write<uint64_t>(nvecids);
  w.Write<uint8_t>(has_quant ? 1 : 0);
  w.Write<uint32_t>(static_cast<uint32_t>(sections.size()));
  for (const auto& s : sections) {
    w.Write<uint32_t>(s.kind);
    w.Write<uint32_t>(0);  // reserved
    w.Write<uint64_t>(s.offset);
    w.Write<uint64_t>(s.length);
  }

  const std::array<char, kSectionAlign> zeros{};
  auto pad_to = [&](uint64_t offset) {
    PEXESO_CHECK(w.bytes_written() <= offset);
    uint64_t gap = offset - w.bytes_written();
    while (gap > 0) {
      const uint64_t chunk = std::min<uint64_t>(gap, zeros.size());
      w.WriteBytes(zeros.data(), chunk);
      gap -= chunk;
    }
  };

  for (const auto& s : sections) {
    pad_to(s.offset);
    switch (s.kind) {
      case kSecColMeta:
        w.WriteBytes(colmeta.data(), colmeta.size());
        break;
      case kSecPivots:
        w.WriteBytes(pivots_img.data(), pivots_img.size());
        break;
      case kSecGrid:
        w.WriteBytes(grid_img.data(), grid_img.size());
        break;
      case kSecTombstones:
        w.WriteBytes(tombstones_.data(), tombstones_.size());
        break;
      case kSecVectors:
        if (nvec > 0) w.WriteBytes(store.View(0), s.length);
        break;
      case kSecMapped:
        if (nvec > 0) w.WriteBytes(MappedVec(0), s.length);
        break;
      case kSecCellOffsets:
        w.WriteBytes(cell_offsets.data(), s.length);
        break;
      case kSecPostings:
        for (uint64_t c = 0; c < ncells; ++c) {
          const auto postings = inv_.PostingsOf(static_cast<uint32_t>(c));
          w.WriteBytes(postings.data(),
                       postings.size() * sizeof(InvertedIndex::Posting));
        }
        break;
      case kSecVecIds:
        w.WriteBytes(inv_.vec_ids_data(), s.length);
        break;
      case kSecQuantMeta:
        w.WriteBytes(quant_meta.data(), quant_meta.size());
        break;
      case kSecQuantCodes:
        w.WriteBytes(quant_.codes(), s.length);
        break;
      case kSecQuantErr:
        w.WriteBytes(quant_.err(), s.length);
        break;
    }
    PEXESO_CHECK(w.bytes_written() == s.offset + s.length);
  }
  w.WriteChecksumFooter();
  return w.Close();
}

Result<uint32_t> PexesoIndex::PeekDim(const std::string& path) {
  auto rd = OpenChecked(path);
  if (!rd.ok()) return rd.status();
  BinaryReader r = std::move(rd).ValueOrDie();
  // Skip the options block; dim is the next header word.
  uint32_t u32 = 0;
  uint64_t seed = 0;
  uint8_t strat = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&u32));    // num_pivots
  PEXESO_RETURN_NOT_OK(r.Read(&u32));    // levels
  PEXESO_RETURN_NOT_OK(r.Read(&seed));   // seed
  PEXESO_RETURN_NOT_OK(r.Read(&strat));  // pivot strategy
  uint32_t dim = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&dim));
  return dim;
}

Status PexesoIndex::VerifySnapshot(const std::string& path) {
  auto rd = OpenChecked(path);
  if (!rd.ok()) return rd.status();
  return VerifyFileChecksum(path);
}

Result<PexesoIndex> PexesoIndex::Load(const std::string& path,
                                      const Metric* metric) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    auto mf = MappedFile::Open(path);
    if (!mf.ok()) return mf.status();
    std::shared_ptr<MappedFile> file = std::move(mf).ValueOrDie();
    auto loaded = LoadFlat(static_cast<const uint8_t*>(file->data()),
                           file->size(), metric);
    if (!loaded.ok()) return loaded.status();
    PexesoIndex index = std::move(loaded).ValueOrDie();
    index.mapping_ = std::move(file);
    return index;
  }
  // FIFOs and other non-regular files can be read exactly once and cannot
  // be mmap'd: one sequential read into a heap buffer, then the flat
  // loader's views are copied to owned storage before the buffer dies.
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open index file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string buf = std::move(ss).str();
  auto loaded = LoadFlat(reinterpret_cast<const uint8_t*>(buf.data()),
                         buf.size(), metric);
  if (!loaded.ok()) return loaded.status();
  PexesoIndex index = std::move(loaded).ValueOrDie();
  index.Materialize();
  return index;
}

Result<PexesoIndex> PexesoIndex::LoadFlat(const uint8_t* data, uint64_t size,
                                          const Metric* metric) {
  // The version gate runs before the CRC pass, so a snapshot of another
  // disk version is NotSupported whatever its footer says.
  if (size < 8) return Status::Corruption("snapshot too small for header");
  uint32_t magic = 0, version = 0;
  std::memcpy(&magic, data, sizeof(magic));
  std::memcpy(&version, data + 4, sizeof(version));
  PEXESO_RETURN_NOT_OK(CheckHeader(magic, version));
  if (size < 66 + 8) return Status::Corruption("flat snapshot too small");

  // Integrity next: one CRC pass over the buffer against the footer, so a
  // corrupted section table is rejected before it is trusted.
  uint32_t fmagic = 0, fcrc = 0;
  std::memcpy(&fmagic, data + size - 8, sizeof(fmagic));
  std::memcpy(&fcrc, data + size - 4, sizeof(fcrc));
  if (fmagic != kChecksumFooterMagic) {
    return Status::Corruption("flat snapshot missing checksum footer");
  }
  const uint64_t payload = size - 8;
  if (Crc32Update(0, data, payload) != fcrc) {
    return Status::Corruption("flat snapshot checksum mismatch");
  }

  // A valid CRC only proves the bytes are the ones the writer meant; every
  // count and extent below is still range-checked before it is trusted.
  BinaryReader r = BinaryReader::FromBuffer(data + 8, payload - 8);
  PexesoIndex index;
  index.metric_ = metric;
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.num_pivots));
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.levels));
  PEXESO_RETURN_NOT_OK(r.Read(&index.options_.seed));
  uint8_t strat = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&strat));
  index.options_.pivot_strategy = strat == 0
                                      ? PexesoOptions::PivotStrategy::kPca
                                      : PexesoOptions::PivotStrategy::kRandom;
  uint32_t dim = 0;
  uint64_t nvec = 0, ncells = 0, nvecids = 0;
  uint8_t quant_flag = 0;
  uint32_t num_sections = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&dim));
  PEXESO_RETURN_NOT_OK(r.Read(&nvec));
  PEXESO_RETURN_NOT_OK(r.Read(&ncells));
  PEXESO_RETURN_NOT_OK(r.Read(&nvecids));
  PEXESO_RETURN_NOT_OK(r.Read(&quant_flag));
  PEXESO_RETURN_NOT_OK(r.Read(&num_sections));
  if (dim == 0 || nvec == 0) {
    return Status::Corruption("flat snapshot with empty repository");
  }
  // Bounds before any count is multiplied into a section length, so no
  // product below can wrap around to a plausible value.
  if (nvec > payload / (uint64_t{dim} * sizeof(float)) ||
      ncells >= payload / sizeof(uint64_t) ||
      nvecids > payload / sizeof(VecId)) {
    return Status::Corruption("flat snapshot counts exceed the file");
  }
  if (num_sections > 2 * kMaxSectionKind) {
    return Status::Corruption("flat snapshot section count implausible");
  }

  std::array<uint64_t, kMaxSectionKind + 1> sec_off{};
  std::array<uint64_t, kMaxSectionKind + 1> sec_len{};
  std::array<bool, kMaxSectionKind + 1> sec_present{};
  for (uint32_t i = 0; i < num_sections; ++i) {
    uint32_t kind = 0, reserved = 0;
    uint64_t off = 0, len = 0;
    PEXESO_RETURN_NOT_OK(r.Read(&kind));
    PEXESO_RETURN_NOT_OK(r.Read(&reserved));
    PEXESO_RETURN_NOT_OK(r.Read(&off));
    PEXESO_RETURN_NOT_OK(r.Read(&len));
    if (kind == 0 || kind > kMaxSectionKind) continue;  // forward-compat
    if (sec_present[kind]) {
      return Status::Corruption("flat snapshot duplicates a section");
    }
    if (off % kSectionAlign != 0 || off > payload || len > payload - off) {
      return Status::Corruption("flat snapshot section out of bounds");
    }
    sec_present[kind] = true;
    sec_off[kind] = off;
    sec_len[kind] = len;
  }
  const uint32_t required[] = {kSecColMeta,     kSecPivots,   kSecGrid,
                               kSecTombstones,  kSecVectors,  kSecMapped,
                               kSecCellOffsets, kSecPostings, kSecVecIds};
  for (uint32_t kind : required) {
    if (!sec_present[kind]) {
      return Status::Corruption("flat snapshot missing a required section");
    }
  }
  auto section_reader = [&](uint32_t kind) {
    return BinaryReader::FromBuffer(data + sec_off[kind], sec_len[kind]);
  };

  // Parsed sections, each cross-checked against the header counts.
  {
    BinaryReader pr = section_reader(kSecPivots);
    PEXESO_RETURN_NOT_OK(index.pivots_.Deserialize(&pr, metric));
  }
  {
    BinaryReader gr = section_reader(kSecGrid);
    PEXESO_RETURN_NOT_OK(index.grid_.Deserialize(&gr));
  }
  const uint32_t np = index.pivots_.num_pivots();
  if (index.pivots_.dim() != dim || index.grid_.num_pivots() != np ||
      index.grid_.num_vectors() != nvec ||
      index.grid_.LeafCells().size() != ncells) {
    return Status::Corruption("pivot/grid sections disagree with the header");
  }
  {
    BinaryReader cr = section_reader(kSecColMeta);
    PEXESO_RETURN_NOT_OK(index.catalog_.DeserializeMeta(&cr));
  }
  // Columns tile [0, nvec) in order, as AddColumn lays them out; ColumnOf
  // and every verifier rely on it.
  const uint64_t ncols = index.catalog_.num_columns();
  uint64_t next_vec = 0;
  for (ColumnId c = 0; c < ncols; ++c) {
    const ColumnMeta& meta = index.catalog_.column(c);
    if (meta.first != next_vec || meta.count == 0) {
      return Status::Corruption("column extents do not tile the vectors");
    }
    next_vec += meta.count;
  }
  if (next_vec != nvec) {
    return Status::Corruption("column extents do not tile the vectors");
  }
  if (sec_len[kSecTombstones] != ncols) {
    return Status::Corruption("tombstone section length mismatch");
  }
  const uint8_t* tomb = data + sec_off[kSecTombstones];
  index.tombstones_.assign(tomb, tomb + ncols);

  // Fixed-shape sections: exact length checks, then zero-copy binds.
  if (sec_len[kSecVectors] != nvec * dim * sizeof(float) ||
      sec_len[kSecMapped] != nvec * np * sizeof(double) ||
      sec_len[kSecCellOffsets] != (ncells + 1) * sizeof(uint64_t) ||
      sec_len[kSecPostings] % sizeof(InvertedIndex::Posting) != 0 ||
      sec_len[kSecVecIds] != nvecids * sizeof(VecId)) {
    return Status::Corruption("flat snapshot section shape mismatch");
  }
  const auto* cell_offsets =
      reinterpret_cast<const uint64_t*>(data + sec_off[kSecCellOffsets]);
  const auto* postings = reinterpret_cast<const InvertedIndex::Posting*>(
      data + sec_off[kSecPostings]);
  const uint64_t npost =
      sec_len[kSecPostings] / sizeof(InvertedIndex::Posting);
  for (uint64_t c = 0; c < ncells; ++c) {
    if (cell_offsets[c] > cell_offsets[c + 1]) {
      return Status::Corruption("postings offsets not monotone");
    }
  }
  if (cell_offsets[0] != 0 || cell_offsets[ncells] != npost) {
    return Status::Corruption("postings offsets do not cover the postings");
  }
  for (uint64_t p = 0; p < npost; ++p) {
    if (postings[p].column >= ncols ||
        postings[p].vec_begin + static_cast<uint64_t>(postings[p].vec_count) >
            nvecids) {
      return Status::Corruption("posting references out-of-range data");
    }
  }
  const auto* vec_ids =
      reinterpret_cast<const VecId*>(data + sec_off[kSecVecIds]);
  for (uint64_t i = 0; i < nvecids; ++i) {
    if (vec_ids[i] >= nvec) {
      return Status::Corruption("vec-id pool references a missing vector");
    }
  }

  index.catalog_.mutable_store()->BindView(
      reinterpret_cast<const float*>(data + sec_off[kSecVectors]), nvec, dim);
  index.mapped_.clear();
  index.mapped_ext_ =
      reinterpret_cast<const double*>(data + sec_off[kSecMapped]);
  index.inv_.BindView(cell_offsets, ncells, postings, vec_ids, nvecids);

  if (quant_flag != 0) {
    if (!sec_present[kSecQuantMeta] || !sec_present[kSecQuantCodes] ||
        !sec_present[kSecQuantErr]) {
      return Status::Corruption("flat snapshot missing quant sections");
    }
    if (sec_len[kSecQuantCodes] != nvec * dim ||
        sec_len[kSecQuantErr] != nvec * sizeof(float)) {
      return Status::Corruption("quant section shape mismatch");
    }
    BinaryReader qr = section_reader(kSecQuantMeta);
    uint8_t qkind = 0;
    double slack_rel = 0.0, slack_abs = 0.0;
    uint64_t qcols = 0;
    PEXESO_RETURN_NOT_OK(qr.Read(&qkind));
    PEXESO_RETURN_NOT_OK(qr.Read(&slack_rel));
    PEXESO_RETURN_NOT_OK(qr.Read(&slack_abs));
    PEXESO_RETURN_NOT_OK(qr.Read(&qcols));
    if (qkind > static_cast<uint8_t>(MetricKind::kL1) || qcols != ncols) {
      return Status::Corruption("quant metadata mismatch");
    }
    std::vector<QuantColumnParam> params(qcols);
    for (auto& p : params) {
      PEXESO_RETURN_NOT_OK(qr.Read(&p.scale));
      PEXESO_RETURN_NOT_OK(qr.Read(&p.offset));
    }
    index.quant_.BindView(
        std::move(params),
        reinterpret_cast<const int8_t*>(data + sec_off[kSecQuantCodes]),
        reinterpret_cast<const float*>(data + sec_off[kSecQuantErr]), nvec,
        dim, static_cast<MetricKind>(qkind), slack_rel, slack_abs);
  } else {
    index.quant_.Clear();
  }
  return index;
}

}  // namespace pexeso
