#include "core/pexeso_index.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/cost_model.h"
#include "pivot/pivot_selector.h"

namespace pexeso {

namespace {
constexpr uint32_t kMagic = 0x5058534Fu;  // "PXSO"
// The flat section-table layout: 64-byte-aligned sections the loader mmaps
// and binds zero-copy, CRC-32 footer over every payload byte. Disk versions
// 1 and 2 were streamed layouts that are no longer read.
constexpr uint32_t kVersion = 3;

/// Section starts are aligned so every element type that is served
/// zero-copy (double, uint64_t, Posting, float) lands on a
/// multiple of its alignment; 64 also keeps sections cache-line clean.
constexpr uint64_t kSectionAlign = 64;

/// Section kinds of the flat layout. Values are on-disk; never renumber.
enum SectionKind : uint32_t {
  kSecColMeta = 1,      ///< parsed: column metadata (no vectors)
  kSecPivots = 2,       ///< parsed: PivotSpace image
  kSecGrid = 3,         ///< parsed: HierarchicalGrid image
  kSecTombstones = 4,   ///< checked: u8 per column, always 0
  kSecVectors = 5,      ///< viewed: float[num_vectors * dim]
  kSecMapped = 6,       ///< viewed: double[num_vectors * num_pivots]
  kSecCellOffsets = 7,  ///< viewed: u64[num_cells + 1] CSR offsets
  kSecPostings = 8,     ///< viewed: Posting[num_postings]
  kSecVecIds = 9,       ///< viewed: u32[num_vec_ids]
  // Kinds 10-12 are retired: they held an int8 quantized copy of the
  // vectors (params, codes, error norms) that verification no longer reads.
  // Snapshots written before their removal still carry them; the loader
  // skips them like any unknown kind. Never reuse these values.
};
constexpr uint32_t kMaxSectionKind = kSecVecIds;

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
  index.grid_.Build(index.mapped_.data(), store.size(), actual_pivots,
                    index.pivots_.AxisExtent(), gopts);
  index.inv_.Build(index.grid_, index.catalog_);
  return index;
}

void PexesoIndex::Materialize() {
  catalog_.mutable_store()->Materialize();
  inv_.Materialize();
  if (mapped_ext_ != nullptr) {
    mapped_.assign(mapped_ext_, mapped_ext_ + catalog_.num_vectors() *
                                                  pivots_.num_pivots());
    mapped_ext_ = nullptr;
  }
  mapping_.reset();
}

size_t PexesoIndex::IndexSizeBytes() const {
  return pivots_.MemoryBytes() + mapped_.capacity() * sizeof(double) +
         grid_.MemoryBytes() + inv_.MemoryBytes();
}

Status PexesoIndex::Save(const std::string& path) const {
  // Pre-serialize the variable-length (parsed) sections so every section
  // length — and hence every offset — is known before the table is written;
  // the CRC is a forward-only stream, so the table cannot be patched later.
  std::string colmeta, pivots_img, grid_img;
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

  const VectorStore& store = catalog_.store();
  const uint64_t nvec = store.size();
  const uint32_t dim = store.dim();
  const uint64_t ncols = catalog_.num_columns();
  const uint64_t ncells = inv_.num_cells();
  const uint64_t nvecids = inv_.vec_ids().size();
  const uint32_t np = pivots_.num_pivots();

  struct Section {
    uint32_t kind;
    uint64_t length;
    uint64_t offset;
  };
  std::vector<Section> sections = {
      {kSecColMeta, colmeta.size(), 0},
      {kSecPivots, pivots_img.size(), 0},
      {kSecGrid, grid_img.size(), 0},
      {kSecTombstones, ncols, 0},
      {kSecVectors, nvec * dim * sizeof(float), 0},
      {kSecMapped, nvec * np * sizeof(double), 0},
      {kSecCellOffsets, (ncells + 1) * sizeof(uint64_t), 0},
      {kSecPostings, inv_.postings().size_bytes(), 0},
      {kSecVecIds, nvecids * sizeof(VecId), 0},
  };

  // Header: magic, version, options, dim (what PeekDim reads), counts,
  // then the section table.
  const uint64_t header_bytes = 4 + 4 +            // magic, version
                                4 + 4 + 8 + 1 +    // options
                                4 +                // dim
                                8 + 8 + 8 +        // nvec, ncells, nvecids
                                1 +                // reserved, 0
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
  // Reserved byte, written 0: it was the retired quant-tier flag, and
  // older builds read 0 as "no quant sections".
  w.Write<uint8_t>(0);
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
        pad_to(s.offset + s.length);  // ncols zeros: no column is marked
        break;
      case kSecVectors:
        if (nvec > 0) w.WriteBytes(store.View(0), s.length);
        break;
      case kSecMapped:
        if (nvec > 0) w.WriteBytes(MappedVec(0), s.length);
        break;
      case kSecCellOffsets:
        w.WriteBytes(inv_.cell_offsets().data(), s.length);
        break;
      case kSecPostings:
        w.WriteBytes(inv_.postings().data(), s.length);
        break;
      case kSecVecIds:
        w.WriteBytes(inv_.vec_ids().data(), s.length);
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
  uint8_t reserved = 0;  // the retired quant-tier flag; ignored
  uint32_t num_sections = 0;
  PEXESO_RETURN_NOT_OK(r.Read(&dim));
  PEXESO_RETURN_NOT_OK(r.Read(&nvec));
  PEXESO_RETURN_NOT_OK(r.Read(&ncells));
  PEXESO_RETURN_NOT_OK(r.Read(&nvecids));
  PEXESO_RETURN_NOT_OK(r.Read(&reserved));
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
    // Unknown kinds (the retired 10-12 among them) are skipped.
    if (kind == 0 || kind > kMaxSectionKind) continue;
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
  // The tombstone section is a u8 per column, always written as zeros: a
  // column leaves a lake through its TombstoneSet, never through the
  // index. A marked one could only come from a retired in-place delete,
  // and serving it would bring the dropped column back.
  if (sec_len[kSecTombstones] != ncols) {
    return Status::Corruption("tombstone section length mismatch");
  }
  const uint8_t* tomb = data + sec_off[kSecTombstones];
  if (std::any_of(tomb, tomb + ncols, [](uint8_t t) { return t != 0; })) {
    return Status::Corruption("tombstone section marks a column");
  }

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
  return index;
}

}  // namespace pexeso
