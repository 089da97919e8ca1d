// RSGB — the RSG binary snapshot format.
//
// A versioned, little-endian, mmap-able image of a CellTable: fixed 64-byte
// header, section table, then fixed-stride record arrays (cells, boxes,
// labels, instances) plus one string table. Every section is CRC-32 checked,
// record offsets are 8-aligned, and the record structs below ARE the on-disk
// layout, so a mapped file can be read zero-copy through SnapshotView with
// no parsing or allocation proportional to layout size.
//
// The normative byte-level specification lives in docs/formats/RSGB.md; the
// section numbers referenced by tests ("RSGB.md §5.2") point there. This
// header mirrors the spec but the spec wins on any disagreement.
//
// Versioning: readers reject a different major version, accept any newer
// minor version (new minor = additive: new sections or flag bits only), and
// skip sections whose FourCC they do not know.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "layout/cell_table.hpp"

namespace rsg {

// --------------------------------------------------------------------------
// On-disk records (RSGB.md §3–§5). Plain little-endian structs; the
// static_asserts pin the exact stride and the absence of padding.
// --------------------------------------------------------------------------

static_assert(std::endian::native == std::endian::little,
              "RSGB I/O assumes a little-endian host");

inline constexpr char kSnapshotMagic[4] = {'R', 'S', 'G', 'B'};
inline constexpr std::uint16_t kSnapshotMajor = 1;
inline constexpr std::uint16_t kSnapshotMinor = 0;
inline constexpr std::uint32_t kSnapshotNoRootCell = 0xFFFFFFFFu;

// Section FourCCs, stored as little-endian u32 ('C' in the low byte of CELL).
constexpr std::uint32_t snapshot_fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}
inline constexpr std::uint32_t kSectionCells = snapshot_fourcc("CELL");
inline constexpr std::uint32_t kSectionBoxes = snapshot_fourcc("BOXS");
inline constexpr std::uint32_t kSectionLabels = snapshot_fourcc("LABL");
inline constexpr std::uint32_t kSectionInstances = snapshot_fourcc("INST");
inline constexpr std::uint32_t kSectionStrings = snapshot_fourcc("STRT");

struct SnapshotHeader {              // RSGB.md §3
  char magic[4];                     // "RSGB"
  std::uint16_t version_major;       // readers reject a mismatch
  std::uint16_t version_minor;       // readers accept newer minors
  std::uint32_t header_bytes;        // 64
  std::uint32_t section_count;
  std::uint64_t file_bytes;          // total logical file size
  std::uint64_t section_table_offset;  // 64 in version 1.x
  std::uint32_t root_cell_index;     // kSnapshotNoRootCell when absent
  std::uint32_t flags;               // 0 in version 1.0
  std::uint32_t section_table_crc32;
  std::uint8_t reserved[16];         // zeros
  std::uint32_t header_crc32;        // CRC-32 of bytes [0, 60)
};
static_assert(sizeof(SnapshotHeader) == 64);

struct SnapshotSection {       // RSGB.md §4
  std::uint32_t type;          // FourCC
  std::uint32_t reserved;      // zero
  std::uint64_t offset;        // from file start; multiple of 8
  std::uint64_t size;          // payload bytes (excludes alignment padding)
  std::uint32_t count;         // record count (byte count for STRT)
  std::uint32_t crc32;         // CRC-32 of the payload bytes
};
static_assert(sizeof(SnapshotSection) == 32);

struct SnapshotCellRecord {         // RSGB.md §5.1 — 40-byte stride
  std::uint32_t name_offset;        // into STRT
  std::uint32_t box_count;
  std::uint32_t label_count;
  std::uint32_t instance_count;
  std::uint64_t first_box;          // index into BOXS
  std::uint64_t first_label;        // index into LABL
  std::uint64_t first_instance;     // index into INST
};
static_assert(sizeof(SnapshotCellRecord) == 40);

struct SnapshotBoxRecord {  // RSGB.md §5.2 — 40-byte stride
  std::int64_t lo_x;
  std::int64_t lo_y;
  std::int64_t hi_x;
  std::int64_t hi_y;
  std::uint32_t layer;      // Layer enum value
  std::uint32_t reserved;   // zero
};
static_assert(sizeof(SnapshotBoxRecord) == 40);

struct SnapshotLabelRecord {   // RSGB.md §5.3 — 24-byte stride
  std::uint32_t text_offset;   // into STRT
  std::uint32_t reserved;      // zero
  std::int64_t x;
  std::int64_t y;
};
static_assert(sizeof(SnapshotLabelRecord) == 24);

struct SnapshotInstanceRecord {  // RSGB.md §5.4 — 32-byte stride
  std::uint32_t cell_index;      // into CELL
  std::uint32_t name_offset;     // into STRT; 0 for the empty name
  std::int64_t x;
  std::int64_t y;
  std::uint32_t orientation;     // Orientation::index(), 0..7
  std::uint32_t reserved;        // zero
};
static_assert(sizeof(SnapshotInstanceRecord) == 32);

// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init/final XOR
// 0xFFFFFFFF). Chainable: pass the previous return value as `seed`.
std::uint32_t snapshot_crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

// The container layer RSGB and RSGC share (RSGB.md §3–§4), checked in the
// documented validation order: size, magic, header CRC, major version,
// header_bytes, file_bytes within the buffer, section-table bounds and CRC,
// then every section's alignment, bounds and payload CRC. Every bound is
// checked as `size > limit - offset`, so no offset can wrap past the
// buffer. A type in `known_types` may appear at most once; other types are
// additive minor-version content and pass through. `tag` ("RSGB", "RSGC")
// prefixes every rsg::Error message.
struct SnapshotContainer {
  SnapshotHeader header;                  // copied: the buffer need not be aligned
  std::vector<SnapshotSection> sections;  // every entry validated
};

SnapshotContainer read_snapshot_container(const void* data, std::size_t size,
                                          const char (&magic)[4], std::uint16_t major,
                                          const std::vector<std::uint32_t>& known_types,
                                          const char* tag);

// --------------------------------------------------------------------------
// Zero-copy read view over a complete RSGB image. Non-owning; validates header,
// bounds and all CRCs on attach and throws rsg::Error on any violation.
// --------------------------------------------------------------------------
class SnapshotView {
 public:
  SnapshotView(const void* data, std::size_t size);

  std::uint16_t version_major() const { return header_->version_major; }
  std::uint16_t version_minor() const { return header_->version_minor; }

  std::size_t cell_count() const { return cell_count_; }
  std::size_t box_count() const { return box_count_; }
  std::size_t label_count() const { return label_count_; }
  std::size_t instance_count() const { return instance_count_; }

  const SnapshotCellRecord& cell(std::size_t i) const { return cells_[i]; }
  const SnapshotBoxRecord& box(std::size_t i) const { return boxes_[i]; }
  const SnapshotLabelRecord& label(std::size_t i) const { return labels_[i]; }
  const SnapshotInstanceRecord& instance(std::size_t i) const { return instances_[i]; }

  // NUL-terminated string at `offset` in the string table; bounds-checked.
  std::string_view string(std::uint32_t offset) const;

  // Index of the root cell, or kSnapshotNoRootCell.
  std::uint32_t root_cell_index() const { return header_->root_cell_index; }
  std::string_view root_cell_name() const;

 private:
  const SnapshotHeader* header_ = nullptr;
  const SnapshotCellRecord* cells_ = nullptr;
  const SnapshotBoxRecord* boxes_ = nullptr;
  const SnapshotLabelRecord* labels_ = nullptr;
  const SnapshotInstanceRecord* instances_ = nullptr;
  const char* strings_ = nullptr;
  std::size_t cell_count_ = 0;
  std::size_t box_count_ = 0;
  std::size_t label_count_ = 0;
  std::size_t instance_count_ = 0;
  std::size_t string_bytes_ = 0;
};

// Owning snapshot: an mmap'd file (zero-copy) or an aligned heap copy of a
// byte buffer, plus the validated view over it. Movable, not copyable.
class Snapshot {
 public:
  // Maps `path` read-only (falls back to a buffered read where mmap is
  // unavailable) and validates it.
  static Snapshot map_file(const std::string& path);

  // Copies `size` bytes into aligned owned storage and validates them.
  static Snapshot from_buffer(const void* data, std::size_t size);

  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

  const SnapshotView& view() const { return view_; }
  std::size_t size_bytes() const { return size_; }
  bool mapped() const { return mapped_; }

 private:
  Snapshot(const void* data, std::size_t size, bool mapped, void* owned);

  SnapshotView view_;
  const void* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;    // true: munmap on destruction
  void* owned_ = nullptr;  // heap storage when !mapped_
};

// --------------------------------------------------------------------------
// Whole-table entry points.
// --------------------------------------------------------------------------

struct SnapshotWriteStats {
  std::uint64_t file_bytes = 0;
  std::size_t cells = 0;
  std::size_t boxes = 0;
  std::size_t labels = 0;
  std::size_t instances = 0;
};

// Serializes `cells` (in names_in_order order) with `root` as the root cell
// (may be empty, or must name a cell in the table). Section payloads are
// generated twice — once to compute CRCs, once to emit — so the writer's
// working set is the string table plus one record, not the payload.
SnapshotWriteStats write_snapshot(std::ostream& out, const CellTable& cells,
                                  const std::string& root);
SnapshotWriteStats write_snapshot_file(const std::string& path, const CellTable& cells,
                                       const std::string& root);

struct SnapshotReadResult {
  std::string root;  // empty when the snapshot has no root cell
  std::size_t cells = 0;
  std::size_t boxes = 0;
  std::size_t labels = 0;
  std::size_t instances = 0;
};

// Materializes a validated snapshot into `cells`. Throws rsg::Error on
// dangling indices, bad layers/orientations, or name collisions with cells
// already in the table.
SnapshotReadResult load_snapshot(const SnapshotView& view, CellTable& cells);
SnapshotReadResult read_snapshot_file(const std::string& path, CellTable& cells);

}  // namespace rsg
