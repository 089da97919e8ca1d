#include "io/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <ostream>
#include <vector>

#include "io/atomic_file.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"

namespace rsg {

namespace {

constexpr std::uint64_t align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

// One fully-assembled section payload. Checkpoints are bounded by the
// schedule state (boxes + a handful of round records), so unlike the
// two-pass RSGB writer the payloads are simply materialized.
struct Payload {
  std::uint32_t type = 0;
  std::uint32_t count = 0;
  std::vector<std::uint8_t> bytes;
};

template <class Record>
void append_record(std::vector<std::uint8_t>& bytes, const Record& record) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&record);
  bytes.insert(bytes.end(), p, p + sizeof(Record));
}

}  // namespace

CheckpointWriteStats write_compaction_checkpoint(std::ostream& out,
                                                 const compact::XyCheckpoint& checkpoint) {
  if (!checkpoint.stretchable.empty() &&
      checkpoint.stretchable.size() != checkpoint.boxes.size()) {
    throw Error("RSGC: stretchable mask size does not match the box count");
  }

  std::vector<Payload> payloads;

  {
    Payload meta;
    meta.type = kSectionCheckpointMeta;
    meta.count = 1;
    CheckpointMetaRecord record{};
    record.rounds_done = checkpoint.rounds_done;
    record.converged = checkpoint.converged ? 1 : 0;
    record.x_infeasible = checkpoint.x_infeasible ? 1 : 0;
    record.y_infeasible = checkpoint.y_infeasible ? 1 : 0;
    record.width_before = checkpoint.width_before;
    record.height_before = checkpoint.height_before;
    record.box_count = checkpoint.boxes.size();
    record.round_count = checkpoint.round_stats.size();
    append_record(meta.bytes, record);
    payloads.push_back(std::move(meta));
  }
  {
    Payload boxes;
    boxes.type = kSectionBoxes;
    boxes.count = static_cast<std::uint32_t>(checkpoint.boxes.size());
    boxes.bytes.reserve(checkpoint.boxes.size() * sizeof(SnapshotBoxRecord));
    for (const LayerBox& lb : checkpoint.boxes) {
      SnapshotBoxRecord record{};
      record.lo_x = lb.box.lo.x;
      record.lo_y = lb.box.lo.y;
      record.hi_x = lb.box.hi.x;
      record.hi_y = lb.box.hi.y;
      record.layer = static_cast<std::uint32_t>(lb.layer);
      append_record(boxes.bytes, record);
    }
    payloads.push_back(std::move(boxes));
  }
  {
    Payload stretch;
    stretch.type = kSectionCheckpointStretch;
    stretch.count = static_cast<std::uint32_t>(checkpoint.stretchable.size());
    stretch.bytes.reserve(checkpoint.stretchable.size());
    for (const bool s : checkpoint.stretchable) {
      stretch.bytes.push_back(s ? 1 : 0);
    }
    payloads.push_back(std::move(stretch));
  }
  {
    Payload rounds;
    rounds.type = kSectionCheckpointRounds;
    rounds.count = static_cast<std::uint32_t>(checkpoint.round_stats.size());
    rounds.bytes.reserve(checkpoint.round_stats.size() * sizeof(CheckpointRoundRecord));
    for (const compact::RoundStats& rs : checkpoint.round_stats) {
      CheckpointRoundRecord record{};
      record.round = rs.round;
      record.width_delta = rs.width_delta;
      record.height_delta = rs.height_delta;
      record.x_skipped = rs.x_skipped ? 1 : 0;
      record.y_skipped = rs.y_skipped ? 1 : 0;
      record.warm_x = rs.warm_x ? 1 : 0;
      record.warm_y = rs.warm_y ? 1 : 0;
      record.constraints_emitted = rs.constraints_emitted;
      record.partners_reswept = rs.partners_reswept;
      record.partners_reused = rs.partners_reused;
      record.solve_pops = rs.solve_pops;
      record.wall_ms = rs.wall_ms;
      append_record(rounds.bytes, record);
    }
    payloads.push_back(std::move(rounds));
  }

  // Lay out: header, section table, 8-aligned payloads.
  std::vector<SnapshotSection> sections(payloads.size());
  std::uint64_t offset = sizeof(SnapshotHeader) + payloads.size() * sizeof(SnapshotSection);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    offset = align8(offset);
    sections[i].type = payloads[i].type;
    sections[i].reserved = 0;
    sections[i].offset = offset;
    sections[i].size = payloads[i].bytes.size();
    sections[i].count = payloads[i].count;
    sections[i].crc32 = snapshot_crc32(payloads[i].bytes.data(), payloads[i].bytes.size());
    offset += payloads[i].bytes.size();
  }
  const std::uint64_t file_bytes = offset;

  SnapshotHeader header{};
  std::memcpy(header.magic, kCheckpointMagic, 4);
  header.version_major = kCheckpointMajor;
  header.version_minor = kCheckpointMinor;
  header.header_bytes = sizeof(SnapshotHeader);
  header.section_count = static_cast<std::uint32_t>(sections.size());
  header.file_bytes = file_bytes;
  header.section_table_offset = sizeof(SnapshotHeader);
  header.root_cell_index = kSnapshotNoRootCell;
  header.flags = 0;
  header.section_table_crc32 =
      snapshot_crc32(sections.data(), sections.size() * sizeof(SnapshotSection));
  header.header_crc32 = snapshot_crc32(&header, 60);

  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(sections.data()),
            static_cast<std::streamsize>(sections.size() * sizeof(SnapshotSection)));
  std::uint64_t written = sizeof(SnapshotHeader) + sections.size() * sizeof(SnapshotSection);
  for (const Payload& payload : payloads) {
    while (written % 8 != 0) {
      out.put('\0');
      ++written;
    }
    // Fault point: the payload write dies mid-stream — the header and some
    // sections are on disk, the rest never arrive (the classic truncated
    // checkpoint a crash leaves behind).
    if (fault::fired("checkpoint.write_payload")) {
      out.setstate(std::ios::failbit);
      break;
    }
    out.write(reinterpret_cast<const char*>(payload.bytes.data()),
              static_cast<std::streamsize>(payload.bytes.size()));
    written += payload.bytes.size();
  }
  if (!out) throw Error("RSGC: write failed");

  CheckpointWriteStats stats;
  stats.file_bytes = file_bytes;
  stats.boxes = checkpoint.boxes.size();
  stats.rounds = checkpoint.round_stats.size();
  return stats;
}

CheckpointWriteStats write_compaction_checkpoint_file(const std::string& path,
                                                      const compact::XyCheckpoint& checkpoint) {
  // write-temp → fsync → rename: the sink rewrites this file after EVERY
  // schedule round, so a crash mid-rewrite must never destroy the previous
  // round's (still perfectly resumable) checkpoint.
  CheckpointWriteStats stats;
  atomic_write_file(path, [&](std::ostream& out) {
    stats = write_compaction_checkpoint(out, checkpoint);
  });
  return stats;
}

compact::XyCheckpoint read_compaction_checkpoint(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (size < sizeof(SnapshotHeader)) throw Error("RSGC: file too small for a header");
  SnapshotHeader header;
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, kCheckpointMagic, 4) != 0) throw Error("RSGC: bad magic");
  if (snapshot_crc32(bytes, 60) != header.header_crc32) {
    throw Error("RSGC: header CRC mismatch");
  }
  if (header.version_major != kCheckpointMajor) {
    throw Error("RSGC: unsupported major version " + std::to_string(header.version_major) +
                " (this reader supports " + std::to_string(kCheckpointMajor) + ")");
  }
  if (header.file_bytes < sizeof(SnapshotHeader) || header.file_bytes > size) {
    throw Error("RSGC: truncated file (header declares " + std::to_string(header.file_bytes) +
                " bytes, buffer holds " + std::to_string(size) + ")");
  }
  const std::uint64_t table_offset = header.section_table_offset;
  const std::uint64_t table_size =
      std::uint64_t{header.section_count} * sizeof(SnapshotSection);
  if (table_offset < sizeof(SnapshotHeader) || table_offset + table_size > header.file_bytes) {
    throw Error("RSGC: section table out of bounds");
  }
  std::vector<SnapshotSection> sections(header.section_count);
  std::memcpy(sections.data(), bytes + table_offset, table_size);
  if (snapshot_crc32(sections.data(), table_size) != header.section_table_crc32) {
    throw Error("RSGC: section table CRC mismatch");
  }

  const SnapshotSection* meta = nullptr;
  const SnapshotSection* boxes = nullptr;
  const SnapshotSection* stretch = nullptr;
  const SnapshotSection* rounds = nullptr;
  for (const SnapshotSection& section : sections) {
    if (section.offset % 8 != 0 || section.offset + section.size > header.file_bytes) {
      throw Error("RSGC: section payload out of bounds");
    }
    if (snapshot_crc32(bytes + section.offset, section.size) != section.crc32) {
      throw Error("RSGC: section CRC mismatch");
    }
    if (section.type == kSectionCheckpointMeta) meta = &section;
    if (section.type == kSectionBoxes) boxes = &section;
    if (section.type == kSectionCheckpointStretch) stretch = &section;
    if (section.type == kSectionCheckpointRounds) rounds = &section;
    // Unknown FourCCs are additive minor-version content and are skipped.
  }
  if (meta == nullptr || boxes == nullptr || stretch == nullptr || rounds == nullptr) {
    throw Error("RSGC: missing required section");
  }
  if (meta->size != sizeof(CheckpointMetaRecord)) throw Error("RSGC: bad META size");

  CheckpointMetaRecord record;
  std::memcpy(&record, bytes + meta->offset, sizeof(record));
  if (boxes->size != record.box_count * sizeof(SnapshotBoxRecord) ||
      boxes->count != record.box_count) {
    throw Error("RSGC: BOXS size does not match the META box count");
  }
  if (stretch->size != stretch->count ||
      (stretch->count != 0 && stretch->count != record.box_count)) {
    throw Error("RSGC: STRM size does not match the META box count");
  }
  if (rounds->size != record.round_count * sizeof(CheckpointRoundRecord) ||
      rounds->count != record.round_count) {
    throw Error("RSGC: RNDS size does not match the META round count");
  }

  compact::XyCheckpoint checkpoint;
  checkpoint.rounds_done = record.rounds_done;
  checkpoint.converged = record.converged != 0;
  checkpoint.x_infeasible = record.x_infeasible != 0;
  checkpoint.y_infeasible = record.y_infeasible != 0;
  checkpoint.width_before = record.width_before;
  checkpoint.height_before = record.height_before;

  checkpoint.boxes.reserve(record.box_count);
  for (std::uint64_t i = 0; i < record.box_count; ++i) {
    SnapshotBoxRecord box;
    std::memcpy(&box, bytes + boxes->offset + i * sizeof(box), sizeof(box));
    if (box.layer >= static_cast<std::uint32_t>(kNumLayers) || box.lo_x > box.hi_x ||
        box.lo_y > box.hi_y) {
      throw Error("RSGC: invalid box record");
    }
    checkpoint.boxes.push_back(
        {static_cast<Layer>(box.layer), Box(box.lo_x, box.lo_y, box.hi_x, box.hi_y)});
  }
  checkpoint.stretchable.reserve(stretch->count);
  for (std::uint64_t i = 0; i < stretch->count; ++i) {
    checkpoint.stretchable.push_back(bytes[stretch->offset + i] != 0);
  }
  checkpoint.round_stats.reserve(record.round_count);
  for (std::uint64_t i = 0; i < record.round_count; ++i) {
    CheckpointRoundRecord rr;
    std::memcpy(&rr, bytes + rounds->offset + i * sizeof(rr), sizeof(rr));
    compact::RoundStats rs;
    rs.round = rr.round;
    rs.width_delta = rr.width_delta;
    rs.height_delta = rr.height_delta;
    rs.x_skipped = rr.x_skipped != 0;
    rs.y_skipped = rr.y_skipped != 0;
    rs.warm_x = rr.warm_x != 0;
    rs.warm_y = rr.warm_y != 0;
    rs.constraints_emitted = rr.constraints_emitted;
    rs.partners_reswept = rr.partners_reswept;
    rs.partners_reused = rr.partners_reused;
    rs.solve_pops = rr.solve_pops;
    rs.wall_ms = rr.wall_ms;
    checkpoint.round_stats.push_back(rs);
  }
  return checkpoint;
}

compact::XyCheckpoint read_compaction_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw Error("cannot open checkpoint file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(buffer.data()), size);
  if (!in) throw Error("RSGC: read failed: " + path);
  return read_compaction_checkpoint(buffer.data(), buffer.size());
}

}  // namespace rsg
