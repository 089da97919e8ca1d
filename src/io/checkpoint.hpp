// RSGC — the compaction checkpoint file format.
//
// Serializes a compact::XyCheckpoint (the x/y schedule's complete loop
// state after round k) so a long compaction run can stop and resume
// bit-for-bit. Built from the RSGB machinery in io/snapshot.hpp: the same
// 64-byte SnapshotHeader (magic "RSGC"), the same section table and
// CRC-32 discipline, the same 40-byte box record. Sections:
//
//   META  one CheckpointMetaRecord (round counter, flags, extents, counts)
//   BOXS  SnapshotBoxRecord array — the geometry after round k
//   STRM  one byte per box: the stretchable mask the schedule ran with
//   RNDS  CheckpointRoundRecord array — per-round telemetry so a resumed
//         run's --compact-stats table covers the rounds it did not run
//
// Versioning follows RSGB: readers reject a different major version and
// accept newer minors (additive sections/flags only). Every section and
// the header are CRC-checked; any mismatch or truncation throws
// rsg::Error rather than resuming from corrupt state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "compact/xy_schedule.hpp"
#include "io/snapshot.hpp"

namespace rsg {

inline constexpr char kCheckpointMagic[4] = {'R', 'S', 'G', 'C'};
inline constexpr std::uint16_t kCheckpointMajor = 1;
inline constexpr std::uint16_t kCheckpointMinor = 0;

inline constexpr std::uint32_t kSectionCheckpointMeta = snapshot_fourcc("META");
inline constexpr std::uint32_t kSectionCheckpointStretch = snapshot_fourcc("STRM");
inline constexpr std::uint32_t kSectionCheckpointRounds = snapshot_fourcc("RNDS");
// BOXS reuses kSectionBoxes / SnapshotBoxRecord from snapshot.hpp.

struct CheckpointMetaRecord {  // 40-byte stride
  std::int32_t rounds_done;
  std::uint8_t converged;
  std::uint8_t x_infeasible;
  std::uint8_t y_infeasible;
  std::uint8_t reserved;       // zero
  std::int64_t width_before;
  std::int64_t height_before;
  std::uint64_t box_count;
  std::uint64_t round_count;
};
static_assert(sizeof(CheckpointMetaRecord) == 40);

// The four `reserved*` slots held sharded-solver telemetry in files written
// before that solver was removed. Writers store 0; readers ignore them, so
// older files still resume.
struct CheckpointRoundRecord {  // 88-byte stride, mirrors compact::RoundStats
  std::int32_t round;
  std::int32_t reserved_a;
  std::int64_t width_delta;
  std::int64_t height_delta;
  std::uint8_t x_skipped;
  std::uint8_t y_skipped;
  std::uint8_t warm_x;
  std::uint8_t warm_y;
  std::int32_t reserved_b;
  std::uint64_t constraints_emitted;
  std::uint64_t partners_reswept;
  std::uint64_t partners_reused;
  std::uint64_t solve_pops;
  std::uint64_t reserved_c;
  std::uint64_t reserved_d;
  double wall_ms;
};
static_assert(sizeof(CheckpointRoundRecord) == 88);

struct CheckpointWriteStats {
  std::uint64_t file_bytes = 0;
  std::size_t boxes = 0;
  std::size_t rounds = 0;
};

CheckpointWriteStats write_compaction_checkpoint(std::ostream& out,
                                                 const compact::XyCheckpoint& checkpoint);
CheckpointWriteStats write_compaction_checkpoint_file(const std::string& path,
                                                      const compact::XyCheckpoint& checkpoint);

// Validates and materializes a checkpoint image. Throws rsg::Error on bad
// magic, CRC mismatch, truncation, or a major-version skew.
compact::XyCheckpoint read_compaction_checkpoint(const void* data, std::size_t size);
compact::XyCheckpoint read_compaction_checkpoint_file(const std::string& path);

}  // namespace rsg
