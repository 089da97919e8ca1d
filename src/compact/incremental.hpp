// The incremental x/y compaction engine — the only pass path of the
// alternating schedule (compact/xy_schedule.hpp).
//
// Rebuilding the whole constraint system and cold-starting the solver on
// every pass (one compact_flat per axis per round) repeats all the work
// even when a late round moves a handful of boxes. This engine keeps
// persistent per-axis state across passes and regenerates only what moved:
//
//   * The sweep is band-sharded (scanline.hpp): each (layer, y band) shard
//     stores its partner list plus a 64-bit hash of its participating
//     boxes' geometry. A pass re-sweeps only the DIRTY shards — those
//     whose participant hash changed, which by construction covers the
//     moved boxes and their spacing-radius neighbors (participation is
//     window overlap, and windows carry the §6.4.1 shadow margin) — and
//     splices the stored partner lists of the clean shards back in. The
//     merged emission is byte-identical to a scratch build for every
//     partition, so reuse is a pure work saving.
//   * Solves are warm-started from the previous pass's coordinates
//     (bellman_ford.hpp): the seed is accepted only when it satisfies
//     every constraint and is proved the exact least solution, and the
//     solver runs cold otherwise, so the final geometry is always exactly
//     the scratch geometry.
//
// `check_byte_identity` also builds the scratch stream on every pass
// and throws on any divergence — the mode the equivalence tests and
// suspicious production runs use. The scratch schedule itself (one-shot
// compact_flat passes) is a reference loop in the test support library
// (tests/oracles), which the byte-identity tests and bench_xy_scaling run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compact/flat_compactor.hpp"
#include "support/error.hpp"

namespace rsg::compact {

// Thrown by check_byte_identity when an incremental pass's constraint
// stream differs from a scratch build. Distinct from plain rsg::Error so
// the best-effort schedule can tell an ENGINE BUG (always fatal) apart
// from an infeasible axis (skippable): the diagnostic mode must fail
// loudly, never be recorded as "axis infeasible".
class IncrementalDivergence : public Error {
 public:
  explicit IncrementalDivergence(std::string message) : Error(std::move(message)) {}
};

struct IncrementalOptions {
  // Y bands per layer; <= 0 means one per hardware core
  // (resolve_sweep_threads).
  int bands = 0;
  // Debug mode: every pass also generates the constraint stream from
  // scratch and throws rsg::Error if the incremental stream differs.
  bool check_byte_identity = false;
};

// What one pass did with its shards — the schedule's telemetry source.
struct IncrementalPassStats {
  int shards_total = 0;
  int shards_reswept = 0;
  std::size_t partners_reswept = 0;  // partner entries regenerated by sweeps
  std::size_t partners_reused = 0;   // partner entries spliced from clean shards
  bool full_build = false;           // first pass on this axis
  std::vector<int> dirty_bands;      // re-swept band indices (union over layers)
};

// One compactor instance serves one alternating schedule: it owns the
// per-axis band partitions, shard caches and warm-start coordinates. The
// rules, options and stretchable mask are fixed for the instance — exactly
// the xy-schedule contract.
class IncrementalCompactor {
 public:
  IncrementalCompactor(const CompactionRules& rules, const FlatOptions& options,
                       const IncrementalOptions& incremental,
                       std::vector<bool> stretchable = {});

  // One x (y) pass: byte-identical in constraints and geometry to
  // compact_flat on the same (transposed) input. Throws rsg::Error on
  // infeasible systems, leaving the shard cache valid for the next pass.
  FlatResult compact_x(const std::vector<LayerBox>& boxes);
  FlatResult compact_y(const std::vector<LayerBox>& boxes);

  const IncrementalPassStats& x_stats() const { return x_.stats; }
  const IncrementalPassStats& y_stats() const { return y_.stats; }

  // The band partitions (infinity-sentinel cut lists; y axis in transposed
  // space), fixed at each axis's first pass — exposed for the dirty-band
  // tests and telemetry.
  const std::vector<Coord>& x_band_cuts() const { return x_.cuts; }
  const std::vector<Coord>& y_band_cuts() const { return y_.cuts; }


 private:
  // The fault-injection peer of the test support library (tests/oracles)
  // reaches the cached systems to prove the byte-identity check can fire.
  friend struct IncrementalFaults;

  struct AxisState {
    bool initialized = false;
    std::vector<Coord> cuts;
    std::vector<SweepShard> shards;      // layer-major: layer * bands + band
    std::vector<std::uint64_t> hashes;   // participant hash per shard
    std::vector<Coord> warm;             // previous pass's solution values
    // The assembled constraint system of the last pass. Every box
    // participates in at least one shard (its own layer's window is never
    // empty), so an all-clean pass proves the geometry identical to the
    // previous pass's — the cached system IS this pass's system, and the
    // emission (variables, net finding, merge) is skipped wholesale.
    ConstraintSystem system;
    bool system_valid = false;
    IncrementalPassStats stats;
  };

  FlatResult pass(AxisState& state, const std::vector<LayerBox>& boxes);

  CompactionRules rules_;
  FlatOptions options_;
  IncrementalOptions incremental_;
  std::vector<bool> stretchable_;
  AxisState x_;
  AxisState y_;
};

}  // namespace rsg::compact
