// The alternating x/y compaction schedule.
//
// The thesis's compactor is one-dimensional: "we will restrict ourselves to
// one dimensional compaction in the x dimension" (§6.3), with y handled by
// transposition. A single x pass then y pass leaves area on the table —
// pulling boxes down changes which boxes share a band, so a second x pass
// can reclaim width the first could not see. This driver alternates the two
// axes until a round leaves the geometry unchanged (the schedule's
// fixpoint; extents alone can plateau a round before the geometry does) or
// a hard round cap — the scheduling layer the §6.4 experiments left open.
// Every pass runs through one IncrementalCompactor (compact/incremental.hpp),
// whose passes are byte-identical to one-shot compact_flat passes. The leaf
// library's alternating schedule, compact_leaf_schedule, lives with the leaf
// LP in leaf_compactor.hpp.
#pragma once

#include <functional>
#include <vector>

#include "compact/flat_compactor.hpp"
#include "compact/incremental.hpp"
#include "support/cancel.hpp"

namespace rsg::compact {

struct RoundStats;

// The schedule's round loop against its hard cap: how many rounds ran,
// what the cap was, and whether the loop reached its fixpoint or was cut
// off.
struct ConvergenceReport {
  int iterations = 0;      // rounds actually run
  int cap = 0;             // the configured round cap
  bool converged = false;  // fixpoint reached (not just the cap)

  bool capped() const { return !converged && iterations >= cap; }
};

// The complete schedule state after round `rounds_done` — everything a
// later process needs to continue the loop as if it never stopped. The
// geometry a resumed schedule produces is bit-for-bit the uninterrupted
// run's (every pass is exact, so the boxes after round k determine the
// boxes after round k+1); per-round COST telemetry may differ, since a
// fresh incremental engine re-sweeps bands the uninterrupted run reused.
// io/checkpoint.hpp serializes this as the RSGC file format.
struct XyCheckpoint {
  int rounds_done = 0;
  bool converged = false;
  bool x_infeasible = false;
  bool y_infeasible = false;
  Coord width_before = 0;
  Coord height_before = 0;
  std::vector<LayerBox> boxes;       // geometry after round rounds_done
  std::vector<bool> stretchable;     // the mask the schedule ran with
  std::vector<RoundStats> round_stats;
};

struct XyScheduleOptions {
  // Hard cap; each round is one x pass followed by one y pass.
  int max_rounds = 8;
  // Stop as soon as a round leaves the geometry unchanged. Disable to
  // always run max_rounds (the benchmarks do, for stable work per run).
  bool stop_when_converged = true;
  // Layouts that violate their own design rules (§6.4's rigid devices
  // closer than the spacing table allows) make a pass's constraint system
  // infeasible. Best effort skips that axis for the round instead of
  // throwing — the generator pipeline uses this so any layout may request
  // compaction — and records the skip in the result. A round where BOTH
  // axes are infeasible cannot make progress and terminates the schedule
  // early with converged = false.
  bool best_effort = false;
  // The incremental engine's band count and byte-identity check mode.
  IncrementalOptions incremental_options;
  // Checkpoint/restart. The sink (if set) receives the full schedule state
  // after EVERY completed round; `resume` (if set) restores that state and
  // the loop continues from round rounds_done + 1, ignoring the `boxes`
  // argument. io/checkpoint.hpp wires both to RSGC checkpoint files.
  std::function<void(const XyCheckpoint&)> checkpoint_sink;
  const XyCheckpoint* resume = nullptr;
  // Cooperative cancellation: polled at every round boundary AFTER the
  // checkpoint sink has fired for the completed round, so an abandoned run
  // always leaves a resumable checkpoint behind. Fires as StatusError
  // (DEADLINE_EXCEEDED for an expired deadline, CANCELLED for an explicit
  // cancel — e.g. the serving core draining on SIGTERM).
  const CancelToken* cancel = nullptr;
};

// Per-round telemetry: what each axis pass did and what it cost. This is
// what makes a converged schedule distinguishable from a capped one from
// the outside (rsg_cli --compact-stats prints it).
struct RoundStats {
  int round = 0;                // 1-based
  Coord width_delta = 0;        // width reclaimed by this round's x pass
  Coord height_delta = 0;       // height reclaimed by this round's y pass
  bool x_skipped = false;       // best effort: the axis was infeasible
  bool y_skipped = false;
  std::size_t constraints_emitted = 0;  // both passes
  std::size_t partners_reswept = 0;     // incremental: regenerated partner entries
  std::size_t partners_reused = 0;      //   spliced from clean bands
  std::size_t solve_pops = 0;           // solver variable visits, both passes
  bool warm_x = false;                  // warm start verified exact for the axis
  bool warm_y = false;
  double wall_ms = 0.0;
};

struct XyScheduleResult {
  std::vector<LayerBox> boxes;
  Coord width_before = 0;
  Coord width_after = 0;
  Coord height_before = 0;
  Coord height_after = 0;
  int rounds = 0;           // rounds actually run
  bool converged = false;   // a round left the geometry unchanged
  bool x_infeasible = false;  // best effort: some x pass was skipped
  bool y_infeasible = false;  // best effort: some y pass was skipped
  // The schedule's round loop against its cap.
  ConvergenceReport convergence;
  std::vector<RoundStats> round_stats;  // one entry per round run
};

XyScheduleResult compact_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules,
                                       const FlatOptions& options = {},
                                       const XyScheduleOptions& schedule = {},
                                       const std::vector<bool>& stretchable = {});

}  // namespace rsg::compact
