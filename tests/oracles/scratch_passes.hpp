// One-shot compaction passes and the scratch x/y schedule: every pass
// builds its constraint system from nothing. They are the references the
// incremental engine behind compact_flat_schedule is checked against
// (incremental_test, xy_schedule_test) and the baselines bench_xy_scaling
// and bench_fig65_fragmentation measure. Nothing in src/ calls them.
#pragma once

#include <vector>

#include "compact/flat_compactor.hpp"
#include "compact/xy_schedule.hpp"

namespace rsg::compact::oracle {

// y compaction by transposition: swap axes, compact_flat in x, swap back.
FlatResult compact_flat_y(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                          const std::vector<bool>& stretchable = {});

// compact_flat with the §6.4.1 naive generator in place of the scan line:
// the overconstraining baseline of Figure 6.5.
FlatResult compact_flat_naive(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                              const std::vector<bool>& stretchable = {});

// The alternating schedule with every pass a one-shot compact_flat /
// compact_flat_y (no rubber band). Honors max_rounds and
// stop_when_converged, nothing else of `schedule` (no best effort,
// checkpoints or cancellation), and fills boxes, the extents, rounds,
// converged and per round its number, constraints_emitted and wall_ms.
XyScheduleResult compact_flat_schedule_scratch(const std::vector<LayerBox>& boxes,
                                               const CompactionRules& rules,
                                               const XyScheduleOptions& schedule,
                                               const std::vector<bool>& stretchable = {});

}  // namespace rsg::compact::oracle
