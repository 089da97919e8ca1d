#include "oracles/incremental_faults.hpp"

#include "support/error.hpp"

namespace rsg::compact {

void IncrementalFaults::corrupt_cached_system(IncrementalCompactor& engine, bool y_axis) {
  IncrementalCompactor::AxisState& state = y_axis ? engine.y_ : engine.x_;
  if (!state.system_valid) {
    throw Error("incremental compaction: no cached system to corrupt (run a pass first)");
  }
  state.system.add_constraint(0, 0, 1, ConstraintKind::kSpacing);
}

}  // namespace rsg::compact
