// Fault injection into the incremental compaction engine.
//
// IncrementalCompactor checks every reused constraint system against a
// scratch rebuild (IncrementalOptions::check_byte_identity). The engine is
// byte-identical by construction, so that check's error path only runs
// when the cached state is corrupted on purpose — which is what this peer
// does. It is a friend of the engine; nothing under src/ calls it.
#pragma once

#include "compact/incremental.hpp"

namespace rsg::compact {

struct IncrementalFaults {
  // Appends a bogus constraint to the axis's cached system: the next pass
  // on unchanged geometry reuses the cache, and the divergence check must
  // throw. Throws rsg::Error when the axis has no cached system yet.
  static void corrupt_cached_system(IncrementalCompactor& engine, bool y_axis);
};

}  // namespace rsg::compact
