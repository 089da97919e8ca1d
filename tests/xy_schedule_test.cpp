// Tests for the alternating x/y compaction schedule and its wiring into the
// rsg::Generator pipeline, plus the transpose property that pins y
// compaction to x compaction on 100+ seeded synthetic fields.
#include "compact/xy_schedule.hpp"

#include <gtest/gtest.h>

#include "compact/leaf_compactor.hpp"
#include "layout/design_rules.hpp"
#include "layout/flatten.hpp"
#include "oracles/synth_design.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/generator.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

std::vector<LayerBox> transposed(const std::vector<LayerBox>& boxes) {
  std::vector<LayerBox> out;
  out.reserve(boxes.size());
  for (const LayerBox& lb : boxes) {
    out.push_back({lb.layer, Box(lb.box.lo.y, lb.box.lo.x, lb.box.hi.y, lb.box.hi.x)});
  }
  return out;
}

TEST(XySchedule, YCompactionIsTransposedXCompaction) {
  // The schedule's y pass == transpose(compact_flat(transpose(boxes))) on
  // 100+ seeded fields — the contract that makes the alternating schedule a
  // pure composition of one-dimensional passes (§6.3).
  for (std::uint32_t seed = 0; seed < 110; ++seed) {
    const SynthField field = make_random_field(seed, 4 + static_cast<int>(seed % 30));
    IncrementalCompactor engine(CompactionRules::mosis(), {}, {}, field.stretchable);
    const FlatResult y_pass = engine.compact_y(field.boxes);
    const FlatResult x_of_transpose =
        compact_flat(transposed(field.boxes), CompactionRules::mosis(), {}, field.stretchable);
    EXPECT_EQ(y_pass.boxes, transposed(x_of_transpose.boxes)) << "seed " << seed;
    EXPECT_EQ(y_pass.width_after, x_of_transpose.width_after) << "seed " << seed;
    EXPECT_EQ(y_pass.constraint_count, x_of_transpose.constraint_count) << "seed " << seed;
  }
}

TEST(LeafXySchedule, LeafYCompactionPinsTransposedFigure63Cell) {
  // The vertical mirror of leafcell_test's PitchShrinksToPackedMinimum:
  // two metal bars stacked in y, a vertical self-interface of pitch 60.
  // Packed: bars at y [0,10] and [16,26] (metal spacing 6), next instance's
  // first bar 6 beyond y=26: λ_y = 32. x must come through untouched and
  // pitch_y must carry the interface's (zero) x component.
  CellTable cells;
  InterfaceTable interfaces;
  Cell& a = cells.create("a");
  a.add_box(Layer::kMetal1, Box(0, 0, 4, 10));
  a.add_box(Layer::kMetal1, Box(0, 30, 4, 40));
  interfaces.declare("a", "a", 1, Interface{{0, 60}, Orientation::kNorth});
  const LeafResult result = compact_leaf_cells_y(cells, interfaces, {"a"}, {{"a", "a", 1, 1.0}},
                                                 CompactionRules::mosis());
  ASSERT_EQ(result.pitches.size(), 1u);
  EXPECT_EQ(result.original_pitches[0], 60);
  EXPECT_EQ(result.pitches[0], 32);
  EXPECT_EQ(result.pitch_y[0], 0);  // the untouched x component
  const auto& boxes = result.cells.at("a");
  EXPECT_EQ(boxes[0].box, Box(0, 0, 4, 10));
  EXPECT_EQ(boxes[1].box, Box(0, 16, 4, 26));

  // Rebuild is axis-checked: the y result must go through the _y variant
  // (which un-mirrors the pitch bookkeeping); the x variant throws rather
  // than silently declaring a component-swapped interface.
  CellTable new_cells;
  InterfaceTable new_interfaces;
  EXPECT_THROW(
      make_compacted_library(result, {{"a", "a", 1, 1.0}}, new_cells, new_interfaces), Error);
  make_compacted_library_y(result, {{"a", "a", 1, 1.0}}, new_cells, new_interfaces);
  EXPECT_EQ(new_interfaces.get("a", "a", 1).vector, (Point{0, 32}));
  // And an x result refuses the _y variant.
  interfaces.declare("a", "a", 2, Interface{{20, 0}, Orientation::kNorth});
  const LeafResult x_result = compact_leaf_cells(cells, interfaces, {"a"}, {{"a", "a", 2, 1.0}},
                                                 CompactionRules::mosis());
  EXPECT_FALSE(x_result.y_axis);
  EXPECT_THROW(
      make_compacted_library_y(x_result, {{"a", "a", 2, 1.0}}, new_cells, new_interfaces),
      Error);
}

TEST(LeafXySchedule, LeafYCompactionValidation) {
  CellTable cells;
  InterfaceTable interfaces;
  Cell& a = cells.create("a");
  a.add_box(Layer::kMetal1, Box(0, 0, 4, 10));
  Cell& sunk = cells.create("sunk");
  sunk.add_box(Layer::kMetal1, Box(0, -5, 4, 5));
  interfaces.declare("a", "a", 1, Interface{{40, 0}, Orientation::kNorth});
  interfaces.declare("sunk", "sunk", 1, Interface{{0, 40}, Orientation::kNorth});
  // An x-only pitch cannot be y-compacted...
  EXPECT_THROW(compact_leaf_cells_y(cells, interfaces, {"a"}, {{"a", "a", 1, 1.0}},
                                    CompactionRules::mosis()),
               Error);
  // ...and boxes below local y = 0 violate the transposed gauge contract.
  EXPECT_THROW(compact_leaf_cells_y(cells, interfaces, {"sunk"}, {{"sunk", "sunk", 1, 1.0}},
                                    CompactionRules::mosis()),
               Error);
}

TEST(LeafXySchedule, ScheduleCompactsBothAxesToDrcCleanGrid) {
  // The leaf-aware x/y round end to end on the 2-D synthetic library:
  // every horizontal pitch and every vertical pitch must come back no
  // larger (most strictly smaller), the schedule must converge inside the
  // cap, and the compacted library must tile design-rule-clean as a grid —
  // the §6.3 promise, now on both axes.
  const SynthLeafLibrary lib = make_leaf_library_2d(5, 6, /*seed=*/3);
  LeafXyOptions options;
  const LeafXyResult result = compact_leaf_schedule(lib.cells, lib.interfaces, lib.cell_names,
                                                    lib.pitch_specs, CompactionRules::mosis(),
                                                    options);
  ASSERT_TRUE(result.converged);
  ASSERT_GE(result.rounds, 1);
  ASSERT_EQ(result.round_stats.size(), static_cast<std::size_t>(result.rounds));
  EXPECT_TRUE(result.round_stats.front().x_ran);
  EXPECT_TRUE(result.round_stats.front().y_ran);

  bool some_x_shrank = false;
  bool some_y_shrank = false;
  for (const PitchSpec& spec : lib.pitch_specs) {
    const Interface before = lib.interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    const Interface after =
        result.interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    if (before.vector.x > 0) {
      EXPECT_LE(after.vector.x, before.vector.x);
      some_x_shrank |= after.vector.x < before.vector.x;
    }
    if (before.vector.y > 0) {
      EXPECT_LE(after.vector.y, before.vector.y);
      some_y_shrank |= after.vector.y < before.vector.y;
    }
  }
  EXPECT_TRUE(some_x_shrank);
  EXPECT_TRUE(some_y_shrank);

  // Tile cell 0 as a 3x3 grid at its compacted self-pitches and DRC it.
  const std::string& name = lib.cell_names.front();
  const Interface hp = result.interfaces.get(name, name, 1);
  const Interface vp = result.interfaces.get(name, name, 2);
  const std::vector<LayerBox> cell_boxes = flatten_boxes(result.cells.get(name));
  std::vector<LayerBox> assembled;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (const LayerBox& lb : cell_boxes) {
        assembled.push_back(
            {lb.layer, lb.box.translated({i * hp.vector.x + j * vp.vector.x,
                                          i * hp.vector.y + j * vp.vector.y})});
      }
    }
  }
  EXPECT_TRUE(check_design_rules(assembled, DesignRules::mosis_lambda()).empty());
}

TEST(LeafXySchedule, ScheduleStaysOnTheDualEngine) {
  // Every pass runs solve_lp's dual engine; on the leaf LPs it must never
  // touch phase 1 or fall back, and every pivot it reports must be a dual
  // pivot.
  const SynthLeafLibrary lib = make_leaf_library_2d(4, 6, /*seed=*/9);
  const LeafXyResult result = compact_leaf_schedule(lib.cells, lib.interfaces, lib.cell_names,
                                                    lib.pitch_specs, CompactionRules::mosis());
  EXPECT_GT(result.lp_total.iterations, 0);
  EXPECT_EQ(result.lp_total.phase1_pivots, 0);
  EXPECT_EQ(result.lp_total.dual_fallbacks, 0);
  EXPECT_EQ(result.lp_total.dual_pivots, result.lp_total.iterations);
}

TEST(XySchedule, ConvergesOnGridField) {
  const SynthField field = make_grid_field(8, 8);
  XyScheduleOptions schedule;
  schedule.max_rounds = 8;
  const XyScheduleResult result = compact_flat_schedule(
      field.boxes, CompactionRules::mosis(), {}, schedule, field.stretchable);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.rounds, schedule.max_rounds);
  EXPECT_LT(result.width_after, result.width_before);
  EXPECT_LT(result.height_after, result.height_before);
}

TEST(XySchedule, ConvergedFixpointIsStable) {
  // Once a round leaves the geometry unchanged, every further round is a
  // no-op: running past convergence must reproduce the converged geometry
  // exactly.
  const SynthField field = make_random_field(99, 40);
  XyScheduleOptions to_convergence;
  to_convergence.max_rounds = 16;
  const XyScheduleResult converged = compact_flat_schedule(
      field.boxes, CompactionRules::mosis(), {}, to_convergence, field.stretchable);
  ASSERT_TRUE(converged.converged);

  XyScheduleOptions overrun;
  overrun.max_rounds = converged.rounds + 3;
  overrun.stop_when_converged = false;
  const XyScheduleResult extra = compact_flat_schedule(
      field.boxes, CompactionRules::mosis(), {}, overrun, field.stretchable);
  EXPECT_EQ(converged.boxes, extra.boxes);
  EXPECT_EQ(converged.width_after, extra.width_after);
  EXPECT_EQ(converged.height_after, extra.height_after);
}

TEST(XySchedule, SecondRoundCanBeatSingleXyPass) {
  // The workload alternation exists for: the y pass can drop a box out of
  // a band, freeing a second x pass to reclaim width a single xy pass
  // leaves behind. Here A and B share a band (x pass holds B right of A),
  // a narrow blocker C pins A's height — so the y pass drops only B, and
  // the second x pass slides B over the gap beside C.
  const std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(0, 10, 10, 14)},   // A
      {Layer::kMetal1, Box(16, 10, 26, 14)},  // B
      {Layer::kMetal1, Box(0, 0, 4, 4)},      // C (blocker under A)
  };
  XyScheduleOptions single;
  single.max_rounds = 1;
  const XyScheduleResult one =
      compact_flat_schedule(boxes, CompactionRules::mosis(), {}, single);
  XyScheduleOptions schedule;
  schedule.max_rounds = 8;
  const XyScheduleResult many =
      compact_flat_schedule(boxes, CompactionRules::mosis(), {}, schedule);
  EXPECT_TRUE(many.converged);
  EXPECT_EQ(one.width_after, 26);
  EXPECT_EQ(many.width_after, 20);
  EXPECT_LE(many.height_after, one.height_after);
}

TEST(XySchedule, GeneratorRunsRequestedCompaction) {
  // The §6.4 compactor wired into the Figure 1.1 driver: a RAM-style row
  // design asks for post-generation compaction programmatically.
  constexpr const char* kSample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 40 0 N
  label 1 from a to b
end
)";
  constexpr const char* kDesign = R"(
(macro mrow (n)
  (locals foo)
  (do (i 1 (+ i 1) (> i n))
      (mk_instance b.i brick)
      (cond ((> i 1) (connect b.(- i 1) b.i 1)))))
(assign r (mrow n))
(mk_cell "row" (subcell r b.1))
)";
  Generator plain;
  const GeneratorResult loose = plain.run(kSample, kDesign, "n = 6");
  EXPECT_FALSE(loose.compacted);

  Generator compacting;
  CompactionRequest request;
  request.enabled = true;
  compacting.set_compaction(request);
  const GeneratorResult tight = compacting.run(kSample, kDesign, "n = 6");
  ASSERT_TRUE(tight.compacted);
  EXPECT_EQ(tight.top->name(), "row_compacted");
  // The sample leaves 20 units of slack per interface; the schedule closes
  // each gap to the metal1 spacing.
  EXPECT_EQ(tight.compaction.width_before, 5 * 40 + 20);
  EXPECT_EQ(tight.compaction.width_after, 6 * 20 + 5 * 6);
  EXPECT_TRUE(check_design_rules(flatten_boxes(*tight.top), DesignRules::mosis_lambda()).empty());
  EXPECT_NE(tight.output.find("row_compacted"), std::string::npos);
}

TEST(XySchedule, CompactDirectiveEnablesCompaction) {
  // `.compact:xy` in the parameter file requests the same through data.
  constexpr const char* kSample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 40 0 N
  label 1 from a to b
end
)";
  constexpr const char* kDesign = R"(
(mk_instance x brick)
(mk_instance y brick)
(connect x y 1)
(mk_cell "pair" x)
)";
  Generator generator;
  const GeneratorResult result = generator.run(kSample, kDesign, ".compact:xy\n");
  ASSERT_TRUE(result.compacted);
  EXPECT_LT(result.compaction.width_after, result.compaction.width_before);

  Generator misspelled;
  EXPECT_THROW(misspelled.run(kSample, kDesign, ".compact:x\n"), Error);
}

TEST(XySchedule, GeneratedPlaCompactsBestEffort) {
  // The PLA generator output (E10) through the same hook. Its sample cells
  // sit closer than the MOSIS table allows in x (rigid overlaps make that
  // axis's constraint system infeasible), so the best-effort schedule must
  // skip x, still compact y, and record the skip.
  pla::TruthTable table = pla::TruthTable::parse(
      "10 10\n"
      "01 11\n"
      "-1 01\n");
  Generator generator;
  CompactionRequest request;
  request.enabled = true;
  generator.set_compaction(request);
  const GeneratorResult result = pla::generate_pla(generator, table);
  ASSERT_TRUE(result.compacted);
  EXPECT_TRUE(result.compaction.converged);
  EXPECT_TRUE(result.compaction.x_infeasible);
  EXPECT_LT(result.compaction.height_after, result.compaction.height_before);
  EXPECT_LE(result.compaction.width_after, result.compaction.width_before);
  EXPECT_FALSE(flatten_boxes(*result.top).empty());
}

}  // namespace
}  // namespace rsg::compact
