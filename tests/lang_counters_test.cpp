// Pins the interpreter's work counters on three seed designs.
//
// `procedure_calls`, `variable_lookups`, `frames_created`, `cells_made` and
// the interface-table access count describe WHAT the interpreter does (one
// lookup per §4.1 resolution hop, one interface access per placed node, as
// §4.5 counts them), not how fast it does it. A change to how names are
// stored or interned must leave every one of them exactly as recorded here.
#include <gtest/gtest.h>

#include <string>

#include "io/param_file.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"

namespace rsg {
namespace {

struct Counters {
  std::size_t procedure_calls;
  std::size_t variable_lookups;
  std::size_t frames_created;
  std::size_t cells_made;
  std::size_t interface_lookups;
};

Counters run_counted(const std::string& sample, const std::string& design,
                     const std::string& params, const std::string& top,
                     const lang::Interpreter::EncodingTable* encoding = nullptr) {
  const auto compiled = CompiledDesign::compile(read_text_file(designs_path(sample)),
                                                read_text_file(designs_path(design)));
  GenerationSession session(compiled);
  if (encoding != nullptr) session.set_encoding_table(encoding);
  const GeneratorResult result = session.generate(params, top);
  const lang::Interpreter::Stats& s = result.interp_stats;
  return {s.procedure_calls, s.variable_lookups, s.frames_created, s.cells_made,
          result.interface_lookups};
}

void expect_counters(const Counters& got, const Counters& want) {
  EXPECT_EQ(got.procedure_calls, want.procedure_calls);
  EXPECT_EQ(got.variable_lookups, want.variable_lookups);
  EXPECT_EQ(got.frames_created, want.frames_created);
  EXPECT_EQ(got.cells_made, want.cells_made);
  EXPECT_EQ(got.interface_lookups, want.interface_lookups);
}

// Seeded random personality masked to be fold-compatible: even (0-based)
// outputs keep the upper half of the terms, odd outputs the lower half.
pla::TruthTable foldable_table(int size, std::uint64_t seed) {
  const pla::TruthTable random = pla::TruthTable::random(size, size, size, seed);
  pla::TruthTable table(size, size);
  const int split = size / 2;
  for (int t = 0; t < size; ++t) {
    pla::Term term = random.terms()[static_cast<std::size_t>(t)];
    bool any = false;
    for (int o = 0; o < size; ++o) {
      const bool upper = o % 2 == 0;
      const auto bit = static_cast<std::size_t>(o);
      if ((upper && t >= split) || (!upper && t < split)) term.outputs[bit] = false;
      any = any || term.outputs[bit];
    }
    if (!any) term.outputs[t < split ? 0 : 1] = true;
    table.add_term(std::move(term));
  }
  return table;
}

TEST(InterpreterCounters, Multiplier8) {
  const std::string params = read_text_file(designs_path("mult.par")) + "\nasize = 8\n";
  expect_counters(run_counted("mult.sample", "mult.rsg", params, ""), {67, 2867, 84, 5, 643});
}

TEST(InterpreterCounters, Ram8x8) {
  const std::string params = read_text_file(designs_path("ram.par")) + "\nwords = 8\nbits = 8\n";
  expect_counters(run_counted("ram.sample", "ram.rsg", params, ""), {0, 1567, 0, 1, 272});
}

TEST(InterpreterCounters, FoldedPla8) {
  const pla::TruthTable table = foldable_table(8, 1985 + 8);
  ASSERT_TRUE(pla::is_foldable(table));
  const lang::Interpreter::EncodingTable encoding = pla::to_encoding_table(table);
  expect_counters(run_counted("pla.sample", "pla_folded.rsg",
                              read_text_file(designs_path("pla.par")), "foldedpla", &encoding),
                  {0, 2965, 0, 1, 460});
}

}  // namespace
}  // namespace rsg
