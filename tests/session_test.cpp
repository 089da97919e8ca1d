// Compile-once/run-many: CompiledDesign + GenerationSession.
//
// The load-bearing contracts: (1) GeneratorResult owns what it points at —
// results stay valid after the Generator/session dies; (2) a session run is
// BYTE-identical to a legacy Generator run of the same design; (3) N
// concurrent sessions over one shared CompiledDesign neither race (TSan CI
// job) nor perturb each other's output; (4) the base tables are immutable —
// session mutations land in the overlay.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/param_file.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/generator.hpp"
#include "rsg/session.hpp"
#include "support/arena.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

struct SeedDesign {
  std::string name;
  std::string sample;
  std::string design;
  std::string params;
  std::string top;          // explicit top for designs that need one
  std::string truth_table;  // non-empty = PLA-style, needs an encoding table
};

// The five seed designs of designs/README.md plus an inline synthetic
// design, all driven exactly as their tests drive them.
std::vector<SeedDesign> seed_designs() {
  const std::string pla_sample = read_text_file(designs_path("pla.sample"));
  const std::string pla_params = read_text_file(designs_path("pla.par"));
  const std::string tt =
      "10- 10\n"
      "01- 01\n"
      "-11 11\n";
  std::vector<SeedDesign> designs;
  designs.push_back({"mult", read_text_file(designs_path("mult.sample")),
                     read_text_file(designs_path("mult.rsg")),
                     read_text_file(designs_path("mult.par")), "", ""});
  designs.push_back({"pla", pla_sample, read_text_file(designs_path("pla.rsg")), pla_params,
                     "pla", tt});
  designs.push_back({"pla_folded", pla_sample, read_text_file(designs_path("pla_folded.rsg")),
                     pla_params, "foldedpla",
                     "10 10\n"
                     "01 01\n"});
  designs.push_back({"decoder", pla_sample, read_text_file(designs_path("decoder.rsg")),
                     pla_params + "decbits = 2\n", "decoder", tt});
  designs.push_back({"ram", read_text_file(designs_path("ram.sample")),
                     read_text_file(designs_path("ram.rsg")),
                     read_text_file(designs_path("ram.par")), "", ""});
  // Synthetic 6th design: a small regular tiling defined entirely inline,
  // in the same idiom as mult.rsg's marray.
  designs.push_back({"synth",
                     "cell tile\n"
                     "  box poly 0 0 4 12\n"
                     "  box diff 0 4 12 8\n"
                     "end\n"
                     "\n"
                     "assembly\n"
                     "  inst t1 tile 0 0 N\n"
                     "  inst t2 tile 10 0 N\n"
                     "  inst t3 tile 0 14 N\n"
                     "  label 1 from t1 to t2\n"
                     "  label 2 from t1 to t3\n"
                     "end\n",
                     "(macro mfield (rows cols)\n"
                     "  (do (i 1 (+ i 1) (> i rows))\n"
                     "      (do (j 1 (+ j 1) (> j cols))\n"
                     "          (mk_instance t.i.j tile)\n"
                     "          (cond ((> j 1) (connect t.i.(- j 1) t.i.j 1)))\n"
                     "          (cond ((> i 1) (connect t.(- i 1).j t.i.j 2))))))\n"
                     "(assign f (mfield rows cols))\n"
                     "(mk_cell \"synth_field\" (subcell f t.1.1))\n",
                     "rows = 3\ncols = 4\n", "", ""});
  return designs;
}

std::string run_legacy(const SeedDesign& design) {
  Generator generator;
  lang::Interpreter::EncodingTable encoding;
  if (!design.truth_table.empty()) {
    encoding = pla::to_encoding_table(pla::TruthTable::parse(design.truth_table));
    generator.set_encoding_table(&encoding);
  }
  return generator.run(design.sample, design.design, design.params, design.top).output;
}

std::string run_session(const std::shared_ptr<const CompiledDesign>& compiled,
                        const SeedDesign& design) {
  GenerationSession session(compiled);
  lang::Interpreter::EncodingTable encoding;
  if (!design.truth_table.empty()) {
    encoding = pla::to_encoding_table(pla::TruthTable::parse(design.truth_table));
    session.set_encoding_table(&encoding);
  }
  return session.generate(design.params, design.top).output;
}

TEST(GeneratorResult, OutlivesItsGenerator) {
  GeneratorResult result;
  {
    Generator generator;
    result = generator.run(read_text_file(designs_path("mult.sample")),
                           read_text_file(designs_path("mult.rsg")),
                           read_text_file(designs_path("mult.par")));
  }  // generator destroyed; result.keepalive retains the cell table
  ASSERT_NE(result.top, nullptr);
  EXPECT_FALSE(result.top->name().empty());
  EXPECT_FALSE(result.top->instances().empty());
  EXPECT_FALSE(result.output.empty());
}

TEST(GeneratorResult, OutlivesItsSessionAndDesign) {
  GeneratorResult result;
  {
    auto compiled = CompiledDesign::compile(read_text_file(designs_path("mult.sample")),
                                            read_text_file(designs_path("mult.rsg")));
    GenerationSession session(compiled);
    compiled.reset();  // the session keeps the design alive...
    result = session.generate(read_text_file(designs_path("mult.par")));
  }  // ...and the result keeps the session state alive
  ASSERT_NE(result.top, nullptr);
  EXPECT_FALSE(result.top->instances().empty());
  EXPECT_FALSE(result.output.empty());
}

TEST(GenerationSession, ByteIdenticalToLegacyGenerator) {
  for (const SeedDesign& design : seed_designs()) {
    SCOPED_TRACE(design.name);
    const std::string legacy = run_legacy(design);
    auto compiled = CompiledDesign::compile(design.sample, design.design);
    const std::string served = run_session(compiled, design);
    EXPECT_EQ(legacy, served);
  }
}

TEST(GenerationSession, ConcurrentMixedSessionsAreByteIdentical) {
  const std::vector<SeedDesign> designs = seed_designs();

  // Compile each design once; record single-threaded reference output.
  std::vector<std::shared_ptr<const CompiledDesign>> compiled;
  std::vector<std::string> reference;
  for (const SeedDesign& design : designs) {
    compiled.push_back(CompiledDesign::compile(design.sample, design.design));
    reference.push_back(run_session(compiled.back(), design));
    EXPECT_EQ(reference.back(), run_legacy(design)) << design.name;
  }

  // N threads, each running a rotating mix of designs off the SHARED
  // compiled bases. Any cross-session interference shows up as an output
  // diff; any base write shows up under TSan.
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 3;
  std::vector<std::vector<std::string>> outputs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        const std::size_t i = static_cast<std::size_t>(t + r) % designs.size();
        outputs[static_cast<std::size_t>(t)].push_back(run_session(compiled[i], designs[i]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRunsPerThread; ++r) {
      const std::size_t i = static_cast<std::size_t>(t + r) % designs.size();
      EXPECT_EQ(outputs[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)], reference[i])
          << designs[i].name << " diverged on thread " << t << " run " << r;
    }
  }
}

TEST(GenerationSession, ConcurrentRunTimeNamesStayInTheirSession) {
  // Every parameter file below names things the design has never seen: a
  // symbol chain through fresh names (one of them indexed), a fresh cell
  // alias, and a fresh mk_cell string that a later symbol resolves to. Those
  // names are interned per session, so 8 threads over one compiled design
  // must reproduce their single-threaded bytes and leave the design's own
  // symbol table as compiled.
  const std::string sample =
      "cell tile\n"
      "  box poly 0 0 4 12\n"
      "  box diff 0 4 12 8\n"
      "end\n"
      "\n"
      "assembly\n"
      "  inst t1 tile 0 0 N\n"
      "  inst t2 tile 10 0 N\n"
      "  inst t3 tile 0 14 N\n"
      "  label 1 from t1 to t2\n"
      "  label 2 from t1 to t3\n"
      "end\n";
  const std::string design =
      "(macro mfield (rows cols)\n"
      "  (do (i 1 (+ i 1) (> i rows))\n"
      "      (do (j 1 (+ j 1) (> j cols))\n"
      "          (mk_instance t.i.j corecell)\n"
      "          (cond ((> j 1) (connect t.i.(- j 1) t.i.j 1)))\n"
      "          (cond ((> i 1) (connect t.(- i 1).j t.i.j 2))))))\n"
      "(assign f (mfield rows cols))\n"
      "(mk_cell fieldname (subcell f t.1.1))\n"
      "(mk_instance w made)\n"
      "(mk_cell \"wrapper\" w)\n";
  constexpr int kThreads = 8;
  std::vector<std::string> param_files;
  for (int t = 0; t < kThreads; ++t) {
    const std::string id = std::to_string(t);
    param_files.push_back("rows = rows_" + id + "\nrows_" + id + " = " +
                          std::to_string(1 + t % 3) + "\ncols = width_" + id + "." + id +
                          "\nwidth_" + id + "." + id + " = " + std::to_string(2 + t % 4) +
                          "\ncorecell = via_" + id + "\nvia_" + id + " = tile\n" +
                          "fieldname = \"field_" + id + "\"\nmade = field_" + id + "\n");
  }

  auto compiled = CompiledDesign::compile(sample, design);
  const std::size_t design_symbols = compiled->program().symbols()->size();
  const auto generate = [&compiled](const std::string& params) {
    GenerationSession session(compiled);
    return session.generate(params).output;
  };
  std::vector<std::string> reference;
  for (const std::string& params : param_files) reference.push_back(generate(params));
  EXPECT_NE(reference[0].find("field_0"), std::string::npos);
  EXPECT_EQ(compiled->program().symbols()->size(), design_symbols);

  constexpr int kRunsPerThread = 3;
  std::vector<std::vector<std::string>> outputs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        const std::size_t file = static_cast<std::size_t>(t + r) % param_files.size();
        outputs[static_cast<std::size_t>(t)].push_back(generate(param_files[file]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRunsPerThread; ++r) {
      const std::size_t file = static_cast<std::size_t>(t + r) % param_files.size();
      EXPECT_EQ(outputs[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)],
                reference[file])
          << "parameter file " << file << " diverged on thread " << t << " run " << r;
    }
  }
  EXPECT_EQ(compiled->program().symbols()->size(), design_symbols);
}

TEST(GenerationSession, OverlayLeavesBaseUntouched) {
  auto compiled = CompiledDesign::compile(read_text_file(designs_path("mult.sample")),
                                          read_text_file(designs_path("mult.rsg")));
  const std::size_t base_cells = compiled->cells().size();
  const std::size_t base_interfaces = compiled->interfaces().size();

  GenerationSession first(compiled);
  first.generate(read_text_file(designs_path("mult.par")));
  EXPECT_EQ(compiled->cells().size(), base_cells);
  EXPECT_EQ(compiled->interfaces().size(), base_interfaces);
  EXPECT_GT(first.cells().size(), base_cells);  // overlay sees base + new cells

  // A sibling session must not see the first session's cells.
  GenerationSession second(compiled);
  EXPECT_EQ(second.cells().size(), base_cells);
  const GeneratorResult result = second.generate(read_text_file(designs_path("mult.par")));
  EXPECT_NE(result.top, nullptr);
}

TEST(GenerationSession, BaseCellsAreImmutableThroughOverlay) {
  auto compiled = CompiledDesign::compile(
      "cell seed\n  box metal1 0 0 4 4\nend\n"
      "assembly\n"
      "  inst s1 seed 0 0 N\n"
      "  inst s2 seed 6 0 N\n"
      "  label 1 from s1 to s2\n"
      "end\n",
      "(mk_instance s seed)\n");
  GenerationSession session(compiled);
  // Const lookup falls through to the base...
  EXPECT_NE(std::as_const(session.cells()).find("seed"), nullptr);
  // ...but a mutable handle on a base cell is refused.
  EXPECT_THROW(session.cells().get("seed"), LayoutError);
  // And overlay creation cannot shadow a base name.
  EXPECT_THROW(session.cells().create("seed"), LayoutError);
}

TEST(GenerationSession, SnapshotBackedCompile) {
  const std::string sample = read_text_file(designs_path("mult.sample"));
  const std::string design = read_text_file(designs_path("mult.rsg"));
  const std::string params = read_text_file(designs_path("mult.par"));

  // Generate once, snapshot the library.
  const std::string path = testing::TempDir() + "session_test_lib.rsgb";
  {
    Generator generator;
    GeneratorResult result = generator.run(sample, design, params);
    generator.export_snapshot(path, result.top->name());
  }

  // A design compiled over the snapshot sees the snapshot cells as base
  // library without any sample/design re-run.
  CompileOptions options;
  options.snapshot_path = path;
  auto compiled = CompiledDesign::compile(
      "cell compile_probe\n  box metal1 0 0 2 2\nend\n", "nil\n", options);
  ASSERT_NE(compiled->snapshot_stats(), nullptr);
  EXPECT_GT(compiled->snapshot_stats()->cells, 0u);
  EXPECT_GT(compiled->cells().size(), 0u);
  std::remove(path.c_str());
}

TEST(Arena, AllocatesAlignedAndRunsFinalizersInReverse) {
  std::vector<int> order;
  struct Tracked {
    std::vector<int>* order;
    int id;
    Tracked(std::vector<int>* o, int i) : order(o), id(i) {}
    ~Tracked() { order->push_back(id); }
  };
  {
    Arena arena;
    void* p = arena.allocate(3, 1);
    void* q = arena.allocate(8, 8);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 8, 0u);
    arena.create<Tracked>(&order, 1);
    arena.create<Tracked>(&order, 2);
    arena.create<Tracked>(&order, 3);
    EXPECT_GT(arena.bytes_allocated(), 0u);
  }
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));  // newest-first
}

TEST(Arena, ResetReclaimsAndReusesChunks) {
  Arena arena;
  for (int i = 0; i < 1000; ++i) arena.create<std::string>("spacious enough to defeat SSO....");
  const std::size_t chunks = arena.chunk_count();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  for (int i = 0; i < 1000; ++i) arena.create<std::string>("spacious enough to defeat SSO....");
  EXPECT_LE(arena.chunk_count(), chunks);  // reused, not regrown
}

}  // namespace
}  // namespace rsg
