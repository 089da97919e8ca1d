// rsg_cli — the RSG as a command-line tool, mirroring how the original ran
// on the DEC-2060: three input files in, one layout file out. A second mode
// skips generation entirely and re-emits a previously saved RSGB binary
// snapshot (docs/formats/RSGB.md) in any of the text formats.
//
// The sample may be the text format (.sample) or CIF (detected by content).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "io/cif_reader.hpp"
#include "io/cif_writer.hpp"
#include "io/def_writer.hpp"
#include "io/param_file.hpp"
#include "io/snapshot.hpp"
#include "io/svg_writer.hpp"
#include "lang/parser.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/generator.hpp"
#include "rsg/session.hpp"

namespace {

const char kUsage[] =
    "usage: rsg_cli <sample> <design> <params> [options]\n"
    "       rsg_cli --snapshot-in <file.rsgb> [options]\n"
    "\n"
    "inputs (generation mode):\n"
    "  <sample>            sample layout: text format or CIF, detected by content\n"
    "  <design>            design file (procedural description)\n"
    "  <params>            parameter file; notable directives:\n"
    "                        .top_cell:<name>      pick the output cell\n"
    "                        .compact:xy           post-generation x/y compaction: the\n"
    "                                              scan-line constraints and a longest-\n"
    "                                              path solve per axis, alternating x/y\n"
    "                                              rounds to a fixpoint or the round cap\n"
    "                        .snapshot_file:<f>    also write an RSGB snapshot (run_files)\n"
    "\n"
    "inputs (snapshot mode):\n"
    "  --snapshot-in <f>   skip generation; load an RSGB binary snapshot instead\n"
    "\n"
    "outputs:\n"
    "  -o <file.cif>       write CIF to a file (default: CIF on stdout); streamed\n"
    "                      through a bounded buffer, not materialized\n"
    "  --svg <file.svg>    write an SVG rendering of the top cell\n"
    "  --def <file.def>    write the flat, sorted DEF box dump\n"
    "  --snapshot-out <f>  write an RSGB binary snapshot of the whole cell table\n"
    "                      rooted at the top cell (spec: docs/formats/RSGB.md)\n"
    "\n"
    "options:\n"
    "  --top <name>        override the top cell choice\n"
    "  --params-sweep <f>  run the design once per line of <f>: each non-comment\n"
    "                      line is appended to <params> as an overriding assignment\n"
    "                      (later assignments win). The design is compiled ONCE and\n"
    "                      each run is a fresh generation session over the shared\n"
    "                      compiled base. With -o out.cif, run k writes out.k.cif;\n"
    "                      without -o, a per-run summary is printed instead of CIF\n"
    "  --stats             print pipeline statistics to stderr\n"
    "  --compact-stats     print per-round compaction telemetry to stderr: extent\n"
    "                      deltas, constraint reuse, solver pops, x/y warm starts\n"
    "  --checkpoint-out <f>  rewrite an RSGC checkpoint of the compaction schedule\n"
    "                      after every completed round (resume with --checkpoint-in)\n"
    "  --checkpoint-in <f>   resume the compaction schedule from an RSGC checkpoint;\n"
    "                      the result is bit-for-bit the uninterrupted run's\n"
    "                      (neither checkpoint flag combines with --params-sweep)\n"
    "  -h, --help          show this help\n";

void print_compact_stats(const rsg::GeneratorResult& result) {
  using rsg::compact::RoundStats;
  if (!result.compacted) {
    std::cerr << "compaction:     not run (enable with the .compact:xy directive)\n";
    return;
  }
  const rsg::compact::XyScheduleResult& c = result.compaction;
  std::fprintf(stderr,
               "compaction:     %d/%d round%s, %s; width %lld -> %lld, height %lld -> %lld\n",
               c.convergence.iterations, c.convergence.cap, c.rounds == 1 ? "" : "s",
               c.converged ? "converged" : "capped (geometry still moving)",
               static_cast<long long>(c.width_before), static_cast<long long>(c.width_after),
               static_cast<long long>(c.height_before), static_cast<long long>(c.height_after));
  if (c.x_infeasible || c.y_infeasible) {
    std::fprintf(stderr, "                best-effort skips:%s%s\n",
                 c.x_infeasible ? " x" : "", c.y_infeasible ? " y" : "");
  }
  std::fprintf(stderr, "  %-6s %-6s %-6s %-12s %-8s %-9s %-6s %-8s %-8s\n", "round", "dW", "dH",
               "constraints", "reused", "pops", "warm", "skipped", "ms");
  for (const RoundStats& r : c.round_stats) {
    const std::size_t discovered = r.partners_reswept + r.partners_reused;
    char reused[16];
    std::snprintf(reused, sizeof reused, "%.0f%%",
                  discovered > 0
                      ? 100.0 * static_cast<double>(r.partners_reused) /
                            static_cast<double>(discovered)
                      : 0.0);
    char warm[8];
    std::snprintf(warm, sizeof warm, "%c/%c", r.warm_x ? 'x' : '-', r.warm_y ? 'y' : '-');
    char skipped[8];
    std::snprintf(skipped, sizeof skipped, "%s%s", r.x_skipped ? "x" : "",
                  r.y_skipped ? "y" : "");
    std::fprintf(stderr, "  %-6d %-6lld %-6lld %-12zu %-8s %-9zu %-6s %-8s %-8.2f\n", r.round,
                 static_cast<long long>(r.width_delta), static_cast<long long>(r.height_delta),
                 r.constraints_emitted, reused, r.solve_pops, warm,
                 skipped[0] != '\0' ? skipped : "-", r.wall_ms);
  }
}

int usage() {
  std::cerr << kUsage;
  return 2;
}

bool looks_like_cif(const std::string& text) {
  // CIF files start with comments '(' or a DS command.
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return c == '(' || c == 'D';
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string snapshot_in;
  std::string snapshot_out;
  std::string out_cif;
  std::string out_svg;
  std::string out_def;
  std::string top;
  std::string params_sweep;
  std::string checkpoint_in;
  std::string checkpoint_out;
  bool stats = false;
  bool compact_stats = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rsg_cli: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::cout << kUsage;
      return 0;
    } else if (std::strcmp(argv[i], "-o") == 0) {
      out_cif = value("-o");
    } else if (std::strcmp(argv[i], "--svg") == 0) {
      out_svg = value("--svg");
    } else if (std::strcmp(argv[i], "--def") == 0) {
      out_def = value("--def");
    } else if (std::strcmp(argv[i], "--snapshot-in") == 0) {
      snapshot_in = value("--snapshot-in");
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0) {
      snapshot_out = value("--snapshot-out");
    } else if (std::strcmp(argv[i], "--top") == 0) {
      top = value("--top");
    } else if (std::strcmp(argv[i], "--params-sweep") == 0) {
      params_sweep = value("--params-sweep");
    } else if (std::strcmp(argv[i], "--checkpoint-in") == 0) {
      checkpoint_in = value("--checkpoint-in");
    } else if (std::strcmp(argv[i], "--checkpoint-out") == 0) {
      checkpoint_out = value("--checkpoint-out");
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--compact-stats") == 0) {
      compact_stats = true;
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      return usage();
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  const bool snapshot_mode = !snapshot_in.empty();
  if (snapshot_mode ? !inputs.empty() : inputs.size() != 3) return usage();
  if (!params_sweep.empty() && snapshot_mode) {
    std::cerr << "rsg_cli: --params-sweep needs generation mode, not --snapshot-in\n";
    return 2;
  }
  if (!params_sweep.empty() && (!checkpoint_in.empty() || !checkpoint_out.empty())) {
    // Every sweep run compacts its own layout; one checkpoint file cannot
    // hold (or resume) all of them.
    std::cerr << "rsg_cli: --params-sweep does not combine with --checkpoint-in or "
                 "--checkpoint-out\n";
    return 2;
  }

  if (!params_sweep.empty()) {
    // Sweep mode: compile the design once, then one generation session per
    // sweep line over the shared compiled base.
    try {
      const std::string base_params = rsg::read_text_file(inputs[2]);
      const auto compiled = rsg::CompiledDesign::compile(rsg::read_text_file(inputs[0]),
                                                         rsg::read_text_file(inputs[1]));
      std::ifstream sweep(params_sweep);
      if (!sweep) throw rsg::Error("cannot read sweep file '" + params_sweep + "'");
      std::string line;
      int run = 0;
      while (std::getline(sweep, line)) {
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == ';' || line[first] == '#') continue;
        ++run;
        rsg::GenerationSession session(compiled);
        const rsg::GeneratorResult result =
            session.generate(base_params + "\n" + line + "\n", top);
        if (!out_cif.empty()) {
          // out.cif -> out.<run>.cif
          std::string path = out_cif;
          const std::size_t dot = path.rfind('.');
          path.insert(dot == std::string::npos ? path.size() : dot,
                      "." + std::to_string(run));
          rsg::write_cif_file(path, *result.top);
          std::cout << "wrote " << path << "\n";
        } else {
          std::cout << "run " << run << ": " << line.substr(first) << " -> "
                    << result.top->name() << ", " << result.top->flattened_box_count()
                    << " boxes, bbox " << result.top->bounding_box() << "\n";
        }
        if (compact_stats) print_compact_stats(result);
      }
      if (run == 0) throw rsg::Error("sweep file '" + params_sweep + "' has no runs");
      if (stats) std::cerr << "sweep:          " << run << " runs, compiled once\n";
    } catch (const std::exception& e) {
      std::cerr << "rsg_cli: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  try {
    rsg::Generator generator;
    rsg::GeneratorResult result;
    {
      // Compaction options ride along even while enabled stays false —
      // the `.compact:xy` directive flips the switch inside the pipeline.
      rsg::CompactionRequest compaction;
      compaction.checkpoint_in = checkpoint_in;
      compaction.checkpoint_out = checkpoint_out;
      generator.set_compaction(compaction);
    }

    if (snapshot_mode) {
      const rsg::SnapshotReadResult loaded = generator.import_snapshot(snapshot_in);
      std::string top_name = top.empty() ? loaded.root : top;
      if (top_name.empty()) {
        if (generator.cells().names_in_order().empty()) {
          throw rsg::Error("snapshot contains no cells");
        }
        top_name = generator.cells().names_in_order().back();
      }
      result.top = &generator.cells().get(top_name);
      if (stats) {
        std::cerr << "snapshot:       " << loaded.cells << " cells, " << loaded.boxes
                  << " boxes, " << loaded.instances << " instances\n";
      }
    } else if (const std::string sample_text = rsg::read_text_file(inputs[0]);
               looks_like_cif(sample_text)) {
      // Route the sample through the CIF front end, then run the rest of
      // the pipeline manually (Generator::run assumes the text format).
      const std::string design_text = rsg::read_text_file(inputs[1]);
      const std::string param_text = rsg::read_text_file(inputs[2]);
      rsg::load_sample_layout_cif(sample_text, generator.cells(), generator.interfaces());
      const rsg::ParameterFile params = rsg::ParameterFile::parse(param_text);
      rsg::lang::Interpreter interp(generator.cells(), generator.interfaces(),
                                    generator.graph());
      params.apply(interp);
      interp.run(rsg::lang::parse_program(design_text));
      std::string top_name = top;
      if (top_name.empty()) {
        if (const std::string* directive = params.directive("top_cell")) top_name = *directive;
      }
      if (top_name.empty()) top_name = generator.cells().names_in_order().back();
      result.top = &generator.cells().get(top_name);
    } else {
      const std::string design_text = rsg::read_text_file(inputs[1]);
      const std::string param_text = rsg::read_text_file(inputs[2]);
      result = generator.run(sample_text, design_text, param_text, top);
    }

    // Outputs. File outputs stream through the bounded writers; only the
    // stdout path materializes the CIF text.
    if (!out_cif.empty()) {
      rsg::write_cif_file(out_cif, *result.top);
      std::cout << "wrote " << out_cif << "\n";
    } else if (out_svg.empty() && out_def.empty() && snapshot_out.empty()) {
      rsg::write_cif(std::cout, *result.top);
    }
    if (!out_svg.empty()) {
      rsg::write_svg_file(out_svg, *result.top);
      std::cout << "wrote " << out_svg << "\n";
    }
    if (!out_def.empty()) {
      rsg::write_def_file(out_def, *result.top);
      std::cout << "wrote " << out_def << "\n";
    }
    if (!snapshot_out.empty()) {
      const rsg::SnapshotWriteStats written =
          generator.export_snapshot(snapshot_out, result.top->name());
      std::cout << "wrote " << snapshot_out << " (" << written.file_bytes << " bytes)\n";
    }
    if (compact_stats) print_compact_stats(result);
    if (stats) {
      std::cerr << "top cell:       " << result.top->name() << "\n";
      std::cerr << "flat instances: " << result.top->flattened_instance_count() << "\n";
      std::cerr << "flat boxes:     " << result.top->flattened_box_count() << "\n";
      std::cerr << "bounding box:   " << result.top->bounding_box() << "\n";
      if (!snapshot_mode) {
        std::cerr << "phases (s):     " << result.times.read_sample.count() << " / "
                  << result.times.execute_design.count() << " / "
                  << result.times.write_output.count() << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "rsg_cli: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
