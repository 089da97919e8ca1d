// I/O at scale: the single-pass streaming pipeline on 100k–1M-box synthetic
// fields, with the bounded-buffer contract asserted inside the benchmark.
//
// Two measurements:
//  * BM_IoStreamRoundTrip — CIF pull-parse straight into the CIF stream
//    writer, box events forwarded one at a time with NO materialized
//    geometry. This is the memory-bounded path: the benchmark fails
//    (SkipWithError) if the parser's working set exceeds one read chunk
//    plus one command, or the writer's buffer exceeds its fixed capacity.
//    Runs at 100k and at the 1M acceptance size; output is byte-identical
//    to the input by construction and the sizes are cross-checked.
//  * BM_IoReadCompactWrite — the full read → compact → write pipeline at
//    100k boxes: parse the field, run one flat x-compaction pass, stream
//    the result as CIF and DEF. Compaction needs the materialized box
//    array, so this is the measured end-to-end cost of the realistic
//    pipeline (the 1M compaction trajectory itself is bench_compact_scaling
//    territory — here compaction rides along to show I/O is off the
//    critical path).
//
// Both report peak_rss_mb (getrusage high-water mark — monotone across the
// process, so read it as "the pipeline fits in X", not a per-size delta).
// CI runs the 100k points via scripts/bench_smoke.sh and uploads the JSON
// as BENCH_io_scaling.json (schema: docs/BENCHMARKS.md); run the binary
// unfiltered for the 1M point.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compact/design_rule_table.hpp"
#include "compact/flat_compactor.hpp"
#include "io/cif_reader.hpp"
#include "io/cif_writer.hpp"
#include "io/def_writer.hpp"
#include "oracles/synth_design.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace rsg;

double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

// Streams a synthetic field to a CIF file once per size; iterations re-read
// it from disk like any externally produced layout.
const std::string& field_cif_path(int boxes) {
  static std::string paths[2];
  const std::size_t slot = boxes >= 1000000 ? 1 : 0;
  if (paths[slot].empty()) {
    std::string path = std::string(::getenv("TMPDIR") ? ::getenv("TMPDIR") : "/tmp") +
                       "/rsg_bench_io_" + std::to_string(boxes) + ".cif";
    const compact::SynthField field = compact::make_grid_field_of_size(boxes);
    std::ofstream out(path);
    CifStreamWriter writer(out);
    writer.begin();
    const int id = writer.begin_cell("field");
    for (const LayerBox& lb : field.boxes) writer.emit_box(lb.layer, lb.box);
    writer.end_cell();
    writer.end(id);
    paths[slot] = std::move(path);
  }
  return paths[slot];
}

void BM_IoStreamRoundTrip(benchmark::State& state) {
  const std::string& in_path = field_cif_path(static_cast<int>(state.range(0)));
  const std::string out_path = in_path + ".out";
  std::size_t boxes = 0;
  std::size_t bytes_in = 0, bytes_out = 0;
  std::size_t parse_peak = 0, write_peak = 0, write_capacity = 0;
  for (auto _ : state) {
    std::ifstream in(in_path);
    std::ofstream out(out_path);
    CifPullParser parser(in);
    CifStreamWriter writer(out);
    boxes = 0;
    CifPullParser::Event event;
    int open = 0;
    writer.begin();
    while (parser.next(event)) {
      switch (event.kind) {
        case CifPullParser::EventKind::kBeginSymbol:
          break;  // cells open on their 9-record below
        case CifPullParser::EventKind::kSymbolName:
          open = writer.begin_cell(event.name);
          break;
        case CifPullParser::EventKind::kBox:
          writer.emit_box(event.layer, event.box);
          ++boxes;
          break;
        case CifPullParser::EventKind::kLabel:
          writer.emit_label(event.name, event.at);
          break;
        case CifPullParser::EventKind::kCall:
          // The file's top-level root call is re-emitted by end() below.
          if (event.top_level) {
            open = event.callee;
          } else {
            writer.emit_call(event.callee, event.placement);
          }
          break;
        case CifPullParser::EventKind::kEndSymbol:
          writer.end_cell();
          break;
        case CifPullParser::EventKind::kEnd:
          writer.end(open);
          break;
      }
    }
    bytes_in = parser.bytes_consumed();
    bytes_out = writer.bytes_written();
    parse_peak = parser.peak_buffer_bytes();
    write_peak = writer.peak_buffer_bytes();
    write_capacity = writer.buffer_capacity();

    // The bounded-buffer contract, enforced where the measurement happens.
    const std::size_t parse_bound = CifPullParser::Options{}.chunk_bytes + 4096;
    if (parse_peak > parse_bound) {
      state.SkipWithError("parser working set exceeded one chunk + one command");
      return;
    }
    if (write_peak > write_capacity) {
      state.SkipWithError("writer buffered more than its fixed capacity");
      return;
    }
    if (bytes_in != bytes_out) {
      state.SkipWithError("streamed round trip is not byte-identical");
      return;
    }
    benchmark::DoNotOptimize(boxes);
  }
  state.counters["boxes"] = static_cast<double>(boxes);
  state.counters["bytes_in"] = static_cast<double>(bytes_in);
  state.counters["parse_peak_buffer"] = static_cast<double>(parse_peak);
  state.counters["write_peak_buffer"] = static_cast<double>(write_peak);
  state.counters["write_capacity"] = static_cast<double>(write_capacity);
  state.counters["peak_rss_mb"] = peak_rss_mb();
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes_in) *
                          static_cast<std::int64_t>(state.iterations()));
  std::remove(out_path.c_str());
}

void BM_IoReadCompactWrite(benchmark::State& state) {
  const std::string& in_path = field_cif_path(static_cast<int>(state.range(0)));
  const std::string cif_out = in_path + ".compacted.cif";
  const std::string def_out = in_path + ".compacted.def";
  std::size_t boxes = 0;
  Coord width_before = 0, width_after = 0;
  for (auto _ : state) {
    // Read: materialize the flat box array (the compactor's input) but
    // nothing else — cells, labels and calls stream through untouched.
    std::ifstream in(in_path);
    CifPullParser parser(in);
    std::vector<LayerBox> flat;
    CifPullParser::Event event;
    while (parser.next(event)) {
      if (event.kind == CifPullParser::EventKind::kBox) flat.push_back({event.layer, event.box});
    }
    boxes = flat.size();

    // Compact: one flat x pass under the MOSIS rules.
    compact::FlatResult result = compact::compact_flat(flat, compact::CompactionRules::mosis());
    width_before = result.width_before;
    width_after = result.width_after;

    // Write: stream the compacted geometry as CIF and as a sorted DEF dump.
    {
      std::ofstream out(cif_out);
      CifStreamWriter writer(out);
      writer.begin();
      const int id = writer.begin_cell("compacted");
      for (const LayerBox& lb : result.boxes) writer.emit_box(lb.layer, lb.box);
      writer.end_cell();
      writer.end(id);
    }
    {
      std::ofstream out(def_out);
      std::vector<LayerBox> sorted = result.boxes;
      std::sort(sorted.begin(), sorted.end(), [](const LayerBox& a, const LayerBox& b) {
        return std::tuple(static_cast<int>(a.layer), a.box.lo.x, a.box.lo.y, a.box.hi.x,
                          a.box.hi.y) < std::tuple(static_cast<int>(b.layer), b.box.lo.x,
                                                   b.box.lo.y, b.box.hi.x, b.box.hi.y);
      });
      DefStreamWriter writer(out);
      writer.begin("compacted", sorted.size());
      for (const LayerBox& lb : sorted) writer.emit_box(lb);
      writer.end();
    }
    benchmark::DoNotOptimize(width_after);
  }
  state.counters["boxes"] = static_cast<double>(boxes);
  state.counters["width_before"] = static_cast<double>(width_before);
  state.counters["width_after"] = static_cast<double>(width_after);
  state.counters["peak_rss_mb"] = peak_rss_mb();
  std::remove(cif_out.c_str());
  std::remove(def_out.c_str());
}

BENCHMARK(BM_IoStreamRoundTrip)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IoReadCompactWrite)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Like the other bench mains: no ReportUnrecognizedArguments, so older
  // benchmark libraries that cannot parse duration-suffixed
  // --benchmark_min_time values fall back to the default instead of dying.
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
