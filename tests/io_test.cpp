// Tests for the I/O layer: sample-layout parsing with by-example interface
// extraction (including the overlap-region label form of Fig 5.5), the
// CIF / DEF / SVG writers, and the streaming contracts — the legacy
// whole-layout entry points must be byte-identical to a manually driven
// stream writer, and the pull-parse → stream-write path must hold its
// bounded-buffer guarantee on a 100k-box field.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>

#include "io/cif_reader.hpp"
#include "io/cif_writer.hpp"
#include "io/def_writer.hpp"
#include "io/sample_layout.hpp"
#include "io/svg_writer.hpp"
#include "layout/flatten.hpp"
#include "oracles/synth_design.hpp"
#include "pla/pla_builder.hpp"
#include "rsg/generator.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

constexpr const char* kSample = R"(
; two cells assembled to define interfaces by example
cell basic
  box metal1 0 0 40 8
  box poly 2 2 6 30
  point si 0 4
end

cell mask
  box implant 0 0 8 8
end

assembly
  inst a basic 0 0 N
  inst b basic 44 0 N
  inst m mask 10 2 N
  label 1 at 42 4      ; overlap of a's bbox [0..40+..] and b's? see test
  label 2 from a to m
end
)";

TEST(SampleLayout, ParsesCellsAndGeometry) {
  CellTable cells;
  InterfaceTable interfaces;
  // The positional label at (42,4) must lie inside exactly two instance
  // bboxes: a spans x in [0,40]... so widen b to overlap. Use explicit text
  // here instead:
  const char* text = R"(
cell basic
  box metal1 0 0 40 8
end
cell mask
  box implant 0 0 8 8
end
assembly
  inst a basic 0 0 N
  inst b basic 38 0 N
  inst m mask 10 2 N
  label 1 at 39 4
  label 2 from a to m
end
)";
  const SampleLayoutStats stats = load_sample_layout(text, cells, interfaces);
  EXPECT_EQ(stats.cells, 2u);
  EXPECT_EQ(stats.boxes, 2u);
  EXPECT_EQ(stats.assembly_instances, 3u);
  EXPECT_EQ(stats.interfaces_declared, 2u);

  // label 1: overlap of a and b; a declared first, so a is the reference.
  EXPECT_EQ(interfaces.get("basic", "basic", 1), (Interface{{38, 0}, Orientation::kNorth}));
  // label 2: explicit, from a to m.
  EXPECT_EQ(interfaces.get("basic", "mask", 2), (Interface{{10, 2}, Orientation::kNorth}));
}

TEST(SampleLayout, HierarchicalSampleCells) {
  CellTable cells;
  InterfaceTable interfaces;
  const char* text = R"(
cell leaf
  box metal1 0 0 4 4
end
cell composite
  box poly 0 0 20 4
  inst l1 leaf 0 0 N
  inst l2 leaf 16 0 MN
end
)";
  load_sample_layout(text, cells, interfaces);
  const Cell& composite = cells.get("composite");
  ASSERT_EQ(composite.instances().size(), 2u);
  EXPECT_EQ(composite.instances()[1].placement.orientation, Orientation::kMirrorNorth);
  EXPECT_EQ(composite.flattened_box_count(), 3u);
}

TEST(SampleLayout, OrientationInInterfaceExtraction) {
  CellTable cells;
  InterfaceTable interfaces;
  const char* text = R"(
cell a
  box metal1 0 0 10 4
end
assembly
  inst left a 0 0 S
  inst right a 20 6 E
  label 3 from left to right
end
)";
  load_sample_layout(text, cells, interfaces);
  const Interface i = interfaces.get("a", "a", 3);
  // O = S^-1 ∘ E = S ∘ E = W;  V = S(20,6) = (-20,-6).
  EXPECT_EQ(i.orientation, Orientation::kWest);
  EXPECT_EQ(i.vector, (Vec{-20, -6}));
}

TEST(SampleLayout, ErrorPaths) {
  CellTable cells;
  InterfaceTable interfaces;
  EXPECT_THROW(load_sample_layout("garbage here", cells, interfaces), Error);

  CellTable cells2;
  InterfaceTable interfaces2;
  EXPECT_THROW(load_sample_layout("cell a\n  box metal1 0 0\nend", cells2, interfaces2), Error);

  CellTable cells3;
  InterfaceTable interfaces3;
  // Positional label inside only one instance.
  const char* bad_label = R"(
cell a
  box metal1 0 0 10 4
end
assembly
  inst x a 0 0 N
  label 1 at 5 2
end
)";
  EXPECT_THROW(load_sample_layout(bad_label, cells3, interfaces3), Error);

  CellTable cells4;
  InterfaceTable interfaces4;
  // Unknown instance in explicit label.
  const char* bad_ref = R"(
cell a
  box metal1 0 0 10 4
end
assembly
  inst x a 0 0 N
  inst y a 20 0 N
  label 1 from x to z
end
)";
  EXPECT_THROW(load_sample_layout(bad_ref, cells4, interfaces4), Error);

  CellTable cells5;
  InterfaceTable interfaces5;
  EXPECT_THROW(load_sample_layout("cell a\n  box metal1 0 0 4 4", cells5, interfaces5), Error);
}

TEST(SampleLayout, FullSampleParses) {
  CellTable cells;
  InterfaceTable interfaces;
  // The header sample: label 1 at (42,4) overlaps a [0..40] and b [44..]?
  // It does not — expect a clean diagnostic rather than silence.
  EXPECT_THROW(load_sample_layout(kSample, cells, interfaces), Error);
}

class WriterTest : public ::testing::Test {
 protected:
  WriterTest() {
    Cell& leaf = cells_.create("leaf");
    leaf.add_box(Layer::kMetal1, Box(0, 0, 5, 3));  // odd center: needs x2 scale
    leaf.add_label("pin", {1, 1});
    Cell& top = cells_.create("top");
    top.add_box(Layer::kPoly, Box(0, 0, 2, 2));
    top.add_instance(&leaf, Placement{{10, 0}, Orientation::kWest});
    top.add_instance(&leaf, Placement{{20, 0}, Orientation::kMirrorNorth});
  }
  CellTable cells_;
};

TEST_F(WriterTest, CifContainsHierarchyAndTransforms) {
  const std::string cif = cif_to_string(cells_.get("top"));
  EXPECT_NE(cif.find("DS 1 1 2;"), std::string::npos);
  EXPECT_NE(cif.find("9 leaf;"), std::string::npos);
  EXPECT_NE(cif.find("9 top;"), std::string::npos);
  // Box: doubled coords — width 10, height 6, center (5,3).
  EXPECT_NE(cif.find("B 10 6 5 3;"), std::string::npos);
  // West call: R 0 1; mirrored call: MX.
  EXPECT_NE(cif.find("R 0 1"), std::string::npos);
  EXPECT_NE(cif.find("MX"), std::string::npos);
  // Leaf defined once, called twice.
  EXPECT_EQ(cif.find("9 leaf;"), cif.rfind("9 leaf;"));
  // Ends with a top-level call and E.
  EXPECT_NE(cif.find("C 2 T 0 0;\nE\n"), std::string::npos);
}

TEST_F(WriterTest, DefIsFlatSortedAndDeterministic) {
  const std::string def = def_to_string(cells_.get("top"));
  EXPECT_NE(def.find("DEF top 3"), std::string::npos);
  EXPECT_EQ(def, def_to_string(cells_.get("top")));
  // Flattened leaf under West at (10,0): box (0,0,5,3) -> (-3,0)..(0,5)
  // shifted: (7,0)..(10,5).
  EXPECT_NE(def.find("RECT metal1 7 0 10 5"), std::string::npos);
}

TEST_F(WriterTest, SvgMentionsEveryLayerDrawn) {
  std::ostringstream out;
  write_svg(out, cells_.get("top"));
  const std::string svg = out.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("rect"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // 3 boxes + 2 labels-as-text.
  EXPECT_NE(svg.find("<text"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming contracts.
// ---------------------------------------------------------------------------

// Pull-parses CIF text and forwards every event straight into a
// CifStreamWriter — the pure streaming path with no materialized layout.
// Returns the re-emitted text; `parser_peak`/`writer_peak` report the
// buffer high-water marks for bounded-buffer assertions.
std::string stream_reemit_cif(const std::string& cif, std::size_t* parser_peak = nullptr,
                              std::size_t* writer_peak = nullptr) {
  std::istringstream in(cif);
  std::ostringstream out;
  CifPullParser parser(in);
  CifStreamWriter writer(out);
  CifPullParser::Event event;
  int root = 0;
  writer.begin();
  while (parser.next(event)) {
    switch (event.kind) {
      case CifPullParser::EventKind::kBeginSymbol:
        break;  // the writer opens the cell on its 9-record
      case CifPullParser::EventKind::kSymbolName:
        root = writer.begin_cell(event.name);
        break;
      case CifPullParser::EventKind::kBox:
        writer.emit_box(event.layer, event.box);
        break;
      case CifPullParser::EventKind::kLabel:
        writer.emit_label(event.name, event.at);
        break;
      case CifPullParser::EventKind::kCall:
        // The writer's end() re-emits the single top-level root call.
        if (event.top_level) {
          root = event.callee;
        } else {
          writer.emit_call(event.callee, event.placement);
        }
        break;
      case CifPullParser::EventKind::kEndSymbol:
        writer.end_cell();
        break;
      case CifPullParser::EventKind::kEnd:
        writer.end(root);
        break;
    }
  }
  if (parser_peak != nullptr) *parser_peak = parser.peak_buffer_bytes();
  if (writer_peak != nullptr) *writer_peak = writer.peak_buffer_bytes();
  return out.str();
}

// Drives the DEF/SVG stream writers by hand with the same flatten/sort
// steps their legacy entry points perform and checks byte identity.
void expect_stream_writers_match_legacy(const Cell& top) {
  {
    std::ostringstream legacy;
    write_def(legacy, top);
    std::vector<LayerBox> boxes = flatten_boxes(top);
    std::sort(boxes.begin(), boxes.end(), [](const LayerBox& a, const LayerBox& b) {
      return std::tuple(static_cast<int>(a.layer), a.box.lo.x, a.box.lo.y, a.box.hi.x,
                        a.box.hi.y) < std::tuple(static_cast<int>(b.layer), b.box.lo.x,
                                                 b.box.lo.y, b.box.hi.x, b.box.hi.y);
    });
    std::ostringstream streamed;
    DefStreamWriter writer(streamed);
    writer.begin(top.name(), boxes.size());
    for (const LayerBox& lb : boxes) writer.emit_box(lb);
    writer.end();
    EXPECT_EQ(streamed.str(), legacy.str()) << top.name();
  }
  {
    std::ostringstream legacy;
    write_svg(legacy, top);
    FlattenResult flat = flatten(top);
    std::stable_sort(flat.boxes.begin(), flat.boxes.end(),
                     [](const LayerBox& a, const LayerBox& b) {
                       return svg_layer_rank(a.layer) < svg_layer_rank(b.layer);
                     });
    std::ostringstream streamed;
    SvgStreamWriter writer(streamed);
    writer.begin(top.name(), top.bounding_box());
    for (const LayerBox& lb : flat.boxes) writer.emit_box(lb);
    for (const FlatLabel& fl : flat.labels) writer.emit_label(fl.label.text, fl.at);
    writer.end();
    EXPECT_EQ(streamed.str(), legacy.str()) << top.name();
  }
}

// The five seed designs: every layout the repo can generate end-to-end.
// For each, the streamed CIF re-emission and the hand-driven DEF/SVG
// stream writers must be byte-identical to the legacy entry points.
TEST(StreamingIdentity, FiveSeedDesigns) {
  std::vector<std::pair<std::string, const Cell*>> designs;

  Generator mult;
  designs.emplace_back("mult", mult.run_files(designs_path("mult.sample"),
                                              designs_path("mult.rsg"),
                                              designs_path("mult.par"))
                                   .top);
  Generator ram;
  designs.emplace_back("ram", ram.run_files(designs_path("ram.sample"), designs_path("ram.rsg"),
                                            designs_path("ram.par"))
                                  .top);
  Generator pla_gen;
  designs.emplace_back("pla", pla::generate_pla(pla_gen, pla::TruthTable::parse(
                                                             "10-1 101\n"
                                                             "01-0 110\n"
                                                             "--11 011\n"
                                                             "0--- 100\n"))
                                  .top);
  Generator folded_gen;
  designs.emplace_back("folded",
                       pla::generate_folded_pla(folded_gen, pla::TruthTable::parse(
                                                                "10-- 1010\n"
                                                                "01-- 0010\n"
                                                                "--10 1000\n"
                                                                "--01 0101\n"
                                                                "11-- 0001\n"
                                                                "0011 0100\n"))
                           .top);
  Generator decoder_gen;
  designs.emplace_back("decoder", pla::generate_decoder(decoder_gen, 3).top);

  for (const auto& [name, top] : designs) {
    ASSERT_NE(top, nullptr) << name;
    const std::string legacy_cif = cif_to_string(*top);
    EXPECT_EQ(stream_reemit_cif(legacy_cif), legacy_cif) << name;
    expect_stream_writers_match_legacy(*top);
  }
}

// The memory bound, at the scale the bench acceptance runs: pull-parse a
// 100k-box field and re-emit it; the parser may hold one read chunk plus
// one command, the writer at most its fixed capacity.
TEST(StreamingIdentity, BoundedBuffersOn100kField) {
  const compact::SynthField field = compact::make_grid_field_of_size(100000);
  std::ostringstream generated;
  CifStreamWriter writer(generated);
  writer.begin();
  const int id = writer.begin_cell("field");
  for (const LayerBox& lb : field.boxes) writer.emit_box(lb.layer, lb.box);
  writer.end_cell();
  writer.end(id);
  EXPECT_LE(writer.peak_buffer_bytes(), writer.buffer_capacity());

  const std::string cif = generated.str();
  EXPECT_GT(cif.size(), 1000000u);  // a genuinely multi-MB layout
  std::size_t parser_peak = 0, writer_peak = 0;
  const std::string reemitted = stream_reemit_cif(cif, &parser_peak, &writer_peak);
  EXPECT_EQ(reemitted, cif);
  EXPECT_LE(parser_peak, CifPullParser::Options{}.chunk_bytes + 4096);
  EXPECT_LE(writer_peak, BoundedTextSink::kDefaultCapacity);
}

// Pathological inputs must stay bounded too: a record larger than the
// sink's capacity passes straight through instead of growing the buffer.
TEST(StreamingIdentity, OversizedRecordBypassesBuffer) {
  std::ostringstream out;
  BoundedTextSink sink(out, 16);
  sink.append("0123456789");
  const std::string big(64, 'x');
  sink.append(big);
  sink.append("tail");
  sink.flush();
  EXPECT_EQ(out.str(), "0123456789" + big + "tail");
  EXPECT_LE(sink.peak_bytes(), 16u);
  EXPECT_EQ(sink.bytes_written(), 78u);
}

}  // namespace
}  // namespace rsg
