// rsg_e2e_bench — fixed-work end-to-end benchmark of the generate, compact
// and serve paths, with a separate traced mode for per-layer attribution.
//
//   rsg_e2e_bench --workload generate_large|compact_xy|serve_mix --seed N
//                 --seconds S --trace 0|1 --socket PATH [--trace-out FILE]
//
// Every run does fixed work: the request count is a fixed function of
// --seconds (calibrated so a run takes about S seconds on a 4-core host),
// never "as many as fit". The seed orders the requests; the set of inputs
// is the same for every seed, so deterministic quantities (bytes per box,
// area ratio, interpreter and compactor counts) repeat exactly and are
// checked by run.py across runs.
//
// --trace 0 prints the end-to-end metrics, measured with no spans at all.
// --trace 1 replays each workload's inputs by calling every layer's public
// entry point in pipeline order with a span around each call (spans live in
// memory and go to --trace-out as Chrome trace-event JSON at exit), checks
// the replayed CIF is byte-identical to the untraced pipeline's, and prints
// the per-layer metrics.
//
// The last stdout line is one JSON object; run.py checks it against the
// pinned checksums (pins.json) and turns it into the result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compact/scanline.hpp"
#include "io/cif_writer.hpp"
#include "io/param_file.hpp"
#include "lang/interp.hpp"
#include "layout/flatten.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/pipeline.hpp"
#include "rsg/serve_core.hpp"
#include "rsg/serve_socket.hpp"
#include "rsg/session.hpp"
#include "support/error.hpp"
#include "support/status.hpp"

namespace {

using namespace rsg;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Small helpers: checksum, seeded order, order statistics, JSON text.
// ---------------------------------------------------------------------------

std::string fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// splitmix64: a fixed, library-independent sequence, so one seed gives the
// same request order with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Highest percentile from a fixed ladder that leaves at least ten samples
// beyond it (nearest-rank), so the tail figure is never one or two outliers.
// The ladder stops at p99: serve_mix measures ~13k requests, where p99.9
// rests on 13 samples that are mostly host scheduling stalls, and its
// run-to-run quartile spread was ~50% against ~20% for p99 (NOTES.md).
struct Tail {
  double percentile = 0.0;
  std::size_t beyond = 0;
  double value = 0.0;
};

Tail tail_of(std::vector<double> v) {
  static constexpr double kLadder[] = {99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0};
  std::sort(v.begin(), v.end());
  Tail tail;
  const std::size_t n = v.size();
  for (double p : kLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      tail = {p, n - rank, v[rank - 1]};
      return tail;
    }
  }
  if (n > 0) tail = {100.0, 0, v.back()};
  return tail;
}

// Nearest-rank percentiles for the run's detail record.
std::string percentile_table(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::string out = "{";
  const std::size_t n = v.size();
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank < 1 || rank > n) continue;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s\"p%g\": %.6g", out.size() > 1 ? ", " : "", p, v[rank - 1]);
    out += buf;
  }
  return out + "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Ordered JSON object builder (values are pre-rendered JSON text).
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  std::string text() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------------
// Inputs. Each is one request personality over a compiled design.
// ---------------------------------------------------------------------------

struct DesignFiles {
  const char* name;
  const char* sample;
  const char* design;
};

// rsg_serve's seed registry; the sequential workloads compile the subset
// they use.
constexpr DesignFiles kDesigns[] = {
    {"mult", "mult.sample", "mult.rsg"},
    {"pla", "pla.sample", "pla.rsg"},
    {"pla_folded", "pla.sample", "pla_folded.rsg"},
    {"decoder", "pla.sample", "decoder.rsg"},
    {"ram", "ram.sample", "ram.rsg"},
};

const DesignFiles& design_files(const std::string& name) {
  for (const DesignFiles& d : kDesigns) {
    if (name == d.name) return d;
  }
  throw std::runtime_error("unknown design " + name);
}

// A seeded random personality made fold-compatible: even (0-based) outputs
// keep only the upper half of the terms, odd outputs only the lower half,
// which is exactly the pairing generate_folded_pla requires.
pla::TruthTable foldable_table(int inputs, int outputs, int terms, std::uint64_t seed) {
  const pla::TruthTable random = pla::TruthTable::random(inputs, outputs, terms, seed);
  pla::TruthTable table(inputs, outputs);
  const int split = terms / 2;
  for (int t = 0; t < terms; ++t) {
    pla::Term term = random.terms()[static_cast<std::size_t>(t)];
    bool any = false;
    for (int o = 0; o < outputs; ++o) {
      const bool upper = o % 2 == 0;
      const auto bit = static_cast<std::size_t>(o);
      if ((upper && t >= split) || (!upper && t < split)) term.outputs[bit] = false;
      any = any || term.outputs[bit];
    }
    if (!any) term.outputs[t < split ? 0 : 1] = true;
    table.add_term(std::move(term));
  }
  if (!pla::is_foldable(table)) throw std::runtime_error("truth table is not fold-compatible");
  return table;
}

std::string table_text(const pla::TruthTable& table) {
  std::string text;
  for (const pla::Term& term : table.terms()) {
    for (pla::InBit bit : term.inputs) {
      text += bit == pla::InBit::kZero ? '0' : bit == pla::InBit::kOne ? '1' : '-';
    }
    text += ' ';
    for (bool bit : term.outputs) text += bit ? '1' : '0';
    text += '\n';
  }
  return text;
}

// The fixed truth-table seed shared by every PLA input: the inputs, and so
// the pinned checksums, do not depend on --seed.
constexpr std::uint64_t kTableSeed = 1985;

struct Input {
  std::string key;
  std::string design;  // kDesigns name
  std::string params;  // parameter-file text (includes .compact:xy when compacting)
  std::string top;     // explicit top cell, or empty
  std::string table;   // truth-table text, or empty
  bool compact = false;
};

Input mult_input(int asize, bool compact) {
  Input in;
  in.key = "mult" + std::to_string(asize) + (compact ? "c" : "");
  in.design = "mult";
  in.params = read_text_file(designs_path("mult.par")) + "\nasize = " + std::to_string(asize) + "\n";
  in.compact = compact;
  return in;
}

Input ram_input(int words, int bits, bool compact) {
  Input in;
  in.key = "ram" + std::to_string(words) + "x" + std::to_string(bits) + (compact ? "c" : "");
  in.design = "ram";
  in.params = read_text_file(designs_path("ram.par")) + "\nwords = " + std::to_string(words) +
              "\nbits = " + std::to_string(bits) + "\n";
  in.compact = compact;
  return in;
}

Input pla_input(int size, bool compact) {
  Input in;
  in.key = "pla" + std::to_string(size) + (compact ? "c" : "");
  in.design = "pla_folded";
  in.params = read_text_file(designs_path("pla.par"));
  in.top = "foldedpla";
  in.table = table_text(foldable_table(size, size, size, kTableSeed + static_cast<std::uint64_t>(size)));
  in.compact = compact;
  return in;
}

// The sequential pipeline asks for compaction through the parameter file,
// exactly as rsg_cli users do.
std::string pipeline_params(const Input& in) {
  return in.compact ? in.params + ".compact:xy\n" : in.params;
}

lang::Interpreter::EncodingTable parse_encoding(const std::string& text) {
  return pla::to_encoding_table(pla::TruthTable::parse(text));
}

using DesignMap = std::map<std::string, std::shared_ptr<const CompiledDesign>>;

struct DesignText {
  std::string sample;
  std::string design;
};

std::map<std::string, DesignText> read_designs(const std::vector<std::string>& names) {
  std::map<std::string, DesignText> texts;
  for (const std::string& name : names) {
    const DesignFiles& f = design_files(name);
    texts[name] = {read_text_file(designs_path(f.sample)), read_text_file(designs_path(f.design))};
  }
  return texts;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace events at exit.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;
  int request = -1;
  int thread = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  int begin(const std::string& name, int parent, int request, int thread = 0) {
    Span span;
    span.name = name;
    span.start_us = now_us();
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.request = request;
    span.thread = thread;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  double end(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_us = now_us();
    return (span.end_us - span.start_us) / 1000.0;
  }
  // Records an already-measured interval (client threads time themselves
  // and hand their spans over after the run).
  void add(Span span) {
    span.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }
  Clock::time_point epoch() const { return epoch_; }
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
          << ", \"ts\": " << json_number(s.start_us)
          << ", \"dur\": " << json_number(s.end_us - s.start_us) << ", \"args\": {\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Verification: one untimed run per input, with independent checks.
// ---------------------------------------------------------------------------

struct Verified {
  std::string fnv;
  std::size_t bytes = 0;
  std::size_t boxes = 0;       // flat boxes of the returned layout
  double area_before = 0.0;    // bounding-box area of the generated layout
  double area_after = 0.0;     // ... of the returned (maybe compacted) layout
  std::size_t procedure_calls = 0;
  int rounds = 0;
  std::size_t constraints = 0;
};

double bbox_area(const std::vector<LayerBox>& boxes) {
  if (boxes.empty()) return 0.0;
  Box bound = boxes.front().box;
  for (const LayerBox& lb : boxes) bound = bound.bounding_union(lb.box);
  return static_cast<double>(bound.area());
}

std::size_t sum_constraints(const compact::XyScheduleResult& r) {
  std::size_t n = 0;
  for (const compact::RoundStats& s : r.round_stats) n += s.constraints_emitted;
  return n;
}

// Runs the product pipeline once and checks what the compactor must
// preserve, without trusting its own bookkeeping: the same number of boxes,
// and every (rigid) box keeps its layer, width and height — it may only
// translate. Throws on any violation.
Verified verify_input(const Input& in, const DesignMap& designs) {
  GenerationSession session(designs.at(in.design));
  std::optional<lang::Interpreter::EncodingTable> encoding;
  if (!in.table.empty()) {
    encoding = parse_encoding(in.table);
    session.set_encoding_table(&*encoding);
  }
  GeneratorResult result = session.generate(pipeline_params(in), in.top);
  Verified v;
  v.fnv = fnv1a64(result.output);
  v.bytes = result.output.size();
  v.procedure_calls = result.interp_stats.procedure_calls;
  const std::vector<LayerBox> returned = flatten_boxes(*result.top);
  v.boxes = returned.size();
  v.area_after = bbox_area(returned);
  v.area_before = v.area_after;
  if (in.compact != result.compacted) throw std::runtime_error(in.key + ": compaction flag mismatch");
  if (result.compacted) {
    const std::string suffix = "_compacted";
    std::string generated_name = result.top->name();
    if (generated_name.size() <= suffix.size() ||
        generated_name.compare(generated_name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      throw std::runtime_error(in.key + ": compacted top has unexpected name " + generated_name);
    }
    generated_name.resize(generated_name.size() - suffix.size());
    const std::vector<LayerBox> before =
        flatten_boxes(std::as_const(session.cells()).get(generated_name));
    const std::vector<LayerBox>& after = result.compaction.boxes;
    if (before.size() != after.size() || after.size() != returned.size()) {
      throw std::runtime_error(in.key + ": compaction changed the box count");
    }
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (before[i].layer != after[i].layer || before[i].box.width() != after[i].box.width() ||
          before[i].box.height() != after[i].box.height()) {
        throw std::runtime_error(in.key + ": box " + std::to_string(i) +
                                 " changed layer or size during compaction");
      }
    }
    v.area_before = bbox_area(before);
    v.rounds = result.compaction.rounds;
    v.constraints = sum_constraints(result.compaction);
  }
  return v;
}

// ---------------------------------------------------------------------------
// The untraced timed request: session built, run and destroyed in the clock.
// ---------------------------------------------------------------------------

struct Sample {
  double ms = 0.0;
  std::string cif;
  std::size_t procedure_calls = 0;
  int rounds = 0;
  std::size_t constraints = 0;
};

Sample timed_request(const Input& in, const std::string& params,
                     const std::shared_ptr<const CompiledDesign>& design,
                     const lang::Interpreter::EncodingTable* encoding) {
  Sample s;
  const auto t0 = Clock::now();
  {
    GenerationSession session(design);
    if (encoding != nullptr) session.set_encoding_table(encoding);
    GeneratorResult result = session.generate(params, in.top);
    s.cif = std::move(result.output);
    s.procedure_calls = result.interp_stats.procedure_calls;
    if (result.compacted) {
      s.rounds = result.compaction.rounds;
      s.constraints = sum_constraints(result.compaction);
    }
  }
  s.ms = ms_between(t0, Clock::now());
  return s;
}

// ---------------------------------------------------------------------------
// The traced replay: each layer's public entry point, in pipeline order.
// ---------------------------------------------------------------------------

struct ReplayCounts {
  std::size_t procedure_calls = 0;
  std::size_t variable_lookups = 0;
  std::size_t interface_lookups = 0;
  std::size_t flat_boxes = 0;
  int rounds = 0;
  std::size_t constraints = 0;
  std::size_t solve_pops = 0;
  std::size_t partners_reused = 0;
  std::size_t partners_reswept = 0;
  std::size_t axis_passes = 0;
  std::size_t warm_accepted = 0;
  double infeasible_round_ms = 0.0;
  std::size_t cif_bytes = 0;
};

struct Replay {
  std::string cif;
  ReplayCounts counts;
  std::map<std::string, double> span_ms;  // layer span name -> duration
  double root_ms = 0.0;
};

// Mirrors rsg::detail::execute_generation step by step (interpreter, top
// choice, flatten, x/y schedule, compacted cell, CIF), so its output must be
// byte-identical to the pipeline's.
Replay traced_replay(const Input& in, const std::shared_ptr<const CompiledDesign>& design,
                     const lang::Interpreter::EncodingTable* encoding, Tracer& tracer,
                     int request) {
  Replay out;
  const int root = tracer.begin("request", -1, request);
  auto timed = [&](const char* name, auto&& body) {
    const int id = tracer.begin(name, root, request);
    body();
    out.span_ms[name] += tracer.end(id);
  };

  std::optional<GenerationSession> session;
  std::optional<ParameterFile> params;
  std::optional<lang::Interpreter> interp;
  timed("rsg.session", [&] { session.emplace(design); });
  timed("io.param_parse", [&] { params.emplace(ParameterFile::parse(pipeline_params(in))); });
  timed("lang.interp", [&] {
    interp.emplace(session->cells(), session->interfaces(), session->graph());
    if (encoding != nullptr) interp->set_encoding_table(encoding);
    params->apply(*interp);
    interp->run(design->program());
  });
  out.counts.procedure_calls = interp->stats().procedure_calls;
  out.counts.variable_lookups = interp->stats().variable_lookups;

  const Cell* top = nullptr;
  std::string top_name;
  timed("rsg.top_cell", [&] {
    top_name = in.top;
    if (top_name.empty()) {
      if (const std::string* directive = params->directive("top_cell")) top_name = *directive;
    }
    if (top_name.empty()) top_name = session->cells().names_in_order().back();
    top = &std::as_const(session->cells()).get(top_name);
  });

  if (params->directive("compact") != nullptr) {
    const CompactionRequest defaults;
    std::vector<LayerBox> flat;
    compact::XyScheduleResult compacted;
    timed("layout.flatten", [&] { flat = flatten_boxes(*top); });
    timed("compact.schedule", [&] {
      compacted = compact::compact_flat_schedule(flat, defaults.rules, defaults.flat,
                                                 CompactionRequest::default_schedule());
    });
    timed("rsg.compacted_cell", [&] {
      Cell& cell = session->cells().create(top_name + "_compacted");
      for (const LayerBox& lb : compacted.boxes) cell.add_box(lb.layer, lb.box);
      top = &cell;
    });
    ReplayCounts& c = out.counts;
    c.flat_boxes = flat.size();
    c.rounds = compacted.rounds;
    for (const compact::RoundStats& s : compacted.round_stats) {
      c.constraints += s.constraints_emitted;
      c.solve_pops += s.solve_pops;
      c.partners_reused += s.partners_reused;
      c.partners_reswept += s.partners_reswept;
      c.axis_passes += (s.x_skipped ? 0 : 1) + (s.y_skipped ? 0 : 1);
      c.warm_accepted += (s.warm_x ? 1 : 0) + (s.warm_y ? 1 : 0);
      if (s.x_skipped || s.y_skipped) c.infeasible_round_ms += s.wall_ms;
    }
  }

  timed("io.cif_render", [&] { out.cif = cif_to_string(*top); });
  out.counts.cif_bytes = out.cif.size();
  out.counts.interface_lookups = session->interfaces().lookups();
  timed("rsg.teardown", [&] {
    interp.reset();
    params.reset();
    session.reset();
  });
  out.root_ms = tracer.end(root);
  return out;
}

// ---------------------------------------------------------------------------
// Result assembly shared by the workloads.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct OutputRecord {
  std::string fnv;
  std::size_t bytes = 0;
  std::size_t boxes = 0;
  std::size_t samples = 0;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  // any entry makes the run incorrect
  std::vector<Metric> metrics;
  std::map<std::string, OutputRecord> outputs;  // by input key
  std::vector<std::pair<std::string, double>> guard;  // must repeat exactly
  JsonObject detail;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void problem(const std::string& what) { problems.push_back(what); }
  // Every observed output of `key` must be the verified one.
  void observe(const std::string& key, const Verified& v, const std::string& fnv) {
    OutputRecord& rec = outputs[key];
    rec.fnv = v.fnv;
    rec.bytes = v.bytes;
    rec.boxes = v.boxes;
    ++rec.samples;
    if (fnv != v.fnv) problem(key + ": output checksum " + fnv + " differs from " + v.fnv);
  }
};

// One input's traced replays and how often its workload runs it.
struct LayerInput {
  double weight = 1.0;
  std::map<std::string, std::vector<double>> spans;  // span name -> durations (ms)
  std::vector<double> root_ms;                       // whole replayed request
  ReplayCounts counts;                               // exact: equal on every replay
};

// Span names in pipeline order; every one is a direct child of the request.
constexpr const char* kLayerSpans[] = {"rsg.session",      "io.param_parse",     "lang.interp",
                                       "rsg.top_cell",     "layout.flatten",     "compact.schedule",
                                       "rsg.compacted_cell", "io.cif_render",    "rsg.teardown"};

// Per-layer figures per request: each input's median span or exact count,
// weighted by how often the workload runs the input. Adds the per-layer
// metrics, and the self times to the detail record (the request's self time
// is what no layer span covers).
void layer_metrics(Result& res, const std::vector<LayerInput>& inputs, double compile_ms) {
  double total = 0;
  for (const LayerInput& in : inputs) total += in.weight;
  auto time = [&](const std::string& name) {
    double sum = 0;
    for (const LayerInput& in : inputs) {
      auto it = in.spans.find(name);
      if (it != in.spans.end()) sum += in.weight * median(it->second);
    }
    return sum / total;
  };
  auto count = [&](auto field) {
    double sum = 0;
    for (const LayerInput& in : inputs) sum += in.weight * static_cast<double>(field(in.counts));
    return sum / total;
  };
  const double reused = count([](const ReplayCounts& c) { return c.partners_reused; });
  const double reswept = count([](const ReplayCounts& c) { return c.partners_reswept; });
  const double passes = count([](const ReplayCounts& c) { return c.axis_passes; });
  const double warm = count([](const ReplayCounts& c) { return c.warm_accepted; });
  res.metric("lang.interp_ms", time("lang.interp"), "ms");
  res.metric("lang.procedure_calls", count([](const ReplayCounts& c) { return c.procedure_calls; }), "count");
  res.metric("lang.variable_lookups", count([](const ReplayCounts& c) { return c.variable_lookups; }), "count");
  res.metric("iface.interface_lookups", count([](const ReplayCounts& c) { return c.interface_lookups; }), "count");
  res.metric("layout.flatten_ms", time("layout.flatten"), "ms");
  res.metric("layout.flat_boxes", count([](const ReplayCounts& c) { return c.flat_boxes; }), "count");
  res.metric("compact.schedule_ms", time("compact.schedule"), "ms");
  res.metric("compact.rounds", count([](const ReplayCounts& c) { return c.rounds; }), "count");
  res.metric("compact.constraints", count([](const ReplayCounts& c) { return c.constraints; }), "count");
  res.metric("compact.solve_pops", count([](const ReplayCounts& c) { return c.solve_pops; }), "count");
  res.metric("compact.partner_reuse_ratio", reused + reswept > 0 ? reused / (reused + reswept) : 0.0, "ratio");
  res.metric("compact.warm_accept_ratio", passes > 0 ? warm / passes : 0.0, "ratio");
  res.metric("compact.infeasible_axis_ms", count([](const ReplayCounts& c) { return c.infeasible_round_ms; }), "ms");
  res.metric("io.cif_render_ms", time("io.cif_render"), "ms");
  res.metric("io.cif_bytes", count([](const ReplayCounts& c) { return c.cif_bytes; }), "B");
  res.metric("rsg.compile_ms", compile_ms, "ms");
  res.metric("rsg.teardown_ms", time("rsg.teardown"), "ms");

  JsonObject self;
  double spans_total = 0, root_total = 0;
  for (const char* name : kLayerSpans) {
    spans_total += time(name);
    self.num(name, time(name));
  }
  for (const LayerInput& in : inputs) root_total += in.weight * median(in.root_ms);
  self.num("request(self)", root_total / total - spans_total);
  res.detail.raw("self_ms_per_request", self.text())
      .num("traced_ms_per_request", root_total / total);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

DesignMap compile_all(const std::map<std::string, DesignText>& texts) {
  DesignMap designs;
  for (const auto& [name, text] : texts) designs[name] = CompiledDesign::compile(text.sample, text.design);
  return designs;
}

// Set-up cost: one compile of every design per sample. The sequential
// workloads take a sample after every request, so the samples spread over
// the whole run: a 0.5-ms compile set flips between host speed states
// within a second, and a burst of repeats at start-up caught one state
// (per-run medians 0.33 or 0.55 ms).
class CompileSampler {
 public:
  explicit CompileSampler(const std::map<std::string, DesignText>& texts) : texts_(texts) {}
  void sample() {
    const auto t0 = Clock::now();
    for (const auto& [name, text] : texts_) {
      const auto d0 = Clock::now();
      (void)CompiledDesign::compile(text.sample, text.design);
      per_design_[name].push_back(ms_between(d0, Clock::now()));
    }
    sets_.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  double setup_s() const { return median(sets_); }
  // Sum over designs of each one's median compile.
  double compile_ms() const {
    double sum = 0;
    for (const auto& [name, samples] : per_design_) sum += median(samples);
    return sum;
  }

 private:
  const std::map<std::string, DesignText>& texts_;
  std::map<std::string, std::vector<double>> per_design_;
  std::vector<double> sets_;
};

// ---------------------------------------------------------------------------
// Sequential workloads: generate_large and compact_xy.
// ---------------------------------------------------------------------------

struct SequentialPlan {
  std::vector<Input> inputs;
  int warmup_cycles = 2;
  int measured_cycles = 0;
};

SequentialPlan sequential_plan(const std::string& workload, int seconds) {
  SequentialPlan plan;
  if (workload == "generate_large") {
    // ~115k + ~50k + ~54k boxes; a cycle takes ~0.3 s on a 4-core host.
    plan.inputs = {mult_input(128, false), ram_input(128, 128, false), pla_input(96, false)};
    plan.measured_cycles = std::max(3, static_cast<int>(std::lround(seconds * 3.2)));
  } else {
    // Capped (mult16: 8 rounds), infeasible-axis (ram24x24) and converging
    // (pla24: 7 rounds) schedule paths; a cycle takes ~0.35 s.
    plan.inputs = {mult_input(16, true), ram_input(24, 24, true), pla_input(24, true)};
    plan.measured_cycles = std::max(3, static_cast<int>(std::lround(seconds * 2.8)));
  }
  return plan;
}

std::vector<std::string> design_names_of(const std::vector<Input>& inputs) {
  std::vector<std::string> names;
  for (const Input& in : inputs) {
    if (std::find(names.begin(), names.end(), in.design) == names.end()) names.push_back(in.design);
  }
  return names;
}

Result run_sequential(const std::string& workload, std::uint64_t seed, int seconds, bool trace,
                      const std::string& trace_out) {
  const SequentialPlan plan = sequential_plan(workload, seconds);
  const std::size_t n_inputs = plan.inputs.size();
  Result res;

  // Set-up: compiling every design the workload uses, sampled after every
  // request (CompileSampler).
  const auto texts = read_designs(design_names_of(plan.inputs));
  const DesignMap designs = compile_all(texts);
  CompileSampler setup(texts);

  std::vector<std::optional<lang::Interpreter::EncodingTable>> encodings(n_inputs);
  std::vector<std::string> params(n_inputs);
  std::vector<Verified> verified(n_inputs);
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const Input& in = plan.inputs[i];
    if (!in.table.empty()) encodings[i] = parse_encoding(in.table);
    params[i] = pipeline_params(in);
    try {
      verified[i] = verify_input(in, designs);
    } catch (const std::exception& e) {
      res.problem(std::string("verification: ") + e.what());
      return res;
    }
  }
  auto encoding_of = [&](std::size_t i) { return encodings[i] ? &*encodings[i] : nullptr; };

  // The fixed, seeded request order: every cycle runs each input once.
  Rng rng(seed);
  std::vector<std::size_t> order;
  for (int c = 0; c < plan.warmup_cycles + plan.measured_cycles; ++c) {
    std::vector<std::size_t> cycle(n_inputs);
    for (std::size_t i = 0; i < n_inputs; ++i) cycle[i] = i;
    rng.shuffle(cycle);
    order.insert(order.end(), cycle.begin(), cycle.end());
  }
  const std::size_t warmup = static_cast<std::size_t>(plan.warmup_cycles) * n_inputs;

  // Guarded quantities and the deterministic metrics, from the inputs'
  // verified runs weighted by how often the plan runs them.
  double bytes = 0, boxes = 0, area_before = 0, area_after = 0;
  double calls = 0, rounds = 0, constraints = 0;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const Verified& v = verified[i];
    bytes += static_cast<double>(v.bytes);
    boxes += static_cast<double>(v.boxes);
    area_before += v.area_before;
    area_after += v.area_after;
    calls += static_cast<double>(v.procedure_calls);
    rounds += v.rounds;
    constraints += static_cast<double>(v.constraints);
  }
  const double per_request = 1.0 / static_cast<double>(n_inputs);
  res.guard = {{"area_ratio", area_after / area_before},
               {"cif_bytes_per_box", bytes / boxes},
               {"lang.procedure_calls", calls * per_request},
               {"compact.rounds", rounds * per_request},
               {"compact.constraints", constraints * per_request}};

  if (!trace) {
    std::vector<double> latencies;
    std::vector<std::vector<double>> by_input(n_inputs);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      const Input& in = plan.inputs[i];
      ++res.attempted;
      Sample s;
      try {
        s = timed_request(in, params[i], designs.at(in.design), encoding_of(i));
      } catch (const std::exception& e) {
        ++res.failed;
        res.problem(in.key + ": " + e.what());
        continue;
      }
      setup.sample();
      res.observe(in.key, verified[i], fnv1a64(s.cif));
      const Verified& v = verified[i];
      if (s.procedure_calls != v.procedure_calls || s.rounds != v.rounds ||
          s.constraints != v.constraints) {
        res.problem(in.key + ": interpreter or compactor counts differ between runs");
      }
      if (k < warmup) continue;
      latencies.push_back(s.ms);
      by_input[i].push_back(s.ms);
    }
    const Tail tail = tail_of(latencies);
    // Throughput of a cycle at each input's median latency: a mean over all
    // requests would let a few host stalls in the largest input move it.
    JsonObject per_input;
    double cycle_ms = 0;
    for (std::size_t i = 0; i < n_inputs; ++i) {
      per_input.num(plan.inputs[i].key, median(by_input[i]));
      cycle_ms += median(by_input[i]);
    }
    res.detail.raw("p50_ms_by_input", per_input.text());
    res.metric("setup_s", setup.setup_s(), "s");
    res.metric("latency_ms_p50", median(latencies), "ms");
    res.metric("latency_ms_tail", tail.value, "ms");
    res.metric("boxes_per_s", boxes / (cycle_ms / 1000.0), "1/s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("area_ratio", area_after / area_before, "ratio");
    res.metric("cif_bytes_per_box", bytes / boxes, "B/box");
    res.detail.num("samples", static_cast<double>(latencies.size()))
        .raw("latency_ms_percentiles", percentile_table(latencies))
        .num("warmup_samples", static_cast<double>(warmup))
        .num("tail_percentile", tail.percentile)
        .num("tail_beyond", static_cast<double>(tail.beyond));
    return res;
  }

  // Traced mode: per input, `reps` untraced reference runs (the same timed
  // region as above) and `reps` traced replays, interleaved.
  Tracer tracer;
  {
    const int id = tracer.begin("rsg.compile", -1, -1);
    setup.sample();
    tracer.end(id);
  }
  const int reps = std::max(3, static_cast<int>(std::lround(seconds * 1.0)));
  std::vector<std::vector<double>> untraced(n_inputs);
  std::vector<LayerInput> layers(n_inputs);
  int request = 0;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < n_inputs; ++k) {
      const std::size_t i = order[(static_cast<std::size_t>(r) * n_inputs + k) % order.size()];
      const Input& in = plan.inputs[i];
      res.attempted += 2;
      try {
        const Sample s = timed_request(in, params[i], designs.at(in.design), encoding_of(i));
        setup.sample();
        res.observe(in.key, verified[i], fnv1a64(s.cif));
        untraced[i].push_back(s.ms);
        Replay replay = traced_replay(in, designs.at(in.design), encoding_of(i), tracer, request++);
        if (replay.cif != s.cif) res.problem(in.key + ": replayed CIF differs from the pipeline's");
        res.observe(in.key, verified[i], fnv1a64(replay.cif));
        layers[i].root_ms.push_back(replay.root_ms);
        for (const auto& [name, ms] : replay.span_ms) layers[i].spans[name].push_back(ms);
        layers[i].counts = replay.counts;
      } catch (const std::exception& e) {
        ++res.failed;
        res.problem(in.key + ": " + e.what());
      }
    }
  }
  tracer.write(trace_out);

  // Every cycle runs each input once, so the inputs weigh the same.
  layer_metrics(res, layers, setup.compile_ms());
  double gap = 0, untraced_total = 0;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    gap += median(layers[i].root_ms) - median(untraced[i]);
    untraced_total += median(untraced[i]);
  }
  res.detail.num("untraced_ms_per_request", untraced_total * per_request)
      .num("trace_gap_ms_per_request", gap * per_request)
      .num("replays_per_input", reps);
  return res;
}

// ---------------------------------------------------------------------------
// serve_mix: rsg_serve as its clients see it.
// ---------------------------------------------------------------------------

constexpr int kClients = 2;
constexpr std::size_t kCacheCapacity = 64;  // rsg_serve's default
constexpr int kBlock = 10;                  // per client: 3 hot, 6 cold generate, 1 cold compact
constexpr int kHotPerBlock = 3;
constexpr int kCompactPerBlock = 1;
constexpr int kWarmupBlocks = 2;

struct Personality {
  Input input;
  Verified verified;
};

struct Planned {
  std::size_t personality = 0;
  bool hot = false;
  std::uint64_t tag = 0;  // cold requests: unique per run
};

struct ServePlan {
  std::vector<Personality> catalogue;
  std::vector<std::size_t> hot;        // catalogue indices, warmed during set-up
  std::vector<std::size_t> generates;  // cold generate personalities
  std::vector<std::size_t> compacts;   // cold compaction personalities
  std::vector<std::vector<Planned>> clients;
  std::size_t warmup = kWarmupBlocks * kBlock;  // per client
};

ServeOptions serve_options() {
  ServeOptions options;  // rsg_serve defaults: hardware workers, cache 64, queue 256
  options.encoding_parser = parse_encoding;
  return options;
}

GenerateRequest make_request(const Personality& p, const Planned& planned) {
  GenerateRequest request;
  request.design = p.input.design;
  request.params = p.input.params;
  // A distinct parameter-file text is a distinct cache key; the extra global
  // is never read, so the layout is the base personality's.
  if (!planned.hot) request.params += "bench_request = " + std::to_string(planned.tag) + "\n";
  request.top_cell = p.input.top;
  request.truth_table = p.input.table;
  request.compact = p.input.compact;
  return request;
}

ServePlan serve_plan(std::uint64_t seed, int seconds) {
  ServePlan plan;
  auto add = [&plan](Input in) {
    plan.catalogue.push_back({std::move(in), {}});
    return plan.catalogue.size() - 1;
  };
  for (int a : {4, 8, 12, 16, 24, 32}) plan.generates.push_back(add(mult_input(a, false)));
  for (auto [w, b] : {std::pair{8, 8}, {16, 16}, {32, 16}, {32, 32}, {64, 32}}) {
    plan.generates.push_back(add(ram_input(w, b, false)));
  }
  for (int s : {8, 16, 24, 32}) plan.generates.push_back(add(pla_input(s, false)));
  plan.compacts = {add(mult_input(4, true)), add(ram_input(8, 8, true)), add(pla_input(8, true))};
  // Hot set: mult8, mult24, ram16x16, pla16 and mult4 compacted — far below
  // the cache size.
  plan.hot = {plan.generates[1], plan.generates[4], plan.generates[7], plan.generates[12],
              plan.compacts[0]};

  // Fixed work: `periods` of 30 blocks per client, so each cold generate
  // personality appears equally often (6 slots x 30 blocks / 15 = 12) and
  // each compaction personality 10 times per period.
  const int periods = std::max(1, static_cast<int>(std::lround(seconds * 1.1)));
  const int blocks = periods * 30;
  Rng rng(seed);
  std::vector<std::size_t> hot_order = plan.hot;
  rng.shuffle(hot_order);
  std::uint64_t next_tag = 1;
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::size_t> gen_pool, compact_pool;
    for (int b = 0; b < blocks * (kBlock - kHotPerBlock - kCompactPerBlock) /
                            static_cast<int>(plan.generates.size());
         ++b) {
      gen_pool.insert(gen_pool.end(), plan.generates.begin(), plan.generates.end());
    }
    for (int b = 0; b < blocks * kCompactPerBlock / static_cast<int>(plan.compacts.size()); ++b) {
      compact_pool.insert(compact_pool.end(), plan.compacts.begin(), plan.compacts.end());
    }
    rng.shuffle(gen_pool);
    rng.shuffle(compact_pool);
    std::vector<Planned> seq;
    std::size_t hot_slot = 0, gen_next = 0, compact_next = 0;
    for (int b = 0; b < blocks; ++b) {
      // Slot kinds within the block: 0 = hot, 1 = cold generate, 2 = cold compact.
      std::vector<int> kinds(kBlock, 1);
      for (int h = 0; h < kHotPerBlock; ++h) kinds[static_cast<std::size_t>(h)] = 0;
      kinds[kHotPerBlock] = 2;
      rng.shuffle(kinds);
      for (int kind : kinds) {
        Planned p;
        if (kind == 0) {
          p.personality = hot_order[hot_slot++ % hot_order.size()];
          p.hot = true;
        } else if (kind == 1) {
          p.personality = gen_pool[gen_next++];
          p.tag = next_tag++;
        } else {
          p.personality = compact_pool[compact_next++];
          p.tag = next_tag++;
        }
        seq.push_back(p);
      }
    }
    plan.clients.push_back(std::move(seq));
  }

  // Every repeat must hit under ANY interleaving: if each client re-requests
  // every hot key within `gap` of its own requests, fewer than 2 * gap other
  // keys (counting each client's in-flight miss) touch the LRU between two
  // uses of a hot key.
  std::size_t worst_gap = 0;
  for (const auto& seq : plan.clients) {
    for (std::size_t h : plan.hot) {
      std::size_t last = 0;  // warmed during set-up: treat as position 0
      for (std::size_t k = 0; k < seq.size(); ++k) {
        if (seq[k].hot && seq[k].personality == h) {
          worst_gap = std::max(worst_gap, k + 1 - last);
          last = k + 1;
        }
      }
    }
  }
  if (kClients * worst_gap + plan.hot.size() >= kCacheCapacity) {
    throw std::runtime_error("serve plan: a hot key could be evicted before its repeat");
  }
  return plan;
}

struct ClientRecord {
  double start_ms = 0.0;  // from the run's epoch
  double ms = 0.0;
  bool ok = false;
  bool cache_hit = false;
  bool transport_error = false;
  StatusCode code = StatusCode::kOk;
  double generate_ms = 0.0;  // in-process pass only
  std::string fnv;
};

struct Server {
  std::unique_ptr<ServeCore> core;
  std::unique_ptr<SocketServer> socket;
  void stop() {
    if (socket) socket->stop();
    if (core) core->stop(DrainMode::kDrain);
    socket.reset();
    core.reset();
  }
};

// Set-up as an operator pays it: compile and register rsg_serve's designs,
// start the core and the socket, warm the hot set through the socket.
Server start_server(const std::map<std::string, DesignText>& texts, const std::string& socket_path,
                    const ServePlan& plan, std::vector<std::string>& problems) {
  Server server;
  server.core = std::make_unique<ServeCore>(serve_options());
  for (const auto& [name, text] : texts) server.core->add_design(name, text.sample, text.design);
  server.socket = std::make_unique<SocketServer>(*server.core, socket_path);
  server.socket->start();
  for (std::size_t h : plan.hot) {
    const GenerateResponse r = send_generate_request(socket_path, make_request(plan.catalogue[h], {h, true, 0}));
    if (!r.ok) problems.push_back("warming " + plan.catalogue[h].input.key + ": " + r.error);
  }
  return server;
}

// Two closed-loop clients replay their sequences. `via_socket` false sends
// through ServeCore::submit in-process instead (the traced run uses that to
// read generate_ms, which the wire format does not carry).
std::vector<std::vector<ClientRecord>> drive_clients(const ServePlan& plan, Server& server,
                                                     const std::string& socket_path,
                                                     bool via_socket, Clock::time_point epoch,
                                                     double& wall_ms) {
  std::vector<std::vector<ClientRecord>> records(kClients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const auto& seq = plan.clients[static_cast<std::size_t>(c)];
      auto& out = records[static_cast<std::size_t>(c)];
      out.reserve(seq.size());
      for (const Planned& planned : seq) {
        const GenerateRequest request = make_request(plan.catalogue[planned.personality], planned);
        ClientRecord rec;
        const auto s0 = Clock::now();
        GenerateResponse response;
        try {
          response = via_socket ? send_generate_request(socket_path, request)
                                : server.core->submit(request).get();
        } catch (const std::exception&) {
          rec.transport_error = true;
        }
        const auto s1 = Clock::now();
        rec.start_ms = ms_between(epoch, s0);
        rec.ms = ms_between(s0, s1);
        rec.ok = response.ok && !rec.transport_error;
        rec.cache_hit = response.cache_hit;
        rec.code = response.code;
        rec.generate_ms = response.generate_ms;
        if (rec.ok) rec.fnv = fnv1a64(response.cif);
        out.push_back(std::move(rec));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  wall_ms = ms_between(t0, Clock::now());
  return records;
}

constexpr int kServeSetupReps = 11;

Result run_serve(std::uint64_t seed, int seconds, bool trace, const std::string& socket_path,
                 const std::string& trace_out) {
  Result res;
  ServePlan plan = serve_plan(seed, seconds);
  std::vector<std::string> names;
  for (const DesignFiles& d : kDesigns) names.push_back(d.name);
  const auto texts = read_designs(names);

  // Reference outputs: one direct pipeline run per personality, checked for
  // the compaction invariants like the sequential workloads.
  {
    const DesignMap designs = compile_all(texts);
    for (Personality& p : plan.catalogue) {
      try {
        p.verified = verify_input(p.input, designs);
      } catch (const std::exception& e) {
        res.problem(std::string("verification: ") + e.what());
        return res;
      }
    }
  }

  // Set-up, repeated; the last server stays up for the measured run.
  std::vector<double> setups;
  Server server;
  for (int r = 0; r < kServeSetupReps; ++r) {
    server.stop();
    const auto t0 = Clock::now();
    server = start_server(texts, socket_path, plan, res.problems);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  if (!res.problems.empty()) return res;

  Tracer tracer;
  double wall_ms = 0.0;
  const auto records = drive_clients(plan, server, socket_path, true, tracer.epoch(), wall_ms);
  const ServeCore::Stats stats = server.core->stats();
  server.stop();

  // Check every response and split the samples.
  std::vector<double> latencies, miss_latencies, hit_latencies;
  double all_boxes = 0, all_bytes = 0, area_before = 0, area_after = 0;
  double misses = 0, calls = 0, rounds = 0, constraints = 0;  // per miss, from verified runs
  std::size_t measured = 0, measured_hits = 0, planned_hits = 0;
  for (int c = 0; c < kClients; ++c) {
    const auto& seq = plan.clients[static_cast<std::size_t>(c)];
    const auto& recs = records[static_cast<std::size_t>(c)];
    for (std::size_t k = 0; k < seq.size(); ++k) {
      const Personality& p = plan.catalogue[seq[k].personality];
      const ClientRecord& rec = recs[k];
      ++res.attempted;
      if (!rec.ok) {
        ++res.failed;
        res.problem(p.input.key + ": request failed (" +
                    (rec.transport_error ? std::string("transport error")
                                         : std::string(status_code_name(rec.code))) + ")");
        continue;
      }
      res.observe(p.input.key, p.verified, rec.fnv);
      if (rec.cache_hit != seq[k].hot) {
        res.problem(p.input.key + (seq[k].hot ? ": planned hit missed" : ": planned miss hit"));
      }
      all_boxes += static_cast<double>(p.verified.boxes);
      all_bytes += static_cast<double>(p.verified.bytes);
      if (p.input.compact) {
        area_before += p.verified.area_before;
        area_after += p.verified.area_after;
      }
      if (!seq[k].hot) {
        misses += 1;
        calls += static_cast<double>(p.verified.procedure_calls);
        rounds += p.verified.rounds;
        constraints += static_cast<double>(p.verified.constraints);
      }
      if (k < plan.warmup) continue;
      ++measured;
      measured_hits += rec.cache_hit ? 1 : 0;
      planned_hits += seq[k].hot ? 1 : 0;
      latencies.push_back(rec.ms);
      (rec.cache_hit ? hit_latencies : miss_latencies).push_back(rec.ms);
    }
  }
  const double hit_ratio = static_cast<double>(measured_hits) / static_cast<double>(measured);
  const double planned_ratio = static_cast<double>(planned_hits) / static_cast<double>(measured);
  if (hit_ratio != planned_ratio) res.problem("cache hit ratio differs from the planned share");
  if (stats.shed != 0 || stats.errors != 0) res.problem("server reported shed or failed requests");
  // Deterministic over the whole fixed sequence, whatever the order.
  res.guard = {{"area_ratio", area_after / area_before},
               {"cif_bytes_per_box", all_bytes / all_boxes},
               {"lang.procedure_calls", calls / misses},
               {"compact.rounds", rounds / misses},
               {"compact.constraints", constraints / misses},
               {"rsg.cache_hit_ratio", planned_ratio}};

  if (!trace) {
    const Tail tail = tail_of(latencies);
    res.metric("setup_s", median(setups), "s");
    res.metric("latency_ms_p50", median(latencies), "ms");
    res.metric("latency_ms_tail", tail.value, "ms");
    res.metric("boxes_per_s", all_boxes / (wall_ms / 1000.0), "1/s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("area_ratio", area_after / area_before, "ratio");
    res.metric("cif_bytes_per_box", all_bytes / all_boxes, "B/box");
    res.detail.num("samples", static_cast<double>(latencies.size()))
        .raw("latency_ms_percentiles", percentile_table(latencies))
        .num("warmup_samples", static_cast<double>(plan.warmup * kClients))
        .num("tail_percentile", tail.percentile)
        .num("tail_beyond", static_cast<double>(tail.beyond))
        .num("hit_latency_ms_p50", median(hit_latencies))
        .num("miss_latency_ms_p50", median(miss_latencies))
        .num("server_threads", static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
    return res;
  }

  // Traced: client spans from the socket pass; then the same plan through
  // ServeCore::submit in-process for generate_ms (queue wait = latency -
  // generate_ms on misses); then each personality through the layer replay.
  for (int c = 0; c < kClients; ++c) {
    const auto& seq = plan.clients[static_cast<std::size_t>(c)];
    const auto& recs = records[static_cast<std::size_t>(c)];
    for (std::size_t k = 0; k < seq.size(); ++k) {
      Span span;
      span.name = recs[k].cache_hit ? "client.hit" : "client.miss";
      span.start_us = recs[k].start_ms * 1000.0;
      span.end_us = (recs[k].start_ms + recs[k].ms) * 1000.0;
      span.request = static_cast<int>(k) * kClients + c;
      span.thread = 100 + c;
      tracer.add(std::move(span));
    }
  }
  std::vector<std::string> warm_problems;
  server = start_server(texts, socket_path, plan, warm_problems);
  double inproc_wall_ms = 0.0;
  const auto inproc = drive_clients(plan, server, socket_path, false, tracer.epoch(), inproc_wall_ms);
  const ServeCore::Stats inproc_stats = server.core->stats();
  server.stop();
  for (const std::string& p : warm_problems) res.problem(p);
  std::vector<double> queue_wait, run_ms, inproc_miss;
  for (int c = 0; c < kClients; ++c) {
    const auto& seq = plan.clients[static_cast<std::size_t>(c)];
    const auto& recs = inproc[static_cast<std::size_t>(c)];
    for (std::size_t k = 0; k < seq.size(); ++k) {
      const ClientRecord& rec = recs[k];
      ++res.attempted;
      if (!rec.ok) {
        ++res.failed;
        res.problem("in-process pass: request failed");
        continue;
      }
      res.observe(plan.catalogue[seq[k].personality].input.key,
                  plan.catalogue[seq[k].personality].verified, rec.fnv);
      Span span;
      span.name = rec.cache_hit ? "core.hit" : "core.run";
      span.start_us = (rec.start_ms + rec.ms - rec.generate_ms) * 1000.0;
      span.end_us = (rec.start_ms + rec.ms) * 1000.0;
      span.request = static_cast<int>(k) * kClients + c;
      span.thread = 200 + c;
      tracer.add(std::move(span));
      if (k < plan.warmup || rec.cache_hit) continue;
      run_ms.push_back(rec.generate_ms);
      queue_wait.push_back(rec.ms - rec.generate_ms);
      inproc_miss.push_back(rec.ms);
    }
  }

  // Layer replay of every personality the plan misses on, weighted by its
  // miss count.
  const DesignMap designs = compile_all(texts);
  CompileSampler compiles(texts);
  std::map<std::size_t, double> miss_count;
  for (const auto& seq : plan.clients) {
    for (const Planned& p : seq) {
      if (!p.hot) miss_count[p.personality] += 1.0;
    }
  }
  std::vector<LayerInput> layers;
  int request = 0;
  for (const auto& [idx, weight] : miss_count) {
    const Personality& p = plan.catalogue[idx];
    std::optional<lang::Interpreter::EncodingTable> encoding;
    if (!p.input.table.empty()) encoding = parse_encoding(p.input.table);
    LayerInput layer;
    layer.weight = weight;
    for (int r = 0; r < 3; ++r) {
      ++res.attempted;
      Replay replay = traced_replay(p.input, designs.at(p.input.design),
                                    encoding ? &*encoding : nullptr, tracer, 100000 + request++);
      compiles.sample();
      res.observe(p.input.key, p.verified, fnv1a64(replay.cif));
      layer.root_ms.push_back(replay.root_ms);
      for (const auto& [name, ms] : replay.span_ms) layer.spans[name].push_back(ms);
      layer.counts = replay.counts;
    }
    layers.push_back(std::move(layer));
  }
  tracer.write(trace_out);
  layer_metrics(res, layers, compiles.compile_ms());
  res.metric("rsg.queue_wait_ms_p50", median(queue_wait), "ms");
  res.metric("rsg.run_ms_p50", median(run_ms), "ms");
  res.metric("rsg.hit_latency_ms_p50", median(hit_latencies), "ms");
  res.metric("rsg.cache_hit_ratio", hit_ratio, "ratio");
  res.metric("rsg.shed", static_cast<double>(stats.shed + inproc_stats.shed), "count");
  res.metric("rsg.errors", static_cast<double>(stats.errors + inproc_stats.errors), "count");
  res.detail.num("socket_miss_latency_ms_p50", median(miss_latencies))
      .num("inprocess_miss_latency_ms_p50", median(inproc_miss))
      .num("transport_ms_p50_estimate", median(miss_latencies) - median(inproc_miss));
  return res;
}

// ---------------------------------------------------------------------------

std::string result_json(const std::string& workload, std::uint64_t seed, int seconds, bool trace,
                        const Result& res) {
  JsonObject metrics;
  for (const Metric& m : res.metrics) {
    metrics.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).text());
  }
  JsonObject outputs;
  for (const auto& [key, rec] : res.outputs) {
    outputs.raw(key, JsonObject()
                         .str("fnv1a64", rec.fnv)
                         .num("bytes", static_cast<double>(rec.bytes))
                         .num("boxes", static_cast<double>(rec.boxes))
                         .num("samples", static_cast<double>(rec.samples))
                         .text());
  }
  JsonObject guard;
  for (const auto& [key, v] : res.guard) guard.num(key, v);
  std::string problems = "[";
  for (std::size_t i = 0; i < res.problems.size(); ++i) {
    problems += (i ? ", \"" : "\"") + json_escape(res.problems[i]) + "\"";
  }
  problems += "]";
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  JsonObject meta;
  meta.str("workload", workload)
      .num("seed", static_cast<double>(seed))
      .num("seconds", seconds)
      .boolean("trace", trace)
      .num("hardware_concurrency", cores)
      .num("sweep_threads", compact::resolve_sweep_threads(0))
      .num("incremental_bands", compact::resolve_sweep_threads(0))
      .str("compiler", __VERSION__)
      .str("build_type", RSG_E2E_BUILD_TYPE);
  return JsonObject()
      .raw("meta", meta.text())
      .num("attempted", static_cast<double>(res.attempted))
      .num("failed", static_cast<double>(res.failed))
      .raw("problems", problems)
      .raw("metrics", metrics.text())
      .raw("outputs", outputs.text())
      .raw("guard", guard.text())
      .raw("detail", res.detail.text())
      .text();
}

int usage() {
  std::cerr << "usage: rsg_e2e_bench --workload generate_large|compact_xy|serve_mix --seed N "
               "--seconds S --trace 0|1 --socket PATH [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, socket_path, trace_out;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stoi(value);
    else if (flag == "--trace") trace = value == "1";
    else if (flag == "--socket") socket_path = value;
    else if (flag == "--trace-out") trace_out = value;
    else return usage();
  }
  if (argc % 2 != 1 || seconds < 1 || workload.empty()) return usage();
  try {
    Result res;
    if (workload == "generate_large" || workload == "compact_xy") {
      res = run_sequential(workload, seed, seconds, trace, trace_out);
    } else if (workload == "serve_mix") {
      if (socket_path.empty()) return usage();
      res = run_serve(seed, seconds, trace, socket_path, trace_out);
    } else {
      return usage();
    }
    std::cout << result_json(workload, seed, seconds, trace, res) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "rsg_e2e_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
