// Tests for the §4.1 scoping rules and Figure 4.1's resolution sequence:
// procedure frame -> global environment -> cell table, with symbol values
// re-resolved through the full chain.
#include <gtest/gtest.h>

#include <sstream>

#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "io/param_file.hpp"
#include "support/error.hpp"

namespace rsg::lang {
namespace {

class ScopingTest : public ::testing::Test {
 protected:
  ScopingTest() : interp_(cells_, interfaces_, graph_) {
    cells_.create("basiccell").add_box(Layer::kMetal1, Box(0, 0, 10, 10));
  }

  Value run(const std::string& source) { return interp_.run(parse_program(source)); }

  // The message of the LangError `source` raises, without its location.
  std::string error_text(const std::string& source) {
    try {
      run(source);
    } catch (const LangError& e) {
      const std::string what = e.what();
      return what.substr(what.find(": ") + 2);
    }
    return "no error";
  }

  CellTable cells_;
  InterfaceTable interfaces_;
  ConnectivityGraph graph_;
  Interpreter interp_;
};

TEST_F(ScopingTest, LocalsShadowGlobals) {
  interp_.set_global("x", Value::integer(1));
  EXPECT_EQ(run("(defun f (x) (locals) x) (f 2)").as_integer(), 2);
  EXPECT_EQ(run("x").as_integer(), 1);
}

TEST_F(ScopingTest, GlobalsVisibleInsideProcedures) {
  interp_.set_global("param", Value::integer(16));
  EXPECT_EQ(run("(defun f () (locals) (+ param 1)) (f)").as_integer(), 17);
}

TEST_F(ScopingTest, ScopingIsNotDynamic) {
  // f's local x must NOT be visible inside g (the thesis rejected dynamic
  // scoping, §4.1). g sees the global x instead.
  interp_.set_global("x", Value::integer(100));
  EXPECT_EQ(run("(defun g () (locals) x)"
                "(defun f (x) (locals) (g))"
                "(f 5)")
                .as_integer(),
            100);
}

TEST_F(ScopingTest, CellTableIsTheLastResort) {
  const Value v = run("basiccell");
  ASSERT_TRUE(v.is_cell());
  EXPECT_EQ(v.as_cell()->name(), "basiccell");
}

TEST_F(ScopingTest, Figure41ResolutionSequence) {
  // corecell is bound (by the parameter file) to the SYMBOL basiccell;
  // resolving corecell inside a procedure must walk: frame(fail) ->
  // global(symbol) -> frame(fail) -> global(fail) -> cell table(hit).
  interp_.set_global("corecell", Value::symbol("basiccell"));
  const Value v = run("(defun f () (locals) corecell) (f)");
  ASSERT_TRUE(v.is_cell());
  EXPECT_EQ(v.as_cell()->name(), "basiccell");
}

TEST_F(ScopingTest, SymbolChainsResolveThroughLocals) {
  // A symbol can also land on a LOCAL binding of the resolving frame.
  interp_.set_global("alias", Value::symbol("target"));
  EXPECT_EQ(run("(defun f (target) (locals) alias) (f 77)").as_integer(), 77);
}

TEST_F(ScopingTest, SymbolCyclesAreDetected) {
  interp_.set_global("a", Value::symbol("b"));
  interp_.set_global("b", Value::symbol("a"));
  EXPECT_THROW(run("a"), LangError);
}

TEST_F(ScopingTest, SetqPrefersLocalThenGlobalThenCreatesLocal) {
  interp_.set_global("g", Value::integer(1));
  // Updating an existing global from inside a procedure mutates the global.
  run("(defun f () (locals) (setq g 2)) (f)");
  EXPECT_EQ(run("g").as_integer(), 2);
  // A name bound nowhere becomes a LOCAL of the procedure, invisible after.
  run("(defun h () (locals) (setq fresh 9)) (h)");
  EXPECT_THROW(run("fresh"), LangError);
  // A declared local stays local even when a global of the same name exists.
  interp_.set_global("both", Value::integer(5));
  run("(defun k () (locals both) (setq both 6)) (k)");
  EXPECT_EQ(run("both").as_integer(), 5);
}

TEST_F(ScopingTest, ParameterFileSetsUpTheGlobalEnvironment) {
  const ParameterFile params = ParameterFile::parse(
      "; Appendix C style\n"
      ".output_file:/tmp/out.cif\n"
      "xsize = asize\n"
      "asize = 16\n"
      "name = \"thearray\"\n"
      "corecell=basiccell\n");
  params.apply(interp_);
  EXPECT_EQ(run("xsize").as_integer(), 16);          // symbol -> asize -> 16
  EXPECT_EQ(run("name").as_string(), "thearray");    // string stays a string
  EXPECT_TRUE(run("corecell").is_cell());            // symbol -> cell table
  EXPECT_EQ(*params.directive("output_file"), "/tmp/out.cif");
  EXPECT_EQ(params.directive("nope"), nullptr);
}

TEST_F(ScopingTest, ParameterFileErrors) {
  EXPECT_THROW(ParameterFile::parse("novalue"), Error);
  EXPECT_THROW(ParameterFile::parse("= 5"), Error);
  EXPECT_THROW(ParameterFile::parse(".directive_without_colon"), Error);
}

TEST_F(ScopingTest, MacroEnvironmentOutlivesTheCall) {
  // §4.5: environments may have a much greater lifetime than the call —
  // a retained macro environment keeps its bindings alive.
  const Value env = run("(macro mbox (v) (locals)) (mbox 31)");
  // Force some garbage to churn the interpreter.
  run("(defun f (x) (locals) x) (do (i 0 (+ i 1) (> i 100)) (f i))");
  EXPECT_EQ(env.as_environment()->find("v")->as_integer(), 31);
}

// --- The §4.1 string boundary ----------------------------------------------
// Names that arrive as text (parameter-file names, symbol values, mk_cell
// strings) must name exactly the binding their mangled form names: `x.3` is
// the indexed variable x.3, `l.03` is a different name altogether.

TEST_F(ScopingTest, ParameterFileIndexedNameIsTheIndexedVariable) {
  ParameterFile::parse("x.3 = 7\n").apply(interp_);
  EXPECT_EQ(run("x.3").as_integer(), 7);
  EXPECT_EQ(run("x.(+ 1 2)").as_integer(), 7);
  EXPECT_EQ(run("(defun f (i) (locals) x.i) (f 3)").as_integer(), 7);
  // Design-side assignment updates the same global.
  run("(setq x.(+ 2 1) 8)");
  EXPECT_EQ(interp_.global()->find("x.3")->as_integer(), 8);
}

TEST_F(ScopingTest, SymbolResolvesToAnIndexedBinding) {
  ParameterFile::parse("alias = l.3\n").apply(interp_);
  EXPECT_EQ(run("(setq l.3 42) alias").as_integer(), 42);
  // Inside a procedure the re-resolution tries the frame first.
  interp_.set_global("palias", Value::symbol("p.2"));
  EXPECT_EQ(run("(defun h () (locals) (setq p.2 6) palias) (h)").as_integer(), 6);
}

TEST_F(ScopingTest, LeadingZeroIndexIsADifferentName) {
  ParameterFile::parse("l.03 = 1\nz = l.03\n").apply(interp_);
  EXPECT_EQ(error_text("l.3"),
            "unbound variable 'l.3' (not a parameter, local, or cell name)");
  run("(setq l.3 2)");
  EXPECT_EQ(run("l.3").as_integer(), 2);
  EXPECT_EQ(run("z").as_integer(), 1);
  EXPECT_EQ(interp_.global()->find("l.03")->as_integer(), 1);
  EXPECT_EQ(interp_.global()->find("l.3")->as_integer(), 2);
}

TEST_F(ScopingTest, NegativeIndices) {
  ParameterFile::parse("l.-1 = 9\nn = l.-2\n").apply(interp_);
  EXPECT_EQ(run("l.-1").as_integer(), 9);
  EXPECT_EQ(run("l.(- 1 2)").as_integer(), 9);
  run("(setq l.(- 0 2) 11)");
  EXPECT_EQ(run("n").as_integer(), 11);
  EXPECT_EQ(run("(setq q.-1.-2 3) q.(- 1).(- 2)").as_integer(), 3);
  EXPECT_EQ(interp_.global()->find("q.-1.-2")->as_integer(), 3);
}

TEST_F(ScopingTest, UnboundIndexedNameFallsThroughToAMadeCell) {
  interfaces_.declare("basiccell", "basiccell", 1, Interface{{10, 0}, Orientation::kNorth});
  EXPECT_EQ(error_text("c.3"),
            "unbound variable 'c.3' (not a parameter, local, or cell name)");
  run("(mk_instance n basiccell) (mk_cell \"c.3\" n)");
  const Value direct = run("c.3");
  ASSERT_TRUE(direct.is_cell());
  EXPECT_EQ(direct.as_cell()->name(), "c.3");
  const Value computed = run("(defun f (i) (locals) c.i) (f 3)");
  ASSERT_TRUE(computed.is_cell());
  EXPECT_EQ(computed.as_cell(), direct.as_cell());
  // A binding made later shadows the cell again (frame and global win).
  EXPECT_EQ(run("(setq c.3 4) c.3").as_integer(), 4);
}

TEST_F(ScopingTest, ErrorMessagesAreUnchanged) {
  EXPECT_EQ(error_text("(defun f (i) (locals) w.i.(+ i 1)) (f 2)"),
            "unbound variable 'w.2.3' (not a parameter, local, or cell name)");
  EXPECT_EQ(error_text("(macro mk (v) (locals)) (subcell (mk 1) w.2)"),
            "subcell: no variable 'w.2' in the given environment");
  interp_.set_global("a", Value::symbol("b"));
  interp_.set_global("b", Value::symbol("a"));
  EXPECT_EQ(error_text("a"), "symbol indirection cycle while resolving 'a'");
  interp_.set_global("s", Value::symbol("t.1"));
  interp_.set_global("t.1", Value::symbol("s"));
  EXPECT_EQ(error_text("t.1"),
            "symbol indirection cycle while resolving 't.1'");
}

}  // namespace
}  // namespace rsg::lang
