// Tests for the encoding-table builtins (§4: "primitives for manipulating
// encoding tables such as PLA truth tables") and for Value semantics used
// throughout the interpreter.
#include <gtest/gtest.h>

#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "support/error.hpp"

namespace rsg::lang {
namespace {

class EncodingTest : public ::testing::Test {
 protected:
  EncodingTest() : interp_(cells_, interfaces_, graph_) {
    table_.inputs = 3;
    table_.outputs = 2;
    table_.in = {{1, 0, 2}, {2, 2, 1}};
    table_.out = {{1, 0}, {1, 1}};
    interp_.set_encoding_table(&table_);
  }

  Value run(const std::string& source) { return interp_.run(parse_program(source)); }

  CellTable cells_;
  InterfaceTable interfaces_;
  ConnectivityGraph graph_;
  Interpreter interp_;
  Interpreter::EncodingTable table_;
};

TEST_F(EncodingTest, DimensionsAndAccess) {
  EXPECT_EQ(run("(tt_inputs)").as_integer(), 3);
  EXPECT_EQ(run("(tt_outputs)").as_integer(), 2);
  EXPECT_EQ(run("(tt_terms)").as_integer(), 2);
  EXPECT_EQ(run("(tt_in 1 1)").as_integer(), 1);
  EXPECT_EQ(run("(tt_in 1 3)").as_integer(), 2);  // don't-care
  EXPECT_EQ(run("(tt_in 2 3)").as_integer(), 1);
  EXPECT_EQ(run("(tt_out 1 2)").as_integer(), 0);
  EXPECT_EQ(run("(tt_out 2 2)").as_integer(), 1);
}

TEST_F(EncodingTest, IndicesAreOneBasedAndChecked) {
  EXPECT_THROW(run("(tt_in 0 1)"), LangError);
  EXPECT_THROW(run("(tt_in 3 1)"), LangError);
  EXPECT_THROW(run("(tt_in 1 4)"), LangError);
  EXPECT_THROW(run("(tt_out 1 3)"), LangError);
  EXPECT_THROW(run("(tt_out 0 1)"), LangError);
}

TEST_F(EncodingTest, UsableInsideLoops) {
  // Sum all crosspoints, the way a design file would count masks.
  const Value v = run(
      "(assign n 0)"
      "(do (t 1 (+ t 1) (> t (tt_terms)))"
      "    (do (i 1 (+ i 1) (> i (tt_inputs)))"
      "        (cond ((/= (tt_in t i) 2) (assign n (+ n 1))))))"
      "n");
  EXPECT_EQ(v.as_integer(), 3);  // terms: 1,0 care in t1; one care in t2
}

TEST(EncodingAbsent, BuiltinsFailWithoutATable) {
  CellTable cells;
  InterfaceTable interfaces;
  ConnectivityGraph graph;
  Interpreter interp(cells, interfaces, graph);
  EXPECT_THROW(interp.run(parse_program("(tt_inputs)")), LangError);
}

// --- Value semantics ---------------------------------------------------------

TEST(Value, TypeChecksAndNames) {
  EXPECT_THROW(Value::integer(1).as_string(), Error);
  EXPECT_THROW(Value::string("x").as_integer(), Error);
  EXPECT_THROW(Value::nil().as_node(), Error);
  EXPECT_STREQ(Value::integer(1).type_name(), "integer");
  EXPECT_STREQ(Value::symbol("s").type_name(), "symbol");
  EXPECT_STREQ(Value::nil().type_name(), "nil");
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value::nil().truthy());
  EXPECT_FALSE(Value::boolean(false).truthy());
  EXPECT_FALSE(Value::integer(0).truthy());
  EXPECT_TRUE(Value::integer(-1).truthy());
  EXPECT_TRUE(Value::string("").truthy());
  EXPECT_TRUE(Value::symbol("x").truthy());
}

TEST(Value, DisplayStrings) {
  EXPECT_EQ(Value::integer(42).to_display_string(), "42");
  EXPECT_EQ(Value::boolean(true).to_display_string(), "true");
  EXPECT_EQ(Value::string("hi").to_display_string(), "hi");
  EXPECT_EQ(Value::symbol("sym").to_display_string(), "sym");
  EXPECT_EQ(Value::nil().to_display_string(), "nil");
  Cell cell("acell");
  EXPECT_EQ(Value::cell(&cell).to_display_string(), "<cell acell>");
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value::integer(3), Value::integer(3));
  EXPECT_FALSE(Value::integer(3) == Value::integer(4));
  EXPECT_FALSE(Value::integer(1) == Value::boolean(true));
  // A named value, not two temporaries: GCC 12 -O2 otherwise reports a
  // spurious -Warray-bounds in the inlined shared_ptr release of the
  // variant's environment alternative.
  const Value a = Value::symbol("a");
  EXPECT_EQ(a, Value::symbol("a"));
  EXPECT_FALSE(a == Value::string("a"));
}

}  // namespace
}  // namespace rsg::lang
