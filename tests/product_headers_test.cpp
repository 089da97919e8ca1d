// Compile-time guard: the product's public headers — the generator
// pipeline, the serving core, the checkpoint format and the flat x/y
// schedule — must not pull in the leaf-cell LP (compact/simplex.hpp,
// compact/leaf_compactor.hpp). The LP is a §6.3 library the product never
// runs; if one of these headers includes it again, LpProblem or
// LeafLpModel becomes complete here and this file stops compiling.
#include "compact/xy_schedule.hpp"
#include "io/checkpoint.hpp"
#include "rsg/pipeline.hpp"
#include "rsg/serve_core.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace rsg::compact {
struct LpProblem;
struct LeafLpModel;
}  // namespace rsg::compact

namespace {

template <class T, class = void>
struct IsComplete : std::false_type {};
template <class T>
struct IsComplete<T, std::void_t<decltype(sizeof(T))>> : std::true_type {};

static_assert(!IsComplete<rsg::compact::LpProblem>::value,
              "a product header includes compact/simplex.hpp");
static_assert(!IsComplete<rsg::compact::LeafLpModel>::value,
              "a product header includes compact/leaf_compactor.hpp");

TEST(ProductHeaders, LeafLpStaysOutOfTheProductHeaders) {
  // The checks above run at compile time; reaching here means they held.
  SUCCEED();
}

}  // namespace
