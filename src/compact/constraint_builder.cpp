#include "compact/constraint_builder.hpp"

namespace rsg::compact {

ConstraintSystemBuilder::ConstraintSystemBuilder(const CompactionRules& rules,
                                                BuilderOptions options)
    : rules_(rules), options_(options) {}

void ConstraintSystemBuilder::emit_batch(std::vector<CompactionBox>& boxes) {
  add_box_variables(system_, boxes);
  switch (options_.generator) {
    case ConstraintGenerator::kNaive:
      generate_constraints_naive(system_, boxes, rules_);
      return;
    case ConstraintGenerator::kScanline:
      generate_constraints(system_, boxes, rules_);
      return;
  }
}

}  // namespace rsg::compact
