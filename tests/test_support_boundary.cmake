# The product/test-support boundary, run as a ctest script:
#
#   cmake -DREPO=<repo root> -P tests/test_support_boundary.cmake
#
# The §6.4 baselines and the test oracles live in the test support library
# (tests/oracles). This fails when a name that moved there reappears under
# src/, or when src/, examples/ or e2e_bench/ include an oracles/ header.
if(NOT REPO)
  message(FATAL_ERROR "usage: cmake -DREPO=<repo root> -P test_support_boundary.cmake")
endif()

set(moved_names
  generate_constraints_reference
  generate_constraints_naive
  generate_constraints_banded
  RigidMatch
  EdgeOrder
  synth_design
  SynthField
  naive_constraints
  compact_flat_xy
  compact_flat_y
  ConstraintSystemBuilder
  corrupt_cached_system_for_testing
)

set(violations "")
file(GLOB_RECURSE product_sources "${REPO}/src/*.hpp" "${REPO}/src/*.cpp")
foreach(path IN LISTS product_sources)
  file(READ "${path}" text)
  foreach(name IN LISTS moved_names)
    string(FIND "${text}" "${name}" at)
    if(NOT at EQUAL -1)
      list(APPEND violations "${path}: mentions ${name}")
    endif()
  endforeach()
endforeach()

file(GLOB_RECURSE non_test_sources
  "${REPO}/src/*.hpp" "${REPO}/src/*.cpp"
  "${REPO}/examples/*.cpp" "${REPO}/e2e_bench/*.cpp")
foreach(path IN LISTS non_test_sources)
  file(STRINGS "${path}" includes REGEX "#include \"oracles/")
  if(includes)
    list(APPEND violations "${path}: includes the test support library")
  endif()
endforeach()

list(LENGTH product_sources scanned)
if(scanned EQUAL 0)
  message(FATAL_ERROR "no sources found under ${REPO}/src")
endif()
if(violations)
  list(JOIN violations "\n" report)
  message(FATAL_ERROR "test-support names or headers outside tests/ and bench/:\n${report}")
endif()
message(STATUS "${scanned} files under src/ are free of test-support names")
