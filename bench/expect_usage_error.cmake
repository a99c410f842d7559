# Usage check for the figure benches, run by ctest (bench/CMakeLists.txt):
#   cmake -DBENCH=<binary> -P expect_usage_error.cmake
# Passes only if the bench refuses a flag and a second argument: each run
# must print nothing on stdout, exit 2, and name the offending argument
# on stderr as "unknown flag: <arg>".
function(expect_usage_error offending)
  execute_process(COMMAND ${BENCH} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT out STREQUAL ""
     OR NOT err STREQUAL "unknown flag: ${offending}\n")
    message(FATAL_ERROR
            "${BENCH} ${ARGN}: exit ${code}, stderr \"${err}\"; want exit 2 "
            "and \"unknown flag: ${offending}\" with no output")
  endif()
endfunction()

expect_usage_error(--json=out.json --json=out.json)
expect_usage_error(extra out.csv extra)
