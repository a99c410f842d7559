# Pinned-output check for the loss-only smoke sweep of bench_lossy_network,
# run by ctest (bench/CMakeLists.txt):
#   cmake -DBENCH=<binary> -DPINNED=<json> -DOUT=<path> -P expect_pinned_json.cmake
# The simulator is deterministic, so `--smoke --json` must write the pinned
# file byte for byte. A change that means to move the sweep regenerates it:
#   bench_lossy_network --smoke --json=bench/lossy_network_smoke.json
execute_process(COMMAND ${BENCH} --smoke --json=${OUT}
                RESULT_VARIABLE code
                OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} --smoke --json=${OUT}: exit ${code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${PINNED}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the pinned ${PINNED}")
endif()
