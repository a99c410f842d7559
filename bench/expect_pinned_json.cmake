# Pinned-output check for a smoke sweep of bench_lossy_network, run by
# ctest (bench/CMakeLists.txt):
#   cmake -DBENCH=<binary> -DPINNED=<json> -DOUT=<path> [-DARGS=<flags>]
#         -P expect_pinned_json.cmake
# ARGS (a ;-list, e.g. --dup=0.05) goes to the bench after --smoke. The
# simulator is deterministic, so `--smoke ${ARGS} --json` must write the
# pinned file byte for byte. A change that means to move the sweep
# regenerates it, e.g.:
#   bench_lossy_network --smoke --json=bench/lossy_network_smoke.json
#   bench_lossy_network --smoke --dup=0.05 --json=bench/lossy_network_dup_smoke.json
execute_process(COMMAND ${BENCH} --smoke ${ARGS} --json=${OUT}
                RESULT_VARIABLE code
                OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} --smoke ${ARGS} --json=${OUT}: exit ${code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${PINNED}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the pinned ${PINNED}")
endif()
