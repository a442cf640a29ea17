# Writes a stats document with ropsim and reads it with the Python tools.
# They keep their own copy of the CPI-stack keys (telemetry/attribution.h),
# so a renamed category fails here instead of only in CI.
#
#   cmake -DROPSIM=/path/to/ropsim -DPYTHON=/path/to/python3
#         -P check_stats_schema.cmake
if(NOT ROPSIM OR NOT PYTHON)
  message(FATAL_ERROR "pass -DROPSIM=<ropsim binary> -DPYTHON=<python3>")
endif()

set(doc "${CMAKE_CURRENT_BINARY_DIR}/stats_schema.json")

function(run what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${what}: exit '${status}'\n${out}${err}")
  endif()
endfunction()

run("ropsim" ${ROPSIM} --benchmark lbm --mode rop --instructions 200000
    --stats-json "${doc}")
run("check_stats_schema.py" ${PYTHON}
    "${CMAKE_CURRENT_LIST_DIR}/check_stats_schema.py" "${doc}"
    --require-attribution)
run("report_cpi.py" ${PYTHON} "${CMAKE_CURRENT_LIST_DIR}/report_cpi.py"
    "${doc}")
