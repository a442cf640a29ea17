# Runs ropsim with each malformed or out-of-range flag value and requires a
# clean usage error: exit status 2, not an abort and not a silent run.
#
#   cmake -DROPSIM=/path/to/ropsim -P check_bad_flags.cmake
if(NOT ROPSIM)
  message(FATAL_ERROR "pass -DROPSIM=<path to the ropsim binary>")
endif()

# One invocation per entry, its arguments separated by '|'.
set(cases
  "--benchmark|nosuch"
  "--cores|0"
  "--cores|-1"
  "--ranks|0"
  "--ranks|33"
  "--llc-mb|0"
  "--llc-mb|3"
  "--instructions|12abc"
  "--instructions|abc"
  "--instructions|99999999999999999999"
  "--channels|2x"
  "--sample-target-ci|nan"
  "--sample-target-ci|0.05x"
  "campaign|spec.json|--out|out|--jobs|1x"
)

set(failures 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  string(REPLACE "|" " " shown "${case}")
  execute_process(
    COMMAND ${ROPSIM} ${args}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(SEND_ERROR "ropsim ${shown}: exit '${status}', expected 2\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bad invocation(s) not rejected with exit 2")
endif()
