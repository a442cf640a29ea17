# Runs ropsim with each malformed or out-of-range flag value, each bad
# input file, and each flag combination the simulator cannot run, and
# requires a clean error: exit status 2, not an abort and not a silent run.
#
#   cmake -DROPSIM=/path/to/ropsim -P check_bad_flags.cmake
if(NOT ROPSIM)
  message(FATAL_ERROR "pass -DROPSIM=<path to the ropsim binary>")
endif()

# Bad input files: trace files that are missing, malformed or empty, and
# snapshots that are missing, truncated or taken under another spec.
set(dir "${CMAKE_CURRENT_BINARY_DIR}/bad_flags_inputs")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
file(WRITE "${dir}/malformed.trace" "12 X 0x40\n")
file(WRITE "${dir}/empty.trace" "# no records\n")
execute_process(
  COMMAND ${ROPSIM} --benchmark lbm --mode baseline --instructions 20000
          --snapshot-out "${dir}/good.snap" --snapshot-stop-at 2001
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "could not write the snapshot the cases below need")
endif()
execute_process(
  COMMAND head -c 4096 "${dir}/good.snap"
  OUTPUT_FILE "${dir}/truncated.snap")
# Campaign specs that do not parse (nesting far past the parser's limit)
# or hold a sampling knob validate() rejects.
string(REPEAT "[" 1000000 deep)
file(WRITE "${dir}/deep.json" "${deep}")
file(WRITE "${dir}/zero_detail.json"
  "{\"sampling\": {\"detail_cycles\": 0}, \"axes\": {\"benchmark\": [\"lbm\"]}}")

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
  "--benchmark|lbm|--mode|rop|--instructions|72057594037927937"
  "--channels|2x"
  "--sample-target-ci|nan"
  "--sample-target-ci|0.05x"
  "campaign|spec.json|--out|out|--jobs|1x"
  "--trace|${dir}/missing.trace"
  "--trace|${dir}/malformed.trace"
  "--trace|${dir}/empty.trace"
  "--benchmark|lbm|--snapshot-in|${dir}/missing.snap"
  "--benchmark|lbm|--snapshot-in|${dir}/truncated.snap"
  "--benchmark|lbm|--mode|rop|--snapshot-in|${dir}/good.snap"
  "--loop|frozen"
  "--loop|naive|--snapshot-out|${dir}/x.snap|--snapshot-stop-at|1001"
  "--loop|sampled|--snapshot-out|${dir}/x.snap"
  "--snapshot-stop-at|1001"
  "--trace-out|${dir}/x.json|--channels|2"
  "--trace|${dir}/empty.trace|--progress|${dir}/p.jsonl"
  "--sample-jobs|2"
  "--benchmark|lbm|--instructions|20000|--sample-functional|1000"
  "--benchmark|lbm|--instructions|20000|--sample-warmup|1000"
  "--benchmark|lbm|--instructions|20000|--sample-detail|1000"
  "--benchmark|lbm|--instructions|20000|--sample-min-windows|2"
  "--benchmark|lbm|--instructions|20000|--sample-max-windows|2"
  "--benchmark|lbm|--instructions|20000|--sample-target-ci|0.05"
  "--loop|sampled|--sample-jobs|2|--epoch|100"
  "--loop|sampled|--benchmark|lbm|--instructions|20000|--sample-detail|0"
  "--loop|sampled|--benchmark|lbm|--instructions|20000|--sample-min-windows|0"
  "--loop|sampled|--benchmark|lbm|--instructions|20000|--sample-min-windows|1"
  "campaign|${dir}/missing.json|--out|${dir}/camp"
  "campaign|${dir}/deep.json|--out|${dir}/camp"
  "campaign|${dir}/zero_detail.json|--out|${dir}/camp"
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
