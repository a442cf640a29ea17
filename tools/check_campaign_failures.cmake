# Runs `ropsim campaign` where one cell cannot finish and where a cell
# document was edited after it landed, and requires exit status 1 with a
# message naming the cell or the file: not an abort, not a merged.json.
#
#   cmake -DROPSIM=/path/to/ropsim -P check_campaign_failures.cmake
if(NOT ROPSIM)
  message(FATAL_ERROR "pass -DROPSIM=<path to the ropsim binary>")
endif()

set(dir "${CMAKE_CURRENT_BINARY_DIR}/campaign_failures")
file(REMOVE_RECURSE "${dir}")
file(WRITE "${dir}/spec.json" [=[
{
  "instructions_per_core": 20000,
  "snapshot_every": 5000,
  "axes": {"benchmark": ["lbm"], "mode": ["baseline", "rop"]}
}
]=])

function(expect_failure what pattern)
  execute_process(
    COMMAND ${ROPSIM} campaign "${dir}/spec.json" --out "${dir}/out" --quiet
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${what}: expected exit 1, got '${status}'\n${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: stderr lacks '${pattern}':\n${err}")
  endif()
  if(EXISTS "${dir}/out/merged.json")
    message(FATAL_ERROR "${what}: merged.json was written")
  endif()
endfunction()

# Cell 1's checkpoint path is a non-empty directory: that cell fails, cell
# 0 completes, and the manifest lists cell 1 under "failed".
file(WRITE "${dir}/out/cell_000001.snap/keep" "x")
expect_failure("failed cell" "failed cell 1 \\(lbm/rop/")
file(READ "${dir}/out/manifest.json" manifest)
if(NOT manifest MATCHES "\"completed\":\\[0\\],\"failed\":\\[{\"index\":1,")
  message(FATAL_ERROR "manifest does not list cell 1 as failed:\n${manifest}")
endif()
# The checkpoint that could not be renamed into place is not left behind.
if(EXISTS "${dir}/out/cell_000001.snap.tmp")
  message(FATAL_ERROR "failed cell left cell_000001.snap.tmp behind")
endif()

# With the path clear, cell 1 runs; then an edited cell 0 document (a
# counter that is not an integer) fails the merge.
file(REMOVE_RECURSE "${dir}/out/cell_000001.snap")
file(READ "${dir}/out/cell_000000.json" cell)
string(REGEX REPLACE "(\"counters\":{\"[^\"]+\":)[0-9]+" "\\11.5" cell
       "${cell}")
file(WRITE "${dir}/out/cell_000000.json" "${cell}")
expect_failure("tampered cell" "cell_000000.json: counter '[^']+' is malformed")
