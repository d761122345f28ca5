# Runs the tools with bad flag values and fails unless each exits 2, the
# tools' documented status for a bad flag, before any training:
#   cmake -DSERVE=<sstban_serve> -DCLI=<sstban_cli> -P expect_bad_flags.cmake
function(expect_exit_2)
  string(JOIN " " command ${ARGN})
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err ERROR_STRIP_TRAILING_WHITESPACE
                  TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${command}: exit ${rc}, want 2\n${err}")
  endif()
  message(STATUS "${command}: ${err}")
endfunction()

expect_exit_2(${SERVE} --max-batch 0)
expect_exit_2(${SERVE} --clients abc)
expect_exit_2(${SERVE} --degrade-pct 101)
expect_exit_2(${SERVE} --drift sideways)
expect_exit_2(${SERVE} --steps 1000)
expect_exit_2(${SERVE} --var-lag 5000)
expect_exit_2(${SERVE} --json)
expect_exit_2(${CLI} train --lr -0.1)
expect_exit_2(${CLI} forecast --at -1)
