# ctest helper for the bench_cli and examples tiers:
#   cmake -DEXPECT_STATUS=<n> -P expect_status.cmake -- <command> [args...]
# Runs the command and passes only when it exits with status exactly
# <n>: 2 (a usage error) for bench_cli, where any other status fails,
# including the 134 of an abort; 0 for the examples. A test's
# PASS_REGULAR_EXPRESSION alone would ignore the status, so with
# EXPECT_OUTPUT set in the environment, the combined stdout+stderr must
# also match that regex here.
set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")
if(NOT status STREQUAL "${EXPECT_STATUS}")
  message(FATAL_ERROR "expected exit status ${EXPECT_STATUS}, got '${status}'")
endif()
if(DEFINED ENV{EXPECT_OUTPUT} AND NOT output MATCHES "$ENV{EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '$ENV{EXPECT_OUTPUT}'")
endif()
