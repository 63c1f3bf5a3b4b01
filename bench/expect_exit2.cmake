# ctest helper for the bench_cli tier:
#   cmake -P expect_exit2.cmake -- <command> [args...]
# Runs the command and passes only when it exits with status exactly 2
# (a usage error); any other status fails, including the 134 of an
# abort. With EXPECT_OUTPUT set in the environment, the combined
# stdout+stderr must also match that regex.
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
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'")
endif()
if(DEFINED ENV{EXPECT_OUTPUT} AND NOT output MATCHES "$ENV{EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '$ENV{EXPECT_OUTPUT}'")
endif()
