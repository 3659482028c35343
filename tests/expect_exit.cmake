# Runs a command and fails unless it exits with EXPECT_EXIT and its stderr
# matches the regex EXPECT_STDERR:
#
#   cmake -DEXPECT_EXIT=2 -DEXPECT_STDERR=<regex> -P expect_exit.cmake \
#         -- <command> [args...]
math(EXPR last "${CMAKE_ARGC} - 1")
set(command "")
set(in_command FALSE)
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "exit status ${status}, expected ${EXPECT_EXIT}; stderr:\n${stderr}")
endif()
if(NOT "${stderr}" MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${stderr}")
endif()
