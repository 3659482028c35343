# Runs a command and fails unless it exits with EXPECT_EXIT and its stderr
# matches the regex EXPECT_STDERR:
#
#   cmake -DEXPECT_EXIT=2 -DEXPECT_STDERR=<regex> -P expect_exit.cmake \
#         -- <command> [args...]
#
# With -DLOG_FILE=<path> -DLOG_LINE_REGEX=<regex> it also fails unless the
# command wrote LOG_FILE and every line of it matches LOG_LINE_REGEX.
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

if(DEFINED LOG_FILE)
  file(REMOVE "${LOG_FILE}")
endif()
execute_process(COMMAND ${command}
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "exit status ${status}, expected ${EXPECT_EXIT}; stderr:\n${stderr}")
endif()
if(NOT "${stderr}" MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${stderr}")
endif()
if(DEFINED LOG_FILE)
  file(STRINGS "${LOG_FILE}" lines)
  file(STRINGS "${LOG_FILE}" matching REGEX "${LOG_LINE_REGEX}")
  list(LENGTH lines total)
  list(LENGTH matching matched)
  if(total EQUAL 0 OR NOT matched EQUAL total)
    message(FATAL_ERROR "${matched} of ${total} lines of ${LOG_FILE} match "
      "'${LOG_LINE_REGEX}'")
  endif()
endif()
