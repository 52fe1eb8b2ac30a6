# Runs a command and checks how it ends, for ctest entries that must fail
# in a specific way (WILL_FAIL alone would also pass on the wrong error).
#
#   cmake -DEXIT=<code> -DPATTERN=<regex> -P expect_exit.cmake <command> [args...]
#
# Passes iff the command exits with <code> and its stdout+stderr matches
# <regex>.

# The command is every argument after the script path.
set(command "")
set(after_script FALSE)
set(previous "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_script)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(previous STREQUAL "-P")
    set(after_script TRUE)
  endif()
  set(previous "${CMAKE_ARGV${i}}")
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${code}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${PATTERN}")
  message(FATAL_ERROR "output does not match '${PATTERN}':\n${out}${err}")
endif()
