# Run a command and require an exact exit status and an output pattern
# (ctest's PASS_REGULAR_EXPRESSION alone ignores the exit status):
#
#   cmake -DCMD=<program>,<arg>,... -DEXIT=<status> -DMATCH=<regex>
#         -P RRBExpectExit.cmake
#
# CMD is comma-separated for the same reason as RRBCompareArtifacts' DIRS:
# add_test would split a semicolon list into separate argv entries.
if(NOT CMD OR NOT DEFINED EXIT OR NOT MATCH)
  message(FATAL_ERROR "usage: cmake -DCMD=<prog>,<arg>,... -DEXIT=<n> -DMATCH=<regex> -P RRBExpectExit.cmake")
endif()
string(REPLACE "," ";" command "${CMD}")
execute_process(COMMAND ${command}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${out}${err}")
endif()
message(STATUS "exit ${status}, output matches '${MATCH}'")
