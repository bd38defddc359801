# Runs CMD with ARGS (a ;-list) and passes iff it exits with code EXPECT
# and prints an `error:` line on stderr: a misconfiguration must end in a
# message and a clean exit code, never in an abort (exit 134).
#
#   cmake -DCMD=<program> -DARGS=<a;b> -DEXPECT=1 -P expect_exit.cmake
execute_process(COMMAND ${CMD} ${ARGS} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CMD} exited with '${rc}', expected ${EXPECT}\n${err}")
endif()
if(NOT err MATCHES "error: ")
  message(FATAL_ERROR "${CMD} printed no 'error:' line on stderr:\n${err}")
endif()
