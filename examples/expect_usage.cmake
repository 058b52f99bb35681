# ctest helper: CMD must refuse the single argument ARG with exit status 2
# and the usage line on stderr.
#   cmake -DCMD=<program> -DARG=<argument> -P expect_usage.cmake
execute_process(COMMAND ${CMD} ${ARG} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2 OR NOT err MATCHES "^usage: ")
  message(FATAL_ERROR "expected exit 2 and the usage line, got ${status}:\n${err}")
endif()
