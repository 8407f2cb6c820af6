# Run ${BIN} with an unknown flag; pass only on a clean usage error:
# exit status 2 and "unknown options" on stderr.
execute_process(COMMAND ${BIN} --bogus
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${BIN} --bogus: exit status '${status}', want 2\n${err}")
endif()
if(NOT err MATCHES "unknown options: --bogus")
  message(FATAL_ERROR "${BIN} --bogus: no 'unknown options' message\n${err}")
endif()
