# Record a metricsdump trace, which holds the spans of every churn thread
# and the event tracer's instants, then validate it with
# check_trace_schema.py. Fails unless the trace conforms and carries all
# three phases (M metadata, X spans, i instants).
execute_process(COMMAND ${CONFIGTOOL} metricsdump --threads=4 --ops=20000
                        --sampling=0.1 --trace-out=${TRACE}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "metricsdump: exit status '${status}'\n${err}")
endif()
execute_process(COMMAND ${PYTHON} ${CHECKER} ${TRACE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "check_trace_schema.py: exit status '${status}'\n"
                      "${out}${err}")
endif()
if(NOT out MATCHES "phases \\['M', 'X', 'i'\\]")
  message(FATAL_ERROR "trace lacks spans or instants: ${out}")
endif()
