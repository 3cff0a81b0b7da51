# Example gate, run as `cmake -P` from CTest: run one example binary,
# fail on a non-zero exit, and, when EXPECT is given, also fail unless
# its stdout matches that regex. (CTest's own PASS_REGULAR_EXPRESSION
# would ignore the exit code, so both checks live here.)
#
# Inputs: EXAMPLE (binary path), EXPECT (optional regex).

execute_process(
    COMMAND "${EXAMPLE}"
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out)
message("${run_out}")
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited with ${run_rc}")
endif()
if(DEFINED EXPECT AND NOT run_out MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXAMPLE}: output lacks '${EXPECT}'")
endif()
