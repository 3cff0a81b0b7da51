# Live-metrics gate, run as `cmake -P` from CTest.
#
# Proves, end to end through the real binaries:
#   1. `c4bench --metrics` writes per-trial c4metrics/1 snapshots that
#      are byte-identical between --threads 1 and --threads 4;
#   2. the golden smoke CSV is unchanged with metrics enabled, and the
#      trial-0 snapshot is byte-identical to the committed golden
#      (regenerate with tests/golden/update.sh after an intentional
#      instrumentation change);
#   3. `c4trace summary`, `tail`, and `diff` all work on the output,
#      an empty `--context`/`--ticks` value exits 2, and `diff` flags
#      an injected divergence with exit 1;
#   4. `c4trace summary` over a directory holding a trace and a
#      snapshot prints both tables, and `timeline` refuses a snapshot
#      and `tail` a trace with exit 2.
#
# Inputs: BENCH (c4bench path), TRACE_TOOL (c4trace path), SCENARIO,
# GOLDEN (committed CSV), GOLDEN_METRICS (committed snapshot),
# WORK_DIR (scratch).

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_or_die label)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${label}: exited with ${rc}")
    endif()
endfunction()

# --- 1. thread-count byte-equality -----------------------------------
run_or_die("metrics run (--threads 1)"
    "${BENCH}" "${SCENARIO}" --smoke --trials 2 --threads 1
    --metrics "${WORK_DIR}/m1")
run_or_die("metrics run (--threads 4)"
    "${BENCH}" "${SCENARIO}" --smoke --trials 2 --threads 4
    --metrics "${WORK_DIR}/m4")

file(GLOB_RECURSE m1_files RELATIVE "${WORK_DIR}/m1"
    "${WORK_DIR}/m1/*.jsonl")
list(SORT m1_files)
if(NOT m1_files)
    message(FATAL_ERROR "no JSONL snapshots under ${WORK_DIR}/m1")
endif()
set(total_bytes 0)
foreach(rel IN LISTS m1_files)
    if(NOT EXISTS "${WORK_DIR}/m4/${rel}")
        message(FATAL_ERROR
            "--threads 4 run is missing snapshot file ${rel}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/m1/${rel}" "${WORK_DIR}/m4/${rel}"
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR
            "snapshot ${rel} differs between --threads 1 and "
            "--threads 4 — the determinism contract is broken")
    endif()
    file(SIZE "${WORK_DIR}/m1/${rel}" sz)
    math(EXPR total_bytes "${total_bytes} + ${sz}")
endforeach()
if(total_bytes EQUAL 0)
    message(FATAL_ERROR
        "every ${SCENARIO} snapshot is empty; instrumentation lost")
endif()

# --- 2. golden CSV + golden snapshot with metrics enabled ------------
run_or_die("metered golden run"
    "${BENCH}" "${SCENARIO}" --smoke --trials 1
    --metrics "${WORK_DIR}/mg" --csv "${WORK_DIR}/with_metrics.csv")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/with_metrics.csv" "${GOLDEN}"
    RESULT_VARIABLE golden_rc)
if(NOT golden_rc EQUAL 0)
    execute_process(COMMAND diff -u "${GOLDEN}"
        "${WORK_DIR}/with_metrics.csv")
    message(FATAL_ERROR
        "${SCENARIO}: smoke CSV changed when metrics were enabled")
endif()

file(GLOB_RECURSE mg_files "${WORK_DIR}/mg/*.jsonl")
list(SORT mg_files)
list(GET mg_files 0 first_snapshot)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${first_snapshot}" "${GOLDEN_METRICS}"
    RESULT_VARIABLE snap_rc)
if(NOT snap_rc EQUAL 0)
    execute_process(COMMAND diff -u "${GOLDEN_METRICS}"
        "${first_snapshot}")
    message(FATAL_ERROR
        "${SCENARIO}: trial-0 metric snapshot differs from the "
        "committed golden ${GOLDEN_METRICS} — regenerate with "
        "tests/golden/update.sh if the instrumentation change is "
        "intentional")
endif()

# --- 3. c4trace summary / tail / diff --------------------------------
execute_process(
    COMMAND "${TRACE_TOOL}" summary "${WORK_DIR}/m1"
    RESULT_VARIABLE rc OUTPUT_VARIABLE summary_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "c4trace summary: exited with ${rc}")
endif()
if(NOT summary_out MATCHES "metric")
    message(FATAL_ERROR
        "c4trace summary output looks empty:\n${summary_out}")
endif()

list(GET m1_files 0 first_rel)
run_or_die("c4trace tail"
    "${TRACE_TOOL}" tail "${WORK_DIR}/m1/${first_rel}" --ticks 3)

run_or_die("c4trace diff (identical)"
    "${TRACE_TOOL}" diff
    "${WORK_DIR}/m1/${first_rel}" "${WORK_DIR}/m4/${first_rel}")

# An empty numeric option value is a usage error, not 0. The "" sits
# in the function body: an empty element of ARGN would be dropped.
function(expect_empty_value_refused command flag)
    execute_process(COMMAND "${TRACE_TOOL}" ${command} ${ARGN} ${flag} ""
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "c4trace ${command} ${flag} \"\": exit ${rc}, expected 2")
    endif()
endfunction()
expect_empty_value_refused(diff --context
    "${WORK_DIR}/m1/${first_rel}" "${WORK_DIR}/m4/${first_rel}")
expect_empty_value_refused(tail --ticks "${WORK_DIR}/m1/${first_rel}")

# Mutate a copy; diff must exit 1 and nothing else.
configure_file("${WORK_DIR}/m1/${first_rel}"
    "${WORK_DIR}/mutated.jsonl" COPYONLY)
file(APPEND "${WORK_DIR}/mutated.jsonl"
    "{\"t\":1,\"n\":\"injected.metric\",\"k\":\"counter\",\"c\":1}\n")
execute_process(
    COMMAND "${TRACE_TOOL}" diff
        "${WORK_DIR}/m1/${first_rel}" "${WORK_DIR}/mutated.jsonl"
    RESULT_VARIABLE diff_rc OUTPUT_QUIET)
if(NOT diff_rc EQUAL 1)
    message(FATAL_ERROR
        "c4trace diff missed an injected divergence (exit "
        "${diff_rc}, expected 1)")
endif()

# --- 4. traces and snapshots side by side ----------------------------
run_or_die("trace run"
    "${BENCH}" "${SCENARIO}" --smoke --trials 1
    --trace "${WORK_DIR}/mixed_trace")
file(GLOB_RECURSE trace_files "${WORK_DIR}/mixed_trace/*.jsonl")
list(SORT trace_files)
list(GET trace_files 0 first_trace)
file(MAKE_DIRECTORY "${WORK_DIR}/mixed")
configure_file("${first_trace}" "${WORK_DIR}/mixed/trace.jsonl"
    COPYONLY)
configure_file("${first_snapshot}" "${WORK_DIR}/mixed/snapshot.jsonl"
    COPYONLY)
execute_process(
    COMMAND "${TRACE_TOOL}" summary "${WORK_DIR}/mixed"
    RESULT_VARIABLE rc OUTPUT_VARIABLE mixed_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "c4trace summary (mixed): exited with ${rc}")
endif()
if(NOT mixed_out MATCHES "1 trace file\\(s\\)" OR
   NOT mixed_out MATCHES "1 snapshot file\\(s\\)" OR
   NOT mixed_out MATCHES "metric")
    message(FATAL_ERROR
        "c4trace summary over a trace and a snapshot must print both "
        "tables:\n${mixed_out}")
endif()

# Each format's own command refuses the other format's file and names
# the command that reads it.
function(expect_refusal command file reader)
    execute_process(
        COMMAND "${TRACE_TOOL}" ${command} "${WORK_DIR}/mixed/${file}"
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "c4trace ${reader}")
        message(FATAL_ERROR
            "c4trace ${command} ${file}: exit ${rc}, expected 2 and a "
            "pointer to `c4trace ${reader}`:\n${err}")
    endif()
endfunction()
expect_refusal(timeline snapshot.jsonl tail)
expect_refusal(tail trace.jsonl timeline)
