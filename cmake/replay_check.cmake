# Offline-replay gate, run as `cmake -P` from CTest.
#
# Proves, through the real c4replay binary, that the committed incident
# corpus still diagnoses correctly:
#   1. `score` over tests/incidents/ passes the precision/recall floors
#      (both 0.9) AND byte-matches the committed golden verdicts;
#   2. scoring is reproducible: a second run writes byte-identical
#      verdicts (replay-same-incident-twice, via --write-golden);
#   3. a mutated golden makes `score --golden` fail (the gate can
#      actually catch a detector change);
#   4. `summary` and `run --label` work on the corpus, `run` on a
#      directory fails with exit 2 instead of replaying it as empty,
#      a floor that is not a number in [0, 1] is a usage error
#      (exit 2), not a floor switched off, and so is a `capture
#      --only` list that names no incident (not a silent no-op or a
#      whole-corpus capture);
#   5. `capture` on a copy of the corpus re-simulates every incident
#      and reproduces each committed trace and label byte for byte,
#      which pins the corpus to the kernel's (when, seq) event order.
#
# Inputs: REPLAY_TOOL (c4replay path), CORPUS (tests/incidents),
# WORK_DIR (scratch).

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_or_die label)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${label}: exited with ${rc}")
    endif()
endfunction()

# --- 1. score against floors + committed golden ----------------------
execute_process(
    COMMAND "${REPLAY_TOOL}" score "${CORPUS}"
        --min-precision 0.9 --min-recall 0.9
        --golden "${CORPUS}/golden_verdicts.jsonl"
        --report "${WORK_DIR}/score_report.txt"
        --write-golden "${WORK_DIR}/verdicts_a.jsonl"
    RESULT_VARIABLE rc OUTPUT_VARIABLE score_out
    ERROR_VARIABLE score_err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "c4replay score failed (exit ${rc}):\n"
        "${score_out}${score_err}")
endif()
if(NOT score_out MATCHES "aggregate: ")
    message(FATAL_ERROR
        "score output is missing the aggregate line:\n${score_out}")
endif()

# --- 2. second run is byte-identical ---------------------------------
run_or_die("c4replay score (rerun)"
    "${REPLAY_TOOL}" score "${CORPUS}"
    --write-golden "${WORK_DIR}/verdicts_b.jsonl")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/verdicts_a.jsonl" "${WORK_DIR}/verdicts_b.jsonl"
    RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
    message(FATAL_ERROR
        "two replays of the same corpus produced different verdicts — "
        "the analyzer is not deterministic")
endif()

# --- 3. a mutated golden must be flagged -----------------------------
configure_file("${CORPUS}/golden_verdicts.jsonl"
    "${WORK_DIR}/mutated_golden.jsonl" COPYONLY)
file(APPEND "${WORK_DIR}/mutated_golden.jsonl"
    "{\"incident\":\"injected\",\"verdicts\":0}\n")
execute_process(
    COMMAND "${REPLAY_TOOL}" score "${CORPUS}"
        --golden "${WORK_DIR}/mutated_golden.jsonl"
    RESULT_VARIABLE mut_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT mut_rc EQUAL 1)
    message(FATAL_ERROR
        "score --golden missed a mutated golden (exit ${mut_rc}, "
        "expected 1)")
endif()

# --- 4. summary + single-incident run --------------------------------
execute_process(
    COMMAND "${REPLAY_TOOL}" summary "${CORPUS}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE summary_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "c4replay summary: exited with ${rc}")
endif()
if(NOT summary_out MATCHES "link_failure_single")
    message(FATAL_ERROR
        "summary does not list the corpus:\n${summary_out}")
endif()

run_or_die("c4replay run (labeled)"
    "${REPLAY_TOOL}" run
    "${CORPUS}/link_failure_single.trace.jsonl"
    --label "${CORPUS}/link_failure_single.label.json")

execute_process(
    COMMAND "${REPLAY_TOOL}" run "${CORPUS}"
    RESULT_VARIABLE dir_rc OUTPUT_VARIABLE dir_out ERROR_QUIET)
if(NOT dir_rc EQUAL 2)
    message(FATAL_ERROR
        "c4replay run on a directory: exit ${dir_rc}, expected 2:\n"
        "${dir_out}")
endif()

execute_process(
    COMMAND "${REPLAY_TOOL}" score "${CORPUS}" --min-precision abc
    RESULT_VARIABLE floor_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT floor_rc EQUAL 2)
    message(FATAL_ERROR
        "c4replay score --min-precision abc: exit ${floor_rc}, "
        "expected 2")
endif()
execute_process(
    COMMAND "${REPLAY_TOOL}" score "${CORPUS}" --min-recall ""
    RESULT_VARIABLE floor_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT floor_rc EQUAL 2)
    message(FATAL_ERROR
        "c4replay score --min-recall '': exit ${floor_rc}, expected 2")
endif()
foreach(only IN ITEMS "," "")
    execute_process(
        COMMAND "${REPLAY_TOOL}" capture "${WORK_DIR}/empty_only"
                --only "${only}"
        RESULT_VARIABLE only_rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT only_rc EQUAL 2)
        message(FATAL_ERROR
            "c4replay capture --only '${only}': exit ${only_rc}, "
            "expected 2")
    endif()
endforeach()
if(EXISTS "${WORK_DIR}/empty_only")
    message(FATAL_ERROR
        "c4replay capture with an empty --only list wrote output")
endif()

# --- 5. re-capture the whole corpus ----------------------------------
set(capture_dir "${WORK_DIR}/capture")
file(COPY "${CORPUS}/" DESTINATION "${capture_dir}")
execute_process(
    COMMAND "${REPLAY_TOOL}" capture "${capture_dir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE capture_out
    ERROR_VARIABLE capture_err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "c4replay capture failed (exit ${rc}):\n"
        "${capture_out}${capture_err}")
endif()
file(GLOB corpus_files RELATIVE "${CORPUS}"
    "${CORPUS}/*.trace.jsonl" "${CORPUS}/*.label.json")
list(LENGTH corpus_files corpus_count)
if(corpus_count EQUAL 0)
    message(FATAL_ERROR "no incidents under ${CORPUS}")
endif()
foreach(name IN LISTS corpus_files)
    # The copy already holds the committed file, so also require that
    # capture re-simulated the incident rather than leaving it alone.
    string(REGEX REPLACE "\\.(trace\\.jsonl|label\\.json)$" ""
        incident "${name}")
    if(NOT capture_out MATCHES "(^|\n)${incident} ")
        message(FATAL_ERROR
            "capture did not re-simulate ${incident}:\n${capture_out}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${CORPUS}/${name}" "${capture_dir}/${name}"
        RESULT_VARIABLE same_rc)
    if(NOT same_rc EQUAL 0)
        message(FATAL_ERROR
            "re-captured ${name} differs from the committed corpus")
    endif()
endforeach()
