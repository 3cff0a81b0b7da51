# Distributed-sweep gate, run as `cmake -P` from CTest: plan a
# 4-shard-per-scenario campaign over three scenarios (two built-ins
# plus one loaded from specs/), execute it twice through real child
# processes — the first `run` is budget-limited to 3 shards to model
# an interrupted campaign, the second resumes and must not re-execute
# them — then merge and byte-compare against the CSV a single
# `c4bench --threads 1` process writes (the ISSUE 4 acceptance
# criterion). Both runs pass `--metrics`, and `status --watch` must
# render the dashboard against the interrupted and the resumed
# campaign with the matching exit codes (1 = incomplete, 0 =
# complete), and plain `status` must render the same dashboard and
# reject the --watch pacing options (exit 2).
#
# Inputs: BENCH (c4bench path), SWEEP (c4sweep path), SPEC (spec file
# to include in the campaign), WORK_DIR (scratch dir).

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(campaign "${WORK_DIR}/campaign")
set(reference "${WORK_DIR}/reference.csv")
set(merged "${WORK_DIR}/merged.csv")

# The campaign: every scenario sharded 4 ways over a 4-trial sweep.
execute_process(
    COMMAND "${SWEEP}" plan --out "${campaign}" --shards 4
            --smoke --trials 4 fig9_dualport fig11_cnp "${SPEC}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "c4sweep plan exited with ${rc}")
endif()

# Merging an unfinished campaign must be refused, not half-done.
execute_process(
    COMMAND "${SWEEP}" merge "${campaign}"
    RESULT_VARIABLE rc
    ERROR_VARIABLE merge_err)
if(rc EQUAL 0)
    message(FATAL_ERROR
        "c4sweep merge succeeded on an unexecuted campaign")
endif()

# First run: interrupted after 3 shards (deterministic stand-in for a
# mid-campaign kill; the journal-level kill recovery is unit-tested in
# test_sweep.cc).
execute_process(
    COMMAND "${SWEEP}" run "${campaign}" --bench "${BENCH}"
            --max-shards 3 --metrics
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE first_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "first c4sweep run exited with ${rc}")
endif()
if(NOT first_out MATCHES "3 executed")
    message(FATAL_ERROR
        "first run should have executed exactly 3 shards:\n"
        "${first_out}")
endif()

# Watching the interrupted campaign: one tick, exit 1 (incomplete),
# and the dashboard must show the executed shards' snapshots.
execute_process(
    COMMAND "${SWEEP}" status "${campaign}" --watch
            --interval 0 --max-ticks 1
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE watch_out)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "status --watch on an interrupted campaign should exit 1, "
        "got ${rc}:\n${watch_out}")
endif()
if(NOT watch_out MATCHES "retry budget burned")
    message(FATAL_ERROR
        "status --watch rendered no dashboard:\n${watch_out}")
endif()
if(NOT watch_out MATCHES "samp/s")
    message(FATAL_ERROR
        "status --watch shows no per-shard metric highlights even "
        "though the run passed --metrics:\n${watch_out}")
endif()

# Plain `status` is one frame of the same dashboard, with the same
# exit code.
execute_process(
    COMMAND "${SWEEP}" status "${campaign}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE status_out)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "status on an interrupted campaign should exit 1, got "
        "${rc}:\n${status_out}")
endif()
if(NOT status_out MATCHES "retry budget burned")
    message(FATAL_ERROR
        "status did not render the dashboard:\n${status_out}")
endif()

# Pacing options only pace --watch; without it they are a usage error.
foreach(pacing IN ITEMS "--interval;5" "--max-ticks;3")
    execute_process(
        COMMAND "${SWEEP}" status "${campaign}" ${pacing}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "status ${pacing} without --watch should exit 2, got ${rc}")
    endif()
endforeach()

# Resume: completes the campaign, re-executing nothing.
execute_process(
    COMMAND "${SWEEP}" run "${campaign}" --bench "${BENCH}"
            --metrics
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE second_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed c4sweep run exited with ${rc}")
endif()
if(NOT second_out MATCHES "3 skipped")
    message(FATAL_ERROR
        "resumed run re-executed already-done shards:\n${second_out}")
endif()

# Watching the finished campaign: exits 0 on the first tick and says
# so.
execute_process(
    COMMAND "${SWEEP}" status "${campaign}" --watch
            --interval 0 --max-ticks 1
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE watch_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "status --watch on a finished campaign should exit 0, got "
        "${rc}:\n${watch_out}")
endif()
if(NOT watch_out MATCHES "campaign complete")
    message(FATAL_ERROR
        "status --watch did not report completion:\n${watch_out}")
endif()

execute_process(
    COMMAND "${SWEEP}" status "${campaign}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "c4sweep status reports an incomplete campaign (${rc})")
endif()

execute_process(
    COMMAND "${SWEEP}" merge "${campaign}" --csv "${merged}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "c4sweep merge exited with ${rc}")
endif()

# The single-process reference: same scenarios, same order, one
# worker thread.
execute_process(
    COMMAND "${BENCH}" fig9_dualport fig11_cnp --spec "${SPEC}"
            --smoke --trials 4 --threads 1 --csv "${reference}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "reference c4bench run exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${merged}"
            "${reference}"
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    execute_process(COMMAND diff -u "${reference}" "${merged}")
    message(FATAL_ERROR
        "merged campaign CSV differs from the single-process "
        "--threads 1 run — the shard/merge pipeline broke the "
        "determinism guarantee")
endif()
