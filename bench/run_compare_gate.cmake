# Baseline identity gate step (cmake -P): run one bench at smoke
# scale into ARTIFACT_DIR, then diff the fresh artifact against the
# committed baseline with bench_compare (DESIGN.md §14).
#
# Required -D variables:
#   BENCH_EXE    - the bench binary to run
#   COMPARE_EXE  - the bench_compare binary
#   BASELINE     - committed baselines/BENCH_<name>.json
#   ARTIFACT     - where the fresh BENCH_<name>.json lands
#   ARTIFACT_DIR - directory the bench writes artifacts into

foreach(var BENCH_EXE COMPARE_EXE BASELINE ARTIFACT ARTIFACT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_compare_gate.cmake needs -D${var}=...")
    endif()
endforeach()

# Baselines are produced at smoke scale; pin it so the comparison is
# like-for-like.
set(ENV{CMPMEM_SCALE} 0)
set(ENV{CMPMEM_ARTIFACT_DIR} "${ARTIFACT_DIR}")

execute_process(COMMAND "${BENCH_EXE}" RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "${BENCH_EXE} failed (rc ${bench_rc})")
endif()

execute_process(
    COMMAND "${COMPARE_EXE}" "${BASELINE}" "${ARTIFACT}"
    RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
    message(FATAL_ERROR
            "bench_compare failed (rc ${compare_rc}) for ${ARTIFACT}")
endif()
