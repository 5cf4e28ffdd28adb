# Kernel-bench smoke test (ctest -R kernels_smoke): runs bench/matmul_kernels
# twice at the seconds-scale "smoke" tier with RN_BENCH_ENFORCE=1 — so the
# blocked-vs-naive guard, the avx2-vs-scalar bitwise check, and (where avx2
# exists) the >=1.5x speedup gates on nn, tn and nt are all load-bearing —
# then drives
# `routenet obs diff` over the resulting BENCH_kernels.json reports: rc 0 on
# an identical pair, rc 1 on a doctored copy with cratered GFLOP/s, rc <= 1
# run-to-run (timing jitter may legitimately gate). Invoked with
# -DRN_CLI=<routenet> -DBENCH_BIN=<matmul_kernels> -DWORK_DIR=<dir>.

if(NOT DEFINED RN_CLI OR NOT DEFINED BENCH_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DRN_CLI=... -DBENCH_BIN=... -DWORK_DIR=... -P kernels_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{RN_BENCH_SCALE} "smoke")
set(ENV{RN_BENCH_CACHE} "${WORK_DIR}/cache")
set(ENV{RN_BENCH_ENFORCE} "1")

function(run_bench)
  execute_process(COMMAND "${BENCH_BIN}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "matmul_kernels failed under enforcement (${rc}):\n${out}\n${err}")
  endif()
endfunction()

function(run_diff expected_rc)
  execute_process(COMMAND "${RN_CLI}" obs diff ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
            "obs diff ${ARGN} returned ${rc}, expected ${expected_rc}\n${out}\n${err}")
  endif()
  set(diff_out "${out}" PARENT_SCOPE)
endfunction()

set(report "${WORK_DIR}/cache/BENCH_kernels.json")

run_bench()
if(NOT EXISTS "${report}")
  message(FATAL_ERROR "bench did not write ${report}")
endif()
configure_file("${report}" "${WORK_DIR}/run_a.json" COPYONLY)

# The report must carry the backend comparison the gate reads: per-shape
# GFLOP/s for the scalar anchor, the fused-GRU section with its bitwise
# verdict, and the telemetry snapshot.
file(READ "${WORK_DIR}/run_a.json" report_json)
foreach(needle
        "\"scalar_nn_gflops\":" "\"matmul_shapes\":" "\"index_ops\":"
        "\"gru_step\":" "\"bitwise_identical\":true" "\"telemetry\":")
  string(FIND "${report_json}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "BENCH_kernels.json is missing ${needle}")
  endif()
endforeach()

run_bench()
configure_file("${report}" "${WORK_DIR}/run_b.json" COPYONLY)

# Identical reports pass the gate.
configure_file("${WORK_DIR}/run_a.json" "${WORK_DIR}/run_a_copy.json" COPYONLY)
run_diff(0 run_a.json run_a_copy.json)
string(FIND "${diff_out}" "0 regression(s)" found)
if(found EQUAL -1)
  message(FATAL_ERROR "identical diff did not report 0 regressions:\n${diff_out}")
endif()

# Run-to-run: schema must stay comparable; jitter may gate, so only the
# exit-code class is asserted.
execute_process(COMMAND "${RN_CLI}" obs diff run_a.json run_b.json
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc GREATER 1)
  message(FATAL_ERROR "run-to-run diff errored (${rc}):\n${out}\n${err}")
endif()
string(REGEX MATCH "[1-9][0-9]* metrics compared" compared_match "${out}")
if(compared_match STREQUAL "")
  message(FATAL_ERROR "run-to-run diff compared no metrics:\n${out}")
endif()

# A doctored candidate whose scalar nn GFLOP/s cratered fails the gate
# (gflops keys are higher-is-better).
file(READ "${WORK_DIR}/run_b.json" doctored)
string(REGEX REPLACE "\"scalar_nn_gflops\":[0-9.eE+-]+"
       "\"scalar_nn_gflops\":0.0001" doctored "${doctored}")
string(FIND "${doctored}" "\"scalar_nn_gflops\":0.0001" found)
if(found EQUAL -1)
  message(FATAL_ERROR "failed to doctor scalar_nn_gflops in run_b.json")
endif()
file(WRITE "${WORK_DIR}/doctored.json" "${doctored}")
run_diff(1 run_a.json doctored.json)
string(FIND "${diff_out}" "REGRESSION" found)
if(found EQUAL -1)
  message(FATAL_ERROR "doctored diff did not flag a REGRESSION:\n${diff_out}")
endif()

# Bad usage stays distinguishable from a failed gate.
run_diff(2 run_a.json)

message(STATUS "kernels smoke OK")
