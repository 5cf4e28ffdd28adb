# Tracing smoke test (ctest -R trace_smoke): drives the real routenet CLI
# with --trace-out through generation and a short training run, asserts the
# exported Chrome trace files carry the expected span hierarchy, and checks
# `routenet obs trace` both summarizes them (rc 0) and rejects garbage
# (rc 1, one-line error). Invoked with -DRN_CLI=<binary> -DWORK_DIR=<dir>.

if(NOT DEFINED RN_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRN_CLI=... -DWORK_DIR=... -P trace_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

function(expect_spans file)
  file(READ "${WORK_DIR}/${file}" trace_json)
  string(FIND "${trace_json}" "\"displayTimeUnit\":\"ms\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${file} is not a Chrome trace file")
  endif()
  foreach(needle IN LISTS ARGN)
    string(FIND "${trace_json}" "\"name\":\"${needle}\"" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "${file} is missing the ${needle} span")
    endif()
  endforeach()
endfunction()

run_step("${RN_CLI}" make-topology --kind ring --nodes 6 --out net.topo)

# Dataset generation: parallel_for chunks must nest under generate_many even
# on the 1-thread inline path (the CI container is single-core).
run_step("${RN_CLI}" dataset gen --topology net.topo --count 4
         --pkts-per-flow 30 --seed 5 --out mini.rnds --trace-out gen.trace.json)
expect_spans(gen.trace.json
             dataset.generate_many par.chunk dataset.sample sim.run)

# Training: epoch -> batch -> forward/backward/optimizer hierarchy.
run_step("${RN_CLI}" train --dataset mini.rnds --epochs 2 --batch 2 --dim 8
         --iterations 2 --out mini.model --trace-out train.trace.json)
expect_spans(train.trace.json
             trainer.fit trainer.epoch trainer.batch trainer.forward
             routenet.forward routenet.mp ag.backward ag.adam_step)

# Span filtering: the same training run with a high min-duration threshold
# must export a strictly smaller trace, and `obs trace` must disclose the
# suppressed spans so the filtered file stays honest.
run_step("${RN_CLI}" train --dataset mini.rnds --epochs 2 --batch 2 --dim 8
         --iterations 2 --out mini2.model
         --trace-out filtered.trace.json --trace-min-us 500)
file(SIZE "${WORK_DIR}/train.trace.json" full_size)
file(SIZE "${WORK_DIR}/filtered.trace.json" filtered_size)
if(NOT filtered_size LESS full_size)
  message(FATAL_ERROR "--trace-min-us did not shrink the trace: "
          "filtered ${filtered_size} >= unfiltered ${full_size}")
endif()
file(READ "${WORK_DIR}/filtered.trace.json" filtered_json)
string(REGEX MATCH "\"rnSampledOut\":[1-9]" sampled_match "${filtered_json}")
if(sampled_match STREQUAL "")
  message(FATAL_ERROR "filtered trace does not count its suppressed spans")
endif()
execute_process(COMMAND "${RN_CLI}" obs trace filtered.trace.json
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE filtered_summary
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "obs trace on the filtered trace failed (${rc}): ${err}")
endif()
string(FIND "${filtered_summary}" "sampled out" found)
if(found EQUAL -1)
  message(FATAL_ERROR "obs trace does not report the sampled-out count:\n${filtered_summary}")
endif()

# The summarizer accepts both real traces...
run_step("${RN_CLI}" obs trace gen.trace.json)
run_step("${RN_CLI}" obs trace train.trace.json 5)

# ...and rejects garbage with a one-line error and rc 1.
file(WRITE "${WORK_DIR}/garbage.json" "not a trace")
execute_process(COMMAND "${RN_CLI}" obs trace garbage.json
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "obs trace on garbage returned ${rc}, expected 1")
endif()
string(FIND "${err}" "error:" found)
if(found EQUAL -1)
  message(FATAL_ERROR "obs trace on garbage printed no error line: ${err}")
endif()

message(STATUS "trace smoke OK")
