# Checkpoint/resume end-to-end test (ctest -R ckpt_resume): drives the real
# routenet CLI through a kill-and-resume cycle and proves the resumed model
# is byte-for-byte identical to an uninterrupted reference run — at 1 and 4
# threads — plus the CRC-fallback path when the newest checkpoint is
# corrupted. Invoked with -DRN_CLI=<binary> -DWORK_DIR=<dir>.

if(NOT DEFINED RN_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRN_CLI=... -DWORK_DIR=... -P ckpt_resume.cmake")
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

function(expect_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/${a}" "${WORK_DIR}/${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

run_step("${RN_CLI}" make-topology --kind ring --nodes 6 --out net.topo)
run_step("${RN_CLI}" dataset gen --topology net.topo --count 6
         --pkts-per-flow 30 --seed 5 --out mini.rnds)

# 6 samples / batch 2 = 3 batches per epoch; 3 epochs = 9 batches total.
# The crash run checkpoints at batches 2 and 4, then dies cold at batch 5
# (--max-batches simulates a kill: no checkpoint, no model written).
foreach(t 1 4)
  run_step("${RN_CLI}" train --dataset mini.rnds --epochs 3 --batch 2 --dim 8
           --iterations 2 --threads ${t} --out ref${t}.model)

  run_step("${RN_CLI}" train --dataset mini.rnds --epochs 3 --batch 2 --dim 8
           --iterations 2 --threads ${t} --out crash${t}.model
           --ckpt-state run${t}.ckpt --ckpt-every 2 --max-batches 5)
  if(EXISTS "${WORK_DIR}/crash${t}.model")
    message(FATAL_ERROR "interrupted run published crash${t}.model")
  endif()
  if(NOT EXISTS "${WORK_DIR}/run${t}.ckpt.000002")
    message(FATAL_ERROR "crash run left no run${t}.ckpt.000002 checkpoint")
  endif()

  run_step("${RN_CLI}" train --dataset mini.rnds --epochs 3 --batch 2 --dim 8
           --iterations 2 --threads ${t} --out resumed${t}.model
           --ckpt-state run${t}.ckpt --resume run${t}.ckpt
           --metrics-out resume${t}.jsonl)
  expect_identical(ref${t}.model resumed${t}.model
                   "kill-and-resume at ${t} thread(s)")

  # The resume run must report its telemetry: a ckpt.resume event for the
  # restart and ckpt.save events for its own rotation.
  file(READ "${WORK_DIR}/resume${t}.jsonl" resume_log)
  foreach(needle "\"kind\":\"ckpt.resume\"" "\"kind\":\"ckpt.save\"")
    string(FIND "${resume_log}" "${needle}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "resume${t}.jsonl is missing ${needle}")
    endif()
  endforeach()
  run_step("${RN_CLI}" obs summarize resume${t}.jsonl)
endforeach()

# Thread invariance: the kernels are bitwise deterministic at any pool
# width, so the two reference models must match byte for byte.
expect_identical(ref1.model ref4.model "thread invariance")

# CRC fallback: corrupt the newest checkpoint of a fresh crash run and
# resume — the loader must skip it, restart from the older file, and still
# land on the reference bit pattern.
run_step("${RN_CLI}" train --dataset mini.rnds --epochs 3 --batch 2 --dim 8
         --iterations 2 --threads 1 --out crash_c.model
         --ckpt-state run_c.ckpt --ckpt-every 2 --max-batches 5)
file(APPEND "${WORK_DIR}/run_c.ckpt.000002" "torn-write garbage")
run_step("${RN_CLI}" train --dataset mini.rnds --epochs 3 --batch 2 --dim 8
         --iterations 2 --threads 1 --out resumed_c.model
         --ckpt-state run_c.ckpt --resume run_c.ckpt
         --metrics-out resume_c.jsonl)
expect_identical(ref1.model resumed_c.model "resume after corrupt newest")
file(READ "${WORK_DIR}/resume_c.jsonl" fallback_log)
string(FIND "${fallback_log}" "\"fallbacks\":1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "resume_c.jsonl did not record the CRC fallback")
endif()

message(STATUS "ckpt resume OK")
