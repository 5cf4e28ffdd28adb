# Bench-cache smoke test (ctest -R bench_cache_smoke): a partly filled
# bench cache must regenerate exactly the files a cold run writes. Runs one
# report bench cold at the seconds-scale "smoke" tier, copies its cache,
# deletes the 50-node eval set (the eval sets before and after it stay
# cached) plus the trained model and the 50-node train set (the NSFNET
# train set stays cached), reruns the bench on that cache, and byte-compares
# every regenerated file with the cold run's. Each set sits at a fixed
# sample offset of its generator, so which sets were cached cannot move it.
# Invoked with -DBENCH_BIN=<fig2_regression> -DWORK_DIR=<dir>.

if(NOT DEFINED BENCH_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DBENCH_BIN=... -DWORK_DIR=... -P bench_cache_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{RN_BENCH_SCALE} "smoke")

function(run_bench cache)
  set(ENV{RN_BENCH_CACHE} "${cache}")
  execute_process(COMMAND "${BENCH_BIN}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench run failed (${rc}):\n${out}\n${err}")
  endif()
endfunction()

set(cold "${WORK_DIR}/cold")
set(warm "${WORK_DIR}/warm")
run_bench("${cold}")

set(regenerated eval_syn50_smoke.rnds train_syn50_smoke.rnds
    routenet_smoke.model)
foreach(name ${regenerated} eval_nsfnet_smoke.rnds eval_geant2_smoke.rnds
        train_nsfnet_smoke.rnds)
  if(NOT EXISTS "${cold}/${name}")
    message(FATAL_ERROR "cold run did not write ${name}")
  endif()
endforeach()

file(COPY "${cold}/" DESTINATION "${warm}")
foreach(name ${regenerated})
  file(REMOVE "${warm}/${name}")
endforeach()
run_bench("${warm}")

foreach(name ${regenerated})
  if(NOT EXISTS "${warm}/${name}")
    message(FATAL_ERROR "rerun did not regenerate ${name}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${cold}/${name}" "${warm}/${name}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${name} regenerated on a partly filled cache differs from the "
            "cold run's")
  endif()
endforeach()

message(STATUS "bench cache smoke OK")
