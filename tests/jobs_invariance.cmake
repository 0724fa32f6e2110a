# Runs a bench at --jobs 1 and --jobs 8 and fails unless stdout is
# byte-identical — the determinism contract every bench must honour.
# Invoked as a ctest:
#   cmake -DBENCH=<binary> -DWORK_DIR=<dir> ["-DARGS=--fault-seed 7"] -P jobs_invariance.cmake
# ARGS (optional) is one space-separated string of bench arguments, passed
# to both runs after --jobs.
if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DBENCH=<binary> -DWORK_DIR=<dir> [-DARGS=<list>] -P jobs_invariance.cmake")
endif()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")

get_filename_component(bench_name "${BENCH}" NAME)
set(out_j1 "${WORK_DIR}/${bench_name}_jobs1.txt")
set(out_j8 "${WORK_DIR}/${bench_name}_jobs8.txt")

execute_process(COMMAND "${BENCH}" --jobs 1 ${bench_args}
                OUTPUT_FILE "${out_j1}"
                ERROR_VARIABLE stderr_j1
                RESULT_VARIABLE rc_j1)
if(NOT rc_j1 EQUAL 0)
  message(FATAL_ERROR "${bench_name} --jobs 1 ${ARGS} exited ${rc_j1}: ${stderr_j1}")
endif()

execute_process(COMMAND "${BENCH}" --jobs 8 ${bench_args}
                OUTPUT_FILE "${out_j8}"
                ERROR_VARIABLE stderr_j8
                RESULT_VARIABLE rc_j8)
if(NOT rc_j8 EQUAL 0)
  message(FATAL_ERROR "${bench_name} --jobs 8 ${ARGS} exited ${rc_j8}: ${stderr_j8}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${out_j1}" "${out_j8}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "${bench_name} stdout differs between --jobs 1 and --jobs 8 — "
          "determinism contract broken (diff ${out_j1} ${out_j8})")
endif()
message(STATUS "${bench_name}: stdout byte-identical at --jobs 1 and --jobs 8")
