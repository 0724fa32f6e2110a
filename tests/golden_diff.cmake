# Runs a bench with fixed arguments and fails unless its stdout is
# byte-identical to a checked-in golden — the same diff the CI smoke jobs
# make, available to a plain `ctest` run. Invoked as a ctest:
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DWORK_DIR=<dir> "-DARGS=--jobs 8" -P golden_diff.cmake
# ARGS is one space-separated string of bench arguments.
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DBENCH=<binary> -DGOLDEN=<file> -DWORK_DIR=<dir> [-DARGS=<list>] -P golden_diff.cmake")
endif()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
get_filename_component(bench_name "${BENCH}" NAME)
# Named after the golden: one binary may back several goldens (cxl_lab).
get_filename_component(golden_name "${GOLDEN}" NAME_WE)
set(out "${WORK_DIR}/${golden_name}_golden_diff.txt")

execute_process(COMMAND "${BENCH}" ${bench_args}
                OUTPUT_FILE "${out}"
                ERROR_VARIABLE stderr_out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${bench_name} ${ARGS} exited ${rc}: ${stderr_out}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${out}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "${bench_name} ${ARGS} stdout differs from the golden "
          "(diff -u ${GOLDEN} ${out})")
endif()
message(STATUS "${bench_name}: stdout matches ${GOLDEN}")
