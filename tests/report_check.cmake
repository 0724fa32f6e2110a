# Runs a bench with --events-out/--metrics-out, then `cxl_report --check`
# over the two files (every degradation response attributed to a window the
# log opened, counters reconciled with the metrics), and, when GOLDEN is
# given, diffs the markdown report against it. Invoked as a ctest:
#   cmake -DBENCH=<binary> -DREPORT=<cxl_report> -DWORK_DIR=<dir>
#         ["-DARGS=--fault-seed 7"] [-DGOLDEN=<file>] -P report_check.cmake
# ARGS is one space-separated string of bench arguments.
if(NOT DEFINED BENCH OR NOT DEFINED REPORT OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DBENCH=<binary> -DREPORT=<cxl_report> -DWORK_DIR=<dir> "
          "[-DARGS=<list>] [-DGOLDEN=<file>] -P report_check.cmake")
endif()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
get_filename_component(bench_name "${BENCH}" NAME)
set(events "${WORK_DIR}/${bench_name}_report_events.jsonl")
set(metrics "${WORK_DIR}/${bench_name}_report_metrics.json")
set(report "${WORK_DIR}/${bench_name}_report.md")

execute_process(COMMAND "${BENCH}" ${bench_args} --events-out "${events}"
                        --metrics-out "${metrics}"
                OUTPUT_QUIET
                ERROR_VARIABLE stderr_out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${bench_name} ${ARGS} exited ${rc}: ${stderr_out}")
endif()

execute_process(COMMAND "${REPORT}" --events "${events}" --metrics "${metrics}" --check
                        --out "${report}"
                OUTPUT_VARIABLE report_out
                ERROR_VARIABLE report_err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "cxl_report --check rejects the log of ${bench_name} ${ARGS} (exit ${rc}): "
          "${report_out}${report_err}")
endif()

if(DEFINED GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${report}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${bench_name} ${ARGS} diagnosis differs from the golden "
            "(diff -u ${GOLDEN} ${report})")
  endif()
  message(STATUS "${bench_name}: diagnosis passes --check and matches ${GOLDEN}")
else()
  message(STATUS "${bench_name}: diagnosis passes --check")
endif()
