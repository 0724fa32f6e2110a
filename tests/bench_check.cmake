# Runs one step of a row of the bench-check table (tests/CMakeLists.txt) and
# fails unless every check of that step holds. Invoked as a ctest:
#   cmake -DSTEP=golden|jobs_invariance|report_check -DBIN=<binary> -DROW=<row>
#         -DGOLDEN=<file> -DWORK_DIR=<dir> ["-DARGS=--fault-seed 7"]
#         [-DCONTEXT=ON [-DNO_JOBS=ON]] [-DCXL_REPORT=<cxl_report>]
#         [-DREPORT_GOLDEN=<file.md>] -P bench_check.cmake
# ARGS is one space-separated string of arguments. Files go to
# WORK_DIR/<row>_*; a later step reads what an earlier one wrote (the ctests
# are chained by fixtures).
#
# golden: BIN ARGS must exit 0 and print GOLDEN. A binary that parses
#   bench::Context flags (CONTEXT) runs with --jobs 1 --events-out e1.
# jobs_invariance (CONTEXT only): every telemetry output on,
#   BIN ARGS --jobs 8 --events-out e8 --metrics-out m --trace-out t --bench-json b
#   must print GOLDEN too, e1 must equal e8 byte for byte, m, t and b must
#   parse as JSON, and `cxl_report --events e8 --metrics m --check` must
#   exit 0.
# report_check: the diagnosis `cxl_report --events e8 --metrics m --check`
#   writes must equal REPORT_GOLDEN.
# A Context binary that does not declare the jobs flag group (NO_JOBS) runs
# both steps without --jobs 1 and --jobs 8.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT DEFINED STEP OR NOT DEFINED BIN OR NOT DEFINED ROW OR NOT DEFINED GOLDEN
   OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DSTEP=golden|jobs_invariance|report_check -DBIN=<binary> "
          "-DROW=<row> -DGOLDEN=<file> -DWORK_DIR=<dir> [-DARGS=<args>] "
          "[-DCONTEXT=ON [-DNO_JOBS=ON]] [-DCXL_REPORT=<cxl_report>] "
          "[-DREPORT_GOLDEN=<file.md>] -P bench_check.cmake")
endif()

set(jobs1 --jobs 1)
set(jobs8 --jobs 8)
if(NO_JOBS)
  set(jobs1 "")
  set(jobs8 "")
endif()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
get_filename_component(bin_name "${BIN}" NAME)
string(STRIP "${bin_name} ${ARGS}" run)
set(out "${WORK_DIR}/${ROW}")

# Runs BIN with ARGS plus the given flags; fails unless it exits 0 and its
# stdout (kept in <out>_<tag>.txt) equals GOLDEN.
function(run_against_golden tag)
  list(JOIN ARGN " " flags)
  execute_process(COMMAND "${BIN}" ${bench_args} ${ARGN}
                  OUTPUT_FILE "${out}_${tag}.txt"
                  ERROR_VARIABLE stderr_text
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} ${flags} exited ${rc}: ${stderr_text}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${out}_${tag}.txt"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${run} ${flags}: stdout differs from the golden "
            "(diff -u ${GOLDEN} ${out}_${tag}.txt)")
  endif()
endfunction()

# Runs cxl_report --check on the --jobs 8 run's log and metrics, with any
# extra flags; fails unless it exits 0. No --bench-json: it adds a
# host-timing line to the report.
function(run_report_check)
  execute_process(COMMAND "${CXL_REPORT}" --events "${out}_events.jsonl"
                          --metrics "${out}_metrics.json" --check ${ARGN}
                  OUTPUT_VARIABLE report_out
                  ERROR_VARIABLE report_err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "cxl_report --check rejects the log of ${run} --jobs 8 (exit ${rc}): "
            "${report_out}${report_err}")
  endif()
endfunction()

if(STEP STREQUAL "golden")
  if(CONTEXT)
    run_against_golden(j1 ${jobs1} --events-out "${out}_events_j1.jsonl")
  else()
    run_against_golden(stdout)
  endif()
  message(STATUS "${run}: stdout matches ${GOLDEN}")

elseif(STEP STREQUAL "jobs_invariance")
  run_against_golden(j8 ${jobs8} --events-out "${out}_events.jsonl"
                     --metrics-out "${out}_metrics.json" --trace-out "${out}_trace.json"
                     --bench-json "${out}_bench.json")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${out}_events_j1.jsonl" "${out}_events.jsonl"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${run}: event log differs between --jobs 1 and --jobs 8 "
            "(diff ${out}_events_j1.jsonl ${out}_events.jsonl)")
  endif()
  foreach(json metrics trace bench)
    file(READ "${out}_${json}.json" text)
    string(JSON root_type ERROR_VARIABLE json_error TYPE "${text}")
    if(json_error)
      message(FATAL_ERROR "${run}: ${out}_${json}.json is not JSON: ${json_error}")
    endif()
  endforeach()
  run_report_check()
  list(JOIN jobs8 " " at)
  message(STATUS "${run}: stdout matches ${GOLDEN} ${at} with telemetry on, event log "
                 "matches the golden step's, telemetry parses, cxl_report --check passes")

elseif(STEP STREQUAL "report_check")
  run_report_check(--out "${out}_report.md")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${REPORT_GOLDEN}" "${out}_report.md"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${run}: diagnosis differs from the golden "
            "(diff -u ${REPORT_GOLDEN} ${out}_report.md)")
  endif()
  message(STATUS "${run}: diagnosis matches ${REPORT_GOLDEN}")

else()
  message(FATAL_ERROR "unknown STEP '${STEP}' (golden, jobs_invariance or report_check)")
endif()
