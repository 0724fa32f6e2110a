# Runs a binary with malformed arguments and fails unless every run exits 2
# with nothing on stdout, a first stderr line that names the bad argument,
# and no file left behind (each run starts in an empty directory). Invoked
# as a ctest:
#   cmake -DBIN=<binary> [-DREJECT_JOBS=ON] [-DREJECT_FAULTS=ON] [-DREJECT_TIERING=ON]
#         -P bad_flags.cmake
#       the shared bench::Context cases: a misspelled flag, a malformed
#       --jobs and --events-ring value, a trailing --trace-out, an empty
#       --metrics-out and a stray positional; with REJECT_JOBS, `--jobs 2`
#       too, with REJECT_FAULTS `--faults storm` and with REJECT_TIERING
#       `--tiering-policy tpp-like`, for a binary that does not declare
#       that flag group;
#   cmake -DBIN=<binary> "-DARGS=3.2x 2.1 2 1.1|--bogus" "-DNAME=3.2x|--bogus"
#         -P bad_flags.cmake
#       the given cases: ARGS holds one space-separated argument string per
#       case and NAME the text each case's first stderr line must contain,
#       both separated by '|'.
if(NOT DEFINED BIN)
  message(FATAL_ERROR
          "usage: cmake -DBIN=<binary> [-DARGS=<args>|... -DNAME=<text>|...] -P bad_flags.cmake")
endif()

if(DEFINED ARGS)
  string(REPLACE "|" ";" cases "${ARGS}")
  string(REPLACE "|" ";" names "${NAME}")
else()
  set(cases "--fault-sed 7" "--jobs=abc" "--events-ring x" "--trace-out" "--metrics-out="
            "extra")
  set(names "--fault-sed" "--jobs" "--events-ring" "--trace-out" "--metrics-out" "extra")
  if(REJECT_JOBS)
    list(APPEND cases "--jobs 2")
    list(APPEND names "--jobs")
  endif()
  if(REJECT_FAULTS)
    list(APPEND cases "--faults storm")
    list(APPEND names "--faults")
  endif()
  if(REJECT_TIERING)
    list(APPEND cases "--tiering-policy tpp-like")
    list(APPEND names "--tiering-policy")
  endif()
endif()

get_filename_component(bin_name "${BIN}" NAME)
list(LENGTH cases count)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  list(GET cases ${i} case)
  list(GET names ${i} name)
  separate_arguments(case_args UNIX_COMMAND "${case}")
  string(MD5 case_id "${bin_name} ${case}")
  set(work_dir "${CMAKE_CURRENT_BINARY_DIR}/bad_flags_${case_id}")
  file(REMOVE_RECURSE "${work_dir}")
  file(MAKE_DIRECTORY "${work_dir}")
  execute_process(COMMAND "${BIN}" ${case_args}
                  WORKING_DIRECTORY "${work_dir}"
                  OUTPUT_VARIABLE stdout_text
                  ERROR_VARIABLE stderr_text
                  RESULT_VARIABLE rc)
  file(GLOB left_behind "${work_dir}/*")
  file(REMOVE_RECURSE "${work_dir}")
  string(REGEX REPLACE "\n.*" "" first_line "${stderr_text}")
  string(FIND "${first_line}" "${name}" at)
  if(NOT rc EQUAL 2 OR NOT stdout_text STREQUAL "" OR at EQUAL -1 OR left_behind)
    string(LENGTH "${stdout_text}" stdout_bytes)
    message(FATAL_ERROR
            "${bin_name} ${case}: want exit 2, empty stdout, '${name}' on the first "
            "stderr line and no file written; got exit ${rc}, ${stdout_bytes} bytes of "
            "stdout, first stderr line '${first_line}', files '${left_behind}'")
  endif()
  message(STATUS "${bin_name} ${case}: ${first_line}")
endforeach()
