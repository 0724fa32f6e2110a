# Runs `<binary> --help` and fails unless it exits 0, prints the usage the
# flag parser generates (src/util/flags.h) on stdout and writes nothing to
# stderr. Invoked as a ctest: cmake -DBIN=<binary> -P help_flag.cmake
if(NOT DEFINED BIN)
  message(FATAL_ERROR "usage: cmake -DBIN=<binary> -P help_flag.cmake")
endif()
get_filename_component(bin_name "${BIN}" NAME)
execute_process(COMMAND "${BIN}" --help
                OUTPUT_VARIABLE stdout_text
                ERROR_VARIABLE stderr_text
                RESULT_VARIABLE rc)
string(FIND "${stdout_text}" "usage: ${bin_name} [flags]" at)
string(FIND "${stdout_text}" "\n  --help, -h " help_row)
if(NOT rc EQUAL 0 OR NOT at EQUAL 0 OR help_row EQUAL -1 OR NOT stderr_text STREQUAL "")
  message(FATAL_ERROR
          "${bin_name} --help: want exit 0, the generated usage on stdout and an empty "
          "stderr; got exit ${rc}, stdout '${stdout_text}', stderr '${stderr_text}'")
endif()
