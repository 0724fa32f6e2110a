# Fails when a src/ library defines a function that no shipped binary (a
# bench, an example or a tool) links and that tests/unreached_allowlist.txt
# does not name: code that only tests reach. The tree compiles with
# -ffunction-sections and links with --gc-sections (root CMakeLists.txt), so
# a binary keeps exactly the functions it can reach. Invoked as a ctest:
#   cmake -DNM=<nm> "-DLIBS=<archive>|..." "-DBINS=<binary>|..."
#         -DALLOWLIST=<file> -P unreached_gate.cmake
# Functions compare by demangled name with GCC's " [clone ...]" suffixes
# dropped, so a function counts as linked when any clone of it is. Only
# names in namespace cxl count: an archive's other text symbols are the
# compiler's local copies of standard-library templates. An allowlist entry
# that names no unlinked function is printed but does not fail: a build
# that inlines less (Debug, sanitizers) links more.
foreach(var NM LIBS BINS ALLOWLIST)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DNM=<nm> \"-DLIBS=<archive>|...\" "
                        "\"-DBINS=<binary>|...\" -DALLOWLIST=<file> -P unreached_gate.cmake")
  endif()
endforeach()

# Sets `out` to the sorted, unique demangled names of the namespace-cxl
# functions (text symbols, global or local) that `files` define.
function(defined_functions out files)
  execute_process(
    COMMAND "${NM}" --demangle --defined-only ${files}
    COMMAND grep -E "^[0-9a-f]+ [Tt] cxl::"
    COMMAND cut -d " " -f 3-
    COMMAND sed -E "s/ \\[clone [^]]*\\]//g"
    COMMAND sort -u
    OUTPUT_VARIABLE names
    ERROR_VARIABLE errors
    RESULTS_VARIABLE rcs)
  list(GET rcs 0 nm_rc)
  if(NOT nm_rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${files}: ${errors}")
  endif()
  string(STRIP "${names}" names)
  string(REPLACE "\n" ";" names "${names}")
  set(${out} "${names}" PARENT_SCOPE)
endfunction()

string(REPLACE "|" ";" bins "${BINS}")
defined_functions(linked "${bins}")

# Allowlist lines: "<demangled name> # <reason>"; blank lines and lines
# starting with '#' are comments.
set(allowed "")
file(STRINGS "${ALLOWLIST}" lines)
foreach(line IN LISTS lines)
  if(line STREQUAL "" OR line MATCHES "^#")
    continue()
  endif()
  string(FIND "${line}" " # " at)
  if(at LESS 1)
    message(FATAL_ERROR "${ALLOWLIST}: '${line}' gives no reason ('<name> # <reason>')")
  endif()
  string(SUBSTRING "${line}" 0 ${at} name)
  list(APPEND allowed "${name}")
endforeach()

set(failures "")
set(matched "")
string(REPLACE "|" ";" libs "${LIBS}")
foreach(lib IN LISTS libs)
  defined_functions(unlinked "${lib}")
  list(REMOVE_ITEM unlinked ${linked})
  get_filename_component(lib_name "${lib}" NAME)
  foreach(name IN LISTS unlinked)
    list(FIND allowed "${name}" index)
    if(index EQUAL -1)
      string(APPEND failures "\n  ${lib_name}: ${name}")
    else()
      list(APPEND matched "${name}")
    endif()
  endforeach()
endforeach()

foreach(name IN LISTS allowed)
  list(FIND matched "${name}" index)
  if(index EQUAL -1)
    message(STATUS "stale allowlist entry (a shipped binary links it in this build): ${name}")
  endif()
endforeach()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR
          "src/ functions that no shipped binary links:${failures}\n"
          "Delete each one, or move it into the test that calls it. A function that "
          "every caller inlines goes in ${ALLOWLIST} as '<name> # inlined into <caller>'.")
endif()
list(LENGTH matched allowlisted)
message(STATUS "every src/ function is linked by a shipped binary "
               "(${allowlisted} allowlisted)")
