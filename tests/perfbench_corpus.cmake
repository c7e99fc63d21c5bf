# Runs every perfbench program through the repl on the native and the
# executor backend, and compares what it prints with the program's
# committed .expected file. Each run has its own timeout, so a hang fails
# one case instead of the whole ctest run. The programs are read in place;
# nothing under perfbench/ is written.
#
#   cmake -DREPL=<repl binary> -DPROGRAMS=<perfbench/programs> \
#         -P perfbench_corpus.cmake

if(NOT REPL OR NOT PROGRAMS)
  message(FATAL_ERROR "usage: cmake -DREPL=... -DPROGRAMS=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(GLOB Programs "${PROGRAMS}/*.js")
list(LENGTH Programs NumPrograms)
if(NumPrograms EQUAL 0)
  message(FATAL_ERROR "no programs under ${PROGRAMS}")
endif()

set(Failures "")
foreach(Backend native executor)
  foreach(Program ${Programs})
    get_filename_component(Name "${Program}" NAME_WE)
    file(READ "${PROGRAMS}/${Name}.expected" Want)
    execute_process(
      COMMAND "${REPL}" --no-stats --${Backend} "${Program}"
      OUTPUT_VARIABLE Out
      ERROR_VARIABLE Err
      RESULT_VARIABLE Rc
      TIMEOUT 120)
    if(NOT Rc STREQUAL "0")
      list(APPEND Failures "${Name} --${Backend}: exit '${Rc}' ${Err}")
    elseif(NOT Out STREQUAL Want)
      list(APPEND Failures "${Name} --${Backend}: printed '${Out}', expected '${Want}'")
    else()
      message(STATUS "ok   ${Name} --${Backend}")
    endif()
  endforeach()
endforeach()

if(Failures)
  list(JOIN Failures "\n  " Report)
  message(FATAL_ERROR "perfbench corpus failures:\n  ${Report}")
endif()
message(STATUS "all ${NumPrograms} programs match on both backends")
